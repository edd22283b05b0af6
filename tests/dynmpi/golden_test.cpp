// Golden regression: one fixed end-to-end scenario whose observable outcome
// is pinned.  Any change to the simulator's cost models, the balancer, or
// the redistribution machinery that shifts behaviour shows up here first —
// by design.  If a deliberate model change lands, re-derive the constants
// (they are printed on failure) and update them together with EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "dynmpi/comm_model.hpp"
#include "dynmpi/runtime.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"

namespace dynmpi {
namespace {

TEST(Golden, CanonicalAdaptationScenario) {
    sim::ClusterConfig cc;
    cc.num_nodes = 4;
    cc.seed = 42;
    msg::Machine m(cc);
    m.cluster().add_load_interval(2, 1.0, 6.0, 2);

    std::vector<int> counts;
    int redists = 0, drops = 0;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 128, o);
        rt.register_dense("A", 16, sizeof(double));
        int ph = rt.init_phase(
            0, 128, PhaseComm{CommPattern::NearestNeighbor, 128});
        rt.add_array_access("A", AccessMode::Write, ph, 1, 0);
        rt.add_array_access("A", AccessMode::Read, ph, 1, -1);
        rt.add_array_access("A", AccessMode::Read, ph, 1, +1);
        rt.commit_setup();
        for (int c = 0; c < 120; ++c) {
            rt.begin_cycle();
            if (rt.participating()) {
                std::vector<double> costs(
                    static_cast<std::size_t>(rt.my_iters(ph).count()), 2e-3);
                rt.run_phase(ph, costs);
            }
            rt.end_cycle();
        }
        if (r.id() == 0) {
            counts = rt.distribution().counts();
            redists = rt.stats().redistributions;
            drops = rt.stats().physical_drops;
        }
    });

    // Pinned outcome (derived 2026-07; update deliberately, not casually).
    EXPECT_EQ(redists, 2) << "elapsed=" << m.elapsed_seconds();
    EXPECT_EQ(drops, 0);
    ASSERT_EQ(counts.size(), 4u);
    // After the CP clears, the distribution returns to near-even.
    for (int c : counts) EXPECT_NEAR(c, 32, 2) << m.elapsed_seconds();
    // Total virtual time pinned to the millisecond.
    EXPECT_NEAR(m.elapsed_seconds(), 9.9107, 0.02)
        << "exact: " << m.elapsed_seconds();
}

TEST(Golden, ExactRepeatability) {
    auto once = [] {
        sim::ClusterConfig cc;
        cc.num_nodes = 3;
        cc.seed = 7;
        msg::Machine m(cc);
        m.cluster().add_load_interval(1, 0.5, -1.0);
        m.run([&](msg::Rank& r) {
            RuntimeOptions o;
            o.calibrate = false;
            Runtime rt(r, 48, o);
            rt.register_dense("A", 4, sizeof(double));
            int ph = rt.init_phase(0, 48, PhaseComm{CommPattern::None, 0});
            rt.add_array_access("A", AccessMode::Write, ph);
            rt.commit_setup();
            for (int c = 0; c < 60; ++c) {
                rt.begin_cycle();
                if (rt.participating())
                    rt.run_phase(ph,
                                 std::vector<double>(
                                     static_cast<std::size_t>(
                                         rt.my_iters(ph).count()),
                                     3e-3));
                rt.end_cycle();
            }
        });
        return m.elapsed_seconds();
    };
    double a = once(), b = once();
    EXPECT_EQ(a, b); // bit-for-bit, not just close
}

// Start-up calibration, pinned bit for bit: the fitted CommCosts, every
// rank's virtual clock when calibrate_comm_costs returns, and the user-tag
// traffic it delivered.  How the bursts are buffered on the host (copied or
// shared by reference) must not move any of these; a deliberate change to
// the calibration protocol or the cost model re-derives them.
struct CalibrationOutcome {
    std::uint64_t latency, bandwidth, cpu_per_msg, cpu_per_byte;
    std::vector<std::uint64_t> clocks; ///< per rank, bits of hrtime()
    std::uint64_t user_messages, user_bytes;
};

CalibrationOutcome calibrate_on(int nodes) {
    sim::ClusterConfig cc;
    cc.num_nodes = nodes;
    cc.seed = 42;
    msg::Machine m(cc);
    CalibrationOutcome out{};
    out.clocks.resize(static_cast<std::size_t>(nodes));
    std::vector<CommCosts> fits(static_cast<std::size_t>(nodes));
    m.run([&](msg::Rank& r) {
        const std::size_t i = static_cast<std::size_t>(r.id());
        fits[i] = calibrate_comm_costs(r, msg::Group::world(r));
        out.clocks[i] = std::bit_cast<std::uint64_t>(r.hrtime());
    });
    for (const CommCosts& c : fits) {
        EXPECT_EQ(c.latency_s, fits[0].latency_s);
        EXPECT_EQ(c.bandwidth_Bps, fits[0].bandwidth_Bps);
        EXPECT_EQ(c.cpu_per_msg_s, fits[0].cpu_per_msg_s);
        EXPECT_EQ(c.cpu_per_byte_s, fits[0].cpu_per_byte_s);
    }
    out.latency = std::bit_cast<std::uint64_t>(fits[0].latency_s);
    out.bandwidth = std::bit_cast<std::uint64_t>(fits[0].bandwidth_Bps);
    out.cpu_per_msg = std::bit_cast<std::uint64_t>(fits[0].cpu_per_msg_s);
    out.cpu_per_byte = std::bit_cast<std::uint64_t>(fits[0].cpu_per_byte_s);
    const auto user = static_cast<std::size_t>(msg::TagSpace::User);
    out.user_messages = m.traffic().messages[user];
    out.user_bytes = m.traffic().bytes[user];
    return out;
}

TEST(Golden, CalibrationTwoNodes) {
    CalibrationOutcome o = calibrate_on(2);
    EXPECT_EQ(o.latency, 0x3f1a4ab84ae641c3u);      // 100.3 us
    EXPECT_EQ(o.bandwidth, 0x416804998f43a0e7u);    // 12.59 MB/s
    EXPECT_EQ(o.cpu_per_msg, 0x3f0a232fe76a14e3u);  // 49.85 us
    EXPECT_EQ(o.cpu_per_byte, 0x3e23b303b22e4987u); // 2.293 ns
    // 0.192632144 s and 1.195324418 s
    EXPECT_EQ(o.clocks, (std::vector<std::uint64_t>{0x3fc8a82b8b51b5deu,
                                                    0x3ff3200c7f36b947u}));
    EXPECT_EQ(o.user_messages, 880u);
    EXPECT_EQ(o.user_bytes, 14446080u);
}

TEST(Golden, CalibrationThreeNodes) {
    CalibrationOutcome o = calibrate_on(3);
    EXPECT_EQ(o.latency, 0x3f1a4ab84ae641c3u);      // 100.3 us
    EXPECT_EQ(o.bandwidth, 0x416804998f43a0e7u);    // 12.59 MB/s
    EXPECT_EQ(o.cpu_per_msg, 0x3f0a232fe76a14e3u);  // 49.85 us
    EXPECT_EQ(o.cpu_per_byte, 0x3e23b303b22e4987u); // 2.293 ns
    // 0.192682208 s, 1.195324418 s and 1.195211441 s
    EXPECT_EQ(o.clocks, (std::vector<std::uint64_t>{0x3fc8a9cf82f0c6e3u,
                                                    0x3ff3200c7f36b947u,
                                                    0x3ff31f96082e668au}));
    EXPECT_EQ(o.user_messages, 880u);
    EXPECT_EQ(o.user_bytes, 14446080u);
}

}  // namespace
}  // namespace dynmpi
