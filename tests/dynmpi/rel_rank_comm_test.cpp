// Direct tests of the runtime's relative-rank helpers, exchange_neighbors
// and allgather_owned: on the even start-up blocks, and after a physical
// drop has renumbered the active set and a manual redistribution has made
// the blocks uneven.
#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "dynmpi/runtime.hpp"
#include "mpisim/machine.hpp"

namespace dynmpi {
namespace {

constexpr int kRows = 30;

sim::ClusterConfig cfg(int nodes) {
    sim::ClusterConfig c;
    c.num_nodes = nodes;
    c.cpu.jitter_frac = 0.0;
    c.ps_period = sim::from_seconds(0.25);
    return c;
}

/// What one active rank saw: its relative rank and block, each halo
/// message as (side, value) in arrival order, and the gathered vector.
struct Seen {
    bool active = false;
    int rel = -1;
    int lo = 0;
    int hi = -1;
    std::vector<std::pair<int, double>> halo;
    std::vector<double> gathered;
};

/// Row r of "A" holds the value r.  Exchange the edge rows, then gather
/// every owned row's value.
Seen exchange_and_gather(Runtime& rt, DenseArray& A) {
    Seen s;
    s.active = true;
    s.rel = rt.rel_rank();
    s.lo = rt.start_iter();
    s.hi = rt.end_iter();
    rt.exchange_neighbors(
        5, 6, sizeof(double),
        [&](int side) { return A.row_data(side < 0 ? s.lo : s.hi); },
        [&](int side, const void* data) {
            s.halo.emplace_back(side, *static_cast<const double*>(data));
        });
    std::vector<double> mine;
    for (int r : rt.my_iters().to_vector()) mine.push_back(A.at<double>(r, 0));
    s.gathered = rt.allgather_owned(rt.active_group(), mine);
    return s;
}

/// A runtime over kRows rows of one double each, row r holding r.
struct RowsApp {
    RowsApp(msg::Rank& r, RuntimeOptions opts)
        : rt(r, kRows, opts), A(rt.register_dense("A", 1, sizeof(double))) {
        int ph = rt.init_phase(
            0, kRows, PhaseComm{CommPattern::NearestNeighbor, sizeof(double)});
        rt.add_array_access("A", AccessMode::Write, ph, 1, 0);
        rt.add_array_access("A", AccessMode::Read, ph, 1, -1);
        rt.add_array_access("A", AccessMode::Read, ph, 1, +1);
        rt.commit_setup();
        for (int row : rt.my_iters().to_vector()) A.at<double>(row, 0) = row;
    }
    Runtime rt;
    DenseArray& A;
};

std::vector<double> all_rows() {
    std::vector<double> v(kRows);
    std::iota(v.begin(), v.end(), 0.0);
    return v;
}

class RelRankComm : public ::testing::TestWithParam<int> {};

TEST_P(RelRankComm, ExchangeAndGatherOnEvenBlocks) {
    const int nodes = GetParam();
    std::vector<Seen> seen(static_cast<std::size_t>(nodes));
    msg::Machine m(cfg(nodes));
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        RowsApp s(r, o);
        seen[static_cast<std::size_t>(r.id())] = exchange_and_gather(s.rt, s.A);
    });
    for (const Seen& s : seen) {
        // With every node active, relative and world ranks coincide.
        std::vector<std::pair<int, double>> want;
        if (s.rel < nodes - 1) want.emplace_back(+1, s.hi + 1);
        if (s.rel > 0) want.emplace_back(-1, s.lo - 1);
        EXPECT_EQ(s.halo, want) << "rel " << s.rel;
        EXPECT_EQ(s.gathered, all_rows()) << "rel " << s.rel;
    }
}

INSTANTIATE_TEST_SUITE_P(ActiveNodes, RelRankComm, ::testing::Values(1, 3));

TEST(RelRankComm, ExchangeAndGatherSkipDroppedNode) {
    std::vector<Seen> seen(4);
    std::vector<int> final_counts;
    msg::Machine m(cfg(4));
    m.cluster().add_load_interval(1, 0.3, -1.0, 5);
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.force_drop_loaded = true;
        RowsApp s(r, o);
        for (int c = 0; c < 60; ++c) {
            s.rt.begin_cycle();
            if (s.rt.participating())
                s.rt.run_phase(
                    0, std::vector<double>(
                           static_cast<std::size_t>(s.rt.my_iters().count()),
                           0.005));
            s.rt.end_cycle();
        }
        s.rt.redistribute_manual({4, 20, 6});
        if (s.rt.participating())
            seen[static_cast<std::size_t>(r.id())] =
                exchange_and_gather(s.rt, s.A);
        if (r.id() == 0) final_counts = s.rt.distribution().counts();
    });
    ASSERT_FALSE(seen[1].active) << "node 1 was not dropped";
    ASSERT_EQ(final_counts, (std::vector<int>{4, 20, 6}));
    // World ranks 0, 2, 3 are relative ranks 0, 1, 2 owning rows 0-3,
    // 4-23 and 24-29.
    using Halo = std::vector<std::pair<int, double>>;
    EXPECT_EQ(seen[0].halo, (Halo{{+1, 4.0}}));
    EXPECT_EQ(seen[2].halo, (Halo{{+1, 24.0}, {-1, 3.0}}));
    EXPECT_EQ(seen[3].halo, (Halo{{-1, 23.0}}));
    for (int w : {0, 2, 3})
        EXPECT_EQ(seen[static_cast<std::size_t>(w)].gathered, all_rows())
            << "rank " << w;
}

}  // namespace
}  // namespace dynmpi
