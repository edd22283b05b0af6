#include "mpisim/machine.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <functional>
#include <stdexcept>
#include <thread>

#include "mpisim/rank.hpp"
#include "support/error.hpp"

namespace dynmpi::msg {
namespace {

sim::ClusterConfig cfg(int nodes) {
    sim::ClusterConfig c;
    c.num_nodes = nodes;
    c.cpu.jitter_frac = 0.0;
    return c;
}

TEST(Machine, RunsEveryRankExactlyOnce) {
    Machine m(cfg(4));
    std::vector<int> ran(4, 0);
    m.run([&](Rank& r) { ran[static_cast<size_t>(r.id())]++; });
    EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 1}));
}

TEST(Machine, RanksSeeCorrectIdAndSize) {
    Machine m(cfg(3));
    m.run([](Rank& r) {
        EXPECT_GE(r.id(), 0);
        EXPECT_LT(r.id(), 3);
        EXPECT_EQ(r.size(), 3);
    });
}

TEST(Machine, ComputeAdvancesVirtualTime) {
    Machine m(cfg(2));
    m.run([](Rank& r) { r.compute(1.0 + r.id()); });
    // Ranks compute in parallel: total time = max over ranks.
    EXPECT_NEAR(m.elapsed_seconds(), 2.0, 1e-6);
}

TEST(Machine, SleepIsNotCpuTime) {
    Machine m(cfg(1));
    double cpu = -1;
    m.run([&](Rank& r) {
        r.sleep(5.0);
        cpu = r.exact_cpu_time();
    });
    EXPECT_NEAR(m.elapsed_seconds(), 5.0, 1e-9);
    EXPECT_NEAR(cpu, 0.0, 1e-9);
}

TEST(Machine, RankExceptionPropagates) {
    Machine m(cfg(2));
    EXPECT_THROW(m.run([](Rank& r) {
        if (r.id() == 1) throw std::runtime_error("rank boom");
        r.compute(0.1);
    }),
                 std::runtime_error);
}

TEST(Machine, DeadlockDetectedAndReported) {
    Machine m(cfg(2));
    try {
        m.run([](Rank& r) {
            if (r.id() == 0) {
                double buf;
                r.recv(1, 7, &buf, sizeof buf); // never sent
            }
        });
        FAIL() << "expected deadlock error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("0"), std::string::npos);
    }
}

TEST(Machine, SecondRunRejected) {
    Machine m(cfg(1));
    m.run([](Rank&) {});
    EXPECT_THROW(m.run([](Rank&) {}), Error);
}

TEST(Machine, CompetingProcessSlowsOnlyItsNode) {
    Machine m(cfg(2));
    m.cluster().add_load_interval(1, 0.0, -1.0);
    std::vector<double> end_times(2);
    m.run([&](Rank& r) {
        r.compute(2.0);
        end_times[static_cast<size_t>(r.id())] = r.hrtime();
    });
    EXPECT_NEAR(end_times[0], 2.0, 1e-6);
    EXPECT_NEAR(end_times[1], 4.0, 1e-6);
}

TEST(Machine, DeterministicAcrossRuns) {
    auto run_once = [] {
        Machine m(cfg(4));
        m.cluster().add_load_interval(2, 0.5, 1.5);
        m.run([](Rank& r) {
            for (int i = 0; i < 5; ++i) {
                r.compute(0.1);
                int right = (r.id() + 1) % r.size();
                int left = (r.id() + r.size() - 1) % r.size();
                double x = r.hrtime();
                r.send(right, i, &x, sizeof x);
                double y;
                r.recv(left, i, &y, sizeof y);
            }
        });
        return m.elapsed_seconds();
    };
    EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Machine, DestructorCleansUpAfterFailure) {
    // A machine whose run() threw must still destruct without hanging.
    auto m = std::make_unique<Machine>(cfg(2));
    EXPECT_THROW(m->run([](Rank& r) {
        if (r.id() == 0) throw std::runtime_error("die");
        double buf;
        r.recv(0, 1, &buf, sizeof buf);
    }),
                 std::runtime_error);
    m.reset(); // must not deadlock
    SUCCEED();
}

long voluntary_switches_of_this_thread() {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return ru.ru_nvcsw;
}

TEST(Machine, LoneRankComputesWithoutContextSwitches) {
    // A blocked rank dispatches events itself; when the next runner is the
    // rank again it carries on without sleeping.  A thread round trip per
    // compute() would cost at least one switch each.
    Machine m(cfg(1));
    long switches = -1;
    m.run([&](Rank& r) {
        const long before = voluntary_switches_of_this_thread();
        for (int i = 0; i < 10000; ++i) r.compute(1e-6);
        switches = voluntary_switches_of_this_thread() - before;
    });
    EXPECT_GE(switches, 0);
    EXPECT_LT(switches, 100);
    EXPECT_NEAR(m.elapsed_seconds(), 0.01, 1e-6);
}

TEST(Machine, EventExceptionOnRankThreadIsRethrownAfterJoin) {
    Machine m(cfg(2));
    const std::thread::id main_thread = std::this_thread::get_id();
    std::thread::id event_thread;
    m.cluster().engine().at(sim::from_seconds(0.5), [&] {
        event_thread = std::this_thread::get_id();
        throw std::runtime_error("event boom");
    });
    int unwound = 0;
    struct CountOnExit {
        int& n;
        ~CountOnExit() { ++n; }
    };
    try {
        m.run([&](Rank& r) {
            CountOnExit guard{unwound};
            r.compute(1.0);
        });
        FAIL() << "expected the event's exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "event boom");
    }
    // Both ranks were blocked in compute(), so a rank thread dispatched the
    // throwing event; run() still unwound and joined every rank first.
    EXPECT_NE(event_thread, main_thread);
    EXPECT_EQ(unwound, 2);
}

TEST(Machine, ReviveRightAfterUnwindRunsOffTheDyingThread) {
    // Node 1 crashes at t=1; its crash wake and then the revive are the next
    // two events.  The unwound rank must hand the baton to the main thread
    // rather than dispatch the revive, which would join the dying thread
    // from itself.
    Machine m(cfg(2));
    sim::Cluster& c = m.cluster();
    c.engine().at(sim::from_seconds(1.0), [&c] {
        c.crash_node(1);
        c.engine().at(c.engine().now(), [&c] { c.revive_node(1); });
    });
    std::vector<int> starts(2, 0);
    std::vector<double> ends(2, -1.0);
    m.run([&](Rank& r) {
        const int incarnation = starts[static_cast<std::size_t>(r.id())]++;
        if (r.id() == 1 && incarnation == 0)
            r.compute(10.0); // crashes at t=1
        else
            r.compute(2.0);
        ends[static_cast<std::size_t>(r.id())] = r.hrtime();
    });
    EXPECT_EQ(starts, (std::vector<int>{1, 2}));
    EXPECT_NEAR(ends[0], 2.0, 1e-6);
    EXPECT_NEAR(ends[1], 3.0, 1e-6); // revived at t=1, then 2 s of compute
}

#ifdef __linux__
// The CPUs in a thread's affinity mask; empty if it cannot be read.
std::vector<int> cpus_of(pthread_t thread) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (pthread_getaffinity_np(thread, sizeof set, &set) != 0) return {};
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
    return cpus;
}
#endif

TEST(Machine, RanksShareOneCpu) {
#ifndef __linux__
    GTEST_SKIP() << "CPU affinity masks are Linux-only";
#else
    // Node 1 crashes at t=1 and revives at t=1.5, while ranks 0 and 2 are
    // still computing: a rank thread dispatches the revive and starts the
    // new incarnation.  Every incarnation, and the parked caller, must be
    // held to the same single CPU.
    Machine m(cfg(3));
    sim::Cluster& c = m.cluster();
    c.engine().at(sim::from_seconds(1.0), [&c] { c.crash_node(1); });
    c.engine().at(sim::from_seconds(1.5), [&c] { c.revive_node(1); });
    const pthread_t caller = pthread_self();
    std::vector<int> starts(3, 0);
    std::vector<std::vector<int>> masks; // one per incarnation, then caller
    m.run([&](Rank& r) {
        const int incarnation = starts[static_cast<std::size_t>(r.id())]++;
        masks.push_back(cpus_of(pthread_self()));
        if (r.id() == 0) masks.push_back(cpus_of(caller));
        r.compute(r.id() == 1 && incarnation == 0 ? 10.0 : 2.0);
    });
    EXPECT_EQ(starts, (std::vector<int>{1, 2, 1}));
    ASSERT_EQ(masks.size(), 5u);
    ASSERT_EQ(masks[0].size(), 1u);
    for (const auto& mask : masks) EXPECT_EQ(mask, masks[0]);
#endif
}

TEST(Machine, RunRestoresCallerAffinity) {
#ifndef __linux__
    GTEST_SKIP() << "CPU affinity masks are Linux-only";
#else
    const std::vector<int> before = cpus_of(pthread_self());
    ASSERT_FALSE(before.empty());
    {
        Machine m(cfg(2));
        m.run([](Rank& r) { r.compute(0.1); });
    }
    EXPECT_EQ(cpus_of(pthread_self()), before) << "after a normal run";
    {
        Machine m(cfg(2));
        EXPECT_THROW(m.run([](Rank& r) {
            if (r.id() == 1) throw std::runtime_error("rank boom");
            r.compute(0.1);
        }),
                     std::runtime_error);
    }
    EXPECT_EQ(cpus_of(pthread_self()), before) << "after a throwing run";
    {
        Machine m(cfg(2));
        EXPECT_THROW(m.run([](Rank& r) {
            double buf;
            if (r.id() == 0) r.recv(1, 7, &buf, sizeof buf); // never sent
        }),
                     Error);
    }
    EXPECT_EQ(cpus_of(pthread_self()), before) << "after a deadlocked run";
#endif
}

// One runtime-tagged message from rank 0 to rank 1: `inline_bytes` copied,
// then `segment_bytes` shared by reference.  Returns what the simulation
// saw: receiver wake time, both ranks' CPU seconds, delivered bytes.
struct SendObservation {
    double recv_done = 0.0;
    double cpu[2] = {0.0, 0.0};
    std::uint64_t runtime_bytes = 0;
    std::uint64_t network_bytes = 0;
};

SendObservation observe_send(std::size_t inline_bytes,
                             std::size_t segment_bytes) {
    Machine m(cfg(2));
    SendObservation out;
    const std::uint64_t tag = make_tag(TagSpace::Runtime, 9);
    m.run([&](Rank& r) {
        if (r.id() == 0) {
            std::vector<std::byte> head(inline_bytes, std::byte{1});
            std::vector<sim::SharedBytes> segs;
            if (segment_bytes > 0)
                segs.push_back(
                    sim::SharedBytes::allocate(segment_bytes, true));
            r.send_wire(1, tag, head.data(), head.size(), segs);
        } else {
            sim::Packet p = r.recv_wire_packet(0, tag);
            EXPECT_EQ(p.wire_size(), inline_bytes + segment_bytes);
            out.recv_done = r.hrtime();
        }
        out.cpu[r.id()] = r.exact_cpu_time();
    });
    out.runtime_bytes =
        m.traffic().bytes[static_cast<std::size_t>(TagSpace::Runtime)];
    out.network_bytes = m.cluster().network().bytes_sent();
    return out;
}

TEST(Machine, SegmentedSendCostsExactlyLikeFlat) {
    const SendObservation flat = observe_send(40000, 0);
    const SendObservation seg = observe_send(1000, 39000);
    EXPECT_EQ(seg.recv_done, flat.recv_done);
    EXPECT_EQ(seg.cpu[0], flat.cpu[0]); // sender CPU charge
    EXPECT_EQ(seg.cpu[1], flat.cpu[1]); // receiver CPU charge
    EXPECT_EQ(seg.runtime_bytes, 40000u);
    EXPECT_EQ(seg.runtime_bytes, flat.runtime_bytes);
    EXPECT_EQ(seg.network_bytes, flat.network_bytes);
}

// Every flat receive hands back the inline payload only, so a segment
// would be dropped without a trace (the user-level ones would report 0
// bytes here).  Each must refuse the packet instead.
TEST(Machine, FlatReceiveRejectsSegmentedPacket) {
    const std::uint64_t runtime_tag = make_tag(TagSpace::Runtime, 4);
    const std::uint64_t user_tag = make_tag(TagSpace::User, 6);
    struct FlatReceive {
        std::uint64_t tag;
        std::function<void(Rank&)> recv;
    };
    const std::vector<FlatReceive> receives = {
        {runtime_tag, [&](Rank& r) { (void)r.recv_wire(0, runtime_tag); }},
        {user_tag,
         [](Rank& r) {
             std::byte buf[16];
             (void)r.recv(0, 6, buf, sizeof buf);
         }},
        {user_tag,
         [](Rank& r) {
             std::byte buf[16];
             Request req = r.irecv(0, 6, buf, sizeof buf);
             (void)r.wait(req);
         }},
        {user_tag, [](Rank& r) { (void)r.recv_vector<std::byte>(0, 6); }},
    };
    for (std::size_t i = 0; i < receives.size(); ++i) {
        Machine m(cfg(2));
        EXPECT_THROW(m.run([&](Rank& r) {
            if (r.id() == 0) {
                r.send_wire(1, receives[i].tag, nullptr, 0,
                            {sim::SharedBytes::allocate(8, true)});
            } else {
                receives[i].recv(r);
            }
        }),
                     Error)
            << "flat receive #" << i;
    }
}

TEST(Machine, CrashedSenderStillDeliversSharedBody) {
    // Rank 0 ships a 1.25 MB body by reference (0.1 s on the wire) and
    // crashes while the packet is in flight, dropping its own share as its
    // thread unwinds.  The packet's share keeps the body alive and intact.
    Machine m(cfg(2));
    sim::Cluster& c = m.cluster();
    c.engine().at(sim::from_seconds(0.02), [&c] { c.crash_node(0); });
    // User plane: a crash revokes pending control-plane receives.
    const std::uint64_t tag = make_tag(TagSpace::User, 3);
    const std::size_t n = 1250000;
    bool checked = false;
    m.run([&](Rank& r) {
        if (r.id() == 0) {
            sim::SharedBytes body = sim::SharedBytes::allocate(n, false);
            for (std::size_t i = 0; i < n; ++i)
                body.data()[i] = static_cast<std::byte>(i % 251);
            const std::vector<sim::SharedBytes> segs{body};
            r.send_wire(1, tag, nullptr, 0, segs);
            EXPECT_EQ(body.use_count(), 3u); // `segs` and the packet hold one
            r.compute(10.0); // crashes at t=0.02; unwinding drops `body`
        } else {
            // Sleep past the delivery, so the receive finds the packet
            // buffered instead of failing on the dead peer.
            r.sleep(0.5);
            sim::Packet p = r.recv_wire_packet(0, tag);
            ASSERT_EQ(p.segments.size(), 1u);
            const sim::SharedBytes& body = p.segments[0];
            ASSERT_EQ(body.size(), n);
            EXPECT_EQ(body.use_count(), 1u);
            std::size_t intact = 0;
            for (std::size_t i = 0; i < n; ++i)
                if (body.data()[i] == static_cast<std::byte>(i % 251)) ++intact;
            EXPECT_EQ(intact, n);
            checked = true;
        }
    });
    EXPECT_TRUE(checked);
    EXPECT_TRUE(c.node_crashed(0));
}

}  // namespace
}  // namespace dynmpi::msg
