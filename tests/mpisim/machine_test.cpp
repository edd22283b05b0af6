#include "mpisim/machine.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

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

}  // namespace
}  // namespace dynmpi::msg
