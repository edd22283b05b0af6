// Crash anywhere: a small replicated CG solve loses a node at 100 instants
// that step through two full cycles, 1/50 of a cycle apart, once for an
// interior node and once for the leader.  Wherever the crash lands —
// mid-arithmetic, inside the collectives, during the replica refresh or
// between cycles — the survivors must agree on one rollback cycle, finish
// with the serial residuals and bitwise-intact matrix rows, and end
// rebalanced: equal-speed survivors within one row of each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "apps/cg.hpp"
#include "sim/fault_plan.hpp"

namespace dynmpi::apps {
namespace {

constexpr int kNodes = 8;
constexpr int kFirstCycle = 10; ///< the sweep covers cycles 10 and 11
constexpr int kSteps = 100;     ///< two cycles at 1/50 of a cycle

sim::ClusterConfig cluster() {
    sim::ClusterConfig c;
    c.num_nodes = kNodes;
    c.cpu.jitter_frac = 0.0;
    c.ps_period = sim::from_seconds(0.25);
    return c;
}

CgConfig problem() {
    CgConfig cc;
    cc.n = 128;
    cc.cycles = 16;
    cc.sec_per_nnz = 5e-5;
    cc.runtime.calibrate = false;
    cc.runtime.replicate = true;
    return cc;
}

/// Virtual start time of every cycle of the fault-free solve.
std::vector<double> cycle_starts(CgConfig cc) {
    std::vector<double> starts;
    cc.on_cycle = [&](msg::Rank& r, int) { starts.push_back(r.hrtime()); };
    msg::Machine m(cluster());
    m.run([&](msg::Rank& r) { run_cg_recoverable(r, cc); });
    return starts;
}

/// Empty when the solve that loses `node` at `t` matches `ref`, else what
/// went wrong.
std::string crashed_run(const CgConfig& cc, int node, double t,
                        const std::vector<double>& ref) {
    char faults[64];
    std::snprintf(faults, sizeof faults, "crash node=%d t=%.9f\n", node, t);
    msg::Machine m(cluster());
    m.cluster().install_faults(sim::FaultPlan::parse(faults));
    const int collector = node == 0 ? 1 : 0;
    bool intact = true;
    CgRecoverResult out;
    try {
        m.run([&](msg::Rank& r) {
            auto res = run_cg_recoverable(r, cc);
            if (!res.matrix_intact) intact = false;
            if (r.id() == collector) out = res;
        });
    } catch (const std::exception& e) {
        return e.what();
    }
    if (!intact) return "matrix rows corrupted";
    if (out.stats.crash_repairs != 1) return "no crash repair";
    const auto [lo, hi] =
        std::minmax_element(out.final_counts.begin(), out.final_counts.end());
    if (*hi - *lo > 1) return "survivors not rebalanced";
    if (out.residual_history.size() != ref.size())
        return "residual history has the wrong length";
    for (std::size_t i = 0; i < ref.size(); ++i)
        if (std::abs(out.residual_history[i] - ref[i]) >
            1e-8 * std::abs(ref[i]) + 1e-300)
            return "residual " + std::to_string(i) +
                   " departs from the serial reference";
    return "";
}

TEST(CrashSweep, EveryInstantOfTwoCyclesMatchesSerial) {
    const CgConfig cc = problem();
    const std::vector<double> ref = reference_cg_residuals(cc);
    const std::vector<double> starts = cycle_starts(cc);
    ASSERT_GE(starts.size(), static_cast<std::size_t>(kFirstCycle + 3));
    const double t0 = starts[kFirstCycle];
    const double step = (starts[kFirstCycle + 2] - t0) / kSteps;
    ASSERT_GT(step, 0.0);

    for (int node : {5, 0})
        for (int k = 0; k < kSteps; ++k)
            EXPECT_EQ(crashed_run(cc, node, t0 + k * step, ref), "")
                << "crash of node " << node << " at step " << k;
}

}  // namespace
}  // namespace dynmpi::apps
