// Synthetic tuning runs (paper §5 mentions "a number of synthetic tests to
// tune our redistribution scheme", detailed in the companion TR [27]).
//
// Two model-validation sweeps, no simulator needed:
//  1. two-node split quality: for computation/communication ratios from 100:1
//     to 1:2 and loads 1..4 CPs, compare the successive-balancing share
//     against the brute-force optimum of the predicted-cycle-time model;
//  2. successive balancing convergence: rounds needed until the unloaded
//     assignment stabilizes, across node counts and load mixes.
#include <cmath>

#include "bench/bench_common.hpp"
#include "dynmpi/balancer.hpp"

namespace dynmpi::bench {
namespace {

/// Brute-force optimal first-node share for a 2-node (loaded, unloaded)
/// split under the predicted-cycle-time model.
double brute_force_share(const BalanceInput& in, int steps = 2000) {
    const int rows = static_cast<int>(in.row_costs.size());
    double best_t = 1e300;
    int best_rows = 0;
    for (int k = 0; k <= steps; ++k) {
        int r0 = static_cast<int>(
            std::lround(static_cast<double>(rows) * k / steps));
        std::vector<int> counts{r0, rows - r0};
        double t = predict_cycle_time(in, counts);
        if (t < best_t) {
            best_t = t;
            best_rows = r0;
        }
    }
    return static_cast<double>(best_rows) / rows;
}

}  // namespace

int main_impl() {
    enable_metrics();
    std::printf("Synthetic tuning runs (companion TR [27]): model-level "
                "validation of the distribution scheme\n");

    section("two-node split vs brute-force optimum");
    TextTable t;
    t.header({"comp:comm", "CPs", "successive", "optimal", "|err|"});
    double worst_err = 0.0;
    for (double ratio : {100.0, 10.0, 2.0, 0.5}) {
        for (int cps : {1, 2, 4}) {
            BalanceInput in;
            in.row_costs.assign(1000, 1e-4); // 100 ms of work
            in.comm_cpu_per_node = 0.1 / ratio;
            in.nodes = {NodePower{1.0, static_cast<double>(cps)},
                        NodePower{1.0, 0.0}};
            double s = successive_shares(in)[0];
            double opt = brute_force_share(in);
            double err = std::fabs(s - opt);
            worst_err = std::max(worst_err, err);
            char label[32];
            std::snprintf(label, sizeof label, "%.0f:1", ratio);
            t.row({label, std::to_string(cps), fmt(s, 4), fmt(opt, 4),
                   fmt(err, 4)});
        }
    }
    std::printf("%s", t.render().c_str());

    section("successive balancing convergence");
    TextTable c;
    c.header({"nodes", "loaded", "max share delta after round cap"});
    bool all_converged = true;
    for (int nodes : {4, 8, 16, 32}) {
        for (int loaded : {1, nodes / 4}) {
            BalanceInput in;
            in.row_costs.assign(2048, 1e-4);
            in.comm_cpu_per_node = 5e-4;
            for (int j = 0; j < nodes; ++j)
                in.nodes.push_back(
                    NodePower{1.0, j < loaded ? 2.0 : 0.0});
            auto a = successive_shares(in, /*max_rounds=*/32);
            auto b = successive_shares(in, /*max_rounds=*/64);
            double delta = 0;
            for (std::size_t j = 0; j < a.size(); ++j)
                delta = std::max(delta, std::fabs(a[j] - b[j]));
            if (delta > 1e-6) all_converged = false;
            c.row({std::to_string(nodes), std::to_string(loaded),
                   fmt(delta, 8)});
        }
    }
    std::printf("%s", c.render().c_str());

    section("SHAPE CHECKS (TR [27] tuning)");
    shape_check(worst_err < 0.02,
                "successive balancing is within 2% of the brute-force "
                "optimal split at every ratio/load (worst " +
                    fmt(worst_err, 4) + ")");
    shape_check(all_converged,
                "successive balancing converges well before the round cap "
                "at every machine size");
    dump_metrics("synthetic_tuning");
    return shape_status();
}

}  // namespace dynmpi::bench

int main() { return dynmpi::bench::main_impl(); }
