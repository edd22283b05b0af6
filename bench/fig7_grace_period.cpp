// Figure 7 reproduction: grace-period length under unbalanced computation
// (particle simulation, 8 nodes, 256x256 grid).
//
// Iterations are far shorter than the 10 ms /proc jiffy, so gethrtime must
// be used, and context-switch jitter on the loaded node corrupts single
// samples.  With GP=1 the runtime trusts one noisy measurement per row;
// GP=5 (the Dyn-MPI default) takes the minimum across five cycles.
// Part = 10 / 50 sets the particle density in the top half of P0's rows.
//
// Paper shapes: GP=5 improves post-redistribution execution time by ~13%
// (Part=10) and ~16% (Part=50) over GP=1.
#include "apps/particle.hpp"
#include <cmath>
#include <algorithm>

#include "bench/bench_common.hpp"

namespace dynmpi::bench {
namespace {

double run_grace(int part, int gp, std::uint64_t seed) {
    sim::ClusterConfig cc = xeon_cluster(8, seed);
    cc.cpu.quantum_s = 0.010; // context-switch spikes ~ the jiffy
    cc.cpu.jitter_frac = 1.0;
    msg::Machine m(cc);

    apps::ParticleConfig cfg;
    cfg.rows = 256;
    cfg.cols = 256;
    cfg.cycles = 200;
    cfg.base_density = 1.0;
    cfg.boost_rows = 256 / 8 / 2; // top half of P0's rows
    cfg.boost_density = part;
    cfg.sec_per_particle = 5e-7; // every row well below 10 ms
    cfg.sec_per_row_base = 2e-5;
    cfg.runtime.grace_cycles = gp;
    cfg.runtime.enable_removal = false;
    cfg.runtime.max_redistributions = 1; // isolate the measurement effect
    cfg.on_cycle = competing_at_cycle(m, 0, 10); // CP joins heavy node 0

    double settled = 0.0;
    m.run([&](msg::Rank& r) {
        auto res = apps::run_particle(r, cfg);
        if (r.id() == 0) {
            const auto& h = res.stats.history;
            // Average post-redistribution cycle time.
            int first = 0;
            for (std::size_t i = 0; i < h.size(); ++i)
                if (h[i].redistributed) first = static_cast<int>(i) + 1;
            double s = 0.0;
            int n = 0;
            for (std::size_t i = static_cast<std::size_t>(first);
                 i < h.size(); ++i, ++n)
                s += h[i].max_wall_s;
            settled = n > 0 ? s / n : 0.0;
        }
    });
    return settled;
}

/// Median over a few seeds: jitter is the experimental variable, so one
/// unlucky draw should not decide the comparison.
double median_run(int part, int gp) {
    std::vector<double> xs;
    for (std::uint64_t seed : {11ull, 22ull, 33ull})
        xs.push_back(run_grace(part, gp, seed));
    std::sort(xs.begin(), xs.end());
    return xs[1];
}

}  // namespace

int main_impl() {
    enable_metrics();
    std::printf("Figure 7 — grace-period comparison (particle sim, 8 nodes, "
                "256x256 grid)\n");
    std::printf("Average post-redistribution phase-cycle time.\n");

    TextTable t;
    t.header({"Part", "GP=1 (ms)", "GP=5 (ms)", "GP=5 gain"});
    double gain10, gain50;
    {
        double g1 = median_run(10, 1), g5 = median_run(10, 5);
        gain10 = (g1 - g5) / g1;
        t.row({"10", fmt(g1 * 1e3, 2), fmt(g5 * 1e3, 2), pct(gain10)});
    }
    {
        double g1 = median_run(50, 1), g5 = median_run(50, 5);
        gain50 = (g1 - g5) / g1;
        t.row({"50", fmt(g1 * 1e3, 2), fmt(g5 * 1e3, 2), pct(gain50)});
    }
    std::printf("%s", t.render().c_str());

    section("SHAPE CHECKS (paper Figure 7)");
    shape_check(gain10 > -0.02,
                "GP=5 at least matches GP=1 at Part=10 (paper: 13% better; "
                "our low-imbalance magnitude is smaller); observed " +
                    pct(gain10));
    shape_check(gain50 > 0.04,
                "GP=5 clearly beats GP=1 at Part=50 (paper: 16%); observed " +
                    pct(gain50));
    shape_check(gain50 > gain10,
                "the benefit of the longer grace period grows with the "
                "computation imbalance");
    dump_metrics("fig7_grace_period");
    return shape_status();
}

}  // namespace dynmpi::bench

int main() { return dynmpi::bench::main_impl(); }
