// Ablation for §2.2 / §4.4: logical vs physical node dropping.
//
// A logically dropped node keeps a minimum assignment so ranks stay static;
// a physically dropped node leaves the relative-rank space entirely.  The
// difference shows in collective-heavy codes: a logically dropped node still
// participates in every AllGather and reduction, and with several competing
// processes its wake-up latency and straggle sit on the critical path of
// each one.  The paper: the difference "can be significant" (§2.2).
//
// Workload: CG (AllGather + three reductions per iteration).
#include <cmath>

#include "apps/cg.hpp"
#include "bench/bench_common.hpp"

namespace dynmpi::bench {
namespace {

double settled_cycle(DropMode mode, int nodes, int cps) {
    msg::Machine m(xeon_cluster(nodes));
    apps::CgConfig cfg;
    cfg.n = 2048;
    cfg.cycles = 400;
    cfg.sec_per_nnz = 1e-5;
    cfg.runtime.enable_removal = true;
    cfg.runtime.force_drop_loaded = true;
    cfg.runtime.drop_mode = mode;
    cfg.runtime.max_redistributions = 2;
    cfg.on_cycle = competing_at_cycle(m, nodes / 2, 5, cps);

    double avg = 0.0;
    m.run([&](msg::Rank& r) {
        auto res = apps::run_cg(r, cfg);
        if (r.id() == 0) {
            const auto& h = res.stats.history;
            double s = 0.0;
            int n = 0;
            for (std::size_t i = h.size() - 100; i < h.size(); ++i, ++n)
                s += h[i].max_wall_s;
            avg = s / n;
        }
    });
    return avg;
}

}  // namespace

int main_impl() {
    enable_metrics();
    std::printf("Ablation §2.2/§4.4 — logical vs physical dropping "
                "(CG n=2048, 3 CPs on one node)\n");

    TextTable t;
    t.header({"nodes", "logical(ms)", "physical(ms)", "physical gain"});
    std::vector<double> gains;
    for (int nodes : {8, 16}) {
        double logical = settled_cycle(DropMode::Logical, nodes, 3);
        double physical = settled_cycle(DropMode::Physical, nodes, 3);
        gains.push_back((logical - physical) / logical);
        t.row({std::to_string(nodes), fmt(logical * 1e3, 2),
               fmt(physical * 1e3, 2), pct(gains.back())});
    }
    std::printf("%s", t.render().c_str());

    section("SHAPE CHECKS (paper §2.2)");
    shape_check(gains[0] > 0.03 || gains[1] > 0.03,
                "physical dropping beats logical dropping (paper: 'can be "
                "significant')");
    shape_check(gains[0] > -0.01 && gains[1] > -0.01,
                "physical dropping is never worse");
    dump_metrics("ablation_drop");
    return shape_status();
}

}  // namespace dynmpi::bench

int main() { return dynmpi::bench::main_impl(); }
