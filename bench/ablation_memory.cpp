// Ablation: memory-aware balancing (AppLeS-style paging avoidance — the
// related-work capability the paper cites, implemented as an extension).
//
// One node has only enough physical memory for a fraction of an even block.
// Without memory awareness, the balancer assigns it a power-proportional
// block, the node pages (paging_slowdown x compute), and — interestingly —
// the grace-period measurements *see* the inflation and partially shift work
// away on the next adaptation.  With memory awareness, blocks are capped up
// front and no paging ever occurs.
#include "apps/jacobi.hpp"
#include "bench/bench_common.hpp"

namespace dynmpi::bench {
namespace {

struct Outcome {
    double elapsed;
    std::vector<int> counts;
    int redists;
};

Outcome run(bool memory_aware) {
    sim::ClusterConfig cc = xeon_cluster(4);
    // Node 2 fits only ~40 of the 256 rows (two arrays of 512 doubles/row).
    cc.memories = {0, 0, 40ull * 2 * 512 * sizeof(double), 0};
    msg::Machine m(cc);
    // A competing process elsewhere comes and goes: the second adaptation
    // (after it leaves) re-measures the rows on their new, unpaged owners,
    // so a memory-blind balancer hands node 2 a full block again — and pages.
    m.cluster().add_load_interval(0, 0.5, 12.0);

    apps::JacobiConfig cfg;
    cfg.rows = 256;
    cfg.cols_stored = 512;
    cfg.cols_math = 16;
    cfg.cycles = 300;
    cfg.sec_per_row = 2e-3;
    cfg.runtime.enable_removal = false;
    cfg.runtime.memory_aware = memory_aware;

    Outcome out{};
    m.run([&](msg::Rank& r) {
        auto res = apps::run_jacobi(r, cfg);
        if (r.id() == 0) {
            out.counts = res.final_counts;
            out.redists = res.stats.redistributions;
        }
    });
    out.elapsed = m.elapsed_seconds();
    return out;
}

}  // namespace

int main_impl() {
    enable_metrics();
    std::printf("Ablation — memory-aware balancing vs paging (Jacobi, 4 "
                "nodes; node 2 fits ~40 of 256 rows)\n");
    Outcome aware = run(true);
    Outcome blind = run(false);

    TextTable t;
    t.header({"policy", "elapsed(s)", "node2 rows", "redists"});
    t.row({"memory-aware", fmt(aware.elapsed, 1),
           std::to_string(aware.counts[2]), std::to_string(aware.redists)});
    t.row({"memory-blind", fmt(blind.elapsed, 1),
           std::to_string(blind.counts[2]), std::to_string(blind.redists)});
    std::printf("%s", t.render().c_str());

    section("SHAPE CHECKS (AppLeS-style constraint)");
    shape_check(aware.counts[2] <= 40,
                "memory-aware balancer never exceeds node 2's capacity");
    shape_check(aware.elapsed < blind.elapsed,
                "avoiding paging beats paging (" + fmt(aware.elapsed, 1) +
                    "s vs " + fmt(blind.elapsed, 1) + "s)");
    shape_check(blind.counts[2] > 40,
                "memory-blind balancing re-overloads the node once the "
                "measured costs look clean again");
    dump_metrics("ablation_memory");
    return shape_status();
}

}  // namespace dynmpi::bench

int main() { return dynmpi::bench::main_impl(); }
