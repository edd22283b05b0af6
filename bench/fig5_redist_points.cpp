// Figure 5 reproduction: multiple redistribution points (Jacobi, 4 nodes,
// 2048x2048 doubles).
//
// Execution is split into three equal periods.  A competing process starts
// on one node at the end of period 1 and terminates at the end of period 2.
// Three tests:
//   No Redist    — never adapt,
//   Redist Once  — adapt after the CP arrives, but not after it leaves,
//   Redist Twice — adapt at both points.
// Two period lengths: Short (50 cycles) and Long (500 cycles).
//
// Paper shapes: redistributing after period 1 is ~16.7% faster overall; the
// second redistribution is a wash for Short (its cost, ~6.4% of total, eats
// the gain) but wins ~7.9% for Long (cost < 1%).
#include "apps/jacobi.hpp"
#include <cmath>
#include <algorithm>

#include "bench/bench_common.hpp"
#include "dynmpi/report.hpp"

namespace dynmpi::bench {
namespace {

struct Fig5Outcome {
    double total = 0.0;
    std::vector<double> period; ///< sum of cycle walls per period
    double redist_s = 0.0;
    int redistributions = 0;
};

Fig5Outcome run_test(int period_cycles, int max_redists) {
    const int cp_node = 2;
    msg::Machine m(xeon_cluster(4));

    apps::JacobiConfig cfg;
    cfg.rows = 2048;
    cfg.cols_stored = 2048;
    cfg.cols_math = 32;
    cfg.cycles = 3 * period_cycles;
    cfg.sec_per_row = 1.25e-4;
    cfg.runtime.adapt = max_redists != 0;
    cfg.runtime.max_redistributions = max_redists;
    cfg.runtime.enable_removal = false;
    cfg.on_cycle = competing_at_cycle(m, cp_node, period_cycles, 1,
                                      2 * period_cycles);

    Fig5Outcome out;
    m.run([&](msg::Rank& r) {
        auto res = apps::run_jacobi(r, cfg);
        if (r.id() == 0) {
            out.period =
                period_sums(res.stats, {period_cycles, 2 * period_cycles});
            out.redist_s = res.stats.redist_wall_s;
            out.redistributions = res.stats.redistributions;
        }
    });
    // Application time: the three periods plus redistribution/grace overhead
    // (setup-time calibration is excluded — it is identical across tests).
    out.total =
        out.period[0] + out.period[1] + out.period[2] + out.redist_s;
    return out;
}

void run_experiment(const char* label, int period) {
    section(std::string(label) + " (period = " + std::to_string(period) +
            " cycles)");
    Fig5Outcome none = run_test(period, 0);
    Fig5Outcome once = run_test(period, 1);
    Fig5Outcome twice = run_test(period, -1);

    TextTable t;
    t.header({"test", "period1(s)", "period2(s)", "period3(s)", "total(s)",
              "redist(s)", "redist%"});
    auto add = [&](const char* name, const Fig5Outcome& o) {
        t.row({name, fmt(o.period[0], 1), fmt(o.period[1], 1),
               fmt(o.period[2], 1), fmt(o.total, 1), fmt(o.redist_s, 2),
               pct(o.redist_s / o.total)});
    };
    add("no redist", none);
    add("redist once", once);
    add("redist twice", twice);
    std::printf("%s", t.render().c_str());

    double gain_first = (none.total - once.total) / none.total;
    double gain_second = (once.total - twice.total) / once.total;
    std::printf("  first redistribution gain: %s   second: %s\n",
                pct(gain_first).c_str(), pct(gain_second).c_str());

    shape_check(gain_first > 0.08,
                "redistributing after period 1 clearly pays (paper: 16.7%)");
    if (period <= 100) {
        shape_check(std::fabs(gain_second) < 0.04,
                    "short run: second redistribution is roughly a wash "
                    "(paper: < 1% gain, redist cost ~6.4% of total)");
    } else {
        shape_check(gain_second > 0.02,
                    "long run: second redistribution pays (paper: 7.9%)");
        shape_check(twice.redist_s / twice.total < 0.01,
                    "long run: redistribution cost below 1% of total");
    }
}

}  // namespace

int main_impl() {
    enable_metrics();
    std::printf("Figure 5 — multiple redistribution points (Jacobi, 4 "
                "nodes, 2048x2048)\n");
    run_experiment("Short Execution", 50);
    run_experiment("Long Execution", 500);
    dump_metrics("fig5_redist_points");
    return shape_status();
}

}  // namespace dynmpi::bench

int main() { return dynmpi::bench::main_impl(); }
