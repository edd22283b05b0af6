// Ablation for §4.3: successive balancing vs the naive relative-power
// distribution [CRAUL].
//
// The paper's observation: relative power ignores the CPU component of
// communication, so it over-assigns loaded nodes.  We sweep the
// computation/communication ratio on a 4-node Jacobi and report the settled
// post-redistribution cycle time under both schemes.  Successive balancing
// should match naive when communication is negligible and win increasingly
// as the ratio falls.
#include <cmath>

#include "apps/jacobi.hpp"
#include "bench/bench_common.hpp"

namespace dynmpi::bench {
namespace {

double settled_cycle(BalanceScheme scheme, double sec_per_row,
                     int row_kb, int cps) {
    sim::ClusterConfig cc = xeon_cluster(4);
    // The §4.3 effect is about the CPU share of communication, so pick the
    // regime where it dominates: a fast wire (gigabit-class) but 2003-era
    // TCP host overhead (checksums + copies burn real CPU per byte).
    cc.net.bandwidth_Bps = 125e6;
    cc.net.cpu_per_byte_s = 8e-9;
    msg::Machine m(cc);
    apps::JacobiConfig cfg;
    cfg.rows = 512;
    cfg.cols_stored = row_kb * 128; // 128 doubles per KB
    cfg.cols_math = 16;
    cfg.cycles = 400;
    cfg.sec_per_row = sec_per_row;
    cfg.runtime.scheme = scheme;
    cfg.runtime.enable_removal = false;
    cfg.runtime.max_redistributions = 1;
    cfg.on_cycle = competing_at_cycle(m, 1, 5, cps);

    double avg = 0.0;
    m.run([&](msg::Rank& r) {
        auto res = apps::run_jacobi(r, cfg);
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
    std::printf("Ablation §4.3 — successive balancing vs naive relative "
                "power (Jacobi, 4 nodes, 2 CPs on one node)\n");
    std::printf("Settled cycle time after one redistribution under each "
                "scheme.\n");

    struct Case {
        const char* label;
        double sec_per_row;
        int row_kb;
    };
    // Sweep from compute-dominated to communication-dominated.
    std::vector<Case> cases{
        {"comp-heavy (1ms rows, 2KB msgs)", 1e-3, 2},
        {"balanced   (100us rows, 8KB msgs)", 1e-4, 8},
        {"comm-heavy (20us rows, 32KB msgs)", 2e-5, 32},
    };

    TextTable t;
    t.header({"regime", "naive(ms)", "successive(ms)", "gain"});
    std::vector<double> gains;
    for (const auto& c : cases) {
        double naive =
            settled_cycle(BalanceScheme::RelativePower, c.sec_per_row,
                          c.row_kb, 2);
        double succ =
            settled_cycle(BalanceScheme::SuccessiveBalancing, c.sec_per_row,
                          c.row_kb, 2);
        gains.push_back((naive - succ) / naive);
        t.row({c.label, fmt(naive * 1e3, 2), fmt(succ * 1e3, 2),
               pct(gains.back())});
    }
    std::printf("%s", t.render().c_str());

    section("SHAPE CHECKS (paper §4.3)");
    shape_check(std::fabs(gains[0]) < 0.05,
                "schemes agree when computation dominates");
    shape_check(gains[2] > gains[0] + 0.01,
                "successive balancing pulls ahead as communication grows");
    shape_check(gains[2] > 0.02,
                "successive balancing wins in the comm-heavy regime");
    dump_metrics("ablation_balance");
    return shape_status();
}

}  // namespace dynmpi::bench

int main() { return dynmpi::bench::main_impl(); }
