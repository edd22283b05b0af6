// Runtime overhead accounting (the paper's "the overall Dyn-MPI overhead is
// quite low" claim, quantified): what monitoring and redistribution cost in
// virtual time, as a function of machine size and rows moved.
#include "bench/bench_common.hpp"
#include "dynmpi/runtime.hpp"

namespace dynmpi::bench {
namespace {

/// Per-cycle monitoring overhead: identical compute with adapt on/off.
double monitoring_overhead_per_cycle(int nodes) {
    auto run = [&](bool adapt) {
        msg::Machine m(xeon_cluster(nodes));
        m.run([&](msg::Rank& r) {
            RuntimeOptions o;
            o.calibrate = false;
            o.adapt = adapt;
            Runtime rt(r, nodes * 8, o);
            rt.register_dense("A", 1, sizeof(double));
            int ph = rt.init_phase(0, nodes * 8,
                                   PhaseComm{CommPattern::None, 0});
            rt.add_array_access("A", AccessMode::Write, ph);
            rt.commit_setup();
            for (int c = 0; c < 200; ++c) {
                rt.begin_cycle();
                rt.run_phase(ph, std::vector<double>(8, 1e-3));
                rt.end_cycle();
            }
        });
        return m.elapsed_seconds();
    };
    return (run(true) - run(false)) / 200.0;
}

/// Virtual cost of one redistribution moving ~frac of a paper-scale array.
double redistribution_cost(int nodes, int rows, std::size_t row_bytes,
                           double frac) {
    msg::Machine m(xeon_cluster(nodes));
    double cost = 0;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        o.adapt = false;
        Runtime rt(r, rows, o);
        rt.register_dense("A", static_cast<int>(row_bytes / sizeof(double)),
                          sizeof(double));
        int ph = rt.init_phase(0, rows, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        // Shift ~frac of the space from the first half to the second half.
        std::vector<int> counts(static_cast<std::size_t>(nodes), rows / nodes);
        int moved = static_cast<int>(rows * frac / 2);
        counts[0] -= moved;
        counts[static_cast<std::size_t>(nodes) - 1] += moved;
        rt.redistribute_manual(counts);
        if (r.id() == 0) cost = rt.stats().redist_wall_s;
    });
    return cost;
}

}  // namespace

int main_impl() {
    enable_metrics();
    std::printf("Runtime overhead accounting (virtual time)\n");

    section("per-cycle monitoring cost (adapt on vs off, no load)");
    TextTable t;
    t.header({"nodes", "overhead per cycle (us)"});
    double o4 = 0, o32 = 0;
    for (int nodes : {2, 4, 8, 16, 32}) {
        double o = monitoring_overhead_per_cycle(nodes);
        if (nodes == 4) o4 = o;
        if (nodes == 32) o32 = o;
        t.row({std::to_string(nodes), fmt(o * 1e6, 1)});
    }
    std::printf("%s", t.render().c_str());

    section("one redistribution, 2048 rows x 16 KB (paper-scale Jacobi)");
    TextTable rt_tab;
    rt_tab.header({"nodes", "fraction moved", "cost (s)"});
    double c_small = 0, c_big = 0;
    for (double frac : {0.05, 0.25, 0.5}) {
        double c = redistribution_cost(4, 2048, 16384, frac);
        if (frac == 0.05) c_small = c;
        if (frac == 0.5) c_big = c;
        rt_tab.row({"4", fmt(frac, 2), fmt(c, 3)});
    }
    std::printf("%s", rt_tab.render().c_str());

    section("SHAPE CHECKS (paper §5.1: 'overall Dyn-MPI overhead is quite "
            "low')");
    shape_check(o4 < 2e-3,
                "4-node monitoring costs under 2 ms per cycle (observed " +
                    fmt(o4 * 1e6, 0) + " us)");
    shape_check(o32 < 8e-3, "32-node monitoring stays in the ms range");
    shape_check(c_big > 3 * c_small,
                "redistribution cost scales with the data moved");
    shape_check(c_big < 3.0,
                "even a half-array move costs a few seconds at most "
                "(paper: ~1 s for the CG redistribution)");
    dump_metrics("overhead_table");
    return shape_status();
}

}  // namespace dynmpi::bench

int main() { return dynmpi::bench::main_impl(); }
