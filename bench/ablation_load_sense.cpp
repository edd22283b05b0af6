// Ablation for §4.2: dmpi_ps (ps-based, windowed) vs vmstat-style
// (instantaneous) load sensing.
//
// The paper rejects vmstat because processes that voluntarily relinquish
// the CPU (blocked at a receive) are not reported.  Two scenarios:
//   1. bursty competing processes — instantaneous samples flap between 0
//      and 1 while the windowed average tracks the true demand;
//   2. the monitored application itself blocked at a receive — vmstat sees
//      an idle node even though the app will need the CPU.
#include <cmath>

#include "bench/bench_common.hpp"
#include "sim/cluster.hpp"

namespace dynmpi::bench {
namespace {

struct SenseError {
    double rms_ps = 0.0;
    double rms_vmstat = 0.0;
};

SenseError bursty_scenario(double duty) {
    sim::ClusterConfig cc;
    cc.num_nodes = 1;
    cc.cpu.jitter_frac = 0.0;
    sim::Cluster c(cc);
    c.node(0).spawn_competing("bursty", sim::BurstSpec{0.37, duty});
    sim::VmstatSampler vm(c.node(0));

    double true_avg = duty; // long-run demand of the bursty process
    double se_ps = 0, se_vm = 0;
    int samples = 0;
    for (int s = 1; s <= 60; ++s) {
        c.engine().run_until(sim::from_seconds(static_cast<double>(s)));
        double ps = c.daemon(0).avg_competing();
        double vmstat = static_cast<double>(vm.sample_runnable());
        se_ps += (ps - true_avg) * (ps - true_avg);
        se_vm += (vmstat - true_avg) * (vmstat - true_avg);
        ++samples;
    }
    return {std::sqrt(se_ps / samples), std::sqrt(se_vm / samples)};
}

}  // namespace

int main_impl() {
    enable_metrics();
    std::printf("Ablation §4.2 — dmpi_ps vs vmstat-style load sensing\n");

    TextTable t;
    t.header({"bursty duty", "dmpi_ps RMS err", "vmstat RMS err"});
    std::vector<SenseError> errs;
    for (double duty : {0.25, 0.5, 0.75}) {
        SenseError e = bursty_scenario(duty);
        errs.push_back(e);
        t.row({fmt(duty, 2), fmt(e.rms_ps, 3), fmt(e.rms_vmstat, 3)});
    }
    std::printf("%s", t.render().c_str());

    // Scenario 2: app blocked at a receive.
    sim::ClusterConfig cc;
    cc.num_nodes = 1;
    sim::Cluster c(cc);
    c.engine().run_until(sim::from_seconds(3.0));
    sim::VmstatSampler vm(c.node(0));
    int vm_apps = vm.sample_runnable();
    int ps_load = c.daemon(0).reported_load();
    std::printf("\nblocked-at-receive app: vmstat reports %d runnable, "
                "dmpi_ps reports load %d (app auto-included)\n",
                vm_apps, ps_load);

    section("SHAPE CHECKS (paper §4.2)");
    bool ps_wins = true;
    for (const auto& e : errs)
        if (e.rms_ps >= e.rms_vmstat) ps_wins = false;
    shape_check(ps_wins,
                "windowed dmpi_ps tracks bursty demand better than "
                "instantaneous sampling at every duty cycle");
    shape_check(vm_apps == 0 && ps_load == 1,
                "vmstat misses the blocked application; dmpi_ps includes it");
    dump_metrics("ablation_load_sense");
    return shape_status();
}

}  // namespace dynmpi::bench

int main() { return dynmpi::bench::main_impl(); }
