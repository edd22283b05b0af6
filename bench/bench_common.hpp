// Shared harness pieces for the figure-reproduction benches.
//
// Every bench prints an aligned table followed by a SHAPE-CHECK section that
// states the qualitative property the paper reports and whether this run
// reproduced it.  Absolute times are virtual seconds on the simulated
// cluster, not the authors' testbed — the shapes are the deliverable.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "apps/app_common.hpp"
#include "support/metrics.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace dynmpi::bench {

/// Turn on the metrics registry for this bench process (call once at the top
/// of main_impl, before any Machine runs).
inline void enable_metrics() { support::metrics().enable(); }

/// Write the accumulated metrics snapshot to BENCH_<name>.json in the
/// working directory (see docs/OBSERVABILITY.md for the schema).
inline void dump_metrics(const std::string& name) {
    const std::string path = "BENCH_" + name + ".json";
    if (support::write_text_file(path, support::metrics().snapshot_json()))
        std::printf("\nmetrics: %s\n", path.c_str());
    else
        std::printf("\nmetrics: failed to write %s\n", path.c_str());
}

/// Paper testbed model: 550 MHz P-III Xeon + switched 100 Mb Ethernet.
inline sim::ClusterConfig xeon_cluster(int nodes, std::uint64_t seed = 42) {
    sim::ClusterConfig c;
    c.num_nodes = nodes;
    c.seed = seed;
    return c;
}

/// The §5.3 testbed: 360 MHz Ultra-Sparc 5 (slower CPUs, same network).
inline sim::ClusterConfig sparc_cluster(int nodes, std::uint64_t seed = 42) {
    sim::ClusterConfig c = xeon_cluster(nodes, seed);
    c.cpu.speed = 0.65;
    return c;
}

/// Hook: start `count` competing processes on `node` at application cycle
/// `at_cycle` (paper: "introduced on the 10th iteration"); optionally kill
/// them at `end_cycle` (-1 = never).
inline apps::CycleHook competing_at_cycle(msg::Machine& m, int node,
                                          int at_cycle, int count = 1,
                                          int end_cycle = -1) {
    auto pids = std::make_shared<std::vector<int>>();
    return [&m, node, at_cycle, count, end_cycle, pids](msg::Rank&,
                                                        int cycle) {
        if (cycle == at_cycle) {
            for (int i = 0; i < count; ++i)
                pids->push_back(m.cluster().spawn_competing(node));
        }
        if (cycle == end_cycle) {
            for (int pid : *pids) m.cluster().kill_competing(node, pid);
            pids->clear();
        }
    };
}

/// Failed shape checks so far in this process.
inline int& shape_failures() {
    static int failures = 0;
    return failures;
}

/// Print one shape check; a DEVIATION is recorded and fails the bench.
inline void shape_check(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "DEVIATION", what.c_str());
    if (!ok) ++shape_failures();
}

/// Exit status of a bench: nonzero when any shape check deviated.
inline int shape_status() { return shape_failures() == 0 ? 0 : 1; }

inline void section(const std::string& title) {
    std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace dynmpi::bench
