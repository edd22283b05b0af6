// One measured run of one benchmark workload, in this process.
//
//   perfbench_harness --workload NAME --seed N [--trace 0|1]
//
// Drives a paper application through its public entry point on a fresh
// msg::Machine and measures it from outside the library:
//   - host wall time with std::chrono::steady_clock, split at rank 0's
//     cycle-0 hook into set-up and run;
//   - per-thread CPU time of the engine thread (this one) and of every rank
//     thread (an RAII guard in the SPMD body, so a crashed rank still
//     reports), read at the start, at the cycle-0 hook and at the end;
//   - getrusage for user/sys time, voluntary context switches (baton
//     handoffs) and peak RSS;
//   - Machine::traffic(), Engine::events_fired() and rank 0's RuntimeStats.
// With --trace 1 the metrics registry and trace sink are switched on and
// the metrics snapshot is embedded in the output.
//
// Every run checks its own result (serial reference checksums, the CG
// residual history, matrix integrity, row conservation).  The output is one
// JSON object on stdout; perfbench/run.py aggregates many of them.
#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/cg.hpp"
#include "apps/jacobi.hpp"
#include "apps/sor.hpp"
#include "sim/fault_plan.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace dynmpi::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double cpu_clock_s(clockid_t id) {
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_s(pthread_t thread) {
    clockid_t id{};
    if (pthread_getcpuclockid(thread, &id) != 0) return 0.0;
    return cpu_clock_s(id);
}

double tv_s(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

struct Usage {
    double user_s = 0.0;
    double sys_s = 0.0;
    long voluntary_switches = 0;
    long maxrss_kb = 0;
};

Usage process_usage() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {tv_s(ru.ru_utime), tv_s(ru.ru_stime), ru.ru_nvcsw, ru.ru_maxrss};
}

// ---- per-rank CPU accounting -------------------------------------------

/// CPU clock readings of one rank thread.  Written by the rank itself (start
/// and end) and by rank 0's cycle-0 hook; the machine's baton serializes all
/// of them.
struct RankCpu {
    pthread_t thread{};
    bool started = false;
    double at_cycle0_s = 0.0;
    double at_end_s = 0.0;
};

/// Records the calling rank thread's CPU clock when the SPMD body exits,
/// normally or by unwinding (a crashed node's rank unwinds with NodeCrashed).
class RankCpuGuard {
public:
    explicit RankCpuGuard(RankCpu& slot) : slot_(slot) {
        slot_.thread = pthread_self();
        slot_.started = true;
    }
    ~RankCpuGuard() { slot_.at_end_s = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
    RankCpuGuard(const RankCpuGuard&) = delete;
    RankCpuGuard& operator=(const RankCpuGuard&) = delete;

private:
    RankCpu& slot_;
};

// ---- workloads ---------------------------------------------------------

/// What the SPMD body reports back, collected on rank 0 (plus the per-rank
/// integrity flags every rank sets).
struct AppOutcome {
    apps::AppResult result;
    std::vector<double> cg_residuals;
    int redo_cycles = 0;
    bool matrix_intact = true;
};

struct Workload {
    std::string name;
    sim::ClusterConfig cluster;
    int rows = 0;   ///< distributed dimension (row conservation check)
    int cycles = 0;
    /// Install load scripts / faults on the fresh machine.
    std::function<void(msg::Machine&)> prepare;
    /// Run the application on one rank; `hook` must be passed as on_cycle.
    std::function<void(msg::Rank&, const apps::CycleHook&, AppOutcome&)> body;
    /// Check the rank-0 outcome against a serial reference; "" = correct.
    std::function<std::string(const AppOutcome&)> check;
};

/// Seeded factor in [1 - width, 1 + width) on an application's unloaded
/// compute cost, so each seed is a slightly different problem instance:
/// without it the steady-state virtual cycle time would not depend on the
/// seed at all.
double cost_scale(std::uint64_t seed, double width = 0.02) {
    return Rng(hash_combine(seed, 0xC057u)).uniform(1.0 - width, 1.0 + width);
}

sim::ClusterConfig cluster_of(int nodes, double cpu_speed, std::uint64_t seed) {
    sim::ClusterConfig c;
    c.num_nodes = nodes;
    c.cpu.speed = cpu_speed;
    c.seed = hash_combine(seed, 0xC1u);
    return c;
}

std::string compare_checksum(double got, double want) {
    if (std::abs(got - want) <= 1e-9 * std::abs(want)) return "";
    std::ostringstream os;
    os.precision(17);
    os << "checksum " << got << " != serial reference " << want;
    return os.str();
}

/// Serial Red-Black SOR with run_sor's initial grid and sweep order; the
/// halo exchanges of the distributed version make it element-identical.
double serial_sor_checksum(const apps::SorConfig& c) {
    const int n = c.rows;
    const int w = c.cols_math;
    std::vector<double> u(static_cast<std::size_t>(n) * w);
    auto at = [&](int i, int j) -> double& {
        return u[static_cast<std::size_t>(i) * w + j];
    };
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < w; ++j) at(i, j) = (i % 7) * 0.125 + (j % 5) * 0.25;
    for (int cycle = 0; cycle < c.cycles; ++cycle)
        for (int color = 0; color < 2; ++color)
            for (int i = 1; i <= n - 2; ++i)
                for (int j = 1; j < w - 1; ++j) {
                    if ((i + j) % 2 != color) continue;
                    double gs = 0.25 * (at(i - 1, j) + at(i + 1, j) +
                                        at(i, j - 1) + at(i, j + 1));
                    at(i, j) = (1.0 - c.omega) * at(i, j) + c.omega * gs;
                }
    return std::accumulate(u.begin(), u.end(), 0.0);
}

/// Serial Jacobi with run_jacobi's initial grid; only the math stripe
/// (columns [0, cols_math)) enters the checksum, and columns 0 and
/// cols_math - 1 stay fixed, so the stripe is all that needs computing.
double serial_jacobi_checksum(const apps::JacobiConfig& c) {
    const int n = c.rows;
    const int w = c.cols_math;
    std::vector<double> a(static_cast<std::size_t>(n) * w), b(a.size());
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < w; ++j)
            a[static_cast<std::size_t>(i) * w + j] =
                1.0 + 0.1 * ((i % 7) * (j % 5)) + 0.001 * i;
    b = a;
    std::vector<double>* read = &a;
    std::vector<double>* write = &b;
    for (int cycle = 0; cycle < c.cycles; ++cycle) {
        const std::vector<double>& r = *read;
        std::vector<double>& o = *write;
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < w; ++j) {
                const std::size_t k = static_cast<std::size_t>(i) * w + j;
                if (i == 0 || i == n - 1 || j == 0 || j >= w - 1) {
                    o[k] = r[k];
                } else {
                    o[k] = 0.25 * (r[k - w] + r[k + w] + r[k - 1] + r[k + 1]);
                }
            }
        std::swap(read, write);
    }
    return std::accumulate(read->begin(), read->end(), 0.0);
}

// Fig 6 set-up: Red-Black SOR on 32 Ultra-Sparc nodes; node 16 takes three
// competing processes early and the default §4.4 predictor drops it.
Workload sor_drop32(std::uint64_t seed) {
    Rng rng(hash_combine(seed, 0x50Fu));
    auto cfg = std::make_shared<apps::SorConfig>();
    cfg->rows = 1024;
    cfg->cols_stored = 1024;
    cfg->cols_math = 16;
    cfg->cycles = 120;
    cfg->sec_per_row = 3.0e-4 * cost_scale(seed);
    const int cp_cycle = 4 + static_cast<int>(rng.next_below(4));
    const int cp_node = 16;

    Workload w;
    w.name = "sor_drop32";
    w.cluster = cluster_of(32, 0.65, seed);
    w.rows = cfg->rows;
    w.cycles = cfg->cycles;
    w.body = [cfg, cp_cycle, cp_node](msg::Rank& r, const apps::CycleHook& hook,
                                      AppOutcome& out) {
        apps::SorConfig c = *cfg;
        c.on_cycle = [&hook, cp_cycle, cp_node](msg::Rank& rk, int cycle) {
            hook(rk, cycle);
            if (cycle == cp_cycle)
                for (int i = 0; i < 3; ++i)
                    rk.machine().cluster().spawn_competing(cp_node);
        };
        auto res = apps::run_sor(r, c);
        if (r.id() == 0) out.result = res;
    };
    w.check = [cfg](const AppOutcome& o) {
        return compare_checksum(o.result.checksum, serial_sor_checksum(*cfg));
    };
    return w;
}

// Jacobi on 8 Xeon nodes under churning load: every 4 virtual seconds two
// or one competing processes (alternating) start on the next node of a
// rotation and run for 6 s, so the runtime keeps cycling Monitor -> Grace
// -> PostGrace, and drops a doubly loaded node at least once.  The seed
// jitter is kept small (cost +-0.2 %, load starts +-0.01 s): with +-2 % and
// +-0.1 s about one seed in ten shifted a load change across a grace
// decision, took a different adaptation path (one drop instead of two) and
// ended ~20 % faster per cycle, which made virt_cycle_ms bimodal over seeds.
Workload jacobi_churn8(std::uint64_t seed) {
    auto cfg = std::make_shared<apps::JacobiConfig>();
    cfg->rows = 2048;
    cfg->cols_stored = 512;
    cfg->cols_math = 32;
    cfg->cycles = 160;
    cfg->sec_per_row = 2.5e-4 * cost_scale(seed, 0.002);

    Workload w;
    w.name = "jacobi_churn8";
    w.cluster = cluster_of(8, 1.0, seed);
    w.rows = cfg->rows;
    w.cycles = cfg->cycles;
    w.prepare = [seed](msg::Machine& m) {
        Rng rng(hash_combine(seed, 0x1AC0u));
        const double horizon_s = 60.0;
        for (int k = 0; 4.0 * (k + 1) < horizon_s; ++k) {
            const double start = 4.0 * (k + 1) + rng.uniform(-0.01, 0.01);
            const int node = (1 + 3 * k) % 8;
            m.cluster().add_load_interval(node, start, start + 6.0,
                                          2 - k % 2);
        }
    };
    w.body = [cfg](msg::Rank& r, const apps::CycleHook& hook, AppOutcome& out) {
        apps::JacobiConfig c = *cfg;
        c.on_cycle = hook;
        auto res = apps::run_jacobi(r, c);
        if (r.id() == 0) out.result = res;
    };
    w.check = [cfg](const AppOutcome& o) {
        return compare_checksum(o.result.checksum, serial_jacobi_checksum(*cfg));
    };
    return w;
}

// Crash-masked CG on 16 Xeon nodes with buddy replication; node 5 crashes
// at t = 3 s and the solve redoes the interrupted cycle.
Workload cg_replica16(std::uint64_t seed) {
    auto cfg = std::make_shared<apps::CgConfig>();
    cfg->n = 4096;
    // The residual recursion amplifies rounding: on some matrix seeds a
    // fault-free 16-node solve departs from the serial order by >1e-8 before
    // iteration 100, while at iteration 80 the worst of 60 seeds is ~1e-12.
    cfg->cycles = 80;
    cfg->sec_per_nnz = 1.0e-5 * cost_scale(seed);
    cfg->seed = hash_combine(seed, 0xC6u);
    cfg->runtime.replicate = true;

    Workload w;
    w.name = "cg_replica16";
    w.cluster = cluster_of(16, 1.0, seed);
    w.rows = cfg->n;
    w.cycles = cfg->cycles;
    w.prepare = [](msg::Machine& m) {
        m.cluster().install_faults(sim::FaultPlan::parse("crash node=5 t=3.0\n"));
    };
    w.body = [cfg](msg::Rank& r, const apps::CycleHook& hook, AppOutcome& out) {
        apps::CgConfig c = *cfg;
        c.on_cycle = hook;
        auto res = apps::run_cg_recoverable(r, c);
        if (!res.matrix_intact) out.matrix_intact = false;
        if (r.id() == 0) {
            out.result = res;
            out.cg_residuals = res.residual_history;
            out.redo_cycles = res.redo_cycles;
        }
    };
    w.check = [cfg](const AppOutcome& o) -> std::string {
        if (!o.matrix_intact) return "CG matrix rows corrupted";
        std::vector<double> ref = apps::reference_cg_residuals(*cfg);
        if (o.cg_residuals.size() != ref.size())
            return "CG residual history has the wrong length";
        for (std::size_t i = 0; i < ref.size(); ++i)
            if (std::abs(o.cg_residuals[i] - ref[i]) >
                1e-8 * std::abs(ref[i]) + 1e-300)
                return "CG residual " + std::to_string(i) +
                       " departs from the serial reference";
        return "";
    };
    return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "sor_drop32") return sor_drop32(seed);
    if (name == "jacobi_churn8") return jacobi_churn8(seed);
    if (name == "cg_replica16") return cg_replica16(seed);
    throw std::invalid_argument("unknown workload: " + name);
}

// ---- measurement -------------------------------------------------------

struct Counts {
    std::uint64_t events = 0;
    std::uint64_t messages[4] = {0, 0, 0, 0}; ///< user, collective, runtime, control
    std::uint64_t bytes[4] = {0, 0, 0, 0};
};

Counts read_counts(msg::Machine& m) {
    Counts c;
    c.events = m.cluster().engine().events_fired();
    const auto& t = m.traffic();
    for (int s = 0; s < 3; ++s) {
        c.messages[s] = t.messages[s];
        c.bytes[s] = t.bytes[s];
    }
    c.messages[3] = t.control_messages;
    c.bytes[3] = t.control_bytes;
    return c;
}

/// Minimal JSON object writer (fixed key order, full double precision).
class JsonOut {
public:
    JsonOut& num(const std::string& k, double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        key(k) << (std::isfinite(v) ? buf : "null");
        return *this;
    }
    JsonOut& num(const std::string& k, std::uint64_t v) {
        key(k) << v;
        return *this;
    }
    JsonOut& str(const std::string& k, const std::string& v) {
        key(k) << '"' << support::json_escape(v) << '"';
        return *this;
    }
    JsonOut& raw(const std::string& k, const std::string& json) {
        key(k) << json;
        return *this;
    }
    std::string done() const { return "{" + os_.str() + "}"; }

private:
    std::ostream& key(const std::string& k) {
        os_ << (first_ ? "" : ",") << '"' << k << "\":";
        first_ = false;
        return os_;
    }
    std::ostringstream os_;
    bool first_ = true;
};

std::string json_array(const std::vector<double>& v) {
    std::string s = "[";
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
        s += buf;
    }
    return s + "]";
}

const char* mode_name(const CycleRecord& rec) {
    if (rec.redistributed) return "redist";
    switch (rec.mode) {
    case 1: return "grace";
    case 2: return "post_grace";
    default: return "monitor";
    }
}

int run(const std::string& workload, std::uint64_t seed, bool traced) {
    Workload w = make_workload(workload, seed);
    if (traced) {
        support::metrics().enable();
        support::trace().enable();
    }

    const pthread_t engine_thread = pthread_self();
    std::vector<RankCpu> rank_cpu(static_cast<std::size_t>(w.cluster.num_nodes));
    std::vector<Clock::time_point> hook_times;
    hook_times.reserve(static_cast<std::size_t>(w.cycles));
    double engine_cpu_c0 = 0.0;
    Usage usage_c0;
    Counts counts_c0;
    AppOutcome outcome;
    std::string error;

    const double engine_cpu_start = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
    const Clock::time_point t_start = Clock::now();
    msg::Machine m(w.cluster);
    if (w.prepare) w.prepare(m);

    // Rank 0, top of every cycle.  At cycle 0 every rank has finished
    // commit_setup and is parked, so its CPU clock is stable.
    const apps::CycleHook hook = [&](msg::Rank&, int cycle) {
        hook_times.push_back(Clock::now());
        if (cycle != 0) return;
        engine_cpu_c0 = thread_cpu_s(engine_thread);
        for (RankCpu& rc : rank_cpu)
            if (rc.started) rc.at_cycle0_s = thread_cpu_s(rc.thread);
        usage_c0 = process_usage();
        counts_c0 = read_counts(m);
    };

    try {
        m.run([&](msg::Rank& r) {
            RankCpuGuard guard(rank_cpu[static_cast<std::size_t>(r.id())]);
            w.body(r, hook, outcome);
        });
    } catch (const std::exception& e) {
        error = std::string("run failed: ") + e.what();
    }
    const Clock::time_point t_end = Clock::now();
    const double engine_cpu_end = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
    const Usage usage_end = process_usage();
    const Counts counts_end = read_counts(m);

    if (error.empty() && hook_times.size() != static_cast<std::size_t>(w.cycles))
        error = "rank 0 saw " + std::to_string(hook_times.size()) + " of " +
                std::to_string(w.cycles) + " cycles";
    const apps::AppResult& res = outcome.result;
    if (error.empty()) {
        const int rows = std::accumulate(res.final_counts.begin(),
                                         res.final_counts.end(), 0);
        if (rows != w.rows)
            error = "final counts sum to " + std::to_string(rows) +
                    ", expected " + std::to_string(w.rows);
    }
    if (error.empty()) error = w.check(outcome);

    // Host time per cycle, labelled by rank 0's record of that cycle (the
    // last record wins when a cycle was redone after a crash).
    std::vector<std::string> label(hook_times.size(), "monitor");
    for (const CycleRecord& rec : res.stats.history)
        if (rec.cycle >= 0 && static_cast<std::size_t>(rec.cycle) < label.size())
            label[static_cast<std::size_t>(rec.cycle)] = mode_name(rec);
    std::vector<double> cycle_host_s;
    std::string cycle_mode = "[";
    for (std::size_t k = 0; k + 1 < hook_times.size(); ++k) {
        cycle_host_s.push_back(seconds_between(hook_times[k], hook_times[k + 1]));
        cycle_mode += (k ? ",\"" : "\"") + label[k] + "\"";
    }
    cycle_mode += "]";

    double rank_cpu_run = 0.0;
    double setup_cpu = engine_cpu_c0 - engine_cpu_start;
    for (const RankCpu& rc : rank_cpu)
        if (rc.started) {
            rank_cpu_run += rc.at_end_s - rc.at_cycle0_s;
            setup_cpu += rc.at_cycle0_s;
        }

    // Active-set maximum cycle wall over the last quarter of cycles (Fig 6).
    const auto& hist = res.stats.history;
    const std::size_t tail = hist.size() / 4;
    double virt_cycle = 0.0;
    for (std::size_t i = hist.size() - tail; i < hist.size(); ++i)
        virt_cycle += hist[i].max_wall_s;
    if (tail > 0) virt_cycle /= static_cast<double>(tail);

    const Clock::time_point t_c0 = hook_times.empty() ? t_end : hook_times[0];
    static const char* const kSpace[4] = {"user", "collective", "runtime",
                                          "control"};
    JsonOut det;
    det.num("virt_elapsed_s", m.elapsed_seconds())
        .num("virt_cycle_ms", virt_cycle * 1e3)
        .num("virt_redist_s", res.stats.redist_wall_s)
        .num("checksum", res.checksum)
        .num("events", counts_end.events - counts_c0.events)
        .num("peak_pending_events",
             static_cast<std::uint64_t>(m.cluster().engine().peak_pending_events()));
    for (int s = 0; s < 4; ++s) {
        det.num(std::string("messages.") + kSpace[s],
                counts_end.messages[s] - counts_c0.messages[s]);
        det.num(std::string("bytes.") + kSpace[s],
                counts_end.bytes[s] - counts_c0.bytes[s]);
    }
    det.num("redistributions", static_cast<std::uint64_t>(res.stats.redistributions))
        .num("rank0_rows_moved", res.stats.transfer.rows_moved)
        .num("physical_drops", static_cast<std::uint64_t>(res.stats.physical_drops))
        .num("crash_repairs", static_cast<std::uint64_t>(res.stats.crash_repairs))
        .num("final_active", static_cast<std::uint64_t>(res.final_active))
        .num("redo_cycles", static_cast<std::uint64_t>(outcome.redo_cycles))
        .num("history_len", static_cast<std::uint64_t>(hist.size()));

    JsonOut out;
    out.str("workload", w.name)
        .num("seed", seed)
        .num("trace", static_cast<std::uint64_t>(traced ? 1 : 0))
        .str("error", error)
        .num("setup_wall_s", seconds_between(t_start, t_c0))
        .num("setup_cpu_s", setup_cpu)
        .num("run_s", seconds_between(t_c0, t_end))
        .num("engine_cpu_s", engine_cpu_end - engine_cpu_c0)
        .num("rank_cpu_s", rank_cpu_run)
        .num("user_s", usage_end.user_s - usage_c0.user_s)
        .num("sys_s", usage_end.sys_s - usage_c0.sys_s)
        .num("handoffs", static_cast<std::uint64_t>(usage_end.voluntary_switches -
                                                    usage_c0.voluntary_switches))
        .num("peak_rss_mb", static_cast<double>(usage_end.maxrss_kb) / 1024.0)
        .raw("cycle_host_s", json_array(cycle_host_s))
        .raw("cycle_mode", cycle_mode)
        .raw("det", det.done());
    if (traced) out.raw("snapshot", support::metrics().snapshot_json());
    std::printf("%s\n", out.done().c_str());
    return error.empty() ? 0 : 1;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload "
                 "{sor_drop32|jacobi_churn8|cg_replica16} --seed N "
                 "[--trace 0|1]\n");
    return 2;
}

}  // namespace
}  // namespace dynmpi::perfbench

int main(int argc, char** argv) {
    std::string workload;
    std::uint64_t seed = 1;
    bool traced = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") workload = value;
        else if (flag == "--seed") seed = std::stoull(value);
        else if (flag == "--trace") traced = value == "1";
        else return dynmpi::perfbench::usage();
    }
    if (workload.empty() || argc % 2 == 0) return dynmpi::perfbench::usage();
    try {
        return dynmpi::perfbench::run(workload, seed, traced);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 2;
    }
}
