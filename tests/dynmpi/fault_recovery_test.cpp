// Runtime hardening under injected faults: crashes mid-run, stale and
// dropped load reports, quarantine/readmit, and transient send failures.
// The chaos invariants must hold through every fault class — every row
// owned exactly once, data intact, block counts covering the row space —
// and identical seed + script must give identical runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "dynmpi/runtime.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "sim/fault_plan.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace dynmpi {
namespace {

struct FaultParams {
    int nodes = 4;
    int rows = 48;
    int cycles = 60;
    double row_cost = 4e-3;
    std::string script;
    RuntimeOptions opts;
    int collector = 0; ///< rank that reports the outcome (never crash it)
    int loaded_node = -1; ///< one competing process from t = 1 s on
    int take_every = 1;   ///< cycles between take_recovered_rows() calls
};

struct FaultOutcome {
    bool data_ok = true;
    double checksum = 0;
    int crash_repairs = 0;
    int quarantines = 0;
    int readmits = 0;
    int stale_fallbacks = 0;
    int readds = 0;
    std::vector<int> final_counts;
    double elapsed = 0;
    std::uint64_t send_failures = 0;
    // Replication / rejoin observables (summed or maxed over all ranks).
    double recovered_sum = 0; ///< rows handed out via take_recovered_rows()
    double restored_sum = 0;  ///< rows refilled from buddy replicas
    double lost_sum = 0;      ///< rows the restore protocol reported lost
    double rejoins_max = 0;
    int final_active = 0;
    std::uint64_t replica_bytes = 0;
    RuntimeStats stats; ///< the collector's
};

FaultOutcome run_with_faults(const FaultParams& fp) {
    sim::ClusterConfig cc;
    cc.num_nodes = fp.nodes;
    cc.seed = 7;
    cc.cpu.jitter_frac = 0.0;
    cc.ps_period = sim::from_seconds(0.25);
    msg::Machine m(cc);
    if (!fp.script.empty())
        m.cluster().install_faults(sim::FaultPlan::parse(fp.script));
    if (fp.loaded_node >= 0)
        m.cluster().add_load_interval(fp.loaded_node, 1.0, -1.0);

    FaultOutcome out;
    m.run([&](msg::Rank& r) {
        RuntimeOptions o = fp.opts;
        o.calibrate = false;
        Runtime rt(r, fp.rows, o);
        auto& A = rt.register_dense("A", 4, sizeof(double));
        int ph = rt.init_phase(
            0, fp.rows, PhaseComm{CommPattern::NearestNeighbor, 32});
        rt.add_array_access("A", AccessMode::Write, ph, 1, 0);
        rt.add_array_access("A", AccessMode::Read, ph, 1, -1);
        rt.add_array_access("A", AccessMode::Read, ph, 1, +1);
        rt.commit_setup();

        auto fill = [&](const std::vector<int>& rows) {
            for (int row : rows)
                for (int j = 0; j < 4; ++j)
                    A.at<double>(row, j) = row * 7.0 + j;
        };
        fill(rt.my_iters(ph).to_vector());

        int recovered = 0;
        // A revived rank re-enters here with stats().cycles already set to
        // the cycle it must pick up the status channel from.
        for (int c = rt.stats().cycles; c < fp.cycles; ++c) {
            rt.begin_cycle();
            if (rt.participating()) {
                std::vector<double> costs(
                    static_cast<std::size_t>(rt.my_iters(ph).count()),
                    fp.row_cost);
                rt.run_phase(ph, costs);
            }
            rt.end_cycle();
            // Rows the runtime could not restore arrive zero-filled; the
            // application regenerates them (checkpointless recovery).  With
            // replication on this only fires for double-crash losses.
            if ((c + 1) % fp.take_every != 0 && c + 1 != fp.cycles) continue;
            RowSet lost = rt.take_recovered_rows();
            recovered += lost.count();
            fill(lost.to_vector());
        }

        bool ok = true;
        for (int row : rt.my_iters(ph).to_vector())
            for (int j = 0; j < 4; ++j)
                if (A.at<double>(row, j) != row * 7.0 + j) ok = false;
        double local = 0;
        for (int row : rt.my_iters(ph).to_vector())
            local += A.at<double>(row, 0);
        double sum = rt.allreduce_active(local, msg::OpSum{});
        double lost_rows = 0;
        for (const RestoreRecord& rr : rt.stats().restores)
            lost_rows += rr.lost;
        double restored =
            rt.allreduce_active(static_cast<double>(rt.stats().restored_rows),
                                msg::OpSum{});
        double recovered_all = rt.allreduce_active(
            static_cast<double>(recovered), msg::OpSum{});
        double lost_all = rt.allreduce_active(lost_rows, msg::OpSum{});
        double rejoins = rt.allreduce_active(
            static_cast<double>(rt.stats().rejoins), msg::OpMax{});
        if (r.id() == fp.collector) {
            out.data_ok = ok;
            out.checksum = sum;
            out.crash_repairs = rt.stats().crash_repairs;
            out.quarantines = rt.stats().quarantines;
            out.readmits = rt.stats().quarantine_readmits;
            out.stale_fallbacks = rt.stats().stale_fallbacks;
            out.readds = rt.stats().readds;
            out.final_counts = rt.distribution().counts();
            out.recovered_sum = recovered_all;
            out.restored_sum = restored;
            out.lost_sum = lost_all;
            out.rejoins_max = rejoins;
            out.final_active = rt.num_active();
            out.replica_bytes = rt.stats().replica_bytes;
            out.stats = rt.stats();
        } else if (!ok) {
            throw Error("data corrupted on rank " + std::to_string(r.id()));
        }
    });
    out.elapsed = m.elapsed_seconds();
    out.send_failures = m.cluster().network().send_failures();
    return out;
}

double expected_checksum(int rows) {
    double e = 0;
    for (int row = 0; row < rows; ++row) e += row * 7.0;
    return e;
}

// The headline acceptance scenario: 8 nodes, one crashes mid-run, the run
// completes with every row owned exactly once and data intact.
TEST(FaultRecovery, CrashMidRunEightNodes) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 60;
    fp.script = "crash node=5 t=1.5\n";
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 1);
    EXPECT_EQ(std::accumulate(out.final_counts.begin(),
                              out.final_counts.end(), 0),
              fp.rows);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

TEST(FaultRecovery, TwoCrashesStillRecover) {
    FaultParams fp;
    fp.nodes = 6;
    fp.rows = 72;
    fp.cycles = 80;
    fp.script =
        "crash node=3 t=1.2\n"
        "crash node=5 t=3.7\n";
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 2);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// The leader (node 0) is not special: recovery elects the next survivor.
TEST(FaultRecovery, LeaderCrash) {
    FaultParams fp;
    fp.nodes = 4;
    fp.rows = 48;
    fp.cycles = 60;
    fp.script = "crash node=0 t=2\n";
    fp.collector = 1;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 1);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

int spread(const std::vector<int>& counts) {
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    return *hi - *lo;
}

/// The cycle whose monitoring pass repaired the (single) crash.
int crash_cycle(const FaultOutcome& out) {
    for (const AdaptationEvent& e : out.stats.events)
        if (e.kind == AdaptationEvent::Kind::NodeCrash) return e.cycle;
    return -1;
}

// A repair left-merges the dead block into one survivor; one monitoring
// pass later the survivors are rebalanced to their pre-crash shares, so
// equal-speed survivors end within one row of each other.
TEST(FaultRecovery, CrashRepairRebalancesSurvivors) {
    for (bool replicate : {false, true}) {
        SCOPED_TRACE(replicate ? "replication on" : "replication off");
        FaultParams fp;
        fp.nodes = 8;
        fp.rows = 96;
        fp.cycles = 60;
        fp.script = "crash node=5 t=1.5\n";
        fp.opts.replicate = replicate;
        FaultOutcome out = run_with_faults(fp);
        EXPECT_TRUE(out.data_ok);
        EXPECT_EQ(out.crash_repairs, 1);
        ASSERT_EQ(out.final_counts.size(), 7u);
        EXPECT_EQ(std::accumulate(out.final_counts.begin(),
                                  out.final_counts.end(), 0),
                  fp.rows);
        EXPECT_LE(spread(out.final_counts), 1)
            << ::testing::PrintToString(out.final_counts);
        EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
        // The rebalance ran in the pass after the repair's, not in it.
        const int c = crash_cycle(out);
        ASSERT_GE(c, 0);
        const auto& h = out.stats.history;
        ASSERT_GT(h.size(), static_cast<std::size_t>(c + 1));
        EXPECT_FALSE(h[static_cast<std::size_t>(c)].redistributed);
        EXPECT_TRUE(h[static_cast<std::size_t>(c + 1)].redistributed);
    }
}

// The rebalance is a redistribution like any other: with none allowed, the
// left-merged blocks stay.
TEST(FaultRecovery, CrashRebalanceHonoursMaxRedistributions) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 60;
    fp.script = "crash node=5 t=1.5\n";
    fp.opts.max_redistributions = 0;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_EQ(out.stats.redistributions, 0);
    EXPECT_EQ(out.final_counts, (std::vector<int>{12, 12, 12, 12, 24, 12, 12}));
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// A second crash lands before the first one's rebalance ran: the rebalance
// scales the blocks from before the first crash, not node 2's left-merged
// double block, over the six survivors.
TEST(FaultRecovery, SecondCrashBeforeTheRebalance) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 60;
    fp.script =
        "crash node=3 t=1.5\n"
        "crash node=5 t=1.55\n";
    FaultOutcome out = run_with_faults(fp);
    std::vector<int> repairs;
    for (const AdaptationEvent& e : out.stats.events)
        if (e.kind == AdaptationEvent::Kind::NodeCrash)
            repairs.push_back(e.cycle);
    ASSERT_EQ(repairs.size(), 2u);
    ASSERT_EQ(repairs[1], repairs[0] + 1); // no pass in between
    EXPECT_TRUE(out.data_ok);
    ASSERT_EQ(out.final_counts.size(), 6u);
    EXPECT_EQ(out.final_counts, (std::vector<int>{16, 16, 16, 16, 16, 16}));
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// The crash lands while a grace period is measuring: the repair and then
// the rebalance each restart the window, so the per-row measurements always
// match the ownership they are taken under.
TEST(FaultRecovery, CrashRebalanceInsideGraceWindow) {
    for (bool replicate : {false, true}) {
        SCOPED_TRACE(replicate ? "replication on" : "replication off");
        FaultParams fp;
        fp.nodes = 8;
        fp.rows = 96;
        fp.cycles = 80;
        fp.loaded_node = 2;
        fp.opts.grace_cycles = 20;
        fp.opts.replicate = replicate;
        fp.script = "crash node=5 t=1.8\n";
        FaultOutcome out = run_with_faults(fp);
        EXPECT_TRUE(out.data_ok);
        EXPECT_EQ(std::accumulate(out.final_counts.begin(),
                                  out.final_counts.end(), 0),
                  fp.rows);
        EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
        const int c = crash_cycle(out);
        ASSERT_GE(c, 0);
        const auto& h = out.stats.history;
        ASSERT_GT(h.size(), static_cast<std::size_t>(c + 1));
        EXPECT_EQ(h[static_cast<std::size_t>(c)].mode, 1); // in grace
        EXPECT_TRUE(h[static_cast<std::size_t>(c + 1)].redistributed);
    }
}

// §4.4's window mean must describe one membership: a crash inside a
// post-grace window restarts it, so the removal decision comes at least
// kPostGraceCycles cycles after the repair.
TEST(FaultRecovery, CrashRestartsThePostGraceWindow) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 90;
    fp.loaded_node = 2;
    fp.opts.grace_cycles = 3;
    // Where the fault-free run's first post-grace window is.
    const FaultOutcome ref = run_with_faults(fp);
    const auto& rh = ref.stats.history;
    const auto first_post =
        std::find_if(rh.begin(), rh.end(),
                     [](const CycleRecord& r) { return r.mode == 2; });
    ASSERT_NE(first_post, rh.end());
    const CycleRecord& mid = *(first_post + kPostGraceCycles / 2);
    ASSERT_EQ(mid.mode, 2);

    char script[64];
    std::snprintf(script, sizeof script, "crash node=5 t=%.9f\n",
                  mid.start_s + 1e-3);
    fp.script = script;
    const FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    const int c = crash_cycle(out);
    ASSERT_EQ(c, mid.cycle);
    const auto& h = out.stats.history;
    auto k = static_cast<std::size_t>(c);
    while (k < h.size() && h[k].mode == 2) ++k;
    ASSERT_LT(k, h.size()) << "the post-grace window never closed";
    EXPECT_GE(static_cast<int>(k) - 1 - c, kPostGraceCycles);
}

// Without replication the adopter's rows come back zero-filled.  A caller
// that takes them only after the rebalance still gets every one of them,
// each from the node that owns it after the rebalance.
TEST(FaultRecovery, RecoveredRowsFollowTheRebalance) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 60;
    fp.script = "crash node=5 t=1.5\n";
    fp.take_every = 25;
    FaultOutcome out = run_with_faults(fp);
    const int c = crash_cycle(out);
    ASSERT_GE(c, 0);
    // No take between the repair and the rebalance.
    ASSERT_LT((c % fp.take_every) + 1, fp.take_every - 1);
    EXPECT_TRUE(out.data_ok);
    EXPECT_DOUBLE_EQ(out.recovered_sum, fp.rows / fp.nodes); // node 5's block
    EXPECT_LE(spread(out.final_counts), 1);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// Same seed + same script => identical runs (virtual time included).
TEST(FaultRecovery, DeterministicUnderFaults) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 50;
    fp.script =
        "crash node=6 t=1.1\n"
        "slow node=2 t=0.7 dur=2 factor=0.5\n"
        "net-delay t=2 dur=1 extra=0.002\n";
    FaultOutcome a = run_with_faults(fp);
    FaultOutcome b = run_with_faults(fp);
    EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.final_counts, b.final_counts);
    EXPECT_EQ(a.crash_repairs, b.crash_repairs);
}

// Byte-identical JSONL trace across two runs of the same faulty scenario.
TEST(FaultRecovery, TraceIsByteIdenticalAcrossRuns) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 40;
    fp.script = "crash node=5 t=1.5\n";
    std::string traces[2];
    for (std::string& t : traces) {
        support::trace().enable();
        run_with_faults(fp);
        t = support::trace().jsonl();
        support::trace().disable();
        support::trace().clear();
    }
    ASSERT_FALSE(traces[0].empty());
    EXPECT_EQ(traces[0], traces[1]);
    EXPECT_NE(traces[0].find("fault.inject"), std::string::npos);
    EXPECT_NE(traces[0].find("runtime.crash_repair"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Buddy replication: crashes lose zero row data
// ---------------------------------------------------------------------------

// The tentpole acceptance scenario: with replication on, a single mid-run
// crash loses no data.  The adopter's rows are refilled from the buddy —
// bitwise, since the fill pattern is exact in doubles — and the application
// never sees a zero-filled recovered row.
TEST(FaultRecovery, ReplicationCrashLosesNoData) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 60;
    fp.script = "crash node=5 t=1.5\n";
    fp.opts.replicate = true;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 1);
    EXPECT_DOUBLE_EQ(out.recovered_sum, 0.0); // nothing was zero-filled
    EXPECT_GT(out.restored_sum, 0.0);
    EXPECT_DOUBLE_EQ(out.lost_sum, 0.0);
    EXPECT_GT(out.replica_bytes, 0u);
    EXPECT_EQ(std::accumulate(out.final_counts.begin(),
                              out.final_counts.end(), 0),
              fp.rows);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// Identical contents to a fault-free run: both runs end with every element
// equal to the generator value, which the per-element data_ok check asserts
// bitwise on every rank.  Here the crash hits the replication leader.
TEST(FaultRecovery, ReplicationLeaderCrashLosesNoData) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 60;
    fp.script = "crash node=0 t=1.5\n";
    fp.collector = 1;
    fp.opts.replicate = true;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 1);
    EXPECT_DOUBLE_EQ(out.recovered_sum, 0.0);
    EXPECT_GT(out.restored_sum, 0.0);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// Owner and buddy die inside one refresh interval: the copies died with the
// buddy, so those rows come back zero-filled through the diagnostics-only
// take_recovered_rows() escape hatch and the application regenerates them.
TEST(FaultRecovery, DoubleCrashFallsBackToZeroFill) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 60;
    fp.script =
        "crash node=3 t=1.5\n"
        "crash node=4 t=1.5\n";
    fp.opts.replicate = true;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 2);
    // Node 3's buddy (node 4) died with it: its rows are lost and refilled
    // by the app.  Node 4's buddy (node 5) survived: its rows are restored.
    EXPECT_GT(out.recovered_sum, 0.0);
    EXPECT_GT(out.lost_sum, 0.0);
    EXPECT_GT(out.restored_sum, 0.0);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// ---------------------------------------------------------------------------
// Node rejoin: crash + revive closes the shrink/grow loop
// ---------------------------------------------------------------------------

// A crashed node restarts, is readmitted through the epoch-revocation
// protocol, and the balancer hands it rows again: world size grows back and
// every row stays owned exactly once.
TEST(FaultRecovery, CrashThenReviveRestoresWorldSize) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 90;
    fp.script =
        "crash node=5 t=1.5\n"
        "revive node=5 t=2.5\n";
    fp.opts.replicate = true;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.crash_repairs, 1);
    EXPECT_GE(out.rejoins_max, 1.0);
    EXPECT_GE(out.readds, 1);
    EXPECT_EQ(out.final_active, fp.nodes); // world size restored
    EXPECT_EQ(static_cast<int>(out.final_counts.size()), fp.nodes);
    EXPECT_EQ(std::accumulate(out.final_counts.begin(),
                              out.final_counts.end(), 0),
              fp.rows);
    EXPECT_DOUBLE_EQ(out.recovered_sum, 0.0);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// Rejoin also works without replication: the revived node receives its new
// block through the normal redistribution, which ships actual contents.
TEST(FaultRecovery, CrashThenReviveWithoutReplication) {
    FaultParams fp;
    fp.nodes = 6;
    fp.rows = 72;
    fp.cycles = 90;
    fp.script =
        "crash node=3 t=1.5\n"
        "revive node=3 t=2.5\n";
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.rejoins_max, 1.0);
    EXPECT_EQ(out.final_active, fp.nodes);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// Determinism must survive the full crash/restore/rejoin machinery:
// identical seed + script still yields a byte-identical trace.
TEST(FaultRecovery, ReviveTraceIsByteIdenticalAcrossRuns) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 80;
    fp.script =
        "crash node=5 t=1.5\n"
        "revive node=5 t=2.5\n";
    fp.opts.replicate = true;
    std::string traces[2];
    for (std::string& t : traces) {
        support::trace().enable();
        run_with_faults(fp);
        t = support::trace().jsonl();
        support::trace().disable();
        support::trace().clear();
    }
    ASSERT_FALSE(traces[0].empty());
    EXPECT_EQ(traces[0], traces[1]);
    EXPECT_NE(traces[0].find("runtime.replica_refresh"), std::string::npos);
    EXPECT_NE(traces[0].find("runtime.replica_restore"), std::string::npos);
    EXPECT_NE(traces[0].find("runtime.rejoin"), std::string::npos);
}

struct ReaddObservation {
    FaultOutcome out;
    int instants = 0;          ///< runtime.readded, one per rejoining rank
    std::uint64_t counter = 0; ///< the runtime.readds counter
    bool joint_decision = false; ///< a readmit and a quarantine in one decision
};

ReaddObservation observe_readds(const FaultParams& fp) {
    support::trace().enable();
    support::metrics().reset();
    support::metrics().enable();
    ReaddObservation o;
    o.out = run_with_faults(fp);
    std::vector<double> readmits, quarantines;
    for (const auto& e : support::trace().sorted_events()) {
        if (e.name == "runtime.readded") ++o.instants;
        if (e.rank != 0) continue;
        if (e.name == "runtime.readmit") readmits.push_back(e.time_s);
        if (e.name == "runtime.quarantine") quarantines.push_back(e.time_s);
    }
    for (double t : readmits)
        for (double q : quarantines)
            if (t == q) o.joint_decision = true;
    o.counter = support::metrics().counter("runtime.readds").value();
    support::trace().disable();
    support::trace().clear();
    support::metrics().disable();
    support::metrics().reset();
    return o;
}

// The readds counter counts every re-added node, also when the node that
// comes back is not rank 0 (it alone records the runtime.readded instant).
TEST(FaultRecovery, ReaddsCounterCountsARevivedNode) {
    FaultParams fp;
    fp.nodes = 8;
    fp.rows = 96;
    fp.cycles = 90;
    fp.script =
        "crash node=5 t=1.5\n"
        "revive node=5 t=2.5\n";
    fp.opts.replicate = true;
    ReaddObservation o = observe_readds(fp);
    EXPECT_EQ(o.out.final_active, fp.nodes);
    EXPECT_EQ(o.instants, 1);
    EXPECT_EQ(o.counter, 1u);
}

// One decision readmits quarantined node 1 and quarantines node 2: the
// active set keeps its size, but node 1 was still re-added.
TEST(FaultRecovery, ReaddCountedWhenTheSameDecisionDropsANode) {
    FaultParams fp;
    fp.nodes = 4;
    fp.rows = 48;
    fp.cycles = 140;
    fp.row_cost = 8e-3;
    fp.script =
        "drop-reports node=1 t=1 dur=8\n"
        "drop-reports node=2 t=6.7 dur=8\n";
    fp.opts.grace_cycles = 3;
    ReaddObservation o = observe_readds(fp);
    EXPECT_TRUE(o.out.data_ok);
    EXPECT_TRUE(o.joint_decision);
    EXPECT_EQ(o.out.quarantines, 2);
    EXPECT_EQ(o.out.readmits, 2);
    EXPECT_EQ(o.instants, 2); // node 1, then node 2 when it is readmitted
    EXPECT_EQ(o.out.readds, 2);
    EXPECT_EQ(o.counter, 2u);
}

// A daemon that stops publishing makes its reports stale; the leader falls
// back to the baseline load instead of acting on garbage.
TEST(FaultRecovery, StaleReportsFallBack) {
    FaultParams fp;
    fp.nodes = 4;
    fp.rows = 48;
    fp.cycles = 80;
    fp.row_cost = 8e-3;
    fp.script = "drop-reports node=1 t=1\n";
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GT(out.stale_fallbacks, 0);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// K consecutive bad reports quarantine the node (logically dropped from the
// candidate set); a clean grace period readmits it.
TEST(FaultRecovery, QuarantineAndReadmit) {
    FaultParams fp;
    fp.nodes = 4;
    fp.rows = 48;
    fp.cycles = 140;
    fp.row_cost = 8e-3;
    fp.script = "drop-reports node=1 t=1 dur=8\n";
    fp.opts.grace_cycles = 3;
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_GE(out.quarantines, 1);
    EXPECT_GE(out.readmits, 1);
    EXPECT_GE(out.readds, 1); // the node physically rejoined
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

// Transient send failures are absorbed by bounded retry with backoff: the
// doomed attempts are counted, and no data is lost.
TEST(FaultRecovery, MessageLossRetries) {
    sim::ClusterConfig cc;
    cc.num_nodes = 2;
    cc.seed = 7;
    msg::Machine m(cc);
    m.cluster().install_faults(
        sim::FaultPlan::parse("lose-sends node=1 t=0 count=3\n"));
    std::vector<double> got;
    m.run([&](msg::Rank& r) {
        if (r.id() == 1) {
            for (int i = 0; i < 5; ++i) {
                double v = 100.0 + i;
                r.send(0, 9, &v, sizeof v);
            }
        } else {
            for (int i = 0; i < 5; ++i) {
                double v = 0;
                r.recv(1, 9, &v, sizeof v);
                got.push_back(v);
            }
        }
    });
    EXPECT_EQ(m.cluster().network().send_failures(), 3u);
    ASSERT_EQ(got.size(), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(got[(std::size_t)i], 100.0 + i);
}

// Frozen reports (stale value, fresh timestamp) are the documented blind
// spot of the staleness check — but the run must still complete correctly.
TEST(FaultRecovery, FrozenReportsDoNotBreakTheRun) {
    FaultParams fp;
    fp.nodes = 4;
    fp.rows = 48;
    fp.cycles = 60;
    fp.script = "freeze-reports node=2 t=0.5\n";
    FaultOutcome out = run_with_faults(fp);
    EXPECT_TRUE(out.data_ok);
    EXPECT_NEAR(out.checksum, expected_checksum(fp.rows), 1e-6);
}

}  // namespace
}  // namespace dynmpi
