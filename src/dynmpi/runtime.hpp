// The Dyn-MPI runtime (paper §4): the public API an application uses.
//
// Lifecycle:
//   Runtime rt(rank, N);
//   rt.register_dense / register_sparse          — §4.1 allocation
//   rt.init_phase, rt.add_array_access           — phases + DRSDs (§2.2)
//   rt.commit_setup()                            — calibration µ-benchmarks,
//                                                  initial distribution
//   loop over phase cycles:
//     rt.begin_cycle();
//     if (rt.participating())
//        ... compute on rt.start_iter()/end_iter(), exchange halos with
//        rt.exchange_neighbors, charge work via rt.run_phase(...) ...
//     rt.end_cycle();                            — monitor, adapt (§4.2–4.4)
//
// end_cycle() drives the §4.2–4.4 state machine of dynmpi/adaptation.hpp,
// executed identically on all ranks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dynmpi/adaptation.hpp"
#include "dynmpi/comm_model.hpp"
#include "dynmpi/dense_array.hpp"
#include "dynmpi/distribution.hpp"
#include "dynmpi/follower_message.hpp"
#include "dynmpi/redistributor.hpp"
#include "dynmpi/replica.hpp"
#include "dynmpi/sparse_matrix.hpp"
#include "dynmpi/timing.hpp"
#include "mpisim/collectives.hpp"

namespace dynmpi {

struct RuntimeOptions {
    bool adapt = true; ///< false: behave like plain MPI (the No-Adapt baseline)
    /// Initial distribution shape (paper §2.1: DMPI_BLOCK / DMPI_CYCLIC).
    /// Adaptation always produces variable blocks; a cyclic program that
    /// adapts is redistributed from its cyclic layout on the first change.
    Distribution::Kind initial_dist = Distribution::Kind::Block;
    int cyclic_block_size = 1;
    int grace_cycles = 5;       ///< paper default (§4.2)
    bool enable_removal = true;
    /// Drop loaded nodes at the post-grace decision point regardless of the
    /// §4.4 predictor (benches measure both configurations this way).
    bool force_drop_loaded = false;
    DropMode drop_mode = DropMode::Physical;
    BalanceScheme scheme = BalanceScheme::SuccessiveBalancing;
    /// Run comm µ-benchmarks at commit_setup; false prices communication
    /// with the default CommCosts{}.
    bool calibrate = true;
    int max_redistributions = -1;   ///< cap on adaptations; -1 = unlimited
                                    ///< (Figure 5's "Redist Once" arm uses 1)
    /// Memory-aware balancing (the AppLeS-style paging avoidance the paper
    /// cites): cap each node's block so registered arrays fit its physical
    /// memory.  Nodes over their memory page regardless (kPagingSlowdown x
    /// compute, runtime.cpp), so turning this off makes the cost visible.
    bool memory_aware = true;
    /// Crash resilience (docs/FAULTS.md): shadow each node's owned rows of
    /// every registered array onto its replication buddy (the successor in
    /// the active ring) so a crashed node's block is restored with real
    /// contents instead of zero-fill.  Dirty-row deltas ride every
    /// monitoring cycle.
    bool replicate = false;
};

/// What happened in one phase cycle (for benches and tests).
struct CycleRecord {
    int cycle = 0;
    double start_s = 0.0;
    double wall_s = 0.0;     ///< this rank's begin→end wall time
    double max_wall_s = 0.0; ///< active-set max (own wall when not adapting)
    int mode = 0;            ///< 0 monitor / 1 grace / 2 post-grace
    bool redistributed = false;
};

/// A structured record of one adaptation decision (for reports and tests).
struct AdaptationEvent {
    enum class Kind {
        LoadChange,   ///< monitor detected a dmpi_ps delta; grace begins
        Redistributed,///< a new distribution was applied
        Skipped,      ///< grace ended but the change was immaterial
        Dropped,      ///< loaded node(s) physically removed
        LogicalDrop,  ///< loaded node(s) reduced to the minimum assignment
        Readded,      ///< this node rejoined the active set
        NodeCrash,    ///< a node crashed; its rows were recovered
        Quarantine,   ///< a node's reports went bad; excluded from balancing
        Readmit,      ///< a quarantined node's reports recovered
        Rejoin,       ///< a revived (restarted) node was readmitted
    };
    Kind kind = Kind::LoadChange;
    int cycle = 0;
    double time_s = 0.0;
    std::string detail;
};

/// Outcome of one crashed node's row restoration (tests and the chaos
/// invariant "no zero-filled rows while the buddy was alive" read these).
struct RestoreRecord {
    int node = -1;          ///< the crashed owner
    int buddy = -1;         ///< its replication buddy (old-ring successor)
    bool buddy_alive = false;
    bool refreshed = false; ///< a replica refresh had completed beforehand
    int restored = 0;       ///< rows restored with real contents
    int lost = 0;           ///< rows zero-filled and handed to the app
};

struct RuntimeStats {
    int cycles = 0;
    int redistributions = 0;
    int physical_drops = 0;
    int logical_drops = 0;
    int readds = 0;
    int crash_repairs = 0;      ///< crashed nodes removed with row recovery
    int rejoins = 0;            ///< revived nodes readmitted to the active set
    int restored_rows = 0;      ///< crash-adopted rows restored from replicas
    int quarantines = 0;        ///< nodes quarantined for bad reports
    int quarantine_readmits = 0;
    int stale_fallbacks = 0;    ///< stale-report observations (leader only)
    double redist_wall_s = 0.0; ///< total time spent inside redistributions
    std::uint64_t replica_bytes = 0; ///< replica payload shipped by this rank
    std::vector<RestoreRecord> restores;
    std::vector<CycleRecord> history;
    std::vector<AdaptationEvent> events;
    RedistStats transfer;
};

class Runtime {
public:
    /// `global_rows` is the size of the distributed dimension shared by all
    /// registered arrays (and the iteration space of phases).
    Runtime(msg::Rank& rank, int global_rows, RuntimeOptions opts = {});

    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    // ---- setup (before commit_setup) ----

    DenseArray& register_dense(const std::string& name, int row_elems,
                               std::size_t elem_bytes);
    SparseMatrix& register_sparse(const std::string& name, int global_cols);

    /// Declare a phase over iterations [lo, hi) with the given communication
    /// shape; returns the phase id.
    int init_phase(int lo, int hi, PhaseComm comm);

    /// Attach a DRSD to a registered array (paper's DMPI_add_array_access).
    void add_array_access(const std::string& array, AccessMode mode,
                          int phase, int a = 1, int b = 0);

    /// Collective: calibrate the comm model, agree on node speeds, set the
    /// initial (even block) distribution and allocate rows.
    void commit_setup();

    // ---- per-cycle ----

    void begin_cycle();
    void end_cycle();

    /// Manual REDISTRIBUTE (the related-work annotation the paper contrasts
    /// itself against — here the burden really is on the programmer):
    /// collectively apply an explicit block assignment over the current
    /// active set.  Must be called between cycles by every world rank.
    void redistribute_manual(const std::vector<int>& counts);

    bool participating() const;
    int rel_rank() const;
    int num_active() const { return active_.size(); }

    /// Inclusive iteration bounds of this node for a phase (paper-style);
    /// start > end when the node holds nothing.
    int start_iter(int phase = 0) const;
    int end_iter(int phase = 0) const;
    RowSet my_iters(int phase = 0) const;

    /// Charge this cycle's compute for a phase and (during grace periods)
    /// record per-iteration measurements.  `row_costs` must align with
    /// my_iters(phase).to_vector().
    void run_phase(int phase, const std::vector<double>& row_costs);

    // ---- relative-rank messaging ----

    void send_rel(int rel_dst, int tag, const void* data, std::size_t bytes);
    std::size_t recv_rel(int rel_src, int tag, void* data,
                         std::size_t capacity);

    /// Halo exchange with the relative-rank neighbours (paper Figure 1):
    /// send `out(-1)` to rel-1 under `tag_prev` and `out(+1)` to rel+1 under
    /// `tag_next`, then pass rel+1's and rel-1's messages to `in(side,
    /// data)`.  No callback runs for a missing neighbour's side.
    void exchange_neighbors(
        int tag_prev, int tag_next, std::size_t bytes,
        const std::function<const void*(int side)>& out,
        const std::function<void(int side, const void* data)>& in);

    /// Allgather over `group` (the active set, possibly epoch-salted) of one
    /// value per owned row, ascending; returns them in global row order.
    std::vector<double> allgather_owned(const msg::Group& group,
                                        const std::vector<double>& mine);

    /// Global reduction with removed-node semantics (§4.4): active nodes
    /// compute the reduction; removed nodes skip the send-in but receive the
    /// result (send-out).  Must be called by every world rank.
    double allreduce_active(double value, msg::OpSum op);
    double allreduce_active(double value, msg::OpMax op);

    // ---- failure recovery ----

    /// Rows this node owns that crash recovery could NOT restore and
    /// zero-filled, not returned by an earlier call.  The rebalance one
    /// pass after a repair hands rows nobody has taken yet to their new
    /// owner, which reports them from then on.  Without
    /// replication (options().replicate == false) that is every adopted
    /// row — the runtime is checkpointless and a dead node's in-flight row
    /// contents are lost by design.  With replication on, restoration from
    /// the buddy's copies normally leaves this empty; a non-empty result is
    /// the double-crash diagnostic (owner and buddy both died within one
    /// refresh interval) and the application must re-initialize those rows.
    RowSet take_recovered_rows();

    /// After a crash repair with replication on: the cycle T every
    /// survivor agreed to restart from, taken once.  The restored rows of
    /// the dead nodes hold their state at the start of cycle T, so an
    /// application that keeps the start state of its current and previous
    /// cycle restores the one for T (no rollback when T is the next cycle)
    /// and carries on from T; the runtime's next cycle becomes T.  Empty
    /// when no repair happened since the last call.  Call between cycles.
    std::optional<int> take_rollback();

    // ---- introspection ----

    const Distribution& distribution() const { return dist_; }
    const msg::Group& active_group() const { return active_; }
    const RuntimeStats& stats() const { return stats_; }
    const CommCosts& comm_costs() const { return comm_costs_; }
    DenseArray& dense(const std::string& name);
    SparseMatrix& sparse(const std::string& name);
    msg::Rank& rank() { return rank_; }
    int global_rows() const { return global_rows_; }
    const RuntimeOptions& options() const { return opts_; }
    /// Last grace period's assembled global cost vector (for tests).
    const std::vector<double>& last_row_costs() const { return row_costs_; }

private:
    struct Phase {
        int lo = 0, hi = 0;
        PhaseComm comm;
        IterationTimer timer;
        bool measured_this_cycle = false;
    };

    ArrayInfo& info(const std::string& name);
    void record_event(AdaptationEvent::Kind kind, std::string detail);

    double my_load() const;       ///< dmpi_ps average competing
    double node_speed() const;

    // ---- failure recovery internals ----

    /// Salt for protocol groups: changes whenever a crash or an explicit
    /// revocation starts a new recovery epoch, so retried rounds can never
    /// match messages from abandoned ones.  0 (hash-neutral) until the
    /// first fault.
    msg::Group protocol_group() const;

    /// Whether node w's dmpi_ps report is older than the staleness window.
    bool report_stale(int w) const;

    /// Leader-only, once per cycle: update per-node bad/clean report
    /// streaks and decide whether quarantine state wants an adaptation.
    void leader_scan_reports();

    /// Drop crashed members from the active set, left-merging their row
    /// blocks into surviving predecessors (zero data movement).  Without
    /// replication, adopted rows are recorded in recovered_rows_; with it,
    /// restore jobs are queued for perform_pending_restores.  The blocks
    /// from before the crash are kept for rebalance_survivors.  Returns
    /// true if anything changed.
    bool repair_active_set();

    /// The monitoring pass after a repair's: spread the rows over the
    /// survivors in the shares they held before the crash
    /// (survivor_counts), handing zero-filled rows the application has not
    /// taken yet to their new owners.
    void rebalance_survivors(const msg::Group& pg);

    /// Protocol round after a repair: survivors agree on the rollback
    /// cycle T, the minimum over every survivor's restartable cycle and
    /// over the version of each dead node's last complete replica refresh
    /// (see take_rollback).
    void agree_rollback(const msg::Group& pg);

    // ---- replication + rejoin internals ----

    /// Ship this node's rows of every array to its ring successor and
    /// absorb the predecessor's.  `wholesale` sends full ownership (used
    /// around redistributions, `salt` = the redistribution sequence);
    /// otherwise only dirty rows go out (`salt` = the cycle number).
    /// Re-entrant across recovery retries: per-salt resume counters skip
    /// completed sends/receives so replayed attempts stay matched.
    void replica_refresh(bool wholesale, std::uint64_t salt);

    /// Drain queued restore jobs: buddies ship their copies of dead nodes'
    /// rows to the adopters, which unpack them in place.  Rows the buddy
    /// never saw (or whose buddy also died) are zero-filled and reported
    /// through take_recovered_rows.  Safe to retry after a failure.
    void perform_pending_restores();

    /// Leader only: hand revived node `w` (generation `gen`) the Bootstrap
    /// it needs to rejoin as a removed follower of the status channel.
    void send_bootstrap(int w, int gen);

    /// Reborn-rank side of commit_setup: skip the setup collectives and
    /// wait for the leader's bootstrap instead.
    void bootstrap_rejoin();

    /// A `kind` message with `active`, `loads` and this rank's follower
    /// state.
    FollowerMessage follower_state(FollowerMessage::Kind kind,
                                   const msg::Group& active,
                                   const std::vector<double>& loads) const;
    /// The one entry path for a node outside the active set: install the
    /// message's state; a Readd then joins the redistribution through
    /// apply_distribution.
    void follow(const FollowerMessage& m);

    /// Monitoring dispatch with failure recovery: retries the cycle's
    /// control protocol on an epoch-salted group until it completes without
    /// a peer failure or revocation.
    void run_monitoring(CycleRecord& rec, double wall);

    // ---- monitoring internals (all control-plane traffic) ----

    /// A decision's inputs around one consistent view of every node's
    /// dmpi_ps average: relative rank 0 reads all daemons (single reader →
    /// no divergence) and broadcasts it, with quarantine and joinable flags,
    /// within `pg`.  Stale and crashed nodes keep their last-known load.
    DecisionInputs read_world_loads(const msg::Group& pg);
    /// Bytes per row for memory caps, the same on every rank of `pg`: exact
    /// for dense arrays, the mean over every row `pg` holds for sparse ones.
    std::size_t agreed_row_bytes(const msg::Group& pg);
    /// Allgather this grace period's per-row cost estimates into row_costs_.
    const std::vector<double>& gather_row_costs(const msg::Group& pg);

    /// Per-cycle status from relative rank 0 to every removed node: Steady,
    /// or Readd for a node the decision (taken under `loads`) brings back.
    void send_statuses(const msg::Group& active_before,
                       const Decision* decision,
                       const std::vector<double>& loads);
    void active_cycle_monitor(CycleRecord& rec, double wall);
    /// Removed-node side of a cycle: receive the status and follow() it.
    void removed_cycle_follow();

    /// Paging factor for this node right now (1.0 when data fits).
    double paging_factor() const;

    /// (Re)open the grace window: count from zero, restart per-row timers.
    void restart_grace();
    /// A membership change voids the open window's measurements: reopen a
    /// grace window (per-row timers) or a post-grace window (§4.4's mean).
    void restart_window();
    /// Both sides of an applied grace decision enter post-grace here,
    /// recording a Rejoin for each revived node now active.
    void enter_post_grace();
    void finish_post_grace(const msg::Group& pg);
    /// Move to (new_active, new_dist); emits the redist.apply span.
    void apply_distribution(const msg::Group& new_active,
                            const Distribution& new_dist);

    msg::Rank& rank_;
    int global_rows_;
    RuntimeOptions opts_;
    bool committed_ = false;

    msg::Group world_;
    msg::Group active_;
    Distribution dist_;
    std::vector<ArrayInfo> arrays_;
    std::vector<Phase> phases_;
    std::vector<double> speeds_;   ///< per world rank
    std::vector<double> memories_; ///< per world rank, bytes (0 = unlimited)

    CommCosts comm_costs_;
    ModeState mode_;
    std::vector<double> baseline_loads_; ///< loads at last decision point
    std::vector<double> row_costs_; ///< latest global per-row cost estimates

    double cycle_start_ = 0.0;
    bool in_cycle_ = false;
    bool monitoring_ = false; ///< inside end_cycle's monitoring pass
    std::uint64_t cycle_epoch_ = 0; ///< revocation epoch at begin_cycle
    /// No crash or revocation landed between begin_cycle and end_cycle, so
    /// this rank's rows already hold the start state of the next cycle.
    bool cycle_clean_ = true;
    std::uint64_t redist_seq_ = 0;
    std::uint64_t sendout_seq_ = 0;

    // ---- hardening state ----
    RowSet recovered_rows_;        ///< crash-adopted rows awaiting the app
    std::vector<int> bad_streak_;  ///< per world rank (leader maintained)
    std::vector<int> clean_streak_;
    std::vector<int> quarantined_;  ///< per world rank, bcast with loads
    bool quarantine_due_ = false;   ///< leader: transitions want a grace
    bool statuses_sent_this_cycle_ = false;

    // ---- replication + rejoin state ----
    std::unique_ptr<ReplicaStore> replicas_;
    int refreshes_done_ = 0;        ///< completed refreshes on this rank
    std::uint64_t replica_xfer_key_ = ~0ULL; ///< resume key (cycle or seq)
    int replica_arrays_sent_ = 0;   ///< per-key retry resume points
    int replica_arrays_recvd_ = 0;
    bool replica_skip_cycle_ = false; ///< membership changed mid-cycle
    bool rollback_due_ = false;        ///< a repair awaits agree_rollback
    std::optional<int> rollback_;      ///< agreed, not yet taken
    std::uint64_t rollbacks_ = 0;      ///< rollbacks taken (refresh salt)
    /// The blocks before the first crash since the last redistribution,
    /// with the members that held them; empty when no rebalance is due.
    std::vector<int> pre_crash_members_;
    std::vector<int> pre_crash_counts_;
    /// One queued restoration of a dead node's block from its buddy.
    struct PendingRestore {
        int dead = -1;
        int buddy = -1;   ///< old-ring successor of `dead`
        int adopter = -1; ///< the left-merge owner of `dead`'s rows
        int gen = 0;      ///< dead node's generation (tag salt)
        RowSet rows;
        int arrays_done = 0; ///< resume point across retries
        RowSet missing;      ///< rows absent from any array's restore
    };
    std::vector<PendingRestore> pending_restores_;
    std::vector<int> bootstrapped_gen_; ///< leader: generation bootstrapped
    std::vector<int> bootstrap_cycle_;  ///< leader: cycle it was sent
    std::vector<int> seen_gen_; ///< per world rank: generation last active

    RuntimeStats stats_;
};

}  // namespace dynmpi
