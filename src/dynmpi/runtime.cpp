#include "dynmpi/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mpisim/rank.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"
#include "support/wire.hpp"
#include "support/rng.hpp"

namespace dynmpi {

namespace {
// Runtime hardening (docs/FAULTS.md).
/// Load reports older than max(this, 2 x the dmpi_ps period) fall back to the
/// last-known value, so slow daemons are not misread as faulty ones.
constexpr double kReportStalenessS = 3.0;
/// Consecutive stale reports before a node is quarantined (logically dropped
/// from the candidate set).
constexpr int kQuarantineBadReports = 3;
/// Consecutive clean reports before a quarantined node may be readmitted.
constexpr int kReadmitCleanCycles = 8;
/// Compute slowdown of a node whose arrays exceed its physical memory.
constexpr double kPagingSlowdown = 4.0;
}  // namespace

Runtime::Runtime(msg::Rank& rank, int global_rows, RuntimeOptions opts)
    : rank_(rank),
      global_rows_(global_rows),
      opts_(std::move(opts)),
      world_(msg::Group::world(rank)),
      active_(world_) {
    DYNMPI_REQUIRE(global_rows_ > 0, "need at least one row");
    DYNMPI_REQUIRE(opts_.grace_cycles > 0, "grace periods must be positive");
    bad_streak_.assign(static_cast<std::size_t>(world_.size()), 0);
    clean_streak_.assign(static_cast<std::size_t>(world_.size()), 0);
    quarantined_.assign(static_cast<std::size_t>(world_.size()), 0);
    bootstrapped_gen_.assign(static_cast<std::size_t>(world_.size()), 0);
    bootstrap_cycle_.assign(static_cast<std::size_t>(world_.size()), -1);
    seen_gen_.assign(static_cast<std::size_t>(world_.size()), 0);
    dist_ = opts_.initial_dist == Distribution::Kind::Block
                ? Distribution::even_block(0, global_rows_, world_.size())
                : Distribution::cyclic(0, global_rows_, world_.size(),
                                       opts_.cyclic_block_size);
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

namespace {
std::string counts_string(const std::vector<int>& counts) {
    std::string s;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i) s += '/';
        s += std::to_string(counts[i]);
    }
    return s;
}

using support::targ;

/// Trace event name for an adaptation decision (docs/OBSERVABILITY.md).
const char* adaptation_trace_name(AdaptationEvent::Kind k) {
    switch (k) {
    case AdaptationEvent::Kind::LoadChange: return "runtime.load_change";
    case AdaptationEvent::Kind::Redistributed: return "runtime.redistributed";
    case AdaptationEvent::Kind::Skipped: return "runtime.skipped";
    case AdaptationEvent::Kind::Dropped: return "runtime.dropped";
    case AdaptationEvent::Kind::LogicalDrop: return "runtime.logical_drop";
    case AdaptationEvent::Kind::Readded: return "runtime.readded";
    case AdaptationEvent::Kind::NodeCrash: return "runtime.node_crash";
    case AdaptationEvent::Kind::Quarantine: return "runtime.quarantine";
    case AdaptationEvent::Kind::Readmit: return "runtime.readmit";
    case AdaptationEvent::Kind::Rejoin: return "runtime.rejoin";
    }
    return "runtime.event"; // dynmpi-lint: ok(trace-name) unreachable
}

/// Metric counter name for an adaptation decision (rank 0 records once per
/// run-level decision).  Re-adds have none here: the deciding leader counts
/// them per node.
const char* adaptation_counter_name(AdaptationEvent::Kind k) {
    switch (k) {
    case AdaptationEvent::Kind::LoadChange: return "runtime.load_changes";
    case AdaptationEvent::Kind::Redistributed:
        return "runtime.redistributions";
    case AdaptationEvent::Kind::Skipped: return "runtime.skips";
    case AdaptationEvent::Kind::Dropped: return "runtime.drops.physical";
    case AdaptationEvent::Kind::LogicalDrop: return "runtime.drops.logical";
    case AdaptationEvent::Kind::Readded: return nullptr;
    case AdaptationEvent::Kind::NodeCrash: return "runtime.crashes";
    case AdaptationEvent::Kind::Quarantine: return "runtime.quarantines";
    case AdaptationEvent::Kind::Readmit: return "runtime.readmits";
    case AdaptationEvent::Kind::Rejoin: return "runtime.rejoins";
    }
    return "runtime.events"; // dynmpi-lint: ok(trace-name) unreachable
}

const char* mode_name(int mode) {
    switch (mode) {
    case 0: return "monitor";
    case 1: return "grace";
    case 2: return "post_grace";
    }
    return "?";
}
}  // namespace

void Runtime::record_event(AdaptationEvent::Kind kind, std::string detail) {
    AdaptationEvent e;
    e.kind = kind;
    e.cycle = stats_.cycles;
    e.time_s = rank_.hrtime();
    if (support::trace().enabled())
        support::trace().instant(e.time_s, rank_.id(),
                                 adaptation_trace_name(kind),
                                 {targ("cycle", e.cycle),
                                  targ("detail", detail)});
    const char* counter = adaptation_counter_name(kind);
    if (counter && support::metrics().enabled() && rank_.id() == 0)
        support::metrics().counter(counter).add(1);
    e.detail = std::move(detail);
    stats_.events.push_back(std::move(e));
}

ArrayInfo& Runtime::info(const std::string& name) {
    for (auto& a : arrays_)
        if (a.array->name() == name) return a;
    throw Error("unknown Dyn-MPI array: " + name);
}

DenseArray& Runtime::register_dense(const std::string& name, int row_elems,
                                    std::size_t elem_bytes) {
    DYNMPI_REQUIRE(!committed_, "registration after commit_setup");
    ArrayInfo ai;
    ai.array = std::make_unique<DenseArray>(name, global_rows_, row_elems,
                                            elem_bytes);
    arrays_.push_back(std::move(ai));
    return static_cast<DenseArray&>(*arrays_.back().array);
}

SparseMatrix& Runtime::register_sparse(const std::string& name,
                                       int global_cols) {
    DYNMPI_REQUIRE(!committed_, "registration after commit_setup");
    ArrayInfo ai;
    ai.array =
        std::make_unique<SparseMatrix>(name, global_rows_, global_cols);
    arrays_.push_back(std::move(ai));
    return static_cast<SparseMatrix&>(*arrays_.back().array);
}

int Runtime::init_phase(int lo, int hi, PhaseComm comm) {
    DYNMPI_REQUIRE(!committed_, "init_phase after commit_setup");
    DYNMPI_REQUIRE(lo >= 0 && hi <= global_rows_ && lo < hi,
                   "phase bounds outside the iteration space");
    Phase p;
    p.lo = lo;
    p.hi = hi;
    p.comm = comm;
    p.timer = IterationTimer(rank_.node().cpu().params().jiffy_s);
    phases_.push_back(std::move(p));
    return static_cast<int>(phases_.size()) - 1;
}

void Runtime::add_array_access(const std::string& array, AccessMode mode,
                               int phase, int a, int b) {
    DYNMPI_REQUIRE(!committed_, "add_array_access after commit_setup");
    DYNMPI_REQUIRE(phase >= 0 && phase < static_cast<int>(phases_.size()),
                   "unknown phase");
    info(array).accesses.push_back(Drsd{array, mode, phase, a, b});
}

void Runtime::commit_setup() {
    DYNMPI_REQUIRE(!committed_, "commit_setup called twice");
    DYNMPI_REQUIRE(!phases_.empty(), "define at least one phase");

    replicas_ = std::make_unique<ReplicaStore>(arrays_.size());
    if (rank_.node().generation() > 0) {
        // This process was restarted after its node revived: the rest of
        // the world is mid-run, so the setup collectives below are long
        // gone.  Rejoin through the leader's bootstrap instead.
        bootstrap_rejoin();
        return;
    }

    comm_costs_ =
        opts_.calibrate ? calibrate_comm_costs(rank_, world_) : CommCosts{};
    // Node speeds and memories: the leader gathers each node's pair and
    // broadcasts all of them in one message.
    const auto pairs = msg::gather(
        rank_, world_, 0,
        std::vector<double>{node_speed(),
                            static_cast<double>(rank_.node().memory_bytes())});
    std::vector<double> blob;
    for (const auto& pair : pairs) blob.push_back(pair.at(0));
    for (const auto& pair : pairs) blob.push_back(pair.at(1));
    msg::bcast(rank_, world_, 0, blob);
    const auto W = static_cast<std::ptrdiff_t>(world_.size());
    DYNMPI_CHECK(blob.size() == 2 * static_cast<std::size_t>(W),
                 "bad speed and memory snapshot");
    speeds_.assign(blob.begin(), blob.begin() + W);
    memories_.assign(blob.begin() + W, blob.end());
    // The baseline is the load the *current distribution* was computed for.
    // The initial even-block split assumes dedicated nodes, so any load that
    // already exists at startup must register as a change on cycle one.
    baseline_loads_.assign(static_cast<std::size_t>(world_.size()), 0.0);

    // Allocate this node's initial rows (zero-filled; the app initializes).
    for (auto& ai : arrays_) {
        RowSet need = needed_rows(active_, dist_, rank_.id(), ai.accesses,
                                  global_rows_);
        ai.array->ensure_rows(need);
    }
    row_costs_.assign(static_cast<std::size_t>(global_rows_), 0.0);
    committed_ = true;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

bool Runtime::participating() const {
    return active_.contains(rank_.id());
}

int Runtime::rel_rank() const {
    int rel = active_.index_of(rank_.id());
    DYNMPI_REQUIRE(rel >= 0, "rel_rank on a removed node");
    return rel;
}

RowSet Runtime::my_iters(int phase) const {
    DYNMPI_REQUIRE(phase >= 0 && phase < static_cast<int>(phases_.size()),
                   "unknown phase");
    if (!participating()) return {};
    const Phase& p = phases_[static_cast<std::size_t>(phase)];
    return dist_.iters_of(rel_rank()).clip(p.lo, p.hi);
}

int Runtime::start_iter(int phase) const {
    RowSet it = my_iters(phase);
    return it.empty() ? 0 : it.first();
}

int Runtime::end_iter(int phase) const {
    RowSet it = my_iters(phase);
    return it.empty() ? -1 : it.last();
}

DenseArray& Runtime::dense(const std::string& name) {
    auto* p = dynamic_cast<DenseArray*>(info(name).array.get());
    DYNMPI_REQUIRE(p != nullptr, name + " is not a dense array");
    return *p;
}

SparseMatrix& Runtime::sparse(const std::string& name) {
    auto* p = dynamic_cast<SparseMatrix*>(info(name).array.get());
    DYNMPI_REQUIRE(p != nullptr, name + " is not a sparse matrix");
    return *p;
}

double Runtime::my_load() const {
    return rank_.ps_daemon().avg_competing();
}

double Runtime::node_speed() const {
    return rank_.node().cpu().params().speed;
}

// ---------------------------------------------------------------------------
// Failure recovery
// ---------------------------------------------------------------------------

msg::Group Runtime::protocol_group() const {
    return msg::Group(active_.members(), rank_.machine().revoke_epoch());
}

namespace {
/// Bootstrap for a restarted rank, unique per (node, incarnation).
std::uint64_t bootstrap_tag(int node, int generation) {
    return msg::make_tag(
        msg::TagSpace::Runtime,
        hash_combine(0xB0075ULL,
                     hash_combine(static_cast<std::uint64_t>(node),
                                  static_cast<std::uint64_t>(generation))));
}

/// Replica traffic: refresh deltas (salted by cycle) and wholesale rewrites
/// (salted by redistribution sequence) share the shape; `wholesale`
/// separates the two tag families.
std::uint64_t replica_tag(bool wholesale, std::uint64_t salt,
                          std::size_t array_idx) {
    std::uint64_t base = wholesale ? 0x4EBCA7AULL : 0x4EBF2E5ULL;
    return msg::make_tag(
        msg::TagSpace::Runtime,
        hash_combine(base, hash_combine(salt, array_idx)));
}

/// Restore of a dead node's rows, unique per (node, incarnation, array):
/// deliberately NOT epoch-salted, so an adopter's retried receive still
/// matches the blob the buddy already shipped in an abandoned round.
std::uint64_t restore_tag(int dead, int generation, std::size_t array_idx) {
    return msg::make_tag(
        msg::TagSpace::Runtime,
        hash_combine(0x2E5702EULL,
                     hash_combine(static_cast<std::uint64_t>(dead),
                                  hash_combine(
                                      static_cast<std::uint64_t>(generation),
                                      array_idx))));
}
}  // namespace

void Runtime::send_bootstrap(int w, int gen) {
    // Tell the node to pick up the status channel from the NEXT cycle (this
    // cycle's send-outs are already in flight).  A leader elected after a
    // crash re-sends — its tracking is stale — and the duplicate is simply
    // never matched.
    bootstrapped_gen_[static_cast<std::size_t>(w)] = gen;
    bootstrap_cycle_[static_cast<std::size_t>(w)] = stats_.cycles;
    FollowerMessage m = follower_state(FollowerMessage::Kind::Bootstrap,
                                       active_, baseline_loads_);
    m.next_cycle = static_cast<std::uint64_t>(stats_.cycles + 1);
    m.sendout_seq = sendout_seq_;
    m.speeds = speeds_;
    m.memories = memories_;
    m.comm_costs = comm_costs_;
    m.group_seqs = rank_.export_group_seqs();
    std::vector<std::byte> blob = m.encode();
    rank_.send_wire(w, bootstrap_tag(w, gen), blob.data(), blob.size());
}

void Runtime::bootstrap_rejoin() {
    msg::Rank::ControlScope control(rank_);
    std::uint64_t tag = bootstrap_tag(rank_.id(), rank_.node().generation());
    std::vector<std::byte> blob;
    for (;;) {
        try {
            rank_.sync_revocations();
            blob = rank_.recv_wire(msg::kAnySource, tag);
            break;
        } catch (const msg::EpochRevoked&) {
        } catch (const msg::PeerFailure&) {
        }
    }
    FollowerMessage m = FollowerMessage::decode(blob);
    DYNMPI_CHECK(m.kind == FollowerMessage::Kind::Bootstrap,
                 "expected a bootstrap");
    follow(m);
    row_costs_.assign(static_cast<std::size_t>(global_rows_), 0.0);
    committed_ = true;
}

FollowerMessage Runtime::follower_state(
    FollowerMessage::Kind kind, const msg::Group& active,
    const std::vector<double>& loads) const {
    FollowerMessage m;
    m.kind = kind;
    m.active = active.members();
    m.redist_seq = redist_seq_;
    m.baseline_loads = loads;
    m.quarantined = quarantined_;
    return m;
}

void Runtime::follow(const FollowerMessage& m) {
    active_ = msg::Group(m.active);
    DYNMPI_CHECK(!active_.contains(rank_.id()),
                 "follower message lists this rank as active");
    if (m.kind == FollowerMessage::Kind::Steady) return;

    const auto W = static_cast<std::size_t>(world_.size());
    DYNMPI_CHECK(m.baseline_loads.size() == W && m.quarantined.size() == W,
                 "follower state does not cover the world");
    redist_seq_ = m.redist_seq;
    baseline_loads_ = m.baseline_loads;
    quarantined_ = m.quarantined;

    if (m.kind == FollowerMessage::Kind::Bootstrap) {
        DYNMPI_CHECK(m.speeds.size() == W && m.memories.size() == W,
                     "bootstrap does not cover the world");
        stats_.cycles = static_cast<int>(m.next_cycle);
        sendout_seq_ = m.sendout_seq;
        speeds_ = m.speeds;
        memories_ = m.memories;
        comm_costs_ = m.comm_costs;
        // The leader's collective counters, so this rank's next collective
        // on any shared group lines up with the survivors'.
        rank_.import_group_seqs(m.group_seqs);
        return;
    }

    // Re-add: take the leader's distribution as this node's own and join
    // the redistribution like any active member.
    DYNMPI_CHECK(m.row_costs.size() == static_cast<std::size_t>(global_rows_),
                 "re-add row costs do not cover the rows");
    DYNMPI_CHECK(m.old_counts.size() == m.active.size() &&
                     m.new_counts.size() == m.new_active.size(),
                 "re-add counts do not match their active sets");
    dist_ = Distribution::block(0, global_rows_, m.old_counts);
    row_costs_ = m.row_costs;
    apply_distribution(msg::Group(m.new_active),
                       Distribution::block(0, global_rows_, m.new_counts));
    ++stats_.readds;
    record_event(AdaptationEvent::Kind::Readded,
                 "rejoined as one of " + std::to_string(active_.size()) +
                     " nodes");
    enter_post_grace();
}

// dynmpi-lint: repair-critical
RowSet Runtime::take_recovered_rows() {
    RowSet r = std::move(recovered_rows_);
    recovered_rows_ = RowSet{};
    return r;
}

std::optional<int> Runtime::take_rollback() {
    DYNMPI_REQUIRE(!in_cycle_, "take_rollback inside a cycle");
    const std::optional<int> t = std::exchange(rollback_, std::nullopt);
    if (t) {
        stats_.cycles = *t;
        // Cycles from T on run again: a fresh refresh salt keeps their
        // replica traffic apart from packets of the abandoned attempt.
        ++rollbacks_;
    }
    return t;
}

bool Runtime::report_stale(int w) const {
    const sim::PsDaemon& d = rank_.machine().cluster().daemon(w);
    if (d.last_sample_time() < 0) return false; // no completed window yet
    double age = rank_.hrtime() - sim::to_seconds(d.last_sample_time());
    double window = std::max(kReportStalenessS,
                             2.0 * sim::to_seconds(d.period()));
    return age > window;
}

void Runtime::leader_scan_reports() {
    quarantine_due_ = false;
    auto& cluster = rank_.machine().cluster();
    for (int w : world_.members()) {
        auto wi = static_cast<std::size_t>(w);
        if (cluster.node_crashed(w)) continue;
        if (report_stale(w)) {
            clean_streak_[wi] = 0;
            ++bad_streak_[wi];
            ++stats_.stale_fallbacks;
            if (support::trace().enabled()) {
                double age = rank_.hrtime() -
                             sim::to_seconds(
                                 cluster.daemon(w).last_sample_time());
                support::trace().instant(rank_.hrtime(), rank_.id(),
                                         "runtime.stale_report",
                                         {targ("cycle", stats_.cycles),
                                          targ("node", w),
                                          targ("age_s", age)});
            }
        } else {
            bad_streak_[wi] = 0;
            ++clean_streak_[wi];
        }
        bool q = quarantined_[wi] != 0;
        if (!q && bad_streak_[wi] >= kQuarantineBadReports)
            quarantine_due_ = true;
        if (q && clean_streak_[wi] >= kReadmitCleanCycles)
            quarantine_due_ = true;
    }
}

// Membership repair must stay local and total: every surviving rank derives
// the identical left-merge from cluster state alone, with no messaging that
// could throw mid-repair.  The linter (EXC002) enforces this.
// dynmpi-lint: repair-critical
bool Runtime::repair_active_set() {
    auto& cluster = rank_.machine().cluster();
    std::vector<int> dead, survivors;
    for (int m : active_.members())
        (cluster.node_crashed(m) ? dead : survivors).push_back(m);
    if (dead.empty()) return false;
    DYNMPI_REQUIRE(!survivors.empty(), "every active node crashed");

    if (!participating()) {
        // Removed nodes only track membership; they own no rows.
        active_ = msg::Group(std::move(survivors));
        return true;
    }

    // Checkpointless row recovery: each dead member's block is left-merged
    // into its nearest surviving predecessor (the first survivor absorbs any
    // dead prefix).  No data moves between survivors; adopted rows start
    // zero-filled.  With replication on, a restore job per dead node is
    // queued so the adopter refills them from the buddy's copies; without
    // it they go to the application via take_recovered_rows().  The next
    // monitoring pass rebalances (rebalance_survivors).
    std::vector<int> old_counts = dist_.counts();
    std::vector<int> new_counts;
    int carry = 0;
    for (int j = 0; j < active_.size(); ++j) {
        int c = old_counts[static_cast<std::size_t>(j)];
        if (cluster.node_crashed(active_.member(j))) {
            if (!new_counts.empty())
                new_counts.back() += c;
            else
                carry += c;
        } else {
            new_counts.push_back(c + carry);
            carry = 0;
        }
    }

    if (opts_.replicate) {
        // Queue one restore per dead member before the old ring is torn
        // down: buddy = its old-ring successor (holder of its replicas),
        // adopter = the left-merge owner of its block.  Every surviving
        // rank derives the identical list.
        const int n = active_.size();
        for (int j = 0; j < n; ++j) {
            int d = active_.member(j);
            if (!cluster.node_crashed(d)) continue;
            RowSet rows = dist_.iters_of(j);
            if (rows.empty()) continue;
            PendingRestore pr;
            pr.dead = d;
            pr.buddy = active_.member((j + 1) % n);
            pr.adopter = -1;
            for (int k = j - 1; k >= 0 && pr.adopter < 0; --k)
                if (!cluster.node_crashed(active_.member(k)))
                    pr.adopter = active_.member(k);
            if (pr.adopter < 0) pr.adopter = survivors.front();
            pr.gen = cluster.node_generation(d);
            pr.rows = std::move(rows);
            pending_restores_.push_back(std::move(pr));
        }
    }

    // A second crash before the rebalance keeps the first one's blocks, so
    // the rebalance never scales a left-merged block.
    if (pre_crash_members_.empty()) {
        pre_crash_members_ = active_.members();
        pre_crash_counts_ = old_counts;
    }

    msg::Group new_active(survivors);
    Distribution new_dist = Distribution::block(0, global_rows_, new_counts);
    RowSet adopted =
        owned_rows(new_active, new_dist, rank_.id())
            .subtract(owned_rows(active_, dist_, rank_.id()));

    active_ = new_active;
    dist_ = new_dist;
    for (auto& ai : arrays_) {
        RowSet need = needed_rows(active_, dist_, rank_.id(), ai.accesses,
                                  global_rows_);
        ai.array->ensure_rows(need);
    }
    if (opts_.replicate) {
        // The ring changed under us: our successor may be new, so the next
        // refresh must re-ship everything we own, and any half-finished
        // refresh this cycle is abandoned (tags would no longer line up).
        RowSet owned = dist_.iters_of(active_.index_of(rank_.id()));
        for (auto& ai : arrays_) ai.array->mark_rows_dirty(owned);
        replica_skip_cycle_ = true;
        rollback_due_ = true;
    } else {
        recovered_rows_ = recovered_rows_.unite(adopted);
    }
    stats_.crash_repairs += static_cast<int>(dead.size());
    for (int d : dead)
        record_event(AdaptationEvent::Kind::NodeCrash,
                     "node " + std::to_string(d) + " removed");
    if (support::trace().enabled())
        for (int d : dead)
            support::trace().instant(rank_.hrtime(), rank_.id(),
                                     "runtime.crash_repair",
                                     {targ("cycle", stats_.cycles),
                                      targ("node", d),
                                      targ("rows_adopted", adopted.count())});
    return true;
}

void Runtime::rebalance_survivors(const msg::Group& pg) {
    std::vector<int> counts; // stays empty when no redistribution is left
    if (opts_.max_redistributions < 0 ||
        stats_.redistributions < opts_.max_redistributions) {
        std::vector<char> dead;
        for (int w : pre_crash_members_)
            dead.push_back(active_.contains(w) ? 0 : 1);
        counts = survivor_counts(
            pre_crash_counts_, dead,
            row_caps(opts_, memories_, agreed_row_bytes(pg),
                     active_.members()));
    }
    if (counts.empty() || counts == dist_.counts()) {
        pre_crash_members_.clear();
        pre_crash_counts_.clear();
        return;
    }
    // Zero-filled rows the application has not taken yet move with the
    // rows: every survivor learns all of them, and each new owner reports
    // its share through take_recovered_rows().
    std::vector<int> mine;
    for (const RowInterval& iv : recovered_rows_.intervals()) {
        mine.push_back(iv.lo);
        mine.push_back(iv.hi);
    }
    RowSet untaken;
    for (const std::vector<int>& theirs : msg::allgather(rank_, pg, mine))
        for (std::size_t k = 0; k + 1 < theirs.size(); k += 2)
            untaken.add(theirs[k], theirs[k + 1]);

    const Distribution before = dist_;
    apply_distribution(active_, Distribution::block(0, global_rows_, counts));
    recovered_rows_ = untaken.intersect(dist_.iters_of(rel_rank()));
    restart_window();
    if (support::trace().enabled()) {
        int moved = 0; // rows that changed owner, cluster-wide
        for (int j = 0; j < active_.size(); ++j)
            moved += dist_.iters_of(j).subtract(before.iters_of(j)).count();
        support::trace().instant(rank_.hrtime(), rank_.id(),
                                 "runtime.crash_rebalance",
                                 {targ("cycle", stats_.cycles),
                                  targ("rows_moved", moved)});
    }
}

void Runtime::replica_refresh(bool wholesale, std::uint64_t salt) {
    const int n = active_.size();
    if (n < 2 || arrays_.empty()) return; // no buddy to shadow onto
    if (!active_.contains(rank_.id())) {
        // Just removed for load: the new ring refreshes among its own
        // members.  Stale replicas die here; readd rebuilds them wholesale.
        replicas_->clear();
        return;
    }
    const int rel = rel_rank();
    const int succ = active_.member((rel + 1) % n);
    const int pred = active_.member((rel - 1 + n) % n);
    // Replica payload is application data: full CPU + wire cost even when
    // the refresh rides the (control-plane) monitoring cycle.
    msg::Rank::ControlScope data_plane(rank_, /*enable=*/false);
    // Resume counters make retried recovery attempts replay-safe: completed
    // sends are never duplicated and completed receives never re-posted.
    const std::uint64_t key =
        hash_combine(wholesale ? 0x4EBCA7AULL : 0x4EBF2E5ULL, salt);
    if (replica_xfer_key_ != key) {
        replica_xfer_key_ = key;
        replica_arrays_sent_ = 0;
        replica_arrays_recvd_ = 0;
        replicas_->discard_staged();
    }
    // Inside end_cycle the rows already hold the next cycle's start state;
    // between cycles (a manual redistribution), the coming cycle's.
    const int version = stats_.cycles + (monitoring_ ? 1 : 0);
    const RowSet owned = dist_.iters_of(rel);
    double t0 = rank_.hrtime();
    std::uint64_t bytes_out = 0;
    int rows_out = 0;
    while (replica_arrays_sent_ < static_cast<int>(arrays_.size())) {
        auto i = static_cast<std::size_t>(replica_arrays_sent_);
        DistArray& a = *arrays_[i].array;
        RowSet rows = wholesale ? owned : a.dirty_rows(owned);
        const RowPayload payload = a.pack_rows(rows);
        send_rows(rank_, succ, replica_tag(wholesale, salt, i), payload);
        a.clear_dirty(rows);
        bytes_out += payload.wire_size();
        rows_out += rows.count();
        ++replica_arrays_sent_;
    }
    stats_.replica_bytes += bytes_out;
    if (support::metrics().enabled() && bytes_out > 0)
        support::metrics().counter("runtime.replica_bytes")
            .add(static_cast<std::int64_t>(bytes_out));
    while (replica_arrays_recvd_ < static_cast<int>(arrays_.size())) {
        auto i = static_cast<std::size_t>(replica_arrays_recvd_);
        replicas_->stage(i,
                         recv_rows(rank_, pred, replica_tag(wholesale, salt, i)));
        // All or nothing: a refresh whose sender dies midway never
        // replaces the version before it.
        if (++replica_arrays_recvd_ == static_cast<int>(arrays_.size()))
            replicas_->commit(version, pred, wholesale);
    }
    ++refreshes_done_;
    if (support::trace().enabled())
        support::trace().span(t0, rank_.hrtime(), rank_.id(),
                              "runtime.replica_refresh",
                              {targ("cycle", stats_.cycles),
                               targ("wholesale", wholesale),
                               targ("rows", rows_out),
                               targ("bytes",
                                    static_cast<std::int64_t>(bytes_out))});
}

void Runtime::perform_pending_restores() {
    if (pending_restores_.empty()) return;
    auto& cluster = rank_.machine().cluster();
    const int me = rank_.id();
    msg::Rank::ControlScope data_plane(rank_, /*enable=*/false);
    // The buddy's copies are usable only if they hold the agreed rollback
    // cycle's state; otherwise every row counts as lost.
    auto restorable = [&](std::size_t i, const RowSet& rows) {
        return rollback_ && replicas_->version() == *rollback_
                   ? replicas_->extract(i, rows)
                   : RowPayload{};
    };
    auto it = pending_restores_.begin();
    while (it != pending_restores_.end()) {
        PendingRestore& pr = *it;
        const bool is_buddy = pr.buddy == me;
        const bool is_adopter = pr.adopter == me;
        if (!is_buddy && !is_adopter) {
            it = pending_restores_.erase(it);
            continue;
        }
        const bool buddy_alive = !cluster.node_crashed(pr.buddy);
        if (is_buddy && !is_adopter && buddy_alive) {
            // Ship my copies of the dead node's rows to the adopter, one
            // blob per array.  Tags are unique per (node, incarnation), so
            // the adopter's retried receives match these exact packets.
            while (pr.arrays_done < static_cast<int>(arrays_.size())) {
                auto i = static_cast<std::size_t>(pr.arrays_done);
                send_rows(rank_, pr.adopter, restore_tag(pr.dead, pr.gen, i),
                          restorable(i, pr.rows));
                ++pr.arrays_done;
            }
        } else if (is_adopter) {
            RowSet restored_all = pr.rows;
            while (pr.arrays_done < static_cast<int>(arrays_.size())) {
                auto i = static_cast<std::size_t>(pr.arrays_done);
                if (!buddy_alive && !is_buddy) {
                    // Double crash inside one refresh interval: the copies
                    // died with the buddy.  Every remaining row is lost.
                    pr.missing = pr.rows;
                    break;
                }
                RowPayload copies =
                    is_buddy ? restorable(i, pr.rows)
                             : recv_rows(rank_, pr.buddy,
                                         restore_tag(pr.dead, pr.gen, i));
                RowSet got = copies.rows();
                arrays_[i].array->unpack_rows(copies);
                pr.missing = pr.missing.unite(pr.rows.subtract(got));
                ++pr.arrays_done;
            }
            restored_all = pr.rows.subtract(pr.missing);
            // Restored rows are fresh content the NEW owner's buddy has
            // never seen — they must ride the next refresh.
            for (auto& ai : arrays_) ai.array->mark_rows_dirty(pr.rows);
            recovered_rows_ = recovered_rows_.unite(pr.missing);
            stats_.restored_rows += restored_all.count();
            RestoreRecord rr;
            rr.node = pr.dead;
            rr.buddy = pr.buddy;
            rr.buddy_alive = buddy_alive || is_buddy;
            rr.refreshed = refreshes_done_ > 0;
            rr.restored = restored_all.count();
            rr.lost = pr.missing.count();
            stats_.restores.push_back(rr);
            if (support::metrics().enabled() && rr.restored > 0)
                support::metrics().counter("runtime.restored_rows")
                    .add(rr.restored);
            if (support::trace().enabled())
                support::trace().instant(
                    rank_.hrtime(), rank_.id(), "runtime.replica_restore",
                    {targ("cycle", stats_.cycles), targ("node", pr.dead),
                     targ("buddy", pr.buddy),
                     targ("restored", rr.restored), targ("lost", rr.lost)});
        }
        it = pending_restores_.erase(it);
    }
}

void Runtime::agree_rollback(const msg::Group& pg) {
    // This rank can restart from the start of its current cycle, or of the
    // next one when its whole cycle ran before the crash.  As the buddy of
    // a dead node, it can restore that node's last complete refresh.
    int mine = stats_.cycles + (cycle_clean_ ? 1 : 0);
    for (const PendingRestore& pr : pending_restores_)
        if (pr.buddy == rank_.id() && replicas_->version() >= 0)
            mine = std::min(mine, replicas_->version());
    const int t = msg::allreduce_scalar(rank_, pg, mine, msg::OpMin{});
    rollback_ = t;
    rollback_due_ = false;
    replicas_->rollback(t);
    if (support::trace().enabled())
        support::trace().instant(rank_.hrtime(), rank_.id(),
                                 "runtime.rollback_agreed",
                                 {targ("cycle", stats_.cycles),
                                  targ("restart_cycle", t)});
}

void Runtime::run_monitoring(CycleRecord& rec, double wall) {
    // Snapshot the mode-progress state so a retried attempt replays the
    // cycle's protocol from the same starting point.
    const ModeState snap_mode = mode_;
    const auto snap_redist = redist_seq_;
    const int redist_before = stats_.redistributions;
    bool repaired = false;
    for (int attempt = 0;; ++attempt) {
        DYNMPI_CHECK(attempt <= 2 * world_.size() + 4,
                     "failure recovery did not converge");
        rank_.sync_revocations();
        repaired = repair_active_set() || repaired;
        // A crash repair changed the membership mid-window: measurements
        // taken against the old one no longer describe the new, so restart
        // the open window.  (Re-applied after every retry's snapshot restore
        // so all attempts — and all surviving ranks — see the same state.)
        if (repaired) restart_window();
        try {
            if (participating()) {
                if (rollback_due_) agree_rollback(protocol_group());
                perform_pending_restores();
                active_cycle_monitor(rec, wall);
                // Not in the repair pass: the application rolls back, and
                // takes the rows it adopted, by the left-merged ownership.
                if (!repaired && !pre_crash_members_.empty())
                    rebalance_survivors(protocol_group());
                // A pass that redistributed has re-shipped every owned row
                // wholesale; any other ships the cycle's dirty rows.
                if (opts_.replicate && !replica_skip_cycle_ &&
                    stats_.redistributions == redist_before) {
                    auto salt = static_cast<std::uint64_t>(stats_.cycles);
                    if (rollbacks_ > 0) salt = hash_combine(salt, rollbacks_);
                    replica_refresh(/*wholesale=*/false, salt);
                }
            } else {
                removed_cycle_follow();
            }
            return;
        } catch (const msg::PeerFailure&) {
            // A peer died mid-round: revoke so every rank stranded in the
            // abandoned round wakes up, then retry on the new epoch.
            rank_.revoke_control();
        } catch (const msg::EpochRevoked&) {
            // Someone else started a new epoch; just retry on it.
        }
        mode_ = snap_mode;
        redist_seq_ = snap_redist;
    }
}

double Runtime::paging_factor() const {
    double mem = memories_.empty()
                     ? 0.0
                     : memories_[static_cast<std::size_t>(rank_.id())];
    if (mem <= 0) return 1.0;
    std::size_t used = 0;
    for (const auto& ai : arrays_) used += ai.array->local_bytes();
    return static_cast<double>(used) > mem ? kPagingSlowdown : 1.0;
}

// ---------------------------------------------------------------------------
// Messaging helpers
// ---------------------------------------------------------------------------

void Runtime::send_rel(int rel_dst, int tag, const void* data,
                       std::size_t bytes) {
    rank_.send(active_.member(rel_dst), tag, data, bytes);
}

std::size_t Runtime::recv_rel(int rel_src, int tag, void* data,
                              std::size_t capacity) {
    return rank_.recv(active_.member(rel_src), tag, data, capacity);
}

void Runtime::exchange_neighbors(
    int tag_prev, int tag_next, std::size_t bytes,
    const std::function<const void*(int side)>& out,
    const std::function<void(int side, const void* data)>& in) {
    const int rel = rel_rank();
    const bool has_prev = rel > 0;
    const bool has_next = rel < num_active() - 1;
    if (has_prev) send_rel(rel - 1, tag_prev, out(-1), bytes);
    if (has_next) send_rel(rel + 1, tag_next, out(+1), bytes);
    std::vector<std::byte> ghost(bytes);
    if (has_next) {
        recv_rel(rel + 1, tag_prev, ghost.data(), bytes);
        in(+1, ghost.data());
    }
    if (has_prev) {
        recv_rel(rel - 1, tag_next, ghost.data(), bytes);
        in(-1, ghost.data());
    }
}

std::vector<double> Runtime::allgather_owned(const msg::Group& group,
                                             const std::vector<double>& mine) {
    const auto per_rank = msg::allgather(rank_, group, mine);
    std::vector<double> global(static_cast<std::size_t>(global_rows_), 0.0);
    for (int a = 0; a < active_.size(); ++a) {
        const std::vector<int> rows = dist_.iters_of(a).to_vector();
        const auto& values = per_rank[static_cast<std::size_t>(a)];
        DYNMPI_CHECK(values.size() == rows.size(),
                     "gathered values do not match ownership");
        for (std::size_t i = 0; i < rows.size(); ++i)
            global[static_cast<std::size_t>(rows[i])] = values[i];
    }
    return global;
}

namespace {
template <typename Op>
double allreduce_sendout(msg::Rank& rank, const msg::Group& world,
                         const msg::Group& active, double value, Op op,
                         std::uint64_t seq) {
    std::uint64_t tag = msg::make_tag(msg::TagSpace::Runtime,
                                      hash_combine(0x5e4d007ULL, seq));
    if (active.contains(rank.id())) {
        double r = msg::allreduce_scalar(rank, active, value, op);
        if (active.index_of(rank.id()) == 0) {
            for (int w : world.members())
                if (!active.contains(w))
                    rank.send_wire(w, tag, &r, sizeof r);
        }
        return r;
    }
    const auto bytes = rank.recv_wire(active.member(0), tag);
    wire::Reader in(bytes);
    const double r = in.f64();
    in.finish();
    return r;
}
}  // namespace

double Runtime::allreduce_active(double value, msg::OpSum op) {
    rank_.sync_revocations();
    return allreduce_sendout(rank_, world_, active_, value, op,
                             sendout_seq_++);
}

double Runtime::allreduce_active(double value, msg::OpMax op) {
    rank_.sync_revocations();
    return allreduce_sendout(rank_, world_, active_, value, op,
                             sendout_seq_++);
}

DecisionInputs Runtime::read_world_loads(const msg::Group& pg) {
    const auto W = static_cast<std::size_t>(world_.size());
    std::vector<double> blob;
    if (rel_rank() == 0) {
        auto& cluster = rank_.machine().cluster();
        blob.assign(3 * W, 0.0);
        for (int w : world_.members()) {
            auto wi = static_cast<std::size_t>(w);
            const bool crashed = cluster.node_crashed(w);
            // Crashed or stale-reporting nodes fall back to the last load
            // the current distribution was computed for.
            blob[wi] = crashed || report_stale(w)
                           ? baseline_loads_[wi]
                           : cluster.daemon(w).avg_competing();
            // Apply quarantine transitions at the decision point, so every
            // rank that acts on this snapshot also learns the resulting
            // flags.
            if (!crashed && quarantined_[wi] == 0 &&
                bad_streak_[wi] >= kQuarantineBadReports) {
                quarantined_[wi] = 1;
                ++stats_.quarantines;
                record_event(AdaptationEvent::Kind::Quarantine,
                             "node " + std::to_string(w) + " after " +
                                 std::to_string(bad_streak_[wi]) +
                                 " bad reports");
            } else if (!crashed && quarantined_[wi] != 0 &&
                       clean_streak_[wi] >= kReadmitCleanCycles) {
                quarantined_[wi] = 0;
                ++stats_.quarantine_readmits;
                record_event(AdaptationEvent::Kind::Readmit,
                             "node " + std::to_string(w) + " after " +
                                 std::to_string(clean_streak_[wi]) +
                                 " clean reports");
            }
            blob[W + wi] = quarantined_[wi] != 0 ? 1.0 : 0.0;
            // Joinability: who may be (re)admitted to the active set.
            // Crashed nodes are out; restarted nodes (generation > 0) only
            // become joinable once this leader has bootstrapped their new
            // incarnation and at least one cycle has passed since (the
            // reborn skips its bootstrap cycle).  A node already in the
            // active set is joinable by definition — a freshly promoted
            // leader has no bootstrap record for nodes readmitted under its
            // predecessor.
            bool ok = !crashed &&
                      (active_.contains(w) ||
                       cluster.node_generation(w) == 0 ||
                       (bootstrapped_gen_[wi] == cluster.node_generation(w) &&
                        stats_.cycles > bootstrap_cycle_[wi]));
            blob[2 * W + wi] = ok ? 1.0 : 0.0;
        }
    }
    msg::bcast(rank_, pg, 0, blob);
    DYNMPI_CHECK(blob.size() == 3 * W, "bad load snapshot");
    DecisionInputs in{.loads = {blob.begin(), blob.begin() + world_.size()},
                      .joinable = {}, .quarantined = {}, .speeds = speeds_,
                      .memories = memories_, .row_bytes = 0,
                      .comm_costs = comm_costs_, .phases = {},
                      .row_costs = row_costs_, .active = active_.members(),
                      .counts = dist_.counts()};
    for (std::size_t w = 0; w < W; ++w) {
        quarantined_[w] = blob[W + w] != 0.0 ? 1 : 0;
        in.joinable.push_back(blob[2 * W + w] != 0.0 ? 1 : 0);
    }
    in.quarantined = quarantined_;
    in.row_bytes = agreed_row_bytes(pg);
    for (const auto& p : phases_) in.phases.push_back(p.comm);
    return in;
}

std::size_t Runtime::agreed_row_bytes(const msg::Group& pg) {
    std::size_t bytes = 0;
    std::vector<double> pooled; // per sparse array: held bytes, held rows
    for (const auto& ai : arrays_) {
        if (const std::size_t b = ai.array->fixed_row_bytes()) {
            bytes += b;
        } else {
            pooled.push_back(static_cast<double>(ai.array->local_bytes()));
            pooled.push_back(static_cast<double>(ai.array->held().count()));
        }
    }
    // Only a cap reads the row size, so only a run with one pays for the
    // collective.
    const bool capped =
        opts_.memory_aware && std::any_of(memories_.begin(), memories_.end(),
                                          [](double m) { return m > 0; });
    if (pooled.empty() || !capped) return bytes;
    pooled = msg::allreduce(rank_, pg, std::move(pooled), msg::OpSum{});
    for (std::size_t k = 0; k < pooled.size(); k += 2)
        if (pooled[k + 1] > 0)
            bytes += static_cast<std::size_t>(
                std::ceil(pooled[k] / pooled[k + 1]));
    return bytes;
}

// ---------------------------------------------------------------------------
// Per-cycle driver
// ---------------------------------------------------------------------------

void Runtime::redistribute_manual(const std::vector<int>& counts) {
    DYNMPI_REQUIRE(committed_, "redistribute_manual before commit_setup");
    DYNMPI_REQUIRE(!in_cycle_, "redistribute_manual inside a cycle");
    if (participating()) {
        DYNMPI_REQUIRE(static_cast<int>(counts.size()) == active_.size(),
                       "counts must cover the active set");
        apply_distribution(active_,
                           Distribution::block(0, global_rows_, counts));
        record_event(AdaptationEvent::Kind::Redistributed,
                     "manual: blocks " + counts_string(counts));
    }
}

void Runtime::begin_cycle() {
    DYNMPI_REQUIRE(committed_, "begin_cycle before commit_setup");
    DYNMPI_REQUIRE(!in_cycle_, "begin_cycle without end_cycle");
    in_cycle_ = true;
    cycle_start_ = rank_.hrtime();
    cycle_epoch_ = rank_.machine().revoke_epoch();
    for (auto& p : phases_) p.measured_this_cycle = false;
}

void Runtime::run_phase(int phase, const std::vector<double>& row_costs) {
    DYNMPI_REQUIRE(in_cycle_, "run_phase outside a cycle");
    DYNMPI_REQUIRE(participating(), "run_phase on a removed node");
    DYNMPI_REQUIRE(phase >= 0 && phase < static_cast<int>(phases_.size()),
                   "unknown phase");
    Phase& p = phases_[static_cast<std::size_t>(phase)];
    RowSet iters = my_iters(phase);
    DYNMPI_REQUIRE(static_cast<int>(row_costs.size()) == iters.count(),
                   "row_costs must align with my_iters");

    double paging = paging_factor();
    msg::RowTimings t;
    if (paging > 1.0) {
        // Thrashing: every row costs kPagingSlowdown x its CPU time.  The
        // grace-period measurements see the inflation, so even without
        // memory-aware caps the balancer is pushed away from this node.
        std::vector<double> inflated(row_costs);
        for (double& c : inflated) c *= paging;
        t = rank_.compute_rows(inflated);
    } else {
        t = rank_.compute_rows(row_costs);
    }
    if (mode_.mode == ModeState::Mode::Grace && !p.measured_this_cycle) {
        p.timer.record_cycle(t.wall, t.cpu, my_load(), node_speed());
        p.measured_this_cycle = true;
    }

    // Loaded nodes arrive at the phase's synchronization point late by the
    // scheduler's timeslice residue (see CpuParams::straggle_s).
    double straggle = rank_.node().cpu().sync_straggle();
    if (straggle > 0.0) rank_.sleep(straggle);
}

void Runtime::restart_grace() {
    mode_.grace_count = 0;
    for (std::size_t ph = 0; ph < phases_.size(); ++ph)
        phases_[ph].timer.start(my_iters(static_cast<int>(ph)).count());
}

void Runtime::restart_window() {
    if (!participating()) return;
    if (mode_.mode == ModeState::Mode::Grace)
        restart_grace();
    else if (mode_.mode == ModeState::Mode::PostGrace)
        mode_.enter_post_grace();
}

void Runtime::apply_distribution(const msg::Group& new_active,
                                 const Distribution& new_dist) {
    // Redistribution moves application data: full CPU + wire cost even when
    // invoked from the (control-plane) monitoring path.
    msg::Rank::ControlScope data_plane(rank_, /*enable=*/false);
    double t0 = rank_.hrtime();
    const int active_before = active_.size();
    RedistContext ctx{global_rows_, &active_, &dist_, &new_active, &new_dist};
    RedistStats ts = execute_redistribution(rank_, ctx, arrays_, redist_seq_++);
    stats_.transfer.messages += ts.messages;
    stats_.transfer.bytes += ts.bytes;
    stats_.transfer.rows_moved += ts.rows_moved;
    active_ = new_active;
    dist_ = new_dist;
    ++stats_.redistributions;
    // Ownership just moved wholesale, so the incremental deltas are void:
    // rewrite every buddy's replica set against the new ring (§4.1 whole-row
    // shipping, one hop further).
    if (opts_.replicate) replica_refresh(/*wholesale=*/true, redist_seq_);
    double t1 = rank_.hrtime();
    stats_.redist_wall_s += t1 - t0;
    if (support::trace().enabled()) {
        std::vector<support::TraceArg> args{
            targ("cycle", stats_.cycles),
            targ("active_before", active_before),
            targ("active_after", active_.size()),
            targ("rows", ts.rows_moved),
            targ("bytes", ts.bytes),
            targ("messages", ts.messages)};
        for (const auto& a : ts.per_array) {
            args.push_back(targ("rows." + a.array, a.rows_moved));
            args.push_back(targ("bytes." + a.array, a.bytes));
        }
        support::trace().span(t0, t1, rank_.id(), "redist.apply",
                              std::move(args));
    }
    if (support::metrics().enabled()) {
        support::metrics().histogram("redist.wall_s").record(t1 - t0);
        support::metrics().gauge("runtime.active_nodes")
            .set(static_cast<double>(active_.size()));
    }
    // The rows now spread over the members just installed: a rebalance
    // still due from a crash repair is void.
    pre_crash_members_.clear();
    pre_crash_counts_.clear();
}

const std::vector<double>& Runtime::gather_row_costs(const msg::Group& pg) {
    // My per-row unloaded cost estimates across phases, aligned to my owned
    // rows in ascending order.  A phase's iterations owned.clip(lo, hi) are
    // the contiguous run of `owned` after its rows below lo.
    const RowSet owned = dist_.iters_of(rel_rank());
    std::vector<double> mine(static_cast<std::size_t>(owned.count()), 0.0);
    for (const Phase& p : phases_) {
        if (p.timer.cycles_recorded() == 0) continue;
        const std::vector<double> est = p.timer.estimates();
        DYNMPI_CHECK(static_cast<int>(est.size()) ==
                         owned.clip(p.lo, p.hi).count(),
                     "estimate alignment");
        const auto first =
            static_cast<std::size_t>(owned.clip(0, p.lo).count());
        for (std::size_t i = 0; i < est.size(); ++i) mine[first + i] += est[i];
    }

    // Active-group exchange: every active rank assembles the identical
    // global cost vector (removed nodes own no rows and are synced through
    // the status channel).
    row_costs_ = allgather_owned(pg, mine);
    return row_costs_;
}

void Runtime::finish_post_grace(const msg::Group& pg) {
    const double measured = mode_.post_mean();
    const Decision d = decide_post_grace(opts_, read_world_loads(pg), measured);
    // The §4.4 predictor's verdict, before any drop is executed.
    if (d.removal && support::trace().enabled())
        support::trace().instant(
            rank_.hrtime(), rank_.id(), "runtime.removal_eval",
            {targ("cycle", stats_.cycles),
             targ("predicted_unloaded_s", d.removal->predicted_unloaded_s),
             targ("measured_loaded_s", d.removal->measured_loaded_s),
             targ("unloaded_nodes",
                  static_cast<int>(d.removal->unloaded_members.size())),
             targ("drop", d.removal->drop)});
    if (d.apply) {
        apply_distribution(msg::Group(d.new_active),
                           Distribution::block(0, global_rows_, d.counts));
        if (opts_.drop_mode == DropMode::Physical) {
            ++stats_.physical_drops;
            record_event(AdaptationEvent::Kind::Dropped,
                         "active now " + std::to_string(active_.size()) +
                             " nodes");
        } else {
            ++stats_.logical_drops;
            record_event(AdaptationEvent::Kind::LogicalDrop,
                         "blocks " + counts_string(d.counts));
        }
        // Note: baseline_loads_ deliberately stays at the loads the current
        // distribution was computed for — if the load profile shifted
        // during the post-grace window, the very next Monitor cycle
        // re-triggers adaptation.
    }
    if (support::trace().enabled())
        support::trace().instant(rank_.hrtime(), rank_.id(),
                                 "runtime.post_grace_exit",
                                 {targ("cycle", stats_.cycles),
                                  targ("measured_s", measured),
                                  targ("dropped", d.apply)});
}

namespace {
std::uint64_t status_tag(int cycle) {
    return msg::make_tag(msg::TagSpace::Runtime,
                         hash_combine(0x57A705ULL,
                                      static_cast<std::uint64_t>(cycle)));
}
}  // namespace

void Runtime::send_statuses(const msg::Group& active_before,
                            const Decision* decision,
                            const std::vector<double>& loads) {
    if (active_before.index_of(rank_.id()) != 0) return;
    // A retried recovery attempt must not re-send: the first copy was
    // already delivered (sends never block), and followers recv exactly one
    // status per cycle.
    if (statuses_sent_this_cycle_) return;
    statuses_sent_this_cycle_ = true;
    const bool applied = decision && decision->apply;
    const msg::Group now =
        applied ? msg::Group(decision->new_active) : active_;
    for (int w : world_.members()) {
        if (active_before.contains(w)) continue;
        if (rank_.machine().cluster().node_crashed(w)) continue;
        FollowerMessage m;
        if (applied && now.contains(w)) {
            // Re-add: the follower state as of before the redistribution
            // plus both of its endpoints, so the returning node can join it
            // and the subsequent decisions.
            m = follower_state(FollowerMessage::Kind::Readd, active_before,
                               loads);
            m.old_counts = dist_.counts();
            m.new_active = decision->new_active;
            m.new_counts = decision->counts;
            m.row_costs = row_costs_;
        } else {
            m.active = now.members();
        }
        std::vector<std::byte> bytes = m.encode();
        rank_.send_wire(w, status_tag(stats_.cycles), bytes.data(),
                        bytes.size());
    }
}

void Runtime::removed_cycle_follow() {
    FollowerMessage m = FollowerMessage::decode(
        rank_.recv_wire(active_.member(0), status_tag(stats_.cycles)));
    DYNMPI_CHECK(m.kind != FollowerMessage::Kind::Bootstrap,
                 "bootstrap on the status channel");
    follow(m);
}

void Runtime::enter_post_grace() {
    auto& cluster = rank_.machine().cluster();
    for (int w : active_.members()) {
        auto wi = static_cast<std::size_t>(w);
        int gen = cluster.node_generation(w);
        if (gen > seen_gen_[wi]) {
            seen_gen_[wi] = gen;
            if (gen > 0) {
                ++stats_.rejoins;
                record_event(AdaptationEvent::Kind::Rejoin,
                             "node " + std::to_string(w) +
                                 " readmitted after restart");
            }
        }
    }
    mode_.enter_post_grace();
    if (support::trace().enabled())
        support::trace().instant(rank_.hrtime(), rank_.id(),
                                 "runtime.post_grace_enter",
                                 {targ("cycle", stats_.cycles),
                                  targ("post_grace_cycles",
                                       kPostGraceCycles)});
}

void Runtime::active_cycle_monitor(CycleRecord& rec, double wall) {
    const msg::Group active_before = active_;
    // Protocol rounds run on the epoch-salted group: after a crash or an
    // explicit revocation, retried rounds use fresh tags that can never
    // match packets from an abandoned round.
    const msg::Group pg = protocol_group();
    const int me = rank_.id();

    // Load-change detection: each active node contributes its own dmpi_ps
    // delta; relative rank 0 folds in the removed nodes' daemons so a
    // cleared load can trigger a re-add.
    double delta =
        std::fabs(my_load() - baseline_loads_[static_cast<std::size_t>(me)]);
    if (rel_rank() == 0) {
        leader_scan_reports();
        auto& cluster = rank_.machine().cluster();
        for (int w : world_.members()) {
            auto wi = static_cast<std::size_t>(w);
            if (active_.contains(w)) continue;
            if (cluster.node_crashed(w)) continue;
            delta = std::max(
                delta,
                std::fabs(cluster.daemon(w).avg_competing() -
                          baseline_loads_[wi]));
            // A revived node waits in bootstrap_rejoin for its bootstrap.
            // Once bootstrapped, a rejoiner waiting outside the active set
            // forces an adaptation round even on a quiet cluster, like a
            // quarantine transition: the candidate set changed.
            int gen = cluster.node_generation(w);
            if (gen > 0 && bootstrapped_gen_[wi] != gen)
                send_bootstrap(w, gen);
            else if (gen > 0 && stats_.cycles > bootstrap_cycle_[wi])
                delta = std::max(delta, kLoadChangeEps + 1.0);
        }
        // A pending quarantine or readmit must force an adaptation round
        // even when no load moved: it changes the candidate set.
        if (quarantine_due_)
            delta = std::max(delta, kLoadChangeEps + 1.0);
    }
    std::vector<double> agg{delta, wall};
    agg = msg::allreduce(rank_, pg, std::move(agg), msg::OpMax{});
    rec.max_wall_s = agg[1];
    bool load_changed = agg[0] > kLoadChangeEps;

    bool may_adapt = opts_.max_redistributions < 0 ||
                     stats_.redistributions < opts_.max_redistributions;
    switch (mode_.step(load_changed && may_adapt, agg[1], opts_)) {
    case ModeState::Action::None:
        break;
    case ModeState::Action::EnterGrace:
        record_event(AdaptationEvent::Kind::LoadChange,
                     "max dmpi_ps delta " + fmt(agg[0], 2));
        restart_grace();
        if (support::trace().enabled())
            support::trace().instant(
                rank_.hrtime(), me, "runtime.grace_enter",
                {targ("cycle", stats_.cycles),
                 targ("grace_cycles", opts_.grace_cycles)});
        break;
    case ModeState::Action::DecideGrace: {
        DecisionInputs in = read_world_loads(pg);
        in.row_costs = gather_row_costs(pg);
        const Decision decision = decide_grace(opts_, in);
        if (support::trace().enabled())
            support::trace().instant(
                rank_.hrtime(), me, "balancer.decision",
                {targ("cycle", stats_.cycles),
                 targ("scheme", opts_.scheme == BalanceScheme::RelativePower
                                    ? "relative_power"
                                    : "successive"),
                 targ("candidates",
                      static_cast<int>(decision.new_active.size())),
                 targ("material", decision.apply)});
        // Returning nodes must learn about the redistribution before it
        // starts, so statuses go out first.
        send_statuses(active_before, &decision, in.loads);
        if (decision.apply) {
            apply_distribution(
                msg::Group(decision.new_active),
                Distribution::block(0, global_rows_, decision.counts));
            record_event(AdaptationEvent::Kind::Redistributed,
                         "blocks " + counts_string(decision.counts));
            // The leader counts every re-added node once for the run;
            // the rejoining ranks record the runtime.readded instants.
            int readded = 0;
            for (int w : active_.members())
                if (!active_before.contains(w)) ++readded;
            stats_.readds += readded;
            if (readded > 0 && support::metrics().enabled() &&
                active_before.index_of(me) == 0)
                support::metrics().counter("runtime.readds").add(readded);
            enter_post_grace();
        } else {
            record_event(AdaptationEvent::Kind::Skipped,
                         "change below threshold");
        }
        baseline_loads_ = std::move(in.loads);
        break;
    }
    case ModeState::Action::DecidePostGrace:
        finish_post_grace(pg);
        break;
    }
    // A no-op when the grace decision already sent this cycle's statuses.
    send_statuses(active_before, nullptr, {});
}

void Runtime::end_cycle() {
    DYNMPI_REQUIRE(in_cycle_, "end_cycle without begin_cycle");
    in_cycle_ = false;
    double wall = rank_.hrtime() - cycle_start_;

    CycleRecord rec;
    rec.cycle = stats_.cycles;
    rec.start_s = cycle_start_;
    rec.wall_s = wall;
    rec.max_wall_s = wall;
    rec.mode = static_cast<int>(mode_.mode);

    if (opts_.adapt) {
        // Everything below is daemon-band coordination, not app traffic.
        msg::Rank::ControlScope control(rank_);
        int redist_before = stats_.redistributions;
        statuses_sent_this_cycle_ = false;
        replica_skip_cycle_ = false;
        cycle_clean_ = rank_.machine().revoke_epoch() == cycle_epoch_;
        monitoring_ = true;
        run_monitoring(rec, wall);
        monitoring_ = false;
        rec.redistributed = stats_.redistributions != redist_before;
    }

    // Observability (guarded: this is the per-cycle hot path).
    if (support::trace().enabled())
        support::trace().span(cycle_start_, rank_.hrtime(), rank_.id(),
                              "runtime.cycle",
                              {targ("cycle", rec.cycle),
                               targ("mode", mode_name(rec.mode)),
                               targ("redistributed", rec.redistributed)});
    if (support::metrics().enabled() && rank_.id() == 0) {
        support::metrics().counter("runtime.cycles").add(1);
        support::metrics().histogram("runtime.cycle_wall_s")
            .record(rec.max_wall_s);
    }

    stats_.history.push_back(rec);
    ++stats_.cycles;
}

}  // namespace dynmpi
