// The §4 adaptation policy: the Monitor → Grace → PostGrace mode as one
// value, the decisions ending a grace period (§4.2–4.3) and a post-grace
// window (§4.4 node removal), and the blocks a crash repair rebalances the
// survivors to, as pure functions of collectively agreed inputs;
// Runtime::end_cycle runs the collectives and applies the results.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "dynmpi/balancer.hpp"
#include "dynmpi/comm_model.hpp"

namespace dynmpi {

/// Cycles of the post-grace window measured before the §4.4 removal
/// decision (the paper's fixed 10).
inline constexpr int kPostGraceCycles = 10;
/// dmpi_ps delta that triggers adaptation; also the load at or below which a
/// removed node may rejoin, and above which a node makes the active set
/// loaded for the removal decision.  Not NodePower's kLoadedAbove.
inline constexpr double kLoadChangeEps = 0.5;
/// A grace decision redistributes only when some block changes by more than
/// this fraction of an average block.
inline constexpr double kMinCountChange = 0.1;
/// Rows kept on each logically dropped node.
inline constexpr int kLogicalMinRows = 1;

enum class DropMode { Physical, Logical };
enum class BalanceScheme { SuccessiveBalancing, RelativePower };
struct RuntimeOptions;

/// The state machine's progress: one value, so a retried monitoring round
/// restores it whole.
struct ModeState {
    /// Numbered as CycleRecord::mode.
    enum class Mode { Monitor, Grace, PostGrace };
    enum class Action { None, EnterGrace, DecideGrace, DecidePostGrace };

    Mode mode = Mode::Monitor;
    int grace_count = 0;
    int post_count = 0;
    double post_wall_sum = 0.0; ///< slowest-node wall times of the window

    /// Count one monitored cycle and say what it must do.  `trigger`: some
    /// load changed and another adaptation is allowed; `max_wall`: the
    /// slowest active node's wall time.  A decision returns to Monitor.
    Action step(bool trigger, double max_wall, const RuntimeOptions& opts);
    void enter_post_grace() {
        mode = Mode::PostGrace;
        post_count = 0;
        post_wall_sum = 0.0;
    }
    /// §4.4's measurement: mean slowest-node wall time over the window.
    double post_mean() const { return post_wall_sum / post_count; }
};

/// What a decision reads; per-node vectors are indexed by world rank.
struct DecisionInputs {
    std::vector<double> loads; ///< dmpi_ps snapshot
    std::vector<char> joinable;
    std::vector<int> quarantined;
    std::vector<double> speeds;
    std::vector<double> memories; ///< bytes, 0 = unlimited
    std::size_t row_bytes = 0;    ///< bytes per row, agreed by every rank
    CommCosts comm_costs;
    std::vector<PhaseComm> phases;
    std::span<const double> row_costs; ///< unloaded cost per global row
    std::vector<int> active;           ///< world ranks
    std::vector<int> counts;           ///< current blocks, in active order
};

/// A decision point's outcome: move to (new_active, counts) when `apply`.
struct Decision {
    bool apply = false; ///< grace: the change is material; post-grace: drop
    std::vector<int> new_active;
    std::vector<int> counts;
    /// Post-grace: the predictor's verdict (after force_drop_loaded), if run.
    std::optional<RemovalDecision> removal;
};
Decision decide_grace(const RuntimeOptions& opts, const DecisionInputs& in);
Decision decide_post_grace(const RuntimeOptions& opts,
                           const DecisionInputs& in, double measured_s);

/// Rows each of `members` (world ranks) may hold so its arrays fit its
/// memory at `row_bytes` per row; 0 = unlimited, and all 0 unless
/// `opts.memory_aware`.
std::vector<int> row_caps(const RuntimeOptions& opts,
                          const std::vector<double>& memories,
                          std::size_t row_bytes,
                          const std::vector<int>& members);

/// A crash repair's target: `counts` (blocks in member order) after the
/// members flagged in `dead` are gone, scaled so the survivors cover every
/// row and keep their relative shares.  A block at or below
/// kLogicalMinRows keeps its size; the rest split the remaining rows in
/// proportion to what they held above it, by largest remainder (ties to
/// the earlier member).  The result, in survivor order, is clamped to
/// `caps` (see row_caps; empty = none).
std::vector<int> survivor_counts(const std::vector<int>& counts,
                                 const std::vector<char>& dead,
                                 const std::vector<int>& caps);

}  // namespace dynmpi
