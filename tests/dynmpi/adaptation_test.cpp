// Table-driven tests of the §4 adaptation policy (dynmpi/adaptation.hpp):
// the Monitor → Grace → PostGrace mode value, the grace and post-grace
// decisions and a crash repair's target blocks, as pure functions with no
// simulated machine behind them.
#include "dynmpi/adaptation.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <numeric>

#include "dynmpi/runtime.hpp"

namespace dynmpi {
namespace {

using Action = ModeState::Action;
using Mode = ModeState::Mode;

// ---------------------------------------------------------------------------
// Mode state (§4.2 grace period, §4.4 post-grace window)
// ---------------------------------------------------------------------------

struct Cycle {
    bool load_changed = false;
    bool may_adapt = true;
    double max_wall = 0.1;
};

struct ModeRow {
    const char* name;
    int grace_cycles;
    Mode start; ///< Monitor, or PostGrace entered through enter_post_grace
    std::vector<Cycle> cycles;
    std::vector<Action> actions;
    Mode final_mode;
};

const Cycle kChange{true, true};
const Cycle kQuiet{false, true};

/// A post-grace window of kChange cycles and the actions it must produce.
std::vector<Cycle> window_cycles() {
    return std::vector<Cycle>(kPostGraceCycles, kChange);
}
std::vector<Action> window_actions() {
    std::vector<Action> a(kPostGraceCycles - 1, Action::None);
    a.push_back(Action::DecidePostGrace);
    return a;
}

const ModeRow kModeRows[] = {
    {"MonitorEntersGraceOnLoadChange", 5, Mode::Monitor,
     {kQuiet, kChange}, {Action::None, Action::EnterGrace}, Mode::Grace},
    {"MonitorStaysWhenMayAdaptIsFalse", 5, Mode::Monitor,
     {{true, false}, {true, false}, kQuiet},
     {Action::None, Action::None, Action::None}, Mode::Monitor},
    {"GraceDecidesAfterExactlyGraceCycles", 3, Mode::Monitor,
     {kChange, kQuiet, kQuiet, kQuiet},
     {Action::EnterGrace, Action::None, Action::None, Action::DecideGrace},
     Mode::Monitor},
    {"GraceIgnoresFurtherLoadChanges", 2, Mode::Monitor,
     {kChange, kChange, kChange},
     {Action::EnterGrace, Action::None, Action::DecideGrace}, Mode::Monitor},
    {"DecisionReturnsToMonitor", 1, Mode::Monitor,
     {kChange, kQuiet, kChange},
     {Action::EnterGrace, Action::DecideGrace, Action::EnterGrace},
     Mode::Grace},
    {"PostGraceDecidesAfterPostGraceCycles", 5, Mode::PostGrace,
     window_cycles(), window_actions(), Mode::Monitor},
};

// Rows keep gtest's index names; ctest (gtest_discover_tests) replaces the
// index with this printed value, so the suite lists each row by its name.
void PrintTo(const ModeRow& r, std::ostream* os) { *os << r.name; }

class AdaptationMode : public ::testing::TestWithParam<ModeRow> {};

TEST_P(AdaptationMode, Step) {
    const ModeRow& row = GetParam();
    RuntimeOptions opts;
    opts.grace_cycles = row.grace_cycles;
    ModeState s;
    if (row.start == Mode::PostGrace) s.enter_post_grace();
    ASSERT_EQ(row.cycles.size(), row.actions.size());
    for (std::size_t i = 0; i < row.cycles.size(); ++i) {
        const Cycle& c = row.cycles[i];
        EXPECT_EQ(s.step(c.load_changed && c.may_adapt, c.max_wall, opts),
                  row.actions[i])
            << "cycle " << i;
    }
    EXPECT_EQ(s.mode, row.final_mode);
}

INSTANTIATE_TEST_SUITE_P(ModeTable, AdaptationMode,
                         ::testing::ValuesIn(kModeRows));

TEST(AdaptationModeValue, PostMeanIsTheLeftFoldOfTheWindow) {
    // The running sum must reproduce std::accumulate over the window's
    // slowest-node wall times bit for bit.
    const std::vector<double> walls{
        0.1, 0.2, 0.7, 1e-9, 3.3, 0.30000000001, 2.5, 1e-3, 0.07, 9.9};
    ASSERT_EQ(walls.size(), static_cast<std::size_t>(kPostGraceCycles));
    RuntimeOptions opts;
    ModeState s;
    s.enter_post_grace();
    for (double w : walls) s.step(false, w, opts);
    EXPECT_EQ(s.post_mean(),
              std::accumulate(walls.begin(), walls.end(), 0.0) /
                  static_cast<double>(walls.size()));
}

TEST(AdaptationModeValue, ZeroedGraceCountReopensTheWindow) {
    // A crash repair mid-grace zeroes the count (Runtime::restart_grace):
    // the decision comes grace_cycles cycles later.
    RuntimeOptions opts;
    opts.grace_cycles = 3;
    ModeState s;
    s.step(true, 0.1, opts);
    s.step(false, 0.1, opts);
    s.step(false, 0.1, opts);
    s.grace_count = 0;
    EXPECT_EQ(s.step(false, 0.1, opts), Action::None);
    EXPECT_EQ(s.step(false, 0.1, opts), Action::None);
    EXPECT_EQ(s.step(false, 0.1, opts), Action::DecideGrace);
}

// ---------------------------------------------------------------------------
// Decision inputs: `nodes` world ranks of speed 1 holding `rows` rows of
// 1 ms each, all active on even blocks, no memory limit.
// ---------------------------------------------------------------------------

/// Storage for the inputs' row-cost view, one vector per row count.
std::span<const double> uniform_costs(int rows) {
    static std::map<int, std::vector<double>> costs;
    auto& c = costs[rows];
    c.assign(static_cast<std::size_t>(rows), 1e-3);
    return c;
}

DecisionInputs world(int nodes, int rows, std::vector<double> loads) {
    const auto n = static_cast<std::size_t>(nodes);
    DecisionInputs in;
    in.loads = std::move(loads);
    in.loads.resize(n, 0.0);
    in.joinable.assign(n, 1);
    in.quarantined.assign(n, 0);
    in.speeds.assign(n, 1.0);
    in.memories.assign(n, 0.0);
    in.row_bytes = 1024;
    in.phases = {PhaseComm{CommPattern::NearestNeighbor, 1024}};
    in.row_costs = uniform_costs(rows);
    for (int w = 0; w < nodes; ++w) {
        in.active.push_back(w);
        in.counts.push_back(rows / nodes + (w < rows % nodes ? 1 : 0));
    }
    return in;
}

int total(const std::vector<int>& counts) {
    return std::accumulate(counts.begin(), counts.end(), 0);
}

// ---------------------------------------------------------------------------
// Grace decision (§4.3)
// ---------------------------------------------------------------------------

struct GraceRow {
    const char* name;
    std::function<void(RuntimeOptions&, DecisionInputs&)> setup;
    bool material;
    std::vector<int> new_active;
    std::function<bool(const std::vector<int>&)> counts_ok;
};

const GraceRow kGraceRows[] = {
    {"LoadedNodeGetsFewerRows",
     [](RuntimeOptions&, DecisionInputs& in) { in.loads[2] = 2.0; }, true,
     {0, 1, 2, 3},
     [](const std::vector<int>& c) { return c[2] < c[0] && c[0] == c[1]; }},
    {"NoChangeIsSkipped", [](RuntimeOptions&, DecisionInputs&) {}, false,
     {0, 1, 2, 3},
     [](const std::vector<int>& c) {
         return c == std::vector<int>{100, 100, 100, 100};
     }},
    // Threshold = kMinCountChange x average block = 0.1 x 100 = 10 rows:
    // blocks 8 rows off the balanced split are left alone ...
    {"SmallShiftOfLargeBlocksIsSkipped",
     [](RuntimeOptions&, DecisionInputs& in) {
         in.counts = {108, 92, 100, 100};
     },
     false, {0, 1, 2, 3},
     [](const std::vector<int>& c) {
         return c == std::vector<int>{100, 100, 100, 100};
     }},
    // ... but on 40-row blocks the threshold is 4 rows, and 8 is material.
    {"SameShiftOfSmallBlocksIsMaterial",
     [](RuntimeOptions&, DecisionInputs& in) {
         in = world(4, 160, {});
         in.counts = {48, 32, 40, 40};
     },
     true, {0, 1, 2, 3},
     [](const std::vector<int>& c) {
         return c == std::vector<int>{40, 40, 40, 40};
     }},
    {"QuarantinedActiveNodeIsExcluded",
     [](RuntimeOptions&, DecisionInputs& in) { in.quarantined[3] = 1; }, true,
     {0, 1, 2}, [](const std::vector<int>& c) { return total(c) == 400; }},
    {"UnloadedRemovedNodeRejoins",
     [](RuntimeOptions&, DecisionInputs& in) {
         in.active = {0, 1, 2};
         in.counts = {134, 133, 133};
     },
     true, {0, 1, 2, 3},
     [](const std::vector<int>& c) { return total(c) == 400; }},
    {"NonJoinableRemovedNodeStaysOut",
     [](RuntimeOptions&, DecisionInputs& in) {
         in.active = {0, 1, 2};
         in.counts = {134, 133, 133};
         in.joinable[3] = 0;
     },
     false, {0, 1, 2},
     [](const std::vector<int>& c) { return total(c) == 400; }},
    {"LoadedRemovedNodeStaysOut",
     [](RuntimeOptions&, DecisionInputs& in) {
         in.active = {0, 1, 2};
         in.counts = {134, 133, 133};
         in.loads[3] = 1.0;
     },
     false, {0, 1, 2},
     [](const std::vector<int>& c) { return total(c) == 400; }},
    {"EveryCandidateQuarantinedKeepsTheActiveSet",
     [](RuntimeOptions&, DecisionInputs& in) {
         in.active = {0, 1};
         in.counts = {200, 200};
         in.quarantined = {1, 1, 1, 1};
     },
     false, {0, 1},
     [](const std::vector<int>& c) { return c == std::vector<int>{200, 200}; }},
    // 50 KiB on node 0 holds 50 rows of 1 KiB: the cap spills the rest.
    {"MemoryCapsClampBlocks",
     [](RuntimeOptions&, DecisionInputs& in) { in.memories[0] = 50 * 1024; },
     true, {0, 1, 2, 3},
     [](const std::vector<int>& c) { return c[0] == 50 && total(c) == 400; }},
    {"MemoryCapsOffWhenNotMemoryAware",
     [](RuntimeOptions& o, DecisionInputs& in) {
         in.memories[0] = 50 * 1024;
         o.memory_aware = false;
     },
     false, {0, 1, 2, 3},
     [](const std::vector<int>& c) { return c[0] == 100; }},
    // Two "loaded" thresholds: kLoadChangeEps (0.5) admits a node at 0.3
    // as an unloaded candidate, while NodePower::loaded() (0.25) makes
    // successive balancing treat it as loaded and give it fewer rows.
    {"LoadBetweenThresholdsRejoinsAsLoaded",
     [](RuntimeOptions&, DecisionInputs& in) {
         in.active = {0, 1, 2};
         in.counts = {134, 133, 133};
         in.loads[3] = 0.3;
     },
     true, {0, 1, 2, 3},
     [](const std::vector<int>& c) { return c[3] < c[0] && total(c) == 400; }},
};

void PrintTo(const GraceRow& r, std::ostream* os) { *os << r.name; }

class AdaptationGrace : public ::testing::TestWithParam<GraceRow> {};

TEST_P(AdaptationGrace, Decide) {
    const GraceRow& row = GetParam();
    RuntimeOptions opts;
    DecisionInputs in = world(4, 400, {});
    row.setup(opts, in);
    const Decision d = decide_grace(opts, in);
    EXPECT_EQ(d.apply, row.material);
    EXPECT_EQ(d.new_active, row.new_active);
    ASSERT_EQ(d.counts.size(), d.new_active.size());
    EXPECT_TRUE(row.counts_ok(d.counts)) << ::testing::PrintToString(d.counts);
}

INSTANTIATE_TEST_SUITE_P(GraceTable, AdaptationGrace,
                         ::testing::ValuesIn(kGraceRows));

// ---------------------------------------------------------------------------
// Post-grace decision (§4.4)
// ---------------------------------------------------------------------------

struct PostRow {
    const char* name;
    std::vector<double> loads;
    double measured_s;
    std::function<void(RuntimeOptions&)> setup;
    bool evaluated;
    bool drop;
    std::vector<int> new_active; ///< checked when drop
    std::function<bool(const std::vector<int>&)> counts_ok; ///< when drop
};

bool covers_rows(const std::vector<int>& c) { return total(c) == 400; }

// Four nodes, 0.4 s of work per cycle: three unloaded nodes are predicted
// at ~0.13 s, so a 10 s measurement loses to them and 1 ms beats them.
const PostRow kPostRows[] = {
    {"EveryNodeLoadedIsNotEvaluated", {1, 1, 1, 1}, 10.0, nullptr, false,
     false, {}, nullptr},
    {"EveryNodeUnloadedIsNotEvaluated", {0, 0, 0, 0}, 10.0, nullptr, false,
     false, {}, nullptr},
    {"RemovalDisabledIsNotEvaluated", {0, 0, 2, 0}, 10.0,
     [](RuntimeOptions& o) { o.enable_removal = false; }, false, false, {},
     nullptr},
    {"PredictorDrops", {0, 0, 2, 0}, 10.0, nullptr, true, true, {0, 1, 3},
     covers_rows},
    {"PredictorKeeps", {0, 0, 2, 0}, 1e-3, nullptr, true, false, {},
     nullptr},
    {"ForceDropOverridesTheKeep", {0, 0, 2, 0}, 1e-3,
     [](RuntimeOptions& o) { o.force_drop_loaded = true; }, true, true,
     {0, 1, 3}, covers_rows},
    {"LogicalDropKeepsMinimumRows", {0, 0, 2, 0}, 10.0,
     [](RuntimeOptions& o) { o.drop_mode = DropMode::Logical; }, true, true,
     {0, 1, 2, 3},
     [](const std::vector<int>& c) {
         return c[2] == kLogicalMinRows && covers_rows(c);
     }},
    // The two "loaded" thresholds again: a node at 0.3 alone does not make
    // the set loaded (kLoadChangeEps) ...
    {"LoadBetweenThresholdsAloneIsNotEvaluated", {0, 0, 0, 0.3}, 10.0,
     nullptr, false, false, {}, nullptr},
    // ... but once another node is, the predictor (NodePower::loaded())
    // drops it with the loaded one.
    {"LoadBetweenThresholdsDropsWithLoadedNode", {0, 0, 2, 0.3}, 10.0,
     nullptr, true, true, {0, 1},
     [](const std::vector<int>& c) { return c == std::vector<int>{200, 200}; }},
};

void PrintTo(const PostRow& r, std::ostream* os) { *os << r.name; }

class AdaptationPostGrace : public ::testing::TestWithParam<PostRow> {};

TEST_P(AdaptationPostGrace, Decide) {
    const PostRow& row = GetParam();
    RuntimeOptions opts;
    if (row.setup) row.setup(opts);
    const DecisionInputs in = world(4, 400, row.loads);
    const Decision d = decide_post_grace(opts, in, row.measured_s);
    EXPECT_EQ(d.removal.has_value(), row.evaluated);
    EXPECT_EQ(d.apply, row.drop);
    if (!row.drop) return;
    EXPECT_EQ(d.new_active, row.new_active);
    EXPECT_TRUE(row.counts_ok(d.counts)) << ::testing::PrintToString(d.counts);
}

INSTANTIATE_TEST_SUITE_P(PostGraceTable, AdaptationPostGrace,
                         ::testing::ValuesIn(kPostRows));

TEST(AdaptationPostGraceValue, SingleNodeIsNotEvaluated) {
    RuntimeOptions opts;
    opts.force_drop_loaded = true;
    DecisionInputs in = world(4, 400, {2, 0, 0, 0});
    in.active = {0};
    in.counts = {400};
    const Decision d = decide_post_grace(opts, in, 10.0);
    EXPECT_FALSE(d.removal.has_value());
    EXPECT_FALSE(d.apply);
}

// ---------------------------------------------------------------------------
// Crash repair's target (survivor_counts)
// ---------------------------------------------------------------------------

struct SurvivorRow {
    const char* name;
    std::vector<int> counts;
    std::vector<char> dead;
    std::vector<int> caps;
    std::vector<int> expected;
};

const SurvivorRow kSurvivorRows[] = {
    // 1017 rows above the minimum over 7 equal weights: 145 each and two
    // left over, which go to the first two survivors.
    {"EqualBlocksStayWithinOne", std::vector<int>(8, 128),
     {0, 0, 0, 0, 0, 1, 0, 0}, {}, {147, 147, 146, 146, 146, 146, 146}},
    {"HeterogeneousBlocksKeepTheirRatios", {100, 200, 300, 400},
     {0, 0, 0, 1}, {}, {166, 333, 501}},
    {"DeadLeader", {100, 100, 100, 100}, {1, 0, 0, 0}, {}, {134, 133, 133}},
    {"TwoDeadNodes", std::vector<int>(6, 100), {0, 1, 0, 0, 1, 0}, {},
     {150, 150, 150, 150}},
    // A logically dropped node holds kLogicalMinRows and keeps it; the two
    // equal remainders break toward the earlier survivor.
    {"LogicallyDroppedNodeStaysAtTheMinimum", {1, 133, 133, 133},
     {0, 0, 0, 1}, {}, {1, 200, 199}},
    {"EveryBlockAtTheMinimumSpreadsEvenly", {1, 1, 1, 1, 1},
     {0, 0, 1, 0, 0}, {}, {2, 1, 1, 1}},
    // Node 0 fits 110 rows: the 24 over its cap spill evenly.
    {"MemoryCapsClampTheTarget", {100, 100, 100, 100}, {0, 0, 0, 1},
     {110, 0, 0}, {110, 145, 145}},
    // 46 rows over four equal weights: 11.5 each, so the two spare rows go
    // to the first two survivors, every time.
    {"TiesGoToTheEarlierSurvivor", {10, 10, 10, 10, 10}, {0, 0, 0, 0, 1}, {},
     {13, 13, 12, 12}},
};

void PrintTo(const SurvivorRow& r, std::ostream* os) { *os << r.name; }

class AdaptationSurvivors : public ::testing::TestWithParam<SurvivorRow> {};

TEST_P(AdaptationSurvivors, Target) {
    const SurvivorRow& row = GetParam();
    const std::vector<int> got = survivor_counts(row.counts, row.dead, row.caps);
    EXPECT_EQ(got, row.expected);
    EXPECT_EQ(total(got), total(row.counts)); // every row is covered
    EXPECT_EQ(got, survivor_counts(row.counts, row.dead, row.caps));
}

INSTANTIATE_TEST_SUITE_P(SurvivorTable, AdaptationSurvivors,
                         ::testing::ValuesIn(kSurvivorRows));

TEST(AdaptationSurvivorsValue, RowCapsOnlyWhenMemoryAware) {
    RuntimeOptions opts;
    const std::vector<double> memories{50 * 1024, 0, 1e6};
    EXPECT_EQ(row_caps(opts, memories, 1024, {0, 1, 2}),
              (std::vector<int>{50, 0, 976}));
    EXPECT_EQ(row_caps(opts, memories, 1024, {2, 0}),
              (std::vector<int>{976, 50}));
    opts.memory_aware = false;
    EXPECT_EQ(row_caps(opts, memories, 1024, {0, 1, 2}),
              (std::vector<int>{0, 0, 0}));
}

TEST(AdaptationPostGraceValue, ThresholdsDiffer) {
    // Pinned until unified on purpose: NodePower::loaded() uses
    // kLoadedAbove (0.25) while the adaptation trigger kLoadChangeEps is 0.5.
    EXPECT_TRUE((NodePower{1.0, 0.3}.loaded()));
    EXPECT_LE(0.3, kLoadChangeEps);
}

}  // namespace
}  // namespace dynmpi
