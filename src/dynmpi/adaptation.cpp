#include "dynmpi/adaptation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dynmpi/runtime.hpp"
#include "support/error.hpp"

namespace dynmpi {

ModeState::Action ModeState::step(bool trigger, double max_wall,
                                  const RuntimeOptions& opts) {
    switch (mode) {
    case Mode::Monitor:
        if (!trigger) return Action::None;
        mode = Mode::Grace;
        grace_count = 0;
        return Action::EnterGrace;
    case Mode::Grace:
        if (++grace_count < opts.grace_cycles) return Action::None;
        mode = Mode::Monitor;
        return Action::DecideGrace;
    case Mode::PostGrace:
        post_wall_sum += max_wall;
        if (++post_count < kPostGraceCycles) return Action::None;
        mode = Mode::Monitor;
        return Action::DecidePostGrace;
    }
    return Action::None;
}

namespace {

/// Per-cycle communication CPU (or wire) seconds on `active_nodes` nodes.
double comm_per_cycle(const DecisionInputs& in, int active_nodes, bool wire) {
    double total = 0.0;
    for (const auto& p : in.phases)
        total += wire ? comm_wire_per_cycle(in.comm_costs, p, active_nodes)
                      : comm_cpu_per_cycle(in.comm_costs, p, active_nodes);
    return total;
}

/// The balancer's view of `members`, communication priced for `comm_nodes`.
BalanceInput balance_input(const DecisionInputs& in,
                           const std::vector<int>& members,
                           std::size_t comm_nodes) {
    BalanceInput b;
    b.row_costs.assign(in.row_costs.begin(), in.row_costs.end());
    for (int w : members)
        b.nodes.push_back(NodePower{in.speeds[static_cast<std::size_t>(w)],
                                    in.loads[static_cast<std::size_t>(w)]});
    b.comm_cpu_per_node =
        comm_per_cycle(in, static_cast<int>(comm_nodes), /*wire=*/false);
    return b;
}

/// Block counts for `parties` (the new active set): the scheme's shares for
/// `balanced`, a subsequence of it (the rest get none, hence `min_rows`
/// rows), clamped so every block fits its node's memory.
std::vector<int> block_counts(const RuntimeOptions& opts,
                              const DecisionInputs& in,
                              const std::vector<int>& parties,
                              const std::vector<int>& balanced,
                              int min_rows) {
    const BalanceInput b = balance_input(in, balanced, parties.size());
    const std::vector<double> balanced_shares =
        opts.scheme == BalanceScheme::RelativePower ? naive_shares(b.nodes)
                                                    : successive_shares(b);
    std::vector<double> shares(parties.size(), 0.0);
    for (std::size_t j = 0, k = 0; j < parties.size(); ++j)
        if (k < balanced.size() && balanced[k] == parties[j])
            shares[j] = balanced_shares[k++];
    return apply_row_caps(blocks_from_shares(b.row_costs, shares, min_rows),
                          row_caps(opts, in.memories, in.row_bytes, parties));
}

}  // namespace

Decision decide_grace(const RuntimeOptions& opts, const DecisionInputs& in) {
    // Candidate set: currently active nodes plus any unloaded node that can
    // be added back (paper: nodes return when conditions change).  The
    // leader-computed joinable flags cover crashes and restarted-but-not-
    // yet-bootstrapped incarnations; quarantined nodes sit out until
    // readmitted.
    Decision d;
    for (int w = 0; w < static_cast<int>(in.loads.size()); ++w) {
        auto wi = static_cast<std::size_t>(w);
        if (in.joinable[wi] == 0 || in.quarantined[wi] != 0) continue;
        if (std::count(in.active.begin(), in.active.end(), w) > 0 ||
            in.loads[wi] <= kLoadChangeEps)
            d.new_active.push_back(w);
    }
    // Degenerate case: every candidate is quarantined.  Keep the current
    // survivors rather than dissolving the computation.
    if (d.new_active.empty()) d.new_active = in.active;
    d.counts = block_counts(opts, in, d.new_active, d.new_active, 1);

    // Skip the redistribution if nothing materially changes — the threshold
    // scales with the average block so it means the same thing at every
    // machine size.
    d.apply = d.new_active != in.active;
    const double threshold = kMinCountChange *
                             static_cast<double>(in.row_costs.size()) /
                             static_cast<double>(d.new_active.size());
    for (std::size_t j = 0; !d.apply && j < d.counts.size(); ++j)
        d.apply = std::abs(d.counts[j] - in.counts[j]) > threshold;
    return d;
}

Decision decide_post_grace(const RuntimeOptions& opts,
                           const DecisionInputs& in, double measured_s) {
    Decision d;
    const bool any_loaded =
        std::any_of(in.active.begin(), in.active.end(), [&](int w) {
            return in.loads[static_cast<std::size_t>(w)] > kLoadChangeEps;
        });
    if (!opts.enable_removal || !any_loaded || in.active.size() < 2) return d;

    // Communication is priced for the unloaded-only configuration; with no
    // node unloaded the predictor does not run, so one node prices it.
    const BalanceInput all = balance_input(in, in.active, in.active.size());
    const int unloaded = std::max<int>(
        1, static_cast<int>(std::count_if(
               all.nodes.begin(), all.nodes.end(),
               [](const NodePower& n) { return !n.loaded(); })));
    RemovalDecision r = evaluate_removal(
        all, measured_s, comm_per_cycle(in, unloaded, /*wire=*/false),
        comm_per_cycle(in, unloaded, /*wire=*/true));
    // evaluate_removal keeps the configuration without predicting when
    // nothing is unloaded to fall back on, or nothing loaded to shed.
    const std::size_t kept = r.unloaded_members.size();
    if (kept == 0 || kept == all.nodes.size()) return d;
    d.apply = r.drop = r.drop || opts.force_drop_loaded;
    d.removal = r;
    if (!d.apply) return d;

    // Physical: the unloaded nodes become the active set.  Logical: loaded
    // nodes stay (static relative ranks) but keep only a minimum assignment.
    const bool physical = opts.drop_mode == DropMode::Physical;
    std::vector<int> keep;
    for (int j : r.unloaded_members)
        keep.push_back(in.active[static_cast<std::size_t>(j)]);
    d.new_active = physical ? keep : in.active;
    d.counts = block_counts(opts, in, d.new_active, keep,
                            physical ? 1 : kLogicalMinRows);
    return d;
}

std::vector<int> row_caps(const RuntimeOptions& opts,
                          const std::vector<double>& memories,
                          std::size_t row_bytes,
                          const std::vector<int>& members) {
    std::vector<int> caps(members.size(), 0);
    for (std::size_t j = 0; j < members.size(); ++j) {
        const double mem = memories[static_cast<std::size_t>(members[j])];
        if (opts.memory_aware && row_bytes > 0 && mem > 0)
            caps[j] = static_cast<int>(mem / static_cast<double>(row_bytes));
    }
    return caps;
}

std::vector<int> survivor_counts(const std::vector<int>& counts,
                                 const std::vector<char>& dead,
                                 const std::vector<int>& caps) {
    DYNMPI_REQUIRE(counts.size() == dead.size(),
                   "crash flags do not match the blocks");
    // Each survivor keeps its block up to the minimum; its weight is what
    // it held above that.
    std::vector<int> out;
    std::vector<long long> weight;
    for (std::size_t j = 0; j < counts.size(); ++j) {
        if (dead[j] != 0) continue;
        out.push_back(std::min(counts[j], kLogicalMinRows));
        weight.push_back(counts[j] - out.back());
    }
    DYNMPI_REQUIRE(!out.empty(), "every member crashed");
    long long total = std::accumulate(weight.begin(), weight.end(), 0LL);
    if (total == 0) {
        // Every survivor sits at the minimum: spread the rest evenly.
        std::fill(weight.begin(), weight.end(), 1LL);
        total = static_cast<long long>(weight.size());
    }
    const long long spread =
        std::accumulate(counts.begin(), counts.end(), 0LL) -
        std::accumulate(out.begin(), out.end(), 0LL);
    // Largest remainder in exact integers: floors first, then one more row
    // for each of the largest remainders (stable, so ties go to the
    // earlier survivor).
    std::vector<long long> rem(out.size());
    long long given = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const long long share = spread * weight[i];
        out[i] += static_cast<int>(share / total);
        rem[i] = share % total;
        given += share / total;
    }
    std::vector<std::size_t> order(out.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return rem[a] > rem[b];
                     });
    for (long long k = 0; k < spread - given; ++k)
        ++out[order[static_cast<std::size_t>(k)]];
    return caps.empty() ? out : apply_row_caps(std::move(out), caps);
}

}  // namespace dynmpi
