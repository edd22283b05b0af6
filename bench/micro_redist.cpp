// Micro-benchmarks for redistribution planning: the pure functions executed
// by every node at each adaptation (transfer-set computation must stay cheap
// because it is O(nodes^2 x arrays) per redistribution).
#include <benchmark/benchmark.h>

#include "dynmpi/redistributor.hpp"
#include "tests/dynmpi/transfer_rows_oracle.hpp"

namespace dynmpi {
namespace {

std::vector<Drsd> halo(const std::string& name) {
    return {
        Drsd{name, AccessMode::Write, 0, 1, 0},
        Drsd{name, AccessMode::Read, 0, 1, -1},
        Drsd{name, AccessMode::Read, 0, 1, +1},
    };
}

void BM_TransferPlan_FullPairGrid(benchmark::State& state) {
    const int nodes = static_cast<int>(state.range(0));
    const int rows = 4096;
    std::vector<int> members(static_cast<size_t>(nodes));
    for (int i = 0; i < nodes; ++i) members[(size_t)i] = i;
    msg::Group g(members);
    auto oldd = Distribution::even_block(0, rows, nodes);
    // Perturbed new distribution.
    std::vector<int> counts(static_cast<size_t>(nodes), rows / nodes);
    counts[0] -= rows / (4 * nodes);
    counts[(size_t)nodes - 1] += rows / (4 * nodes);
    auto newd = Distribution::block(0, rows, counts);
    RedistContext ctx{rows, &g, &oldd, &g, &newd};
    auto acc = halo("A");

    for (auto _ : state) {
        int total = 0;
        for (int s = 0; s < nodes; ++s)
            for (int d = 0; d < nodes; ++d)
                total += transfer_rows(ctx, acc, s, d).count();
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() * nodes * nodes);
}
BENCHMARK(BM_TransferPlan_FullPairGrid)->Arg(8)->Arg(32);

void BM_NeededRows_WithGhosts(benchmark::State& state) {
    const int rows = 16384;
    std::vector<int> members{0, 1, 2, 3, 4, 5, 6, 7};
    msg::Group g(members);
    auto d = Distribution::even_block(0, rows, 8);
    auto acc = halo("A");
    for (auto _ : state) {
        for (int w = 0; w < 8; ++w)
            benchmark::DoNotOptimize(needed_rows(g, d, w, acc, rows).count());
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_NeededRows_WithGhosts);

void BM_CyclicToBlockPlan(benchmark::State& state) {
    // The worst case for RowSet machinery: cyclic ownership makes every
    // transfer set highly fragmented.
    const int rows = 2048;
    std::vector<int> members{0, 1, 2, 3};
    msg::Group g(members);
    auto oldd = Distribution::cyclic(0, rows, 4);
    auto newd = Distribution::even_block(0, rows, 4);
    RedistContext ctx{rows, &g, &oldd, &g, &newd};
    std::vector<Drsd> acc{Drsd{"A", AccessMode::Write, 0, 1, 0}};
    for (auto _ : state) {
        int total = 0;
        for (int s = 0; s < 4; ++s)
            for (int d = 0; d < 4; ++d)
                total += transfer_rows(ctx, acc, s, d).count();
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_CyclicToBlockPlan);

// ---------------------------------------------------------------------------
// Plan-once vs. legacy pairwise schedule derivation.
//
// Both benchmarks compute one rank's complete redistribution schedule (send
// sets, receive sets, and the cleanup target) for a many-party, many-array
// adaptation.  Legacy mirrors the pre-plan executor: pairwise transfer_rows
// in both the send and receive phase plus a fresh needed_rows per array at
// cleanup — O(parties x arrays) set rebuilds per phase.  PlanOnce builds a
// RedistPlan, which materializes each (array, party) needed set exactly
// once.  tools/check_bench.py gates CI on the ratio of the two.
// ---------------------------------------------------------------------------

struct ScheduleFixture {
    std::vector<int> members;
    msg::Group g;
    Distribution oldd;
    Distribution newd;
    std::vector<ArrayInfo> arrays;
    RedistContext ctx;

    explicit ScheduleFixture(int nodes, int rows = 4096)
        : members(make_members(nodes)),
          g(members),
          oldd(Distribution::even_block(0, rows, nodes)),
          newd(perturbed(rows, nodes)),
          ctx{rows, &g, &oldd, &g, &newd} {
        for (const char* name : {"A", "B", "C", "D"}) {
            ArrayInfo ai;
            ai.accesses = halo(name);
            arrays.push_back(std::move(ai));
        }
    }

    static std::vector<int> make_members(int nodes) {
        std::vector<int> m(static_cast<size_t>(nodes));
        for (int i = 0; i < nodes; ++i) m[(size_t)i] = i;
        return m;
    }

    static Distribution perturbed(int rows, int nodes) {
        std::vector<int> counts(static_cast<size_t>(nodes), rows / nodes);
        counts[0] -= rows / (4 * nodes);
        counts[(size_t)nodes - 1] += rows / (4 * nodes);
        return Distribution::block(0, rows, counts);
    }
};

void BM_RedistSchedule_Legacy(benchmark::State& state) {
    ScheduleFixture f(static_cast<int>(state.range(0)));
    const int me = static_cast<int>(state.range(0)) / 2; // mid-grid rank
    for (auto _ : state) {
        int total = 0;
        for (const auto& ai : f.arrays)
            for (int dst : f.members)
                total += transfer_rows(f.ctx, ai.accesses, me, dst).count();
        for (const auto& ai : f.arrays)
            for (int src : f.members)
                total += transfer_rows(f.ctx, ai.accesses, src, me).count();
        for (const auto& ai : f.arrays)
            total += needed_rows(f.g, f.newd, me, ai.accesses,
                                 f.ctx.global_rows)
                         .count();
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(f.members.size()) *
                            static_cast<std::int64_t>(f.arrays.size()));
}
BENCHMARK(BM_RedistSchedule_Legacy)->Arg(16)->Arg(64);

void BM_RedistSchedule_PlanOnce(benchmark::State& state) {
    ScheduleFixture f(static_cast<int>(state.range(0)));
    const int me = static_cast<int>(state.range(0)) / 2;
    for (auto _ : state) {
        RedistPlan plan = build_redist_plan(f.ctx, f.arrays, me);
        int total = 0;
        for (const auto& ap : plan.per_array) {
            for (const auto& s : ap.send_to) total += s.count();
            for (const auto& r : ap.recv_from) total += r.count();
            total += ap.my_needed.count();
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(f.members.size()) *
                            static_cast<std::int64_t>(f.arrays.size()));
}
BENCHMARK(BM_RedistSchedule_PlanOnce)->Arg(16)->Arg(64);

}  // namespace
}  // namespace dynmpi

BENCHMARK_MAIN();
