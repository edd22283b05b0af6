// Pure-plan tests for redistribution scheduling (no machine needed), plus
// machine-backed execution tests for data integrity.
#include "dynmpi/redistributor.hpp"

#include <gtest/gtest.h>

#include "dynmpi/dense_array.hpp"
#include "dynmpi/sparse_matrix.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "transfer_rows_oracle.hpp"

namespace dynmpi {
namespace {

using msg::Group;

std::vector<Drsd> halo_accesses(const std::string& name) {
    return {
        Drsd{name, AccessMode::Write, 0, 1, 0},
        Drsd{name, AccessMode::Read, 0, 1, -1},
        Drsd{name, AccessMode::Read, 0, 1, +1},
    };
}

TEST(RedistPlan, OwnedRowsFollowDistribution) {
    Group g({0, 1, 2});
    auto d = Distribution::block(0, 30, {10, 15, 5});
    EXPECT_EQ(owned_rows(g, d, 0), RowSet(0, 10));
    EXPECT_EQ(owned_rows(g, d, 1), RowSet(10, 25));
    EXPECT_EQ(owned_rows(g, d, 2), RowSet(25, 30));
    EXPECT_TRUE(owned_rows(g, d, 7).empty()); // non-member
}

TEST(RedistPlan, NeededRowsIncludeGhosts) {
    Group g({0, 1, 2});
    auto d = Distribution::block(0, 30, {10, 10, 10});
    auto acc = halo_accesses("A");
    EXPECT_EQ(needed_rows(g, d, 1, acc, 30), RowSet(9, 21));
    EXPECT_EQ(needed_rows(g, d, 0, acc, 30), RowSet(0, 11)); // clipped low
    EXPECT_EQ(needed_rows(g, d, 2, acc, 30), RowSet(19, 30)); // clipped high
}

TEST(RedistPlan, NoAccessesMeansOwnedOnly) {
    Group g({0, 1});
    auto d = Distribution::block(0, 10, {4, 6});
    EXPECT_EQ(needed_rows(g, d, 1, {}, 10), RowSet(4, 10));
}

TEST(RedistPlan, TransferMovesOnlyChangedRows) {
    Group g({0, 1});
    auto oldd = Distribution::block(0, 100, {50, 50});
    auto newd = Distribution::block(0, 100, {30, 70});
    RedistContext ctx{100, &g, &oldd, &g, &newd};
    std::vector<Drsd> acc; // no ghosts: pure ownership
    // Node 1 now also owns rows 30..50, previously owned by node 0.
    EXPECT_EQ(transfer_rows(ctx, acc, 0, 1), RowSet(30, 50));
    EXPECT_TRUE(transfer_rows(ctx, acc, 1, 0).empty());
    EXPECT_TRUE(transfer_rows(ctx, acc, 0, 0).empty()); // self
}

TEST(RedistPlan, TransferIncludesGhostRefresh) {
    Group g({0, 1});
    auto oldd = Distribution::block(0, 100, {50, 50});
    auto newd = Distribution::block(0, 100, {40, 60});
    RedistContext ctx{100, &g, &oldd, &g, &newd};
    auto acc = halo_accesses("A");
    // Node 0 needs rows 0..41 (ghost row 40 now at 40? new own 0..40 plus
    // ghost 40). Ghost row 40 was old-owned by node 0 itself; ghost row 41
    // too. Node 1 needs 39..100: ghost row 39 comes from node 0.
    RowSet s01 = transfer_rows(ctx, acc, 0, 1);
    EXPECT_TRUE(s01.contains(39)); // ghost refresh
    EXPECT_TRUE(s01.contains(40));
    EXPECT_TRUE(s01.contains(49));
    EXPECT_FALSE(s01.contains(50)); // node 1 already owned it
}

TEST(RedistPlan, NodeRemovalDrainsItsRows) {
    Group oldg({0, 1, 2});
    Group newg({0, 2}); // node 1 physically dropped
    auto oldd = Distribution::block(0, 30, {10, 10, 10});
    auto newd = Distribution::block(0, 30, {15, 15});
    RedistContext ctx{30, &oldg, &oldd, &newg, &newd};
    std::vector<Drsd> acc;
    // Node 1's old rows 10..20 split between nodes 0 and 2.
    EXPECT_EQ(transfer_rows(ctx, acc, 1, 0), RowSet(10, 15));
    EXPECT_EQ(transfer_rows(ctx, acc, 1, 2), RowSet(15, 20));
    // Node 1 receives nothing.
    EXPECT_TRUE(transfer_rows(ctx, acc, 0, 1).empty());
    EXPECT_TRUE(transfer_rows(ctx, acc, 2, 1).empty());
}

TEST(RedistPlan, NodeReaddReceivesItsNewRows) {
    Group oldg({0, 2});
    Group newg({0, 1, 2}); // node 1 re-added
    auto oldd = Distribution::block(0, 30, {15, 15});
    auto newd = Distribution::block(0, 30, {10, 10, 10});
    RedistContext ctx{30, &oldg, &oldd, &newg, &newd};
    std::vector<Drsd> acc;
    EXPECT_EQ(transfer_rows(ctx, acc, 0, 1), RowSet(10, 15));
    EXPECT_EQ(transfer_rows(ctx, acc, 2, 1), RowSet(15, 20));
}

TEST(RedistPlan, PlanIsSymmetricallyConsistent) {
    // For every pair, what i sends to j is exactly what j expects from i —
    // and transfers partition each node's newly-needed rows.
    Group oldg({0, 1, 2, 3});
    Group newg({0, 1, 3});
    auto oldd = Distribution::block(0, 64, {16, 16, 16, 16});
    auto newd = Distribution::block(0, 64, {30, 4, 30});
    RedistContext ctx{64, &oldg, &oldd, &newg, &newd};
    auto acc = halo_accesses("A");
    for (int dst = 0; dst < 4; ++dst) {
        RowSet incoming;
        for (int src = 0; src < 4; ++src) {
            RowSet t = transfer_rows(ctx, acc, src, dst);
            EXPECT_TRUE(incoming.intersect(t).empty())
                << "row sent twice to " << dst;
            incoming.add(t);
        }
        RowSet need = needed_rows(newg, newd, dst, acc, 64);
        RowSet kept = owned_rows(oldg, oldd, dst).intersect(need);
        EXPECT_EQ(incoming.unite(kept), need) << "coverage for " << dst;
    }
}

TEST(RedistPlan, PlanMatchesPairwiseTransferRows) {
    // The plan-once schedule must be row-for-row identical to the reference
    // pairwise formulation, for every perspective rank, across distribution
    // shape changes (block -> cyclic) and active-set shrink/grow.
    const int rows = 48;
    std::vector<ArrayInfo> arrays;
    for (const char* name : {"A", "B"}) {
        ArrayInfo ai;
        ai.accesses = name[0] == 'A' ? halo_accesses(name)
                                     : std::vector<Drsd>{};
        arrays.push_back(std::move(ai));
    }

    auto check = [&](const Group& oldg, const Distribution& oldd,
                     const Group& newg, const Distribution& newd) {
        RedistContext ctx{rows, &oldg, &oldd, &newg, &newd};
        for (int me = 0; me < 7; ++me) { // includes non-parties
            RedistPlan plan = build_redist_plan(ctx, arrays, me);
            ASSERT_EQ(plan.per_array.size(), arrays.size());
            for (std::size_t k = 0; k < arrays.size(); ++k) {
                const auto& ap = plan.per_array[k];
                ASSERT_EQ(ap.send_to.size(), plan.parties.size());
                ASSERT_EQ(ap.recv_from.size(), plan.parties.size());
                for (std::size_t i = 0; i < plan.parties.size(); ++i) {
                    const int peer = plan.parties[i];
                    EXPECT_EQ(ap.send_to[i],
                              transfer_rows(ctx, arrays[k].accesses, me,
                                            peer))
                        << "send me=" << me << " peer=" << peer << " k=" << k;
                    EXPECT_EQ(ap.recv_from[i],
                              transfer_rows(ctx, arrays[k].accesses, peer,
                                            me))
                        << "recv me=" << me << " peer=" << peer << " k=" << k;
                }
                EXPECT_EQ(ap.my_needed,
                          needed_rows(newg, newd, me, arrays[k].accesses,
                                      rows))
                    << "needed me=" << me << " k=" << k;
            }
        }
    };

    // Same membership, block -> cyclic.
    check(Group({0, 1, 2, 3}), Distribution::block(0, rows, {12, 12, 12, 12}),
          Group({0, 1, 2, 3}), Distribution::cyclic(0, rows, 4));
    // Shrink: six nodes down to three, even block -> block-cyclic.
    check(Group({0, 1, 2, 3, 4, 5}), Distribution::even_block(0, rows, 6),
          Group({1, 3, 4}), Distribution::cyclic(0, rows, 3, 2));
    // Grow: two nodes up to four, cyclic -> variable block.
    check(Group({0, 2}), Distribution::cyclic(0, rows, 2),
          Group({0, 1, 2, 4}), Distribution::block(0, rows, {10, 14, 16, 8}));
}

// ---------------------------------------------------------------------------
// Execution on the machine
// ---------------------------------------------------------------------------

sim::ClusterConfig cfg(int nodes) {
    sim::ClusterConfig c;
    c.num_nodes = nodes;
    c.cpu.jitter_frac = 0.0;
    return c;
}

TEST(RedistExec, DenseDataSurvivesOwnershipChange) {
    msg::Machine m(cfg(3));
    m.run([](msg::Rank& r) {
        Group g({0, 1, 2});
        auto oldd = Distribution::block(0, 30, {10, 10, 10});
        auto newd = Distribution::block(0, 30, {4, 20, 6});

        std::vector<ArrayInfo> arrays;
        ArrayInfo ai;
        ai.array = std::make_unique<DenseArray>("A", 30, 8, sizeof(double));
        ai.accesses = halo_accesses("A");
        arrays.push_back(std::move(ai));

        auto& A = static_cast<DenseArray&>(*arrays[0].array);
        RowSet mine = needed_rows(g, oldd, r.id(), arrays[0].accesses, 30);
        A.ensure_rows(mine);
        // Each node authors only the rows it OWNS.
        for (int row : owned_rows(g, oldd, r.id()).to_vector())
            for (int j = 0; j < 8; ++j)
                A.at<double>(row, j) = row * 1000.0 + j;

        RedistContext ctx{30, &g, &oldd, &g, &newd};
        execute_redistribution(r, ctx, arrays, 1);

        RowSet need = needed_rows(g, newd, r.id(), arrays[0].accesses, 30);
        EXPECT_EQ(A.held(), need);
        for (int row : need.to_vector())
            for (int j = 0; j < 8; ++j)
                EXPECT_DOUBLE_EQ(A.at<double>(row, j), row * 1000.0 + j)
                    << "rank " << r.id() << " row " << row;
    });
}

TEST(RedistExec, SparseDataAndMetadataSurvive) {
    msg::Machine m(cfg(2));
    m.run([](msg::Rank& r) {
        Group g({0, 1});
        auto oldd = Distribution::block(0, 20, {10, 10});
        auto newd = Distribution::block(0, 20, {3, 17});

        std::vector<ArrayInfo> arrays;
        ArrayInfo ai;
        ai.array = std::make_unique<SparseMatrix>("S", 20, 40);
        ai.accesses = {Drsd{"S", AccessMode::Write, 0, 1, 0}};
        arrays.push_back(std::move(ai));
        auto& S = static_cast<SparseMatrix&>(*arrays[0].array);

        S.ensure_rows(owned_rows(g, oldd, r.id()));
        for (int row : owned_rows(g, oldd, r.id()).to_vector()) {
            S.set(row, row % 40, row * 2.0);
            S.set(row, (row * 7) % 40, -row * 1.0);
        }

        RedistContext ctx{20, &g, &oldd, &g, &newd};
        execute_redistribution(r, ctx, arrays, 9);

        for (int row : owned_rows(g, newd, r.id()).to_vector()) {
            EXPECT_DOUBLE_EQ(S.get(row, row % 40), row * 2.0);
            if ((row * 7) % 40 != row % 40) {
                EXPECT_DOUBLE_EQ(S.get(row, (row * 7) % 40), -row * 1.0);
            }
        }
    });
}

TEST(RedistExec, MultipleArraysMoveTogether) {
    msg::Machine m(cfg(2));
    m.run([](msg::Rank& r) {
        Group g({0, 1});
        auto oldd = Distribution::block(0, 16, {8, 8});
        auto newd = Distribution::block(0, 16, {12, 4});

        std::vector<ArrayInfo> arrays;
        for (const char* name : {"A", "B"}) {
            ArrayInfo ai;
            ai.array = std::make_unique<DenseArray>(name, 16, 2, sizeof(int));
            ai.accesses = {Drsd{name, AccessMode::Write, 0, 1, 0}};
            arrays.push_back(std::move(ai));
        }
        for (auto& ai : arrays) {
            auto& arr = static_cast<DenseArray&>(*ai.array);
            arr.ensure_rows(owned_rows(g, oldd, r.id()));
            int salt = ai.array->name() == "A" ? 1 : 2;
            for (int row : owned_rows(g, oldd, r.id()).to_vector())
                arr.at<int>(row, 0) = row * 10 + salt;
        }

        RedistContext ctx{16, &g, &oldd, &g, &newd};
        auto stats = execute_redistribution(r, ctx, arrays, 3);
        if (r.id() == 0) {
            // Rank 1 ships rows 8..12 of both arrays to rank 0.
            EXPECT_EQ(stats.messages, 0u); // rank 0 sends nothing
        }
        for (auto& ai : arrays) {
            auto& arr = static_cast<DenseArray&>(*ai.array);
            int salt = ai.array->name() == "A" ? 1 : 2;
            for (int row : owned_rows(g, newd, r.id()).to_vector())
                EXPECT_EQ(arr.at<int>(row, 0), row * 10 + salt);
        }
    });
}

TEST(RedistExec, IdentityRedistributionRefreshesGhostsOnly) {
    msg::Machine m(cfg(2));
    m.run([](msg::Rank& r) {
        Group g({0, 1});
        auto d = Distribution::block(0, 10, {5, 5});
        std::vector<ArrayInfo> arrays;
        ArrayInfo ai;
        ai.array = std::make_unique<DenseArray>("A", 10, 1, sizeof(double));
        ai.accesses = halo_accesses("A");
        arrays.push_back(std::move(ai));
        auto& A = static_cast<DenseArray&>(*arrays[0].array);
        A.ensure_rows(needed_rows(g, d, r.id(), arrays[0].accesses, 10));
        for (int row : owned_rows(g, d, r.id()).to_vector())
            A.at<double>(row, 0) = 5.0 + row;

        RedistContext ctx{10, &g, &d, &g, &d};
        auto stats = execute_redistribution(r, ctx, arrays, 4);
        // Only the single ghost row crosses in each direction.
        EXPECT_EQ(stats.rows_moved, 1u);
        // Ghost got refreshed with the authoritative value.
        int ghost = r.id() == 0 ? 5 : 4;
        EXPECT_DOUBLE_EQ(A.at<double>(ghost, 0), 5.0 + ghost);
    });
}

TEST(RedistExec, DropAdoptsDenseRowsWithoutAllocating) {
    // Node 2 drops out: its rows go to node 1, which passes its low rows to
    // node 0.  Receivers adopt the shipped bodies instead of allocating
    // their own; each message's header is one run and one row size.
    constexpr int kRows = 30;
    constexpr int kElems = 8;
    constexpr std::uint64_t kRowBytes = kElems * sizeof(double);
    msg::Machine m(cfg(3));
    std::vector<RedistStats> stats(3);
    std::vector<std::uint64_t> allocated(3);
    m.run([&](msg::Rank& r) {
        Group oldg({0, 1, 2});
        Group newg({0, 1});
        auto oldd = Distribution::block(0, kRows, {10, 10, 10});
        auto newd = Distribution::block(0, kRows, {15, 15});

        std::vector<ArrayInfo> arrays;
        ArrayInfo ai;
        ai.array = std::make_unique<DenseArray>("A", kRows, kElems,
                                                sizeof(double));
        ai.accesses = {Drsd{"A", AccessMode::Write, 0, 1, 0}};
        arrays.push_back(std::move(ai));
        auto& A = static_cast<DenseArray&>(*arrays[0].array);
        A.ensure_rows(owned_rows(oldg, oldd, r.id()));
        for (int row : owned_rows(oldg, oldd, r.id()).to_vector())
            for (int j = 0; j < kElems; ++j)
                A.at<double>(row, j) = row * 100.0 + j;

        const std::uint64_t before = A.stats().rows_allocated;
        RedistContext ctx{kRows, &oldg, &oldd, &newg, &newd};
        const auto id = static_cast<std::size_t>(r.id());
        stats[id] = execute_redistribution(r, ctx, arrays, 5);
        allocated[id] = A.stats().rows_allocated - before;

        EXPECT_EQ(A.held(), owned_rows(newg, newd, r.id()));
        for (int row : A.held().to_vector())
            for (int j = 0; j < kElems; ++j)
                EXPECT_DOUBLE_EQ(A.at<double>(row, j), row * 100.0 + j);
    });
    EXPECT_EQ(allocated[0], 0u); // received rows 10..14
    EXPECT_EQ(allocated[1], 0u); // received rows 20..29
    // One message each from node 1 (5 rows) and node 2 (10 rows).
    EXPECT_EQ(stats[0].messages, 0u);
    EXPECT_EQ(stats[1].messages, 1u);
    constexpr std::uint64_t kHeader = 1 + 4 + 8 + 1 + 8;
    EXPECT_EQ(stats[1].bytes, kHeader + 5 * kRowBytes);
    EXPECT_EQ(stats[2].messages, 1u);
    EXPECT_EQ(stats[2].bytes, kHeader + 10 * kRowBytes);
    EXPECT_EQ(m.traffic().bytes[static_cast<std::size_t>(
                  msg::TagSpace::Runtime)],
              stats[1].bytes + stats[2].bytes);
}

}  // namespace
}  // namespace dynmpi
