// ReplicaStore: the buddy's copies of a predecessor's rows.  The store
// copies every body it is given into a slot of its own and hands the slots
// out by reference on extract(), so these tests pin both directions of
// isolation: owner writes never reach a replica, and a new store never
// writes through a body an extracted payload still shares.
#include "dynmpi/replica.hpp"

#include <gtest/gtest.h>

#include "dynmpi/dense_array.hpp"
#include "dynmpi/sparse_matrix.hpp"
#include "support/error.hpp"

namespace dynmpi {
namespace {

DenseArray make_dense() { return DenseArray("A", 16, 4, sizeof(double)); }

void fill(DenseArray& a, int row, double base) {
    for (int j = 0; j < a.row_elems(); ++j) a.at<double>(row, j) = base + j;
}

void expect_row(const DenseArray& a, int row, double base) {
    for (int j = 0; j < a.row_elems(); ++j)
        EXPECT_DOUBLE_EQ(a.at<double>(row, j), base + j) << "row " << row;
}

/// Unpack `payload` into a fresh dense array and check row r holds base(r).
template <typename Base>
void expect_payload(const RowPayload& payload, const RowSet& rows,
                    Base base) {
    DenseArray out = make_dense();
    out.unpack_rows(payload);
    EXPECT_EQ(out.held(), rows);
    for (int r : rows.to_vector()) expect_row(out, r, base(r));
}

TEST(ReplicaStore, StoreExtractRoundTrip) {
    DenseArray owner = make_dense();
    owner.ensure_rows(RowSet(2, 6));
    for (int r = 2; r < 6; ++r) fill(owner, r, 10.0 * r);
    SparseMatrix m("S", 16, 8);
    m.ensure_rows(RowSet(0, 3));
    m.set(1, 2, 1.5);
    m.set(1, 7, 2.5);

    ReplicaStore store(2);
    EXPECT_EQ(store.store(0, owner.pack_rows(RowSet(2, 6))), RowSet(2, 6));
    EXPECT_EQ(store.store(1, m.pack_rows(RowSet(0, 3))), RowSet(0, 3));
    EXPECT_EQ(store.rows_held(0, RowSet(0, 16)), RowSet(2, 6));
    EXPECT_EQ(store.rows_held(1, RowSet(1, 16)), RowSet(1, 3));

    // Rows the store never saw are absent from the result.
    const RowPayload dense = store.extract(0, RowSet(0, 4));
    EXPECT_EQ(dense.rows(), RowSet(2, 4));
    expect_payload(dense, RowSet(2, 4), [](int r) { return 10.0 * r; });

    SparseMatrix back("S", 16, 8);
    back.unpack_rows(store.extract(1, RowSet(0, 3)));
    EXPECT_EQ(back.held(), RowSet(0, 3));
    EXPECT_EQ(back.row_nnz(0), 0);
    EXPECT_DOUBLE_EQ(back.get(1, 2), 1.5);
    EXPECT_DOUBLE_EQ(back.get(1, 7), 2.5);
    EXPECT_THROW(store.store(2, dense), Error);
    EXPECT_THROW(store.extract(2, RowSet(0, 1)), Error);
}

TEST(ReplicaStore, ExtractSharesTheStoredBody) {
    DenseArray owner = make_dense();
    owner.ensure_rows(RowSet(0, 2));
    fill(owner, 0, 1.0);
    fill(owner, 1, 2.0);
    ReplicaStore store(1);
    store.store(0, owner.pack_rows(RowSet(0, 2)));

    const RowPayload first = store.extract(0, RowSet(0, 2));
    const RowPayload second = store.extract(0, RowSet(0, 2));
    for (std::size_t k = 0; k < first.size(); ++k) {
        // The store's slot plus one share per extracted payload.
        EXPECT_EQ(first.body(k).use_count(), 3u);
        EXPECT_EQ(first.body(k).data(), second.body(k).data());
    }
    // The store copied the owner's rows rather than sharing them.
    const DenseArray& cowner = owner;
    EXPECT_NE(first.body(0).data(), cowner.row_data(0));
}

TEST(ReplicaStore, OwnerWriteAfterStoreLeavesReplicaUnchanged) {
    DenseArray owner = make_dense();
    owner.ensure_rows(RowSet(4, 6));
    fill(owner, 4, 40.0);
    fill(owner, 5, 50.0);
    ReplicaStore store(1);
    store.store(0, owner.pack_rows(RowSet(4, 6)));

    // The payload is gone, so the owner is again its rows' only holder and
    // writes them in place: the store kept no share that would force a copy.
    const std::uint64_t copied = owner.stats().bytes_copied;
    fill(owner, 4, -1.0);
    owner.at<double>(5, 3) = -2.0;
    EXPECT_EQ(owner.stats().bytes_copied, copied);

    expect_payload(store.extract(0, RowSet(4, 6)), RowSet(4, 6),
                   [](int r) { return 10.0 * r; });
}

TEST(ReplicaStore, StoreIntoSharedSlotAllocatesNewSlot) {
    DenseArray owner = make_dense();
    owner.ensure_rows(RowSet(0, 2));
    fill(owner, 0, 1.0);
    fill(owner, 1, 2.0);
    ReplicaStore store(1);
    store.store(0, owner.pack_rows(RowSet(0, 2)));

    // With no outstanding share, a same-size store reuses the slot.
    const std::byte* slot0 = store.extract(0, RowSet(0, 1)).body(0).data();
    fill(owner, 0, 3.0);
    store.store(0, owner.pack_rows(RowSet(0, 1)));
    EXPECT_EQ(store.extract(0, RowSet(0, 1)).body(0).data(), slot0);

    // A restore payload still shares both slots: the next store must not
    // write through it.
    const RowPayload restore = store.extract(0, RowSet(0, 2));
    fill(owner, 0, 5.0);
    fill(owner, 1, 6.0);
    store.store(0, owner.pack_rows(RowSet(0, 2)));
    expect_payload(restore, RowSet(0, 2),
                   [](int r) { return r == 0 ? 3.0 : 2.0; });
    const RowPayload fresh = store.extract(0, RowSet(0, 2));
    for (std::size_t k = 0; k < fresh.size(); ++k) {
        EXPECT_NE(fresh.body(k).data(), restore.body(k).data());
        EXPECT_EQ(restore.body(k).use_count(), 1u);
    }
    expect_payload(fresh, RowSet(0, 2),
                   [](int r) { return r == 0 ? 5.0 : 6.0; });
}

TEST(ReplicaStore, RetainOnlyAndClearKeepBytes) {
    constexpr std::size_t kEntry = sizeof(SparseEntry);
    DenseArray owner = make_dense();
    owner.ensure_rows(RowSet(0, 4));
    SparseMatrix m("S", 16, 8);
    m.ensure_rows(RowSet(0, 2));
    m.set(0, 1, 1.0);
    m.set(1, 2, 2.0);
    m.set(1, 3, 3.0);

    ReplicaStore store(2);
    EXPECT_EQ(store.bytes(), 0u);
    store.store(0, owner.pack_rows(RowSet(0, 4)));
    store.store(1, m.pack_rows(RowSet(0, 2)));
    const std::size_t rb = owner.row_bytes();
    EXPECT_EQ(store.bytes(), 4 * rb + 3 * kEntry);

    // A row stored again at another size replaces its old bytes.
    m.set(0, 5, 5.0);
    store.store(1, m.pack_rows(RowSet(0, 1)));
    EXPECT_EQ(store.bytes(), 4 * rb + 4 * kEntry);

    store.retain_only(0, RowSet(1, 3));
    EXPECT_EQ(store.rows_held(0, RowSet(0, 16)), RowSet(1, 3));
    EXPECT_EQ(store.bytes(), 2 * rb + 4 * kEntry);
    store.retain_only(1, RowSet(1, 2));
    EXPECT_EQ(store.bytes(), 2 * rb + 2 * kEntry);

    store.clear();
    EXPECT_EQ(store.bytes(), 0u);
    EXPECT_TRUE(store.rows_held(0, RowSet(0, 16)).empty());
    EXPECT_TRUE(store.extract(1, RowSet(0, 16)).size() == 0);
}

// A refresh is all or nothing: until commit() the staged arrays are
// invisible, and a refresh whose sender died midway is dropped whole.
TEST(ReplicaStore, StagedRefreshCommitsWhole) {
    DenseArray x = make_dense();
    DenseArray y = make_dense();
    x.ensure_rows(RowSet(0, 2));
    y.ensure_rows(RowSet(0, 2));
    for (int r = 0; r < 2; ++r) {
        fill(x, r, 10.0 + r);
        fill(y, r, 20.0 + r);
    }
    ReplicaStore store(2);
    EXPECT_EQ(store.version(), -1);
    store.stage(0, x.pack_rows(RowSet(0, 2)));
    store.stage(1, y.pack_rows(RowSet(0, 2)));
    store.commit(7, /*source=*/3, /*wholesale=*/true);
    EXPECT_EQ(store.version(), 7);

    // Cycle 7's delta reaches the store for x only: nothing of it shows.
    fill(x, 0, -1.0);
    store.stage(0, x.pack_rows(RowSet(0, 1)));
    EXPECT_EQ(store.version(), 7);
    expect_payload(store.extract(0, RowSet(0, 2)), RowSet(0, 2),
                   [](int r) { return 10.0 + r; });
    store.discard_staged();

    // The whole delta of the next attempt commits over the same rows.
    fill(y, 1, -2.0);
    store.stage(0, x.pack_rows(RowSet(0, 1)));
    store.stage(1, y.pack_rows(RowSet(1, 2)));
    store.commit(8, 3, false);
    EXPECT_EQ(store.version(), 8);
    expect_payload(store.extract(0, RowSet(0, 2)), RowSet(0, 2),
                   [](int r) { return r == 0 ? -1.0 : 11.0; });
    expect_payload(store.extract(1, RowSet(0, 2)), RowSet(0, 2),
                   [](int r) { return r == 0 ? 20.0 : -2.0; });
}

// After the ring changed, a delta from the new predecessor replaces the
// rows of the old one instead of mixing with them.
TEST(ReplicaStore, DeltaFromNewSourceReplacesRows) {
    DenseArray owner = make_dense();
    owner.ensure_rows(RowSet(0, 6));
    ReplicaStore store(1);
    store.stage(0, owner.pack_rows(RowSet(0, 4)));
    store.commit(2, /*source=*/1, /*wholesale=*/false);
    store.stage(0, owner.pack_rows(RowSet(4, 6)));
    store.commit(3, /*source=*/1, false);
    EXPECT_EQ(store.rows_held(0, RowSet(0, 16)), RowSet(0, 6));
    store.stage(0, owner.pack_rows(RowSet(2, 5)));
    store.commit(4, /*source=*/2, false);
    EXPECT_EQ(store.rows_held(0, RowSet(0, 16)), RowSet(2, 5));
    EXPECT_EQ(store.bytes(), 3 * owner.row_bytes());
}

// Survivors restart from an agreed cycle: rows of a later cycle lose their
// version (a restore would ship the wrong state), and a staged refresh of
// the abandoned attempt is dropped.
TEST(ReplicaStore, RollbackForgetsLaterVersions) {
    DenseArray owner = make_dense();
    owner.ensure_rows(RowSet(0, 2));
    fill(owner, 0, 1.0);
    ReplicaStore store(1);
    store.stage(0, owner.pack_rows(RowSet(0, 2)));
    store.commit(5, 0, true);
    store.rollback(5);
    EXPECT_EQ(store.version(), 5);

    fill(owner, 0, 9.0);
    store.stage(0, owner.pack_rows(RowSet(0, 1)));
    store.rollback(4);
    EXPECT_EQ(store.version(), -1);
    store.commit(6, 0, false); // nothing staged survives the rollback
    expect_payload(store.extract(0, RowSet(0, 1)), RowSet(0, 1),
                   [](int) { return 1.0; });
}

}  // namespace
}  // namespace dynmpi
