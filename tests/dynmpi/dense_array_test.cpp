#include "dynmpi/dense_array.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/wire.hpp"

namespace dynmpi {
namespace {

DenseArray make(int rows = 16, int cols = 4) {
    return DenseArray("A", rows, cols, sizeof(double));
}

void fill(DenseArray& a, int row) {
    for (int j = 0; j < a.row_elems(); ++j)
        a.at<double>(row, j) = row * 100.0 + j;
}

void expect_filled(const DenseArray& a, int row) {
    for (int j = 0; j < a.row_elems(); ++j)
        EXPECT_DOUBLE_EQ(a.at<double>(row, j), row * 100.0 + j);
}

TEST(DenseArray, EnsureAllocatesZeroedRows) {
    auto a = make();
    a.ensure_rows(RowSet(2, 5));
    EXPECT_EQ(a.held(), RowSet(2, 5));
    for (int r = 2; r < 5; ++r)
        for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(a.at<double>(r, j), 0.0);
    EXPECT_EQ(a.stats().rows_allocated, 3u);
}

TEST(DenseArray, EnsureIsIdempotent) {
    auto a = make();
    a.ensure_rows(RowSet(0, 4));
    fill(a, 1);
    a.ensure_rows(RowSet(0, 4)); // must not wipe existing data
    expect_filled(a, 1);
    EXPECT_EQ(a.stats().rows_allocated, 4u);
}

TEST(DenseArray, AccessToMissingRowRejected) {
    auto a = make();
    a.ensure_rows(RowSet(0, 2));
    EXPECT_THROW(a.at<double>(5, 0), Error);
    EXPECT_THROW(a.row_data(2), Error);
}

TEST(DenseArray, DropReleasesRows) {
    auto a = make();
    a.ensure_rows(RowSet(0, 8));
    a.drop_rows(RowSet(2, 4));
    EXPECT_FALSE(a.has_row(2));
    EXPECT_TRUE(a.has_row(4));
    EXPECT_EQ(a.stats().rows_freed, 2u);
    EXPECT_EQ(a.held().count(), 6);
}

TEST(DenseArray, PackUnpackRoundTripsData) {
    auto src = make();
    src.ensure_rows(RowSet(3, 7));
    for (int r = 3; r < 7; ++r) fill(src, r);

    auto dst = make();
    dst.unpack_rows(src.pack_rows(RowSet(4, 6)));
    EXPECT_EQ(dst.held(), RowSet(4, 6));
    expect_filled(dst, 4);
    expect_filled(dst, 5);
}

TEST(DenseArray, UnpackOverwritesExistingRows) {
    auto src = make(), dst = make();
    src.ensure_rows(RowSet(0, 1));
    fill(src, 0);
    dst.ensure_rows(RowSet(0, 1)); // zeroed
    dst.unpack_rows(src.pack_rows(RowSet(0, 1)));
    expect_filled(dst, 0);
    EXPECT_EQ(dst.stats().rows_allocated, 1u); // adopted, not reallocated
}

TEST(DenseArray, PackNonContiguousRows) {
    auto src = make(), dst = make();
    RowSet rows;
    rows.add(1, 2);
    rows.add(9, 11);
    src.ensure_rows(rows);
    fill(src, 1);
    fill(src, 9);
    fill(src, 10);
    dst.unpack_rows(src.pack_rows(rows));
    EXPECT_EQ(dst.held(), rows);
    expect_filled(dst, 10);
}

TEST(DenseArray, RetainOnlyKeepsRequestedRows) {
    auto a = make();
    a.ensure_rows(RowSet(0, 10));
    fill(a, 4);
    a.retain_only(RowSet(4, 6));
    EXPECT_EQ(a.held(), RowSet(4, 6));
    expect_filled(a, 4); // survivor untouched — projection reuse
}

TEST(DenseArray, EnsureOutOfRangeRejected) {
    auto a = make(8);
    EXPECT_THROW(a.ensure_rows(RowSet(6, 10)), Error);
}

TEST(DenseArray, ProjectionDoesNotCopyOnGrowth) {
    // The headline property of §4.1.1: growing the held set never touches
    // existing rows.
    auto a = make(1000, 64);
    a.ensure_rows(RowSet(0, 100));
    const std::byte* before = a.row_data(50);
    a.ensure_rows(RowSet(100, 900));
    EXPECT_EQ(a.row_data(50), before);
    EXPECT_EQ(a.stats().bytes_copied, 0u);
}

// ---------------------------------------------------------------------------
// Row codec and shared bodies
// ---------------------------------------------------------------------------

std::vector<std::byte> from_hex(const std::string& hex) {
    std::vector<std::byte> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(static_cast<std::byte>(
            std::stoi(hex.substr(i, 2), nullptr, 16)));
    return out;
}

void put32(std::vector<std::byte>& out, std::uint32_t v) {
    wire::Writer(out).u32(v);
}
void put64(std::vector<std::byte>& out, std::uint64_t v) {
    wire::Writer(out).u64(v);
}

TEST(RowCodec, GoldenHeaderAndBodies) {
    // Golden bytes of rows {1, 2, 5} of a 2-double array, row r holding
    // (r, r + 0.25) (x86-64, little-endian): the header is u32 nrows, then
    // per row u32 id + u64 nbytes; each body is its row's two doubles.
    DenseArray a("A", 8, 2, sizeof(double));
    RowSet rows;
    rows.add(1, 3);
    rows.add(5, 6);
    a.ensure_rows(rows);
    for (int r : rows.to_vector())
        for (int j = 0; j < 2; ++j) a.at<double>(r, j) = r + 0.25 * j;
    const std::vector<std::byte> golden_header = from_hex(
        "03000000"
        "010000001000000000000000"
        "020000001000000000000000"
        "050000001000000000000000");
    const std::vector<std::vector<std::byte>> golden_bodies = {
        from_hex("000000000000f03f000000000000f43f"),
        from_hex("00000000000000400000000000000240"),
        from_hex("00000000000014400000000000001540"),
    };
    RowPayload payload = a.pack_rows(rows);
    EXPECT_EQ(payload.header(), golden_header);
    ASSERT_EQ(payload.size(), golden_bodies.size());
    for (std::size_t k = 0; k < payload.size(); ++k) {
        const sim::SharedBytes& body = payload.body(k);
        EXPECT_EQ(std::vector<std::byte>(body.data(),
                                         body.data() + body.size()),
                  golden_bodies[k])
            << "row " << payload.row_id(k);
    }
    EXPECT_EQ(payload.wire_size(), 4u + 3u * (12u + 16u));
    EXPECT_EQ(payload.rows(), rows);

    // The same bytes, as a receiver sees them, unpack to the same rows.
    std::vector<sim::SharedBytes> bodies;
    for (const auto& g : golden_bodies) {
        bodies.push_back(sim::SharedBytes::allocate(g.size(), false));
        std::memcpy(bodies.back().data(), g.data(), g.size());
    }
    DenseArray dst("A", 8, 2, sizeof(double));
    dst.unpack_rows(RowPayload(golden_header, std::move(bodies)));
    EXPECT_EQ(dst.held(), rows);
    for (int r : rows.to_vector())
        for (int j = 0; j < 2; ++j)
            EXPECT_DOUBLE_EQ(dst.at<double>(r, j), r + 0.25 * j);
}

TEST(RowCodec, ByReferenceUnpackSharesTheBody) {
    auto src = make(), dst = make();
    src.ensure_rows(RowSet(2, 4));
    fill(src, 2);
    fill(src, 3);
    const std::uint64_t allocated = dst.stats().rows_allocated;
    dst.unpack_rows(src.pack_rows(RowSet(2, 4)));
    const DenseArray& csrc = src;
    const DenseArray& cdst = dst;
    EXPECT_EQ(cdst.row_data(2), csrc.row_data(2));
    EXPECT_EQ(cdst.row_data(3), csrc.row_data(3));
    EXPECT_EQ(dst.stats().rows_allocated, allocated); // adopted, no copy
    expect_filled(dst, 3);
}

TEST(RowCodec, CopyOnWriteIsolatesBothSides) {
    auto src = make(), dst = make();
    src.ensure_rows(RowSet(0, 2));
    fill(src, 0);
    fill(src, 1);
    dst.unpack_rows(src.pack_rows(RowSet(0, 2)));

    // The receiver writes: it gets a private copy, the sender is untouched.
    dst.at<double>(0, 1) = -1.0;
    expect_filled(src, 0);
    EXPECT_DOUBLE_EQ(dst.at<double>(0, 1), -1.0);
    EXPECT_EQ(dst.stats().bytes_copied, dst.row_bytes());

    // The sender writes a still-shared row: the receiver keeps the old data.
    src.at<double>(1, 0) = -2.0;
    expect_filled(dst, 1);
    EXPECT_DOUBLE_EQ(src.at<double>(1, 0), -2.0);
    const DenseArray& csrc = src;
    const DenseArray& cdst = dst;
    EXPECT_NE(cdst.row_data(0), csrc.row_data(0));
    EXPECT_NE(cdst.row_data(1), csrc.row_data(1));

    // A body with a single owner is written in place.
    const std::byte* before = cdst.row_data(0);
    dst.at<double>(0, 2) = -3.0;
    EXPECT_EQ(cdst.row_data(0), before);
}

TEST(RowCodec, PackedPayloadOutlivesTheSendersWrites) {
    // A packed payload is a snapshot: writes after pack_rows do not leak
    // into it, so a packet in flight carries the rows as they were sent.
    auto src = make();
    src.ensure_rows(RowSet(4, 5));
    fill(src, 4);
    RowPayload inflight = src.pack_rows(RowSet(4, 5));
    src.at<double>(4, 0) = 99.0;
    src.drop_rows(RowSet(4, 5));
    auto dst = make();
    dst.unpack_rows(inflight);
    expect_filled(dst, 4);
}

RowPayload one_row_payload(std::uint32_t id, std::uint64_t nbytes,
                           std::size_t body_bytes) {
    std::vector<std::byte> header;
    put32(header, 1);
    put32(header, id);
    put64(header, nbytes);
    std::vector<sim::SharedBytes> bodies;
    bodies.push_back(sim::SharedBytes::allocate(body_bytes, true));
    return {std::move(header), std::move(bodies)};
}

TEST(RowCodec, UnpackRejectsMalformedPayloads) {
    const std::size_t rb = make().row_bytes();
    // Bad row id (past the end, and negative once decoded).
    {
        auto dst = make();
        EXPECT_THROW(dst.unpack_rows(one_row_payload(16, rb, rb)), Error);
        EXPECT_THROW(dst.unpack_rows(one_row_payload(0xFFFFFFFFu, rb, rb)),
                     Error);
        EXPECT_TRUE(dst.held().empty());
    }
    // Size mismatch: a consistent payload whose rows are not this array's.
    {
        auto dst = make();
        EXPECT_THROW(dst.unpack_rows(one_row_payload(3, rb / 2, rb / 2)),
                     Error);
        EXPECT_TRUE(dst.held().empty());
    }
    // Header and body disagree on a row's size.
    EXPECT_THROW(one_row_payload(3, rb, rb / 2), Error);
    // Count/body mismatch: two header entries, one body.
    {
        std::vector<std::byte> header;
        put32(header, 2);
        for (std::uint32_t r : {1u, 2u}) {
            put32(header, r);
            put64(header, rb);
        }
        std::vector<sim::SharedBytes> bodies;
        bodies.push_back(sim::SharedBytes::allocate(rb, true));
        EXPECT_THROW(RowPayload(std::move(header), std::move(bodies)), Error);
    }
    // Trailing header bytes after the last entry.
    {
        std::vector<std::byte> header;
        put32(header, 1);
        put32(header, 1);
        put64(header, rb);
        put32(header, 0);
        std::vector<sim::SharedBytes> bodies;
        bodies.push_back(sim::SharedBytes::allocate(rb, true));
        EXPECT_THROW(RowPayload(std::move(header), std::move(bodies)), Error);
    }
    // Missing body: the header promises bytes, the segment is empty.
    {
        std::vector<std::byte> header;
        put32(header, 1);
        put32(header, 1);
        put64(header, rb);
        std::vector<sim::SharedBytes> bodies(1);
        EXPECT_THROW(RowPayload(std::move(header), std::move(bodies)), Error);
    }
}

// ---------------------------------------------------------------------------
// Contiguous baseline
// ---------------------------------------------------------------------------

TEST(ContiguousDenseArray, GrowthCopiesSurvivors) {
    ContiguousDenseArray a("A", 1000, 64, sizeof(double));
    a.ensure_rows(RowSet(0, 100));
    a.at<double>(10, 3) = 42.0;
    a.ensure_rows(RowSet(100, 900)); // re-extent to [0,900): full copy
    EXPECT_GT(a.stats().bytes_copied, 0u);
    EXPECT_DOUBLE_EQ(a.at<double>(10, 3), 42.0);
    EXPECT_GE(a.stats().reallocations, 2u);
}

TEST(ContiguousDenseArray, ShiftOnFrontExtension) {
    ContiguousDenseArray a("A", 100, 2, sizeof(double));
    a.ensure_rows(RowSet(50, 60));
    a.at<double>(55, 0) = 7.0;
    std::uint64_t copied_before = a.stats().bytes_copied;
    a.ensure_rows(RowSet(40, 50)); // extend at the front: everything shifts
    EXPECT_GT(a.stats().bytes_copied, copied_before);
    EXPECT_DOUBLE_EQ(a.at<double>(55, 0), 7.0);
}

TEST(ContiguousDenseArray, PackUnpackCompatibleWithProjection) {
    // Both implementations share the wire format.
    DenseArray src("A", 16, 4, sizeof(double));
    src.ensure_rows(RowSet(2, 6));
    for (int r = 2; r < 6; ++r)
        for (int j = 0; j < 4; ++j) src.at<double>(r, j) = r + 0.25 * j;

    ContiguousDenseArray dst("A", 16, 4, sizeof(double));
    dst.unpack_rows(src.pack_rows(RowSet(2, 6)));
    EXPECT_DOUBLE_EQ(dst.at<double>(3, 2), 3.5);
}

TEST(ContiguousDenseArray, DropShrinksToHeldSpan) {
    ContiguousDenseArray a("A", 100, 2, sizeof(double));
    a.ensure_rows(RowSet(0, 50));
    a.at<double>(30, 1) = 9.0;
    a.drop_rows(RowSet(0, 20));
    EXPECT_EQ(a.held(), RowSet(20, 50));
    EXPECT_DOUBLE_EQ(a.at<double>(30, 1), 9.0);
    EXPECT_THROW(a.row_data(5), Error);
}

}  // namespace
}  // namespace dynmpi
