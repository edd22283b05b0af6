#include "dynmpi/dense_array.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dynmpi/sparse_matrix.hpp"
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

/// Private copies of `hex` strings as row bodies, as a receiver gets them.
std::vector<sim::SharedBytes> bodies_from_hex(
    const std::vector<std::string>& hex) {
    std::vector<sim::SharedBytes> out;
    for (const std::string& h : hex) {
        const std::vector<std::byte> bytes = from_hex(h);
        out.push_back(sim::SharedBytes::allocate(bytes.size(), false));
        if (!bytes.empty())
            std::memcpy(out.back().data(), bytes.data(), bytes.size());
    }
    return out;
}

void expect_bodies(const RowPayload& payload,
                   const std::vector<std::string>& hex) {
    ASSERT_EQ(payload.size(), hex.size());
    for (std::size_t k = 0; k < payload.size(); ++k) {
        const sim::SharedBytes& body = payload.body(k);
        EXPECT_EQ(std::vector<std::byte>(body.data(),
                                         body.data() + body.size()),
                  from_hex(hex[k]))
            << "row " << payload.row_id(k);
    }
}

TEST(RowCodec, GoldenHeaderAndBodies) {
    // Golden bytes of rows {1, 2, 5} of a 2-double array, row r holding
    // (r, r + 0.25) (x86-64, little-endian): the header is the version,
    // two runs [1, 3) and [5, 6), the one-size form and the 16-byte row
    // size; each body is its row's two doubles.
    DenseArray a("A", 8, 2, sizeof(double));
    RowSet rows;
    rows.add(1, 3);
    rows.add(5, 6);
    a.ensure_rows(rows);
    for (int r : rows.to_vector())
        for (int j = 0; j < 2; ++j) a.at<double>(r, j) = r + 0.25 * j;
    const std::vector<std::byte> golden_header = from_hex(
        "01"
        "02000000"
        "0100000002000000"
        "0500000001000000"
        "00"
        "1000000000000000");
    const std::vector<std::string> golden_bodies = {
        "000000000000f03f000000000000f43f",
        "00000000000000400000000000000240",
        "00000000000014400000000000001540",
    };
    RowPayload payload = a.pack_rows(rows);
    EXPECT_EQ(payload.header(), golden_header);
    expect_bodies(payload, golden_bodies);
    EXPECT_EQ(payload.header_size(), golden_header.size());
    EXPECT_EQ(payload.wire_size(), 30u + 3u * 16u);
    EXPECT_EQ(payload.rows(), rows);
    EXPECT_EQ(payload.row_id(2), 5);

    // The same bytes, as a receiver sees them, unpack to the same rows.
    DenseArray dst("A", 8, 2, sizeof(double));
    dst.unpack_rows(RowPayload(golden_header, bodies_from_hex(golden_bodies)));
    EXPECT_EQ(dst.held(), rows);
    for (int r : rows.to_vector())
        for (int j = 0; j < 2; ++j)
            EXPECT_DOUBLE_EQ(dst.at<double>(r, j), r + 0.25 * j);
}

TEST(RowCodec, GoldenNonContiguousDensePayload) {
    // Rows {0, 3, 4, 5, 9} of a 1-double array, row r holding r: three
    // runs, one row size.
    DenseArray a("A", 16, 1, sizeof(double));
    RowSet rows;
    rows.add(0, 1);
    rows.add(3, 6);
    rows.add(9, 10);
    a.ensure_rows(rows);
    for (int r : rows.to_vector()) a.at<double>(r, 0) = r;
    const std::vector<std::byte> golden_header = from_hex(
        "01"
        "03000000"
        "0000000001000000"
        "0300000003000000"
        "0900000001000000"
        "00"
        "0800000000000000");
    const std::vector<std::string> golden_bodies = {
        "0000000000000000", "0000000000000840", "0000000000001040",
        "0000000000001440", "0000000000002240",
    };
    const RowPayload payload = a.pack_rows(rows);
    EXPECT_EQ(payload.header(), golden_header);
    expect_bodies(payload, golden_bodies);
    EXPECT_EQ(payload.wire_size(), golden_header.size() + 5u * 8u);
    const std::vector<int> ids = rows.to_vector();
    for (std::size_t k = 0; k < ids.size(); ++k)
        EXPECT_EQ(payload.row_id(k), ids[k]);

    const RowPayload back(golden_header, bodies_from_hex(golden_bodies));
    EXPECT_EQ(back.rows(), rows);
    DenseArray dst("A", 16, 1, sizeof(double));
    dst.unpack_rows(back);
    EXPECT_EQ(dst.held(), rows);
    for (int r : rows.to_vector()) EXPECT_DOUBLE_EQ(dst.at<double>(r, 0), r);
}

TEST(RowCodec, GoldenSparsePayload) {
    // Rows 2 and 3 of a sparse matrix with one and two entries: the rows
    // differ in size, so the header carries one size per row.  An entry is
    // an i32 column, 4 padding bytes and a double.
    SparseMatrix m("S", 8, 8);
    m.ensure_rows(RowSet(2, 4));
    m.set(2, 1, 1.0);
    m.set(3, 0, 2.0);
    m.set(3, 5, 4.0);
    const std::vector<std::byte> golden_header = from_hex(
        "01"
        "01000000"
        "0200000002000000"
        "01"
        "1000000000000000"
        "2000000000000000");
    const RowPayload payload = m.pack_rows(RowSet(2, 4));
    ASSERT_EQ(payload.size(), 2u);
    EXPECT_EQ(payload.header(), golden_header);
    EXPECT_EQ(payload.wire_size(), golden_header.size() + 16u + 32u);
    // An entry's padding bytes are not pinned, so the bodies cross as
    // copies rather than golden bytes.
    std::vector<sim::SharedBytes> bodies;
    for (const sim::SharedBytes& b : payload.bodies()) {
        bodies.push_back(sim::SharedBytes::allocate(b.size(), false));
        std::memcpy(bodies.back().data(), b.data(), b.size());
    }
    SparseMatrix dst("S", 8, 8);
    dst.unpack_rows(RowPayload(golden_header, std::move(bodies)));
    EXPECT_EQ(dst.held(), RowSet(2, 4));
    EXPECT_EQ(dst.row_nnz(3), 2);
    EXPECT_DOUBLE_EQ(dst.get(2, 1), 1.0);
    EXPECT_DOUBLE_EQ(dst.get(3, 5), 4.0);
}

TEST(RowCodec, GoldenEmptyPayload) {
    // No runs, the per-row form and no sizes: six bytes, no bodies.
    const std::vector<std::byte> golden_header = from_hex("010000000001");
    const RowPayload payload = make().pack_rows(RowSet{});
    EXPECT_EQ(payload.header(), golden_header);
    EXPECT_EQ(payload.wire_size(), golden_header.size());
    EXPECT_EQ(RowPayload{}.header(), golden_header);
    const RowPayload back(golden_header, {});
    EXPECT_EQ(back.size(), 0u);
    EXPECT_TRUE(back.rows().empty());
    auto dst = make();
    dst.unpack_rows(back);
    EXPECT_TRUE(dst.held().empty());
}

TEST(RowCodec, ContiguousBlockHeaderDoesNotGrowWithRows) {
    // One run and one row size, however many 8-byte rows the block holds.
    DenseArray a("A", 4096, 1, sizeof(double));
    a.ensure_rows(RowSet(0, 4096));
    std::vector<std::size_t> header_sizes;
    for (int k : {1, 256, 4096}) {
        const RowPayload payload = a.pack_rows(RowSet(0, k));
        header_sizes.push_back(payload.header().size());
        EXPECT_EQ(payload.header_size(), header_sizes.back()) << "k=" << k;
        EXPECT_EQ(payload.wire_size(),
                  header_sizes.back() + 8u * static_cast<std::size_t>(k))
            << "k=" << k;
    }
    EXPECT_EQ(header_sizes, std::vector<std::size_t>(3, 22u));
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

struct Run {
    std::uint32_t lo;
    std::uint32_t count;
};

/// A row header written field by field, for malformed cases.  `sizes`
/// holds the one row size (kOneRowSize) or one size per row.
std::vector<std::byte> row_header(
    const std::vector<Run>& runs, std::vector<std::uint64_t> sizes,
    std::uint8_t form = RowPayload::kOneRowSize,
    std::uint8_t version = RowPayload::kFormatVersion) {
    std::vector<std::byte> out;
    wire::Writer w(out);
    w.u8(version).u32(static_cast<std::uint32_t>(runs.size()));
    for (const Run& run : runs) w.u32(run.lo).u32(run.count);
    w.u8(form);
    for (std::uint64_t size : sizes) w.u64(size);
    return out;
}

std::vector<sim::SharedBytes> zero_bodies(std::size_t n, std::size_t bytes) {
    std::vector<sim::SharedBytes> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(sim::SharedBytes::allocate(bytes, true));
    return out;
}

RowPayload one_row_payload(std::uint32_t id, std::uint64_t nbytes,
                           std::size_t body_bytes) {
    return {row_header({{id, 1}}, {nbytes}), zero_bodies(1, body_bytes)};
}

TEST(RowCodec, UnpackRejectsMalformedPayloads) {
    const std::size_t rb = make().row_bytes();
    // Bad row id: past the end, and past the largest int row id.
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
    // Missing body: the header promises bytes, the segment is empty.
    EXPECT_THROW(RowPayload(row_header({{1, 1}}, {rb}),
                            std::vector<sim::SharedBytes>(1)),
                 Error);
}

TEST(RowCodec, HeaderRejectsMalformedRunsAndSizes) {
    const std::size_t rb = 32;
    auto rejects = [](const std::vector<std::byte>& header,
                      std::vector<sim::SharedBytes> bodies) {
        try {
            (void)RowPayload(header, std::move(bodies));
        } catch (const Error&) {
            return true;
        }
        return false;
    };
    const std::vector<std::byte> good =
        row_header({{1, 2}, {5, 1}}, {rb});
    ASSERT_FALSE(rejects(good, zero_bodies(3, rb)));

    // A truncated run table: every cut inside the version, count or runs.
    for (std::size_t cut = 0; cut < 1 + 4 + 2 * 8; ++cut)
        EXPECT_TRUE(rejects(
            std::vector<std::byte>(good.begin(),
                                   good.begin() + (std::ptrdiff_t)cut),
            zero_bodies(3, rb)))
            << "cut=" << cut;
    // A run count larger than the bytes left, checked before allocating.
    {
        std::vector<std::byte> huge = good;
        wire::Writer(huge).patch_u32(1, 0xFFFFFFFFu);
        EXPECT_TRUE(rejects(huge, zero_bodies(3, rb)));
    }
    // Empty, overlapping, descending and duplicate runs.
    EXPECT_TRUE(rejects(row_header({{1, 0}, {5, 1}}, {rb}),
                        zero_bodies(1, rb)));
    EXPECT_TRUE(rejects(row_header({{1, 3}, {2, 1}}, {rb}),
                        zero_bodies(4, rb)));
    EXPECT_TRUE(rejects(row_header({{5, 1}, {1, 2}}, {rb}),
                        zero_bodies(3, rb)));
    EXPECT_TRUE(rejects(row_header({{4, 1}, {4, 1}}, {rb}),
                        zero_bodies(2, rb)));
    // lo + count wraps a u32, or passes the largest int row id.
    EXPECT_TRUE(rejects(row_header({{0xFFFFFFF0u, 0x20}}, {rb}),
                        zero_bodies(0x20, rb)));
    EXPECT_TRUE(rejects(row_header({{0x7FFFFFFFu, 1}}, {rb}),
                        zero_bodies(1, rb)));
    // A row total that differs from the body count.
    EXPECT_TRUE(rejects(good, zero_bodies(2, rb)));
    EXPECT_TRUE(rejects(good, zero_bodies(4, rb)));
    // A body size that differs from its header, in either size form.
    {
        auto bodies = zero_bodies(3, rb);
        bodies[1] = sim::SharedBytes::allocate(rb - 1, true);
        EXPECT_TRUE(rejects(good, std::move(bodies)));
    }
    EXPECT_TRUE(rejects(row_header({{1, 2}, {5, 1}}, {rb, rb, rb + 8},
                                   RowPayload::kPerRowSizes),
                        zero_bodies(3, rb)));
    EXPECT_FALSE(rejects(row_header({{1, 2}, {5, 1}}, {rb, rb, rb},
                                    RowPayload::kPerRowSizes),
                         zero_bodies(3, rb)));
    // Too few per-row sizes, and an unknown size form.
    EXPECT_TRUE(rejects(row_header({{1, 2}, {5, 1}}, {rb, rb},
                                   RowPayload::kPerRowSizes),
                        zero_bodies(3, rb)));
    EXPECT_TRUE(rejects(row_header({{1, 2}, {5, 1}}, {rb}, 2),
                        zero_bodies(3, rb)));
    // Trailing bytes after the sizes.
    {
        std::vector<std::byte> padded = good;
        padded.push_back(std::byte{0});
        EXPECT_TRUE(rejects(padded, zero_bodies(3, rb)));
    }
    // An unknown format version.
    for (std::uint8_t version :
         {std::uint8_t{0}, std::uint8_t{2}, std::uint8_t{0xFF}})
        EXPECT_TRUE(rejects(row_header({{1, 2}, {5, 1}}, {rb},
                                       RowPayload::kOneRowSize, version),
                            zero_bodies(3, rb)))
            << "version " << int{version};
}

TEST(RowCodec, AdjacentRunsDecodeAsOne) {
    // Runs that touch are disjoint, so a reader accepts them; the payload
    // holds them as one run and re-encodes it that way.
    const RowPayload p(row_header({{2, 2}, {4, 1}}, {8}), zero_bodies(3, 8));
    EXPECT_EQ(p.rows(), RowSet(2, 5));
    EXPECT_EQ(p.row_id(2), 4);
    EXPECT_EQ(p.header(), row_header({{2, 3}}, {8}));
}

TEST(RowCodec, RowsMustBeAddedInAscendingOrder) {
    RowPayload p;
    p.add(3, sim::SharedBytes::allocate(8, true));
    EXPECT_THROW(p.add(3, sim::SharedBytes::allocate(8, true)), Error);
    EXPECT_THROW(p.add(1, sim::SharedBytes::allocate(8, true)), Error);
    EXPECT_THROW(p.add(-1, sim::SharedBytes::allocate(8, true)), Error);
    EXPECT_EQ(p.size(), 1u);
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
