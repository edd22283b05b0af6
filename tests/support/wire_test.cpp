// The fixed-width wire codec and the follower message built on it.
#include "support/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "dynmpi/follower_message.hpp"
#include "support/error.hpp"

namespace dynmpi {
namespace {

using Bytes = std::vector<std::byte>;
using Kind = FollowerMessage::Kind;

TEST(Wire, EveryFieldTypeRoundTrips) {
    Bytes buf;
    wire::Writer(buf)
        .u8(0xAB)
        .u32(0xDEADBEEFu)
        .u64(std::numeric_limits<std::uint64_t>::max() - 1)
        .f64(-0.1)
        .ints({-7, 0, std::numeric_limits<int>::max()})
        .doubles({1.5, std::numeric_limits<double>::infinity()})
        .ints({})
        .doubles({});
    EXPECT_EQ(buf.size(), 1u + 4 + 8 + 8 + (4 + 12) + (4 + 16) + 4 + 4);

    wire::Reader in(buf);
    EXPECT_EQ(in.u8(), 0xAB);
    EXPECT_EQ(in.u32(), 0xDEADBEEFu);
    EXPECT_EQ(in.u64(), std::numeric_limits<std::uint64_t>::max() - 1);
    EXPECT_EQ(in.f64(), -0.1);
    EXPECT_EQ(in.ints(),
              (std::vector<int>{-7, 0, std::numeric_limits<int>::max()}));
    EXPECT_EQ(in.doubles(),
              (std::vector<double>{1.5,
                                   std::numeric_limits<double>::infinity()}));
    EXPECT_TRUE(in.ints().empty());
    EXPECT_TRUE(in.doubles().empty());
    EXPECT_EQ(in.remaining(), 0u);
    EXPECT_NO_THROW(in.finish());
}

TEST(Wire, PatchOverwritesAWrittenField) {
    Bytes buf;
    wire::Writer out(buf);
    out.u32(0).u64(9);
    out.patch_u32(0, 3);
    EXPECT_THROW(out.patch_u32(9, 1), Error);
    wire::Reader in(buf);
    EXPECT_EQ(in.u32(), 3u);
    EXPECT_EQ(in.u64(), 9u);
}

TEST(Wire, ShortReadThrows) {
    Bytes buf;
    wire::Writer(buf).u32(5);
    wire::Reader in(buf);
    EXPECT_THROW(in.u64(), Error);
    EXPECT_EQ(in.u32(), 5u); // the failed read consumed nothing
    EXPECT_THROW(in.u8(), Error);
    EXPECT_THROW(in.skip(1), Error);
}

TEST(Wire, TrailingBytesThrowInFinish) {
    Bytes buf;
    wire::Writer(buf).u32(1).u8(2);
    wire::Reader in(buf);
    in.u32();
    EXPECT_THROW(in.finish(), Error);
}

TEST(Wire, OversizedVectorLengthThrowsBeforeAllocating) {
    // A count of 2^32 - 1 elements with 8 bytes behind it: rejected from
    // the bytes left, never allocated.
    Bytes buf;
    wire::Writer(buf).u32(0xFFFFFFFFu).u64(0);
    EXPECT_THROW(wire::Reader(buf).ints(), Error);
    EXPECT_THROW(wire::Reader(buf).doubles(), Error);
    // One element more than the bytes hold is rejected too.
    Bytes tight;
    wire::Writer(tight).u32(3).f64(1.0).f64(2.0);
    EXPECT_THROW(wire::Reader(tight).doubles(), Error);
}

// ---------------------------------------------------------------------------
// Follower message
// ---------------------------------------------------------------------------

FollowerMessage steady() {
    FollowerMessage m;
    m.active = {0, 2, 3};
    return m;
}

FollowerMessage with_state(Kind kind) {
    FollowerMessage m;
    m.kind = kind;
    m.active = {0, 2};
    m.redist_seq = (std::uint64_t{1} << 53) + 1;
    m.baseline_loads = {0.0, 1.0, 0.25, 0.0};
    m.quarantined = {0, 0, 1, 0};
    return m;
}

FollowerMessage readd() {
    FollowerMessage m = with_state(Kind::Readd);
    m.old_counts = {30, 18};
    m.new_active = {0, 1, 2};
    m.new_counts = {16, 16, 16};
    m.row_costs = std::vector<double>(48, 3e-3);
    m.row_costs[7] = 0.1 + 0.2; // not representable as a short decimal
    return m;
}

FollowerMessage bootstrap() {
    FollowerMessage m = with_state(Kind::Bootstrap);
    m.next_cycle = 41;
    m.sendout_seq = 7;
    m.speeds = {1.0, 0.5, 1.0, 2.0};
    m.memories = {0.0, 1e9, 0.0, 4e9};
    m.comm_costs = {2e-4, 1e7, 6e-5, 3e-9};
    m.group_seqs = {{0x1234, 5}, {~std::uint64_t{0}, 9}};
    return m;
}

TEST(FollowerMessage, EveryKindRoundTrips) {
    // Every test field differs from its default, so re-encoding the decoded
    // message reproduces the bytes only if decode read back every field.
    for (const FollowerMessage& m : {steady(), readd(), bootstrap()}) {
        const Bytes bytes = m.encode();
        EXPECT_EQ(bytes.at(0), std::byte{FollowerMessage::kFormatVersion});
        EXPECT_EQ(static_cast<Kind>(bytes.at(1)), m.kind);
        const FollowerMessage back = FollowerMessage::decode(bytes);
        EXPECT_EQ(back.kind, m.kind);
        EXPECT_EQ(back.active, m.active);
        EXPECT_EQ(back.encode(), bytes);
    }
    const FollowerMessage r = FollowerMessage::decode(readd().encode());
    EXPECT_EQ(r.quarantined, readd().quarantined);
    EXPECT_EQ(r.new_counts, readd().new_counts);
    EXPECT_EQ(r.row_costs, readd().row_costs);
    const FollowerMessage b = FollowerMessage::decode(bootstrap().encode());
    EXPECT_EQ(b.baseline_loads, bootstrap().baseline_loads);
    EXPECT_EQ(b.next_cycle, 41u);
    EXPECT_EQ(b.comm_costs.bandwidth_Bps, 1e7);
    EXPECT_EQ(b.comm_costs.cpu_per_byte_s, 3e-9);
    EXPECT_EQ(b.group_seqs, bootstrap().group_seqs);
}

TEST(FollowerMessage, RedistSeqAbove2To53IsExact) {
    // 2^53 + 1 has no double representation: a double-packed status would
    // have delivered 2^53.
    const std::uint64_t seq = (std::uint64_t{1} << 53) + 1;
    ASSERT_NE(static_cast<std::uint64_t>(static_cast<double>(seq)), seq);
    EXPECT_EQ(FollowerMessage::decode(readd().encode()).redist_seq, seq);
    EXPECT_EQ(FollowerMessage::decode(bootstrap().encode()).redist_seq, seq);
}

TEST(FollowerMessage, SteadyCarriesOnlyTheActiveMembers) {
    EXPECT_EQ(steady().encode().size(), 1u + 1 + 4 + 3 * 4);
}

TEST(FollowerMessage, UnknownVersionIsRejected) {
    // Every kind leads with the format version; any other value in that
    // byte rejects an otherwise intact message.
    for (const FollowerMessage& m : {steady(), readd(), bootstrap()}) {
        const Bytes bytes = m.encode();
        ASSERT_EQ(bytes.front(),
                  std::byte{FollowerMessage::kFormatVersion});
        for (std::uint8_t version :
             {std::uint8_t{0}, std::uint8_t{2}, std::uint8_t{0xFF}}) {
            Bytes bad = bytes;
            bad.front() = std::byte{version};
            EXPECT_THROW(FollowerMessage::decode(bad), Error)
                << "version " << int{version};
        }
    }
}

TEST(FollowerMessage, UnknownKindIsRejected) {
    // Bodies shaped like a Steady and like the bare follower state, so only
    // the kind check can reject them.
    for (std::uint8_t kind : {std::uint8_t{3}, std::uint8_t{0xFF}}) {
        Bytes steady_body, state_body;
        wire::Writer(steady_body)
            .u8(FollowerMessage::kFormatVersion)
            .u8(kind)
            .ints({0, 2});
        wire::Writer(state_body)
            .u8(FollowerMessage::kFormatVersion)
            .u8(kind)
            .ints({0, 2})
            .u64(4)
            .doubles({0.0, 1.0})
            .ints({0, 1});
        EXPECT_THROW(FollowerMessage::decode(steady_body), Error);
        EXPECT_THROW(FollowerMessage::decode(state_body), Error);
    }
}

TEST(FollowerMessage, TruncatedOrPaddedMessagesAreRejected) {
    for (const FollowerMessage& m : {steady(), readd(), bootstrap()}) {
        const Bytes bytes = m.encode();
        for (std::size_t cut : {std::size_t{0}, std::size_t{1},
                                bytes.size() / 2, bytes.size() - 1})
            EXPECT_THROW(FollowerMessage::decode(
                             Bytes(bytes.begin(),
                                   bytes.begin() +
                                       static_cast<std::ptrdiff_t>(cut))),
                         Error);
        Bytes padded = bytes;
        padded.push_back(std::byte{0});
        EXPECT_THROW(FollowerMessage::decode(padded), Error);
    }
}

TEST(FollowerMessage, OversizedSequenceCountIsRejected) {
    // A bootstrap whose collective-counter count promises 2^32 - 1 pairs
    // with one pair's bytes behind it: rejected before allocating.
    FollowerMessage m = bootstrap();
    m.group_seqs.clear();
    Bytes bytes = m.encode();
    const std::size_t count_at = bytes.size() - 4;
    wire::Writer(bytes).patch_u32(count_at, 0xFFFFFFFFu);
    bytes.resize(bytes.size() + 16);
    EXPECT_THROW(FollowerMessage::decode(bytes), Error);
}

}  // namespace
}  // namespace dynmpi
