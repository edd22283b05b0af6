// Failure injection and malformed-input fuzzing.
//
// Row payloads reach unpack_rows through recv_rows, which frames a packet's
// header and bodies as a RowPayload; these tests feed truncated, corrupted
// and randomized headers and bodies down that same path and assert that
// every malformed input is rejected with a clean Error — never a crash,
// never silent acceptance of a short buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "dynmpi/dense_array.hpp"
#include "dynmpi/runtime.hpp"
#include "dynmpi/sparse_matrix.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

namespace dynmpi {
namespace {

RowPayload packed_dense() {
    DenseArray a("A", 8, 4, sizeof(double));
    a.ensure_rows(RowSet(0, 4));
    for (int r = 0; r < 4; ++r)
        for (int j = 0; j < 4; ++j) a.at<double>(r, j) = r + j;
    return a.pack_rows(RowSet(0, 4));
}

/// Row r holds r + 1 entries, so the header carries one size per row.
RowPayload packed_sparse() {
    SparseMatrix m("S", 8, 16);
    m.ensure_rows(RowSet(0, 4));
    for (int r = 0; r < 4; ++r)
        for (int j = 0; j <= r; ++j)
            m.set(r, (r * 3 + j * 5) % 16, 1.5 * r + j);
    return m.pack_rows(RowSet(0, 4));
}

/// Private copies of a payload's bodies, for a test to mutate.
std::vector<sim::SharedBytes> copy_bodies(const RowPayload& p) {
    std::vector<sim::SharedBytes> out;
    for (const sim::SharedBytes& b : p.bodies()) {
        out.push_back(sim::SharedBytes::allocate(b.size(), false));
        if (b.size() > 0) std::memcpy(out.back().data(), b.data(), b.size());
    }
    return out;
}

/// A copy of `b` cut (or padded with zeros) to `n` bytes.
sim::SharedBytes resized(const sim::SharedBytes& b, std::size_t n) {
    sim::SharedBytes out = sim::SharedBytes::allocate(n, true);
    if (n > 0 && b.size() > 0)
        std::memcpy(out.data(), b.data(), std::min(n, b.size()));
    return out;
}

/// The receive path: frame a header and bodies as recv_rows does, then
/// unpack into `dst`.
void receive(DistArray& dst, std::vector<std::byte> header,
             std::vector<sim::SharedBytes> bodies) {
    dst.unpack_rows(RowPayload(std::move(header), std::move(bodies)));
}

TEST(Fuzz, TruncatedDenseBufferRejected) {
    const RowPayload good = packed_dense();
    const std::vector<std::byte> header = good.header();
    // A header cut short anywhere, with every body still attached.
    for (std::size_t cut = 0; cut < header.size(); ++cut) {
        std::vector<std::byte> bad(header.begin(),
                                   header.begin() + (std::ptrdiff_t)cut);
        DenseArray dst("A", 8, 4, sizeof(double));
        EXPECT_THROW(receive(dst, bad, copy_bodies(good)), Error)
            << "cut=" << cut;
        EXPECT_TRUE(dst.held().empty());
    }
    // A body cut short under an intact header.
    for (std::size_t k = 0; k < good.size(); ++k) {
        for (std::size_t cut : {0u, 1u, 31u}) {
            auto bodies = copy_bodies(good);
            bodies[k] = resized(bodies[k], cut);
            DenseArray dst("A", 8, 4, sizeof(double));
            EXPECT_THROW(receive(dst, header, std::move(bodies)), Error)
                << "row " << k << " cut=" << cut;
            EXPECT_TRUE(dst.held().empty());
        }
    }
}

TEST(Fuzz, TruncatedSparseBufferRejected) {
    const RowPayload good = packed_sparse();
    const std::vector<std::byte> header = good.header();
    ASSERT_EQ(header.size(), 6u + 8u + 4u * 8u); // one run, per-row sizes
    for (std::size_t cut = 0; cut < header.size(); ++cut) {
        std::vector<std::byte> bad(header.begin(),
                                   header.begin() + (std::ptrdiff_t)cut);
        SparseMatrix dst("S", 8, 16);
        EXPECT_THROW(receive(dst, bad, copy_bodies(good)), Error)
            << "cut=" << cut;
    }
    for (std::size_t k = 0; k < good.size(); ++k) {
        const std::size_t n = good.body(k).size();
        for (std::size_t frac : {1u, 3u, 7u}) {
            auto bodies = copy_bodies(good);
            bodies[k] = resized(bodies[k], n * frac / 8);
            SparseMatrix dst("S", 8, 16);
            EXPECT_THROW(receive(dst, header, std::move(bodies)), Error)
                << "row " << k << " frac=" << frac;
            EXPECT_TRUE(dst.held().empty());
        }
    }
}

TEST(Fuzz, WrongRowSizeRejected) {
    DenseArray narrow("A", 8, 2, sizeof(double)); // rows half the size
    EXPECT_THROW(narrow.unpack_rows(packed_dense()), Error);
    EXPECT_TRUE(narrow.held().empty());
}

TEST(Fuzz, SparsePayloadNotEntireEntriesRejected) {
    const RowPayload good = packed_sparse();
    // A consistently framed row of 13 bytes: header and body agree, so the
    // framing accepts it, but 13 is not a whole number of entries.  The
    // header ends with one u64 size per row; row 0's is the first of them.
    std::vector<std::byte> header = good.header();
    const std::uint64_t bogus = 13;
    std::memcpy(header.data() + header.size() - 8 * good.size(), &bogus,
                sizeof bogus);
    auto bodies = copy_bodies(good);
    bodies[0] = resized(bodies[0], bogus);
    RowPayload framed(std::move(header), std::move(bodies));
    SparseMatrix dst("S", 8, 16);
    EXPECT_THROW(dst.unpack_rows(framed), Error);
    EXPECT_TRUE(dst.held().empty());
}

TEST(Fuzz, RandomRunTablesRejectedOrConsistent) {
    // Headers with a valid version and random runs, size form and sizes,
    // over random bodies: each is rejected, or the receiver holds exactly
    // the rows the runs name.
    Rng rng(4242);
    const std::uint64_t sizes[] = {0, 8, 13, 16, 32};
    int accepted = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::byte> header;
        wire::Writer w(header);
        const std::uint32_t runs = rng.next_below(4);
        w.u8(RowPayload::kFormatVersion).u32(runs);
        RowSet named;
        std::uint32_t rows = 0, lo = 0;
        for (std::uint32_t i = 0; i < runs; ++i) {
            lo += rng.next_below(3);
            const std::uint32_t count = rng.next_below(3);
            w.u32(lo).u32(count);
            if (count > 0) named.add(static_cast<int>(lo),
                                     static_cast<int>(lo + count));
            rows += count;
            lo += rng.next_below(2) == 0 ? count : 0;
        }
        const bool per_row = rng.next_below(2) == 0;
        w.u8(per_row ? RowPayload::kPerRowSizes : RowPayload::kOneRowSize);
        std::vector<sim::SharedBytes> bodies(rows + rng.next_below(2));
        const std::uint64_t fixed = sizes[rng.next_below(5)];
        if (!per_row) w.u64(fixed);
        for (auto& b : bodies) {
            const std::uint64_t n =
                rng.next_below(4) == 0 ? sizes[rng.next_below(5)] : fixed;
            if (per_row) w.u64(n);
            b = sim::SharedBytes::allocate(n, true);
        }
        DenseArray d("A", 16, 4, sizeof(double)); // 32-byte rows
        SparseMatrix s("S", 16, 16);
        for (DistArray* dst : {static_cast<DistArray*>(&d),
                               static_cast<DistArray*>(&s)}) {
            try {
                receive(*dst, header, bodies);
            } catch (const Error&) {
                EXPECT_TRUE(dst->held().empty()) << "trial " << trial;
                continue;
            }
            ++accepted;
            EXPECT_EQ(dst->held(), named) << "trial " << trial;
        }
    }
    EXPECT_GT(accepted, 0); // the generator also makes valid payloads
}

TEST(Fuzz, RandomBuffersNeverCrash) {
    Rng rng(31337);
    auto junk = [&rng](std::size_t n) {
        sim::SharedBytes out = sim::SharedBytes::allocate(n, false);
        for (std::size_t i = 0; i < n; ++i)
            out.data()[i] = static_cast<std::byte>(rng.next_below(256));
        return out;
    };
    int rejected = 0, accepted = 0;
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<std::byte> header(rng.next_below(96));
        for (auto& b : header)
            b = static_cast<std::byte>(rng.next_below(256));
        // Mostly past the version check, so the junk reaches the runs.
        if (!header.empty() && rng.next_below(4) != 0)
            header[0] = std::byte{RowPayload::kFormatVersion};
        std::vector<sim::SharedBytes> bodies(rng.next_below(5));
        for (auto& b : bodies) b = junk(rng.next_below(48));
        DenseArray d("A", 8, 4, sizeof(double));
        SparseMatrix s("S", 8, 16);
        try {
            receive(d, header, bodies);
            ++accepted;
        } catch (const Error&) {
            ++rejected;
        }
        try {
            receive(s, header, bodies);
            ++accepted;
        } catch (const Error&) {
            ++rejected;
        }
    }
    // Random junk should essentially never validate (a zero-row header
    // with no bodies is the only trivially-valid input).
    EXPECT_GT(rejected, 300);
    (void)accepted;
}

TEST(Fuzz, MutatedValidBufferEitherRejectedOrConsistent) {
    // One byte of the header or of a body copy is overwritten; the receiver
    // either rejects the payload or holds rows that read back consistently.
    Rng rng(2718);
    for (const bool sparse : {false, true}) {
        const RowPayload good = sparse ? packed_sparse() : packed_dense();
        std::size_t total = good.header().size();
        for (const sim::SharedBytes& b : good.bodies()) total += b.size();
        for (int trial = 0; trial < 200; ++trial) {
            std::vector<std::byte> header = good.header();
            auto bodies = copy_bodies(good);
            std::size_t pos = rng.next_below(total);
            const auto value = static_cast<std::byte>(rng.next_below(256));
            if (pos < header.size()) {
                header[pos] = value;
            } else {
                pos -= header.size();
                std::size_t k = 0;
                while (pos >= bodies[k].size()) pos -= bodies[k++].size();
                bodies[k].data()[pos] = value;
            }
            DenseArray d("A", 8, 4, sizeof(double));
            SparseMatrix s("S", 8, 16);
            DistArray& dst = sparse ? static_cast<DistArray&>(s) : d;
            try {
                receive(dst, std::move(header), std::move(bodies));
            } catch (const Error&) {
                continue; // clean rejection is fine
            }
            // Accepted: every held row is readable, and sparse rows keep
            // strictly ascending, in-range columns.
            for (int r : dst.held().to_vector()) {
                if (!sparse) {
                    (void)d.row_data(r);
                    continue;
                }
                int prev = -1;
                for (const SparseEntry& e : s.row(r)) {
                    EXPECT_GT(e.col, prev);
                    EXPECT_LT(e.col, s.global_cols());
                    prev = e.col;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Failure injection in the SPMD machine
// ---------------------------------------------------------------------------

TEST(Fuzz, RankFailureMidCollectiveUnwindsCleanly) {
    msg::Machine m([] {
        sim::ClusterConfig c;
        c.num_nodes = 4;
        c.cpu.jitter_frac = 0.0;
        return c;
    }());
    EXPECT_THROW(m.run([](msg::Rank& r) {
        msg::Group g = msg::Group::world(r);
        msg::barrier(r, g);
        if (r.id() == 2) throw std::runtime_error("injected fault");
        // The others head into a collective that can never complete.
        msg::allreduce_scalar(r, g, 1.0, msg::OpSum{});
    }),
                 std::runtime_error);
}

TEST(Fuzz, RuntimeMisuseAfterCommitRejected) {
    msg::Machine m([] {
        sim::ClusterConfig c;
        c.num_nodes = 2;
        c.cpu.jitter_frac = 0.0;
        return c;
    }());
    EXPECT_THROW(m.run([](msg::Rank& r) {
        RuntimeOptions o;
        o.calibrate = false;
        Runtime rt(r, 16, o);
        rt.register_dense("A", 1, sizeof(double));
        int ph = rt.init_phase(0, 16, PhaseComm{CommPattern::None, 0});
        rt.add_array_access("A", AccessMode::Write, ph);
        rt.commit_setup();
        rt.register_dense("B", 1, sizeof(double)); // too late
    }),
                 Error);
}

}  // namespace
}  // namespace dynmpi
