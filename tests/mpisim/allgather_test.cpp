// Bruck allgather: every group size from 1 to 33, uneven and empty blocks,
// member ids that are neither contiguous nor ascending.  Each member must
// send exactly ceil(log2 n) messages, and the virtual time of a 16-member
// exchange must stay near what ceil(log2 n) latencies plus (n-1)/n of the
// vector on one NIC cost — a gather at one member followed by broadcasts
// serializes the whole vector on that member's NIC several times over.
#include <gtest/gtest.h>

#include <vector>

#include "mpisim/collectives.hpp"
#include "mpisim/machine.hpp"
#include "support/rng.hpp"

namespace dynmpi::msg {
namespace {

sim::ClusterConfig cfg(int nodes) {
    sim::ClusterConfig c;
    c.num_nodes = nodes;
    c.cpu.jitter_frac = 0.0;
    return c;
}

int rounds(int n) {
    int k = 0;
    while ((1 << k) < n) ++k;
    return k;
}

/// Block of the member with absolute id `id`: 0–4 values, so some members
/// contribute nothing.
std::vector<std::uint64_t> block_of(int id) {
    std::vector<std::uint64_t> v(static_cast<std::size_t>(id * 7 % 5));
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = hash_combine(static_cast<std::uint64_t>(id), i);
    return v;
}

class AllgatherSizes : public ::testing::TestWithParam<int> {};

TEST_P(AllgatherSizes, EveryBlockInRelativeOrderWithLog2Sends) {
    const int n = GetParam();
    // Descending odd ids: absolute order, relative order and node order all
    // differ, and the even nodes are bystanders.
    std::vector<int> members;
    for (int i = 0; i < n; ++i) members.push_back(2 * (n - 1 - i) + 1);

    Machine m(cfg(2 * n + 1));
    std::vector<int> checked(static_cast<std::size_t>(2 * n + 1), 0);
    m.run([&](Rank& r) {
        Group g(members);
        if (!g.contains(r.id())) return;
        const auto all = allgather(r, g, block_of(r.id()));
        ASSERT_EQ(all.size(), members.size());
        for (int rel = 0; rel < n; ++rel)
            EXPECT_EQ(all[static_cast<std::size_t>(rel)],
                      block_of(members[static_cast<std::size_t>(rel)]))
                << "member " << r.id() << ", block of relative rank " << rel;
        checked[static_cast<std::size_t>(r.id())] = 1;
    });
    for (int id = 0; id < 2 * n + 1; ++id) {
        const bool member = id % 2 == 1;
        EXPECT_EQ(checked[static_cast<std::size_t>(id)], member ? 1 : 0);
        EXPECT_EQ(m.cluster().network().messages_sent(id),
                  member ? static_cast<std::uint64_t>(rounds(n)) : 0u)
            << "node " << id << " of a group of " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllgatherSizes, ::testing::Range(1, 34));

TEST(Allgather, SixteenTwoKilobyteBlocksCostLog2Rounds) {
    const int n = 16;
    const std::size_t elems = 256; // 2 KB of doubles per member
    Machine m(cfg(n));
    m.run([&](Rank& r) {
        std::vector<double> mine(elems, static_cast<double>(r.id()));
        const auto all = allgather(r, Group::world(r), mine);
        for (int j = 0; j < n; ++j)
            EXPECT_EQ(all[static_cast<std::size_t>(j)][elems - 1], j);
    });
    const sim::NetParams net;
    const double vector_bytes = static_cast<double>(n * elems * sizeof(double));
    const double model = rounds(n) * net.latency_s +
                         (n - 1.0) / n * vector_bytes / net.bandwidth_Bps;
    // Per-message CPU and the length headers add about a fifth on top.
    EXPECT_LT(m.elapsed_seconds(), 1.5 * model);
    EXPECT_GT(m.elapsed_seconds(), model);
}

}  // namespace
}  // namespace dynmpi::msg
