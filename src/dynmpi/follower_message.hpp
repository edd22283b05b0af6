// The one message a node outside the active set receives from the leader
// (relative rank 0 of the active set), encoded with support/wire.hpp.
//
// A removed node reads one per cycle on the status channel; a revived node
// reads a Bootstrap before it follows that channel.  A format version byte
// (kFormatVersion) leads; the kind byte after it selects the sections after
// the active members:
//   Steady:    nothing more
//   Readd:     the follower state, then the redistribution that brings the
//              node back (old counts, new members and counts, row costs)
//   Bootstrap: the follower state, then what a restarted process missed
// The follower state is what every node outside the active set must agree
// on: the redistribution sequence, baseline loads and quarantine flags,
// with `active` (for a Readd, the set before the redistribution).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dynmpi/comm_model.hpp"

namespace dynmpi {

struct FollowerMessage {
    static constexpr std::uint8_t kFormatVersion = 1;
    enum class Kind : std::uint8_t { Steady, Readd, Bootstrap };
    Kind kind = Kind::Steady;
    std::vector<int> active;

    // Follower state; per-world-rank vectors.
    std::uint64_t redist_seq = 0;
    std::vector<double> baseline_loads;
    std::vector<int> quarantined;

    // Readd.
    std::vector<int> old_counts, new_active, new_counts;
    std::vector<double> row_costs; ///< per global row

    // Bootstrap: the cycle to follow from, then setup-time state.
    std::uint64_t next_cycle = 0;
    std::uint64_t sendout_seq = 0;
    std::vector<double> speeds, memories;
    CommCosts comm_costs;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> group_seqs;

    std::vector<std::byte> encode() const;
    /// Rejects an unknown version or kind byte, a short read and trailing
    /// bytes.
    static FollowerMessage decode(const std::vector<std::byte>& bytes);
};

}  // namespace dynmpi
