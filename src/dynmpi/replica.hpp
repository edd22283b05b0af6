// Diskless buddy replication (docs/FAULTS.md "Crashes" section).
//
// Each active node shadows its owned rows of every registered array onto its
// replication buddy — the successor in the active ring.  Refreshes ship
// a RowPayload (see dist_array.hpp) and the store copies each body into a
// slot of its own, never keeping a share of the owner's live row: the owner
// would otherwise copy every row it writes after each refresh.  Restoring
// after the owner's crash hands the slots out by reference in a RowPayload.
//
// The store is deliberately dumb: it does no messaging and knows nothing
// about ownership.  The runtime decides what to ship (dirty-row deltas on
// the monitoring cycle, wholesale rewrites around redistributions) and what
// to restore (a dead predecessor's block).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "dynmpi/dist_array.hpp"
#include "dynmpi/row_set.hpp"
#include "sim/shared_bytes.hpp"

namespace dynmpi {

class ReplicaStore {
public:
    explicit ReplicaStore(std::size_t num_arrays);

    /// Copy each body of `rows` into array `array_idx`'s slot for its row,
    /// replacing any previous copy.  A slot's allocation is reused when the
    /// store is its only holder and the size matches; a slot still shared
    /// (by a payload extract() handed out) is replaced, never written.
    /// Returns the rows stored.
    RowSet store(std::size_t array_idx, const RowPayload& rows);

    /// The stored `rows` (those present), ready for DistArray::unpack_rows,
    /// their bodies shared with the store's slots.  Rows the store never saw
    /// are simply absent from the result.
    RowPayload extract(std::size_t array_idx, const RowSet& rows) const;

    /// Rows of `array_idx` currently replicated within `scope`.
    RowSet rows_held(std::size_t array_idx, const RowSet& scope) const;

    /// Drop replicas of `array_idx` outside `keep`.
    void retain_only(std::size_t array_idx, const RowSet& keep);

    void clear();
    std::size_t bytes() const { return bytes_; }

private:
    // Per array: row id → the store's copy of the row body.  Ordered so
    // extraction (and thus restore traffic) is deterministic.
    std::vector<std::map<int, sim::SharedBytes>> rows_;
    std::size_t bytes_ = 0;
};

}  // namespace dynmpi
