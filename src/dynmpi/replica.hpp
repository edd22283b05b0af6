// Diskless buddy replication (docs/FAULTS.md "Crashes" section).
//
// Each active node shadows its owned rows of every registered array onto its
// replication buddy — the successor in the active ring.  Refreshes ship
// the flat RowPayload form (see dist_array.hpp) and the store keeps a byte
// copy of each row's body, never a share of the owner's live row.
// Restoring after the owner's crash re-frames the buddy's copies as a
// RowPayload again.
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

namespace dynmpi {

class ReplicaStore {
public:
    explicit ReplicaStore(std::size_t num_arrays);

    /// Absorb a flat RowPayload for array `array_idx`, copying each body
    /// and replacing any previous copy of its row.  Returns the rows stored.
    RowSet store_blob(std::size_t array_idx,
                      const std::vector<std::byte>& blob);

    /// Fresh copies of the stored `rows` (those present), ready for
    /// DistArray::unpack_rows.  Rows the store never saw are simply absent
    /// from the result.
    RowPayload extract(std::size_t array_idx, const RowSet& rows) const;

    /// Rows of `array_idx` currently replicated within `scope`.
    RowSet rows_held(std::size_t array_idx, const RowSet& scope) const;

    /// Drop replicas of `array_idx` outside `keep`.
    void retain_only(std::size_t array_idx, const RowSet& keep);

    void clear();
    std::size_t bytes() const { return bytes_; }

private:
    // Per array: row id → copy of the row body.  Ordered so extraction (and
    // thus restore traffic) is deterministic.
    std::vector<std::map<int, std::vector<std::byte>>> rows_;
    std::size_t bytes_ = 0;
};

}  // namespace dynmpi
