// Diskless buddy replication (docs/FAULTS.md "Crashes" section).
//
// Each active node shadows its owned rows of every registered array onto its
// replication buddy — the successor in the active ring.  Refreshes ship
// a RowPayload (see dist_array.hpp) and the store copies each body into a
// slot of its own, never keeping a share of the owner's live row: the owner
// would otherwise copy every row it writes after each refresh.  Restoring
// after the owner's crash hands the slots out by reference in a RowPayload.
//
// A refresh is all or nothing: it is staged array by array and stored only
// when commit() sees all of it, so a sender that dies mid-refresh leaves the
// previous refresh intact.  The store then knows which cycle its rows
// describe (version v: the rows as they stood at the start of cycle v), so
// crash survivors can agree on one cycle to restart from
// (Runtime::take_rollback).
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

    /// Hold array `array_idx`'s part of the refresh in flight.  Nothing of
    /// it is stored until commit().
    void stage(std::size_t array_idx, RowPayload rows);
    /// Every array of the staged refresh has arrived from `source`: store
    /// it, after which the rows describe cycle `version`.  A wholesale
    /// refresh, or a delta from a new source (the ring changed, and the new
    /// predecessor ships every row it owns), replaces the stored rows.
    void commit(int version, int source, bool wholesale);
    /// Drop a partially received refresh.
    void discard_staged();
    /// The cycle the stored rows describe, or -1 when none is known.
    int version() const { return version_; }
    /// Survivors agreed to restart from cycle `version`: drop any staged
    /// refresh, and forget the version of rows that describe a later cycle.
    void rollback(int version);

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
    std::vector<RowPayload> staged_; ///< per array: the refresh in flight
    int version_ = -1;
    int source_ = -1; ///< sender of the last committed refresh
    std::size_t bytes_ = 0;
};

}  // namespace dynmpi
