// Base interface for redistributable arrays (paper §4.1).
//
// Dyn-MPI can only redistribute data it allocated, so every redistributable
// array is registered with the runtime and implements this interface: rows
// can be packed into a RowPayload, unpacked on arrival, dropped, or
// allocated fresh.  Dense and sparse arrays share the interface — the
// near-uniform allocation scheme is one of the paper's contributions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dynmpi/row_set.hpp"
#include "sim/shared_bytes.hpp"
#include "support/error.hpp"

namespace dynmpi {

/// The one row form, shared by every DistArray, redistribution, replica
/// refreshes and crash restores.
///
/// A payload is a header (written and read with support/wire.hpp) plus one
/// body per row, rows in ascending order:
///   header: u8  format version (kFormatVersion)
///           u32 run count, then per run: u32 lo, u32 count — the row ids
///               as runs [lo, lo + count), ascending, disjoint, non-empty
///           u8  size form, then
///               kOneRowSize:  one u64, every row's size (fixed-size rows)
///               kPerRowSizes: one u64 per row, in row order
///   bodies: one buffer per row, body k holding row k's bytes
/// On the simulated wire the header is the packet's inline payload and the
/// bodies are its segments, so a body crosses by reference with no copy.
/// A block of dense rows costs one run and one size however many rows it
/// holds, so wire_size() is the header (6 + 8 * runs, plus 8 or 8 * rows)
/// plus the bodies.
class RowPayload {
public:
    static constexpr std::uint8_t kFormatVersion = 1;
    static constexpr std::uint8_t kOneRowSize = 0;
    static constexpr std::uint8_t kPerRowSizes = 1;

    /// An empty payload (zero rows), with room reserved for `rows` rows.
    explicit RowPayload(std::size_t rows = 0);

    /// Adopt a received header and its bodies.  Rejects an unknown version,
    /// a run count the header cannot hold, an empty, overlapping or
    /// descending run, a run past the largest int row id, a row total that
    /// differs from the body count, an unknown size form, a missing body, a
    /// body whose size differs from its header and trailing header bytes.
    /// Row ids are the receiving array's to range-check.
    RowPayload(const std::vector<std::byte>& header,
               std::vector<sim::SharedBytes> bodies);

    /// Append a row whose body is shared by reference; rows must be added
    /// in ascending order.
    void add(int row, sim::SharedBytes body);
    /// Append a row with a fresh `nbytes` body the caller fills through the
    /// returned pointer.
    std::byte* add_owned(int row, std::size_t nbytes);

    std::size_t size() const { return bodies_.size(); }
    /// Id of row k; O(log runs).
    int row_id(std::size_t k) const;
    const sim::SharedBytes& body(std::size_t k) const { return bodies_[k]; }
    /// Row ids carried, as a set (its intervals are the runs).
    const RowSet& rows() const { return rows_; }

    /// The encoded header, as send_rows puts it on the wire.
    std::vector<std::byte> header() const;
    std::size_t header_size() const;
    const std::vector<sim::SharedBytes>& bodies() const { return bodies_; }
    std::size_t wire_size() const;

private:
    /// True when every row has the same size (and there is a row).
    bool one_row_size() const;

    RowSet rows_;
    /// Per run of rows_: the body index one past its last row.
    std::vector<std::size_t> run_end_;
    std::vector<sim::SharedBytes> bodies_;
};

class DistArray {
public:
    struct Stats {
        /// Row storage allocated: fresh rows, plus (dense) bodies copied
        /// on write.  A dense row adopted from a payload allocates nothing.
        std::uint64_t rows_allocated = 0;
        std::uint64_t rows_freed = 0;
        std::uint64_t bytes_packed = 0;
        std::uint64_t bytes_unpacked = 0;
        std::uint64_t bytes_copied = 0; ///< data moved by (re)allocation
        std::uint64_t reallocations = 0;
    };

    DistArray(std::string name, int global_rows);
    virtual ~DistArray() = default;

    const std::string& name() const { return name_; }
    int global_rows() const { return global_rows_; }

    /// Rows currently stored on this node.
    const RowSet& held() const { return held_; }
    bool has_row(int row) const { return held_.contains(row); }

    /// Package the given (held) rows for transfer.  Bodies an
    /// implementation can share (dense rows) go by reference; the others
    /// are copied into owned bodies.
    virtual RowPayload pack_rows(const RowSet& rows) const = 0;

    /// Take in rows produced by pack_rows (possibly on another node); the
    /// rows become held, replacing any local copies.  Every row is checked
    /// before any is applied.
    virtual void unpack_rows(const RowPayload& rows) = 0;

    /// Release storage for the given rows.
    virtual void drop_rows(const RowSet& rows) = 0;

    /// Allocate (zero/empty) storage for any of `rows` not yet held.
    virtual void ensure_rows(const RowSet& rows) = 0;

    /// Keep only `keep`; everything else is dropped.
    void retain_only(const RowSet& keep);

    // ---- dirty-row tracking (replication support) ----
    //
    // Every mutation path (writable row access, unpack, fresh allocation)
    // marks the touched rows dirty; the replication layer reads the dirty
    // set to ship incremental deltas and clears it once a refresh lands.

    void mark_row_dirty(int row) {
        if (row >= 0 && row < global_rows_) dirty_[static_cast<std::size_t>(row)] = 1;
    }
    void mark_rows_dirty(const RowSet& rows);

    /// Rows within `scope` modified since the last clear_dirty.
    RowSet dirty_rows(const RowSet& scope) const;
    void clear_dirty(const RowSet& rows);

    /// Bytes per row if every row of the array has that size (dense), else
    /// 0 (sparse).  Memory-aware balancing needs a row size every rank
    /// agrees on, so it pools local_bytes() over held() for arrays whose
    /// rows vary.
    virtual std::size_t fixed_row_bytes() const = 0;

    /// Actual bytes of application data held locally right now.
    virtual std::size_t local_bytes() const = 0;

    const Stats& stats() const { return stats_; }

protected:
    /// Reject a payload carrying a row id outside [0, global_rows()).
    void check_row_ids(const RowPayload& rows) const;

    std::string name_;
    int global_rows_;
    RowSet held_;
    std::vector<char> dirty_; ///< per-row modified-since-refresh flags
    mutable Stats stats_;
};

}  // namespace dynmpi
