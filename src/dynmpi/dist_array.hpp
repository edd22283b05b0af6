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
/// body per row:
///   header: u32 nrows, then per row: u32 row_id, u64 nbytes
///   bodies: nrows buffers, body k holding row k's nbytes
/// On the simulated wire the header is the packet's inline payload and the
/// bodies are its segments, so a body crosses by reference with no copy.
/// wire_size() is 4 + sum over rows of (12 + nbytes).
class RowPayload {
public:
    static constexpr std::size_t kRowHeaderBytes = 12; ///< u32 id + u64 size

    /// An empty payload (zero rows), with room reserved for `rows` rows.
    explicit RowPayload(std::size_t rows = 0);

    /// Adopt a received header and its bodies.  Rejects a header whose
    /// length does not match its row count, a body count that differs from
    /// the row count, a missing body, and a body whose size differs from
    /// its header entry.  Row ids are the receiving array's to check.
    RowPayload(std::vector<std::byte> header,
               std::vector<sim::SharedBytes> bodies);

    /// Append a row whose body is shared by reference.
    void add(int row, sim::SharedBytes body);
    /// Append a row with a fresh `nbytes` body the caller fills through the
    /// returned pointer.
    std::byte* add_owned(int row, std::size_t nbytes);

    std::size_t size() const { return bodies_.size(); }
    int row_id(std::size_t k) const;
    const sim::SharedBytes& body(std::size_t k) const { return bodies_[k]; }
    /// Row ids carried, as a set.
    RowSet rows() const;

    const std::vector<std::byte>& header() const { return header_; }
    const std::vector<sim::SharedBytes>& bodies() const { return bodies_; }
    std::size_t wire_size() const;

private:
    std::vector<std::byte> header_;
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
    std::string name_;
    int global_rows_;
    RowSet held_;
    std::vector<char> dirty_; ///< per-row modified-since-refresh flags
    mutable Stats stats_;
};

}  // namespace dynmpi
