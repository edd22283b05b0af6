#include "dynmpi/dense_array.hpp"

#include <algorithm>
#include <cstring>

namespace dynmpi {

DenseArray::DenseArray(std::string name, int global_rows, int row_elems,
                       std::size_t elem_bytes)
    : DistArray(std::move(name), global_rows),
      row_elems_(row_elems),
      elem_bytes_(elem_bytes) {
    DYNMPI_REQUIRE(row_elems_ > 0, "extended row needs elements");
    DYNMPI_REQUIRE(elem_bytes_ > 0, "element size must be positive");
}

std::byte* DenseArray::row_data(int row) {
    auto it = rows_.find(row);
    DYNMPI_REQUIRE(it != rows_.end(), "access to non-held row of " + name_);
    mark_row_dirty(row);
    sim::SharedBytes& body = it->second;
    if (body.use_count() > 1) {
        // Shared with a packet in flight or another array: write a private
        // copy, never the shared body.
        sim::SharedBytes own = sim::SharedBytes::allocate(row_bytes(), false);
        std::memcpy(own.data(), body.data(), row_bytes());
        body = std::move(own);
        ++stats_.rows_allocated;
        stats_.bytes_copied += row_bytes();
    }
    return body.data();
}

const std::byte* DenseArray::row_data(int row) const {
    auto it = rows_.find(row);
    DYNMPI_REQUIRE(it != rows_.end(), "access to non-held row of " + name_);
    return it->second.data();
}

RowPayload DenseArray::pack_rows(const RowSet& rows) const {
    RowPayload out(static_cast<std::size_t>(rows.count()));
    for (const RowInterval& iv : rows.intervals()) {
        for (int r = iv.lo; r < iv.hi; ++r) {
            auto it = rows_.find(r);
            DYNMPI_REQUIRE(it != rows_.end(),
                           "access to non-held row of " + name_);
            out.add(r, it->second);
        }
    }
    stats_.bytes_packed += out.wire_size();
    return out;
}

void DenseArray::unpack_rows(const RowPayload& rows) {
    check_row_ids(rows);
    for (const sim::SharedBytes& body : rows.bodies())
        DYNMPI_REQUIRE(body.size() == row_bytes(), "dense row size mismatch");
    // Adopt the bodies; row_data copies one before a write while the
    // sender still shares it.
    for (std::size_t k = 0; k < rows.size(); ++k)
        rows_[rows.row_id(k)] = rows.body(k);
    held_.add(rows.rows());
    mark_rows_dirty(rows.rows());
    stats_.bytes_unpacked += rows.wire_size();
}

void DenseArray::drop_rows(const RowSet& rows) {
    for (int r : rows.to_vector()) {
        if (rows_.erase(r) > 0) ++stats_.rows_freed;
    }
    held_ = held_.subtract(rows);
}

void DenseArray::ensure_rows(const RowSet& rows) {
    for (int r : rows.to_vector()) {
        DYNMPI_REQUIRE(r >= 0 && r < global_rows_, "row out of range");
        auto [it, inserted] = rows_.try_emplace(r);
        if (inserted) {
            it->second = sim::SharedBytes::allocate(row_bytes(), true);
            ++stats_.rows_allocated;
            mark_row_dirty(r);
        }
    }
    held_.add(rows);
}

// ---------------------------------------------------------------------------
// ContiguousDenseArray
// ---------------------------------------------------------------------------

ContiguousDenseArray::ContiguousDenseArray(std::string name, int global_rows,
                                           int row_elems,
                                           std::size_t elem_bytes)
    : DistArray(std::move(name), global_rows),
      row_elems_(row_elems),
      elem_bytes_(elem_bytes) {
    DYNMPI_REQUIRE(row_elems_ > 0, "extended row needs elements");
    DYNMPI_REQUIRE(elem_bytes_ > 0, "element size must be positive");
}

std::byte* ContiguousDenseArray::row_data(int row) {
    DYNMPI_REQUIRE(held_.contains(row), "access to non-held row of " + name_);
    mark_row_dirty(row);
    return buffer_.data() + static_cast<std::size_t>(row - base_) * row_bytes();
}

const std::byte* ContiguousDenseArray::row_data(int row) const {
    DYNMPI_REQUIRE(held_.contains(row), "access to non-held row of " + name_);
    return buffer_.data() + static_cast<std::size_t>(row - base_) * row_bytes();
}

void ContiguousDenseArray::reextent(int lo, int hi) {
    if (lo == base_ && hi == base_ + extent_) return;
    std::vector<std::byte> next(static_cast<std::size_t>(hi - lo) *
                                    row_bytes(),
                                std::byte{0});
    // Copy surviving rows into their (shifted) positions — this is the cost
    // the projection scheme avoids.
    int keep_lo = std::max(lo, base_);
    int keep_hi = std::min(hi, base_ + extent_);
    if (keep_lo < keep_hi) {
        std::size_t bytes =
            static_cast<std::size_t>(keep_hi - keep_lo) * row_bytes();
        std::memcpy(next.data() +
                        static_cast<std::size_t>(keep_lo - lo) * row_bytes(),
                    buffer_.data() +
                        static_cast<std::size_t>(keep_lo - base_) * row_bytes(),
                    bytes);
        stats_.bytes_copied += bytes;
    }
    int grown = std::max(0, (hi - lo) - extent_);
    stats_.rows_allocated += static_cast<std::uint64_t>(grown);
    int shrunk = std::max(0, extent_ - (hi - lo));
    stats_.rows_freed += static_cast<std::uint64_t>(shrunk);
    ++stats_.reallocations;
    buffer_ = std::move(next);
    base_ = lo;
    extent_ = hi - lo;
}

RowPayload ContiguousDenseArray::pack_rows(const RowSet& rows) const {
    // One held-check per interval: held_ intervals are coalesced, so a
    // fully-held request interval lies inside a single held interval.  Rows
    // then stream straight out of the contiguous buffer into owned bodies.
    RowPayload out(static_cast<std::size_t>(rows.count()));
    for (const RowInterval& iv : rows.intervals()) {
        bool covered = false;
        for (const RowInterval& h : held_.intervals())
            if (h.lo <= iv.lo && iv.hi <= h.hi) {
                covered = true;
                break;
            }
        DYNMPI_REQUIRE(covered, "access to non-held row of " + name_);
        const std::byte* data =
            buffer_.data() +
            static_cast<std::size_t>(iv.lo - base_) * row_bytes();
        for (int r = iv.lo; r < iv.hi; ++r, data += row_bytes())
            std::memcpy(out.add_owned(r, row_bytes()), data, row_bytes());
    }
    stats_.bytes_packed += out.wire_size();
    return out;
}

void ContiguousDenseArray::unpack_rows(const RowPayload& rows) {
    // Check every row first, then grow the extent once.
    check_row_ids(rows);
    for (const sim::SharedBytes& body : rows.bodies())
        DYNMPI_REQUIRE(body.size() == row_bytes(), "dense row size mismatch");
    const RowSet& incoming = rows.rows();
    if (!incoming.empty()) {
        int lo = extent_ == 0 ? incoming.first() : std::min(base_, incoming.first());
        int hi = extent_ == 0 ? incoming.last() + 1
                              : std::max(base_ + extent_, incoming.last() + 1);
        reextent(lo, hi);
    }
    for (std::size_t k = 0; k < rows.size(); ++k)
        std::memcpy(buffer_.data() +
                        static_cast<std::size_t>(rows.row_id(k) - base_) *
                            row_bytes(),
                    rows.body(k).data(), row_bytes());
    held_.add(incoming);
    mark_rows_dirty(incoming);
    stats_.bytes_unpacked += rows.wire_size();
}

void ContiguousDenseArray::drop_rows(const RowSet& rows) {
    held_ = held_.subtract(rows);
    if (held_.empty()) {
        reextent(0, 0);
        return;
    }
    // Shrink the buffer to the held span (copies survivors).
    reextent(held_.first(), held_.last() + 1);
}

void ContiguousDenseArray::ensure_rows(const RowSet& rows) {
    if (rows.empty()) return;
    RowSet target = held_.unite(rows);
    mark_rows_dirty(rows.subtract(held_));
    reextent(target.first(), target.last() + 1);
    held_ = target;
}

}  // namespace dynmpi
