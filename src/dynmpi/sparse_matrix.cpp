#include "dynmpi/sparse_matrix.hpp"

#include <algorithm>
#include <cstring>

namespace dynmpi {

SparseMatrix::SparseMatrix(std::string name, int global_rows, int global_cols)
    : DistArray(std::move(name), global_rows), global_cols_(global_cols) {
    DYNMPI_REQUIRE(global_cols_ > 0, "matrix needs at least one column");
}

SparseMatrix::RowList& SparseMatrix::row_mut(int r) {
    auto it = rows_.find(r);
    DYNMPI_REQUIRE(it != rows_.end(), "access to non-held row of " + name_);
    return it->second;
}

const SparseMatrix::RowList& SparseMatrix::row(int r) const {
    auto it = rows_.find(r);
    DYNMPI_REQUIRE(it != rows_.end(), "access to non-held row of " + name_);
    return it->second;
}

void SparseMatrix::set(int row, int col, double value) {
    DYNMPI_REQUIRE(col >= 0 && col < global_cols_, "column out of range");
    RowList& list = row_mut(row);
    auto it = std::find_if(list.begin(), list.end(),
                           [col](const SparseEntry& e) { return e.col >= col; });
    if (it != list.end() && it->col == col)
        it->value = value;
    else
        list.insert(it, SparseEntry{col, value});
    mark_row_dirty(row);
}

double SparseMatrix::get(int row, int col) const {
    const RowList& list = this->row(row);
    for (const auto& e : list) {
        if (e.col == col) return e.value;
        if (e.col > col) break;
    }
    return 0.0;
}

bool SparseMatrix::erase(int row, int col) {
    RowList& list = row_mut(row);
    auto it = std::find_if(list.begin(), list.end(),
                           [col](const SparseEntry& e) { return e.col == col; });
    if (it == list.end()) return false;
    list.erase(it);
    mark_row_dirty(row);
    return true;
}

int SparseMatrix::row_nnz(int r) const {
    return static_cast<int>(row(r).size());
}

int SparseMatrix::nnz() const {
    int n = 0;
    for (const auto& [r, list] : rows_) n += static_cast<int>(list.size());
    return n;
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

SparseMatrix::Cursor::Cursor(SparseMatrix& m) : m_(m) { move_first(); }

void SparseMatrix::Cursor::move_first() {
    held_rows_ = m_.held().to_vector();
    row_idx_ = 0;
    if (!held_rows_.empty())
        elem_ = m_.row_mut(held_rows_[0]).begin();
    skip_empty_rows();
}

void SparseMatrix::Cursor::skip_empty_rows() {
    while (row_idx_ < held_rows_.size() &&
           elem_ == m_.row_mut(held_rows_[row_idx_]).end()) {
        ++row_idx_;
        if (row_idx_ < held_rows_.size())
            elem_ = m_.row_mut(held_rows_[row_idx_]).begin();
    }
}

bool SparseMatrix::Cursor::at_end() const {
    return row_idx_ >= held_rows_.size();
}

int SparseMatrix::Cursor::current_row() const {
    DYNMPI_REQUIRE(!at_end(), "cursor past the end");
    return held_rows_[row_idx_];
}

const SparseEntry& SparseMatrix::Cursor::current() const {
    DYNMPI_REQUIRE(!at_end(), "cursor past the end");
    return *elem_;
}

SparseEntry SparseMatrix::Cursor::next() {
    DYNMPI_REQUIRE(!at_end(), "cursor past the end");
    SparseEntry e = *elem_;
    ++elem_;
    skip_empty_rows();
    return e;
}

void SparseMatrix::Cursor::set_next(double value) {
    DYNMPI_REQUIRE(!at_end(), "cursor past the end");
    elem_->value = value;
    m_.mark_row_dirty(held_rows_[row_idx_]);
    ++elem_;
    skip_empty_rows();
}

void SparseMatrix::Cursor::advance_row() {
    DYNMPI_REQUIRE(!at_end(), "cursor past the end");
    ++row_idx_;
    if (row_idx_ < held_rows_.size())
        elem_ = m_.row_mut(held_rows_[row_idx_]).begin();
    skip_empty_rows();
}

// ---------------------------------------------------------------------------
// DistArray interface
// ---------------------------------------------------------------------------

RowPayload SparseMatrix::pack_rows(const RowSet& rows) const {
    // Pack each linked-list row into its own flat body (paper §4.4: a row
    // "must be packed into a vector" before transfer).  rows_ is ordered, so
    // each interval is one lower_bound plus a linear walk instead of a map
    // lookup per row.
    RowPayload out(static_cast<std::size_t>(rows.count()));
    for (const RowInterval& iv : rows.intervals()) {
        auto it = rows_.lower_bound(iv.lo);
        for (int r = iv.lo; r < iv.hi; ++r, ++it) {
            DYNMPI_REQUIRE(it != rows_.end() && it->first == r,
                           "access to non-held row of " + name_);
            const RowList& list = it->second;
            std::byte* body =
                out.add_owned(r, list.size() * sizeof(SparseEntry));
            for (const auto& e : list) {
                std::memcpy(body, &e, sizeof(SparseEntry));
                body += sizeof(SparseEntry);
            }
        }
    }
    stats_.bytes_packed += out.wire_size();
    return out;
}

void SparseMatrix::unpack_rows(const RowPayload& rows) {
    check_row_ids(rows);
    for (const sim::SharedBytes& body : rows.bodies()) {
        DYNMPI_REQUIRE(body.size() % sizeof(SparseEntry) == 0,
                       "sparse row payload not a whole number of entries");
        int prev = -1;
        for (std::size_t off = 0; off < body.size();
             off += sizeof(SparseEntry)) {
            SparseEntry e;
            std::memcpy(&e, body.data() + off, sizeof(SparseEntry));
            DYNMPI_REQUIRE(e.col > prev && e.col < global_cols_,
                           "unpacked column out of range or out of order "
                           "for " + name_);
            prev = e.col;
        }
    }
    for (std::size_t k = 0; k < rows.size(); ++k) {
        const int r = rows.row_id(k);
        const sim::SharedBytes& body = rows.body(k);
        auto [it, inserted] = rows_.try_emplace(r);
        if (inserted) ++stats_.rows_allocated;
        it->second.clear();
        for (std::size_t off = 0; off < body.size();
             off += sizeof(SparseEntry)) {
            SparseEntry e;
            std::memcpy(&e, body.data() + off, sizeof(SparseEntry));
            it->second.push_back(e); // column order, checked above
        }
    }
    held_.add(rows.rows());
    mark_rows_dirty(rows.rows());
    stats_.bytes_unpacked += rows.wire_size();
}

void SparseMatrix::drop_rows(const RowSet& rows) {
    for (int r : rows.to_vector())
        if (rows_.erase(r) > 0) ++stats_.rows_freed;
    held_ = held_.subtract(rows);
}

void SparseMatrix::ensure_rows(const RowSet& rows) {
    for (int r : rows.to_vector()) {
        DYNMPI_REQUIRE(r >= 0 && r < global_rows_, "row out of range");
        auto [it, inserted] = rows_.try_emplace(r);
        if (inserted) {
            ++stats_.rows_allocated;
            mark_row_dirty(r);
        }
    }
    held_.add(rows);
}

}  // namespace dynmpi
