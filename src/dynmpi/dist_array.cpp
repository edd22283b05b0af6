#include "dynmpi/dist_array.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"
#include "support/wire.hpp"

namespace dynmpi {

RowPayload::RowPayload(std::size_t rows) { bodies_.reserve(rows); }

RowPayload::RowPayload(const std::vector<std::byte>& header,
                       std::vector<sim::SharedBytes> bodies)
    : bodies_(std::move(bodies)) {
    wire::Reader in(header);
    DYNMPI_REQUIRE(in.u8() == kFormatVersion,
                   "row header: unknown format version");
    const std::uint32_t runs = in.count(8);
    run_end_.reserve(runs);
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < runs; ++i) {
        const std::uint64_t lo = in.u32();
        const std::uint64_t count = in.u32();
        DYNMPI_REQUIRE(count > 0, "row header: empty run");
        DYNMPI_REQUIRE(lo + count <= std::numeric_limits<int>::max(),
                       "row header: run past the largest row id");
        DYNMPI_REQUIRE(rows_.empty() ||
                           lo >= static_cast<std::uint64_t>(rows_.last()) + 1,
                       "row header: runs overlap or descend");
        rows_.append(static_cast<int>(lo), static_cast<int>(lo + count));
        total += count;
        // A run adjacent to the one before extends it.
        if (run_end_.size() < rows_.intervals().size())
            run_end_.push_back(total);
        else
            run_end_.back() = total;
    }
    DYNMPI_REQUIRE(total == bodies_.size(),
                   "row header: row count does not match the body count");
    const std::uint8_t form = in.u8();
    DYNMPI_REQUIRE(form == kOneRowSize || form == kPerRowSizes,
                   "row header: unknown row size form");
    const std::uint64_t fixed = form == kOneRowSize ? in.u64() : 0;
    for (const sim::SharedBytes& body : bodies_) {
        const std::uint64_t nbytes = form == kOneRowSize ? fixed : in.u64();
        DYNMPI_REQUIRE(body || nbytes == 0, "row body missing");
        DYNMPI_REQUIRE(body.size() == nbytes,
                       "row body size does not match its header");
    }
    in.finish();
}

void RowPayload::add(int row, sim::SharedBytes body) {
    DYNMPI_REQUIRE(row >= 0 && (rows_.empty() || row > rows_.last()),
                   "payload rows must be added in ascending order");
    const bool extends = !rows_.empty() && row == rows_.last() + 1;
    rows_.append(row, row + 1);
    if (extends)
        ++run_end_.back();
    else
        run_end_.push_back(bodies_.size() + 1);
    bodies_.push_back(std::move(body));
}

std::byte* RowPayload::add_owned(int row, std::size_t nbytes) {
    sim::SharedBytes body = sim::SharedBytes::allocate(nbytes, false);
    std::byte* out = body.data();
    add(row, std::move(body));
    return out;
}

int RowPayload::row_id(std::size_t k) const {
    DYNMPI_REQUIRE(k < size(), "row index past the payload");
    const auto run = static_cast<std::size_t>(
        std::upper_bound(run_end_.begin(), run_end_.end(), k) -
        run_end_.begin());
    const std::size_t first = run == 0 ? 0 : run_end_[run - 1];
    return rows_.intervals()[run].lo + static_cast<int>(k - first);
}

bool RowPayload::one_row_size() const {
    return !bodies_.empty() &&
           std::all_of(bodies_.begin(), bodies_.end(),
                       [&](const sim::SharedBytes& b) {
                           return b.size() == bodies_.front().size();
                       });
}

std::vector<std::byte> RowPayload::header() const {
    std::vector<std::byte> out;
    out.reserve(header_size());
    wire::Writer w(out);
    w.u8(kFormatVersion);
    w.u32(static_cast<std::uint32_t>(rows_.intervals().size()));
    for (const RowInterval& run : rows_.intervals())
        w.u32(static_cast<std::uint32_t>(run.lo))
            .u32(static_cast<std::uint32_t>(run.size()));
    if (one_row_size()) {
        w.u8(kOneRowSize).u64(bodies_.front().size());
    } else {
        w.u8(kPerRowSizes);
        for (const sim::SharedBytes& body : bodies_) w.u64(body.size());
    }
    return out;
}

std::size_t RowPayload::header_size() const {
    const std::size_t sizes = one_row_size() ? 1 : bodies_.size();
    return 6 + 8 * rows_.intervals().size() + 8 * sizes;
}

std::size_t RowPayload::wire_size() const {
    std::size_t bytes = header_size();
    for (const sim::SharedBytes& body : bodies_) bytes += body.size();
    return bytes;
}

DistArray::DistArray(std::string name, int global_rows)
    : name_(std::move(name)), global_rows_(global_rows) {
    DYNMPI_REQUIRE(global_rows_ > 0, "array needs at least one row");
    DYNMPI_REQUIRE(!name_.empty(), "array needs a name");
    dirty_.assign(static_cast<std::size_t>(global_rows_), 0);
}

void DistArray::check_row_ids(const RowPayload& rows) const {
    DYNMPI_REQUIRE(rows.rows().empty() || rows.rows().last() < global_rows_,
                   "unpacked row id out of range for " + name_);
}

void DistArray::retain_only(const RowSet& keep) {
    drop_rows(held_.subtract(keep));
}

void DistArray::mark_rows_dirty(const RowSet& rows) {
    for (const RowInterval& iv : rows.intervals())
        for (int r = iv.lo; r < iv.hi; ++r) mark_row_dirty(r);
}

RowSet DistArray::dirty_rows(const RowSet& scope) const {
    RowSet out;
    for (const RowInterval& iv : scope.intervals()) {
        int run = -1;
        for (int r = iv.lo; r < iv.hi; ++r) {
            if (dirty_[static_cast<std::size_t>(r)]) {
                if (run < 0) run = r;
            } else if (run >= 0) {
                out.add(run, r);
                run = -1;
            }
        }
        if (run >= 0) out.add(run, iv.hi);
    }
    return out;
}

void DistArray::clear_dirty(const RowSet& rows) {
    for (const RowInterval& iv : rows.intervals())
        for (int r = iv.lo; r < iv.hi; ++r)
            dirty_[static_cast<std::size_t>(r)] = 0;
}

}  // namespace dynmpi
