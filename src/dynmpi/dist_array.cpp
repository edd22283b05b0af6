#include "dynmpi/dist_array.hpp"

#include "support/error.hpp"
#include "support/wire.hpp"

namespace dynmpi {

RowPayload::RowPayload(std::size_t rows) {
    header_.reserve(4 + rows * kRowHeaderBytes);
    bodies_.reserve(rows);
    wire::Writer(header_).u32(0);
}

RowPayload::RowPayload(std::vector<std::byte> header,
                       std::vector<sim::SharedBytes> bodies)
    : header_(std::move(header)), bodies_(std::move(bodies)) {
    wire::Reader in(header_);
    const std::uint64_t nrows = in.u32();
    DYNMPI_REQUIRE(header_.size() == 4 + nrows * kRowHeaderBytes,
                   "row header length does not match its row count");
    DYNMPI_REQUIRE(bodies_.size() == nrows,
                   "row count does not match the body count");
    for (const sim::SharedBytes& body : bodies_) {
        in.u32(); // row id: the receiving array checks its range
        const std::uint64_t nbytes = in.u64();
        DYNMPI_REQUIRE(body || nbytes == 0, "row body missing");
        DYNMPI_REQUIRE(body.size() == nbytes,
                       "row body size does not match its header");
    }
}

void RowPayload::add(int row, sim::SharedBytes body) {
    wire::Writer out(header_);
    out.u32(static_cast<std::uint32_t>(row)).u64(body.size());
    out.patch_u32(0, static_cast<std::uint32_t>(bodies_.size() + 1));
    bodies_.push_back(std::move(body));
}

std::byte* RowPayload::add_owned(int row, std::size_t nbytes) {
    sim::SharedBytes body = sim::SharedBytes::allocate(nbytes, false);
    std::byte* out = body.data();
    add(row, std::move(body));
    return out;
}

int RowPayload::row_id(std::size_t k) const {
    wire::Reader in(header_);
    in.skip(4 + k * kRowHeaderBytes);
    return static_cast<int>(in.u32());
}

RowSet RowPayload::rows() const {
    RowSet out;
    for (std::size_t k = 0; k < size(); ++k)
        out.add(row_id(k), row_id(k) + 1);
    return out;
}

std::size_t RowPayload::wire_size() const {
    std::size_t bytes = header_.size();
    for (const sim::SharedBytes& body : bodies_) bytes += body.size();
    return bytes;
}

DistArray::DistArray(std::string name, int global_rows)
    : name_(std::move(name)), global_rows_(global_rows) {
    DYNMPI_REQUIRE(global_rows_ > 0, "array needs at least one row");
    DYNMPI_REQUIRE(!name_.empty(), "array needs a name");
    dirty_.assign(static_cast<std::size_t>(global_rows_), 0);
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
