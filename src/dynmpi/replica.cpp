#include "dynmpi/replica.hpp"

#include <cstring>

#include "support/error.hpp"

namespace dynmpi {

ReplicaStore::ReplicaStore(std::size_t num_arrays)
    : rows_(num_arrays), staged_(num_arrays) {}

void ReplicaStore::stage(std::size_t array_idx, RowPayload rows) {
    DYNMPI_REQUIRE(array_idx < rows_.size(), "replica store: bad array");
    staged_[array_idx] = std::move(rows);
}

void ReplicaStore::commit(int version, int source, bool wholesale) {
    const bool replace = wholesale || source != source_;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        RowSet stored = store(i, staged_[i]);
        if (replace) retain_only(i, stored);
    }
    version_ = version;
    source_ = source;
    discard_staged();
}

void ReplicaStore::discard_staged() {
    for (RowPayload& p : staged_) p = RowPayload{};
}

void ReplicaStore::rollback(int version) {
    discard_staged();
    if (version_ > version) version_ = -1;
}

// dynmpi-lint: repair-critical
RowSet ReplicaStore::store(std::size_t array_idx, const RowPayload& rows) {
    DYNMPI_REQUIRE(array_idx < rows_.size(), "replica store: bad array");
    auto& store = rows_[array_idx];
    for (std::size_t k = 0; k < rows.size(); ++k) {
        const int row = rows.row_id(k);
        const sim::SharedBytes& body = rows.body(k);
        sim::SharedBytes& slot = store[row];
        bytes_ -= slot.size();
        if (slot.use_count() != 1 || slot.size() != body.size())
            slot = sim::SharedBytes::allocate(body.size(), false);
        if (body.size() > 0)
            std::memcpy(slot.data(), body.data(), body.size());
        bytes_ += slot.size();
    }
    return rows.rows();
}

// dynmpi-lint: repair-critical
RowPayload ReplicaStore::extract(std::size_t array_idx,
                                 const RowSet& rows) const {
    DYNMPI_REQUIRE(array_idx < rows_.size(), "replica store: bad array");
    const auto& store = rows_[array_idx];
    RowPayload out;
    for (const auto& iv : rows.intervals()) {
        for (int r = iv.lo; r < iv.hi; ++r) {
            auto it = store.find(r);
            if (it != store.end()) out.add(r, it->second);
        }
    }
    return out;
}

RowSet ReplicaStore::rows_held(std::size_t array_idx,
                               const RowSet& scope) const {
    DYNMPI_REQUIRE(array_idx < rows_.size(), "replica store: bad array");
    const auto& store = rows_[array_idx];
    RowSet held;
    for (const auto& iv : scope.intervals())
        for (int r = iv.lo; r < iv.hi; ++r)
            if (store.count(r)) held.add(r, r + 1);
    return held;
}

void ReplicaStore::retain_only(std::size_t array_idx, const RowSet& keep) {
    DYNMPI_REQUIRE(array_idx < rows_.size(), "replica store: bad array");
    auto& store = rows_[array_idx];
    for (auto it = store.begin(); it != store.end();) {
        if (keep.contains(it->first)) {
            ++it;
        } else {
            bytes_ -= it->second.size();
            it = store.erase(it);
        }
    }
}

void ReplicaStore::clear() {
    for (auto& store : rows_) store.clear();
    discard_staged();
    version_ = -1;
    source_ = -1;
    bytes_ = 0;
}

}  // namespace dynmpi
