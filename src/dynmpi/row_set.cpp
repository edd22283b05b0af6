#include "dynmpi/row_set.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dynmpi {

RowSet::RowSet(int lo, int hi) {
    DYNMPI_REQUIRE(lo <= hi, "interval must have lo <= hi");
    if (lo < hi) intervals_.push_back({lo, hi});
}

void RowSet::normalize() {
    if (intervals_.empty()) return;
    std::sort(intervals_.begin(), intervals_.end(),
              [](const RowInterval& a, const RowInterval& b) {
                  return a.lo < b.lo;
              });
    std::vector<RowInterval> merged;
    for (const auto& iv : intervals_) {
        if (iv.empty()) continue;
        if (!merged.empty() && iv.lo <= merged.back().hi)
            merged.back().hi = std::max(merged.back().hi, iv.hi);
        else
            merged.push_back(iv);
    }
    intervals_ = std::move(merged);
}

void RowSet::add(int lo, int hi) {
    DYNMPI_REQUIRE(lo <= hi, "interval must have lo <= hi");
    if (lo == hi) return;
    intervals_.push_back({lo, hi});
    normalize();
}

void RowSet::append(int lo, int hi) {
    DYNMPI_REQUIRE(lo <= hi, "interval must have lo <= hi");
    if (lo == hi) return;
    DYNMPI_REQUIRE(intervals_.empty() || lo >= intervals_.back().hi,
                   "append before the end of the set");
    if (!intervals_.empty() && lo == intervals_.back().hi)
        intervals_.back().hi = hi;
    else
        intervals_.push_back({lo, hi});
}

void RowSet::add(const RowSet& other) {
    intervals_.insert(intervals_.end(), other.intervals_.begin(),
                      other.intervals_.end());
    normalize();
}

RowSet RowSet::unite(const RowSet& other) const {
    RowSet r = *this;
    r.add(other);
    return r;
}

RowSet RowSet::intersect(const RowSet& other) const {
    RowSet out;
    std::size_t i = 0, j = 0;
    while (i < intervals_.size() && j < other.intervals_.size()) {
        const RowInterval& a = intervals_[i];
        const RowInterval& b = other.intervals_[j];
        int lo = std::max(a.lo, b.lo);
        int hi = std::min(a.hi, b.hi);
        if (lo < hi) out.intervals_.push_back({lo, hi});
        if (a.hi < b.hi)
            ++i;
        else
            ++j;
    }
    return out; // already sorted & disjoint
}

RowSet RowSet::subtract(const RowSet& other) const {
    RowSet out;
    for (const auto& a : intervals_) {
        int cur = a.lo;
        for (const auto& b : other.intervals_) {
            if (b.hi <= cur) continue;
            if (b.lo >= a.hi) break;
            if (b.lo > cur) out.intervals_.push_back({cur, b.lo});
            cur = std::max(cur, b.hi);
            if (cur >= a.hi) break;
        }
        if (cur < a.hi) out.intervals_.push_back({cur, a.hi});
    }
    return out; // construction preserves sorted, disjoint order
}

void RowSet::intersect_with(const RowSet& other) {
    if (intervals_.empty()) return;
    if (other.intervals_.empty()) {
        intervals_.clear();
        return;
    }
    if (other.intervals_.size() == 1) {
        // Clipping by a single interval never splits anything: trim and
        // compact in place, allocation-free.  This is the planner's hot
        // shape — block distributions are one interval per party.
        const RowInterval b = other.intervals_.front();
        std::size_t w = 0;
        for (const RowInterval& a : intervals_) {
            RowInterval c{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
            if (!c.empty()) intervals_[w++] = c;
        }
        intervals_.resize(w);
        return;
    }
    *this = intersect(other);
}

void RowSet::subtract_with(const RowSet& other) {
    if (intervals_.empty() || other.intervals_.empty()) return;
    if (other.intervals_.size() > 1) {
        *this = subtract(other);
        return;
    }
    // A single subtrahend splits at most one interval in two; every other
    // interval shrinks or vanishes, so the result compacts in place.
    const RowInterval b = other.intervals_.front();
    const std::size_t n = intervals_.size();
    std::size_t w = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const RowInterval a = intervals_[i];
        const RowInterval left{a.lo, std::min(a.hi, b.lo)};
        const RowInterval right{std::max(a.lo, b.hi), a.hi};
        if (!left.empty() && !right.empty() && w == i) {
            // The one possible two-piece split with no compaction slack yet:
            // grow by one slot; the tail is already in its final place.
            intervals_[i] = right;
            intervals_.insert(
                intervals_.begin() + static_cast<std::ptrdiff_t>(i), left);
            return;
        }
        if (!left.empty()) intervals_[w++] = left;
        if (!right.empty()) intervals_[w++] = right;
    }
    intervals_.resize(w);
}

bool RowSet::contains(int row) const {
    for (const auto& iv : intervals_) {
        if (row < iv.lo) return false;
        if (row < iv.hi) return true;
    }
    return false;
}

int RowSet::count() const {
    int n = 0;
    for (const auto& iv : intervals_) n += iv.size();
    return n;
}

std::vector<int> RowSet::to_vector() const {
    std::vector<int> v;
    v.reserve(static_cast<std::size_t>(count()));
    for (const auto& iv : intervals_)
        for (int r = iv.lo; r < iv.hi; ++r) v.push_back(r);
    return v;
}

int RowSet::first() const {
    DYNMPI_REQUIRE(!empty(), "first() on empty RowSet");
    return intervals_.front().lo;
}

int RowSet::last() const {
    DYNMPI_REQUIRE(!empty(), "last() on empty RowSet");
    return intervals_.back().hi - 1;
}

}  // namespace dynmpi
