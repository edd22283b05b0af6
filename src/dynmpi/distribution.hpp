// Iteration/row distributions (paper §2.1).
//
// Dyn-MPI distributes the first dimension of registered arrays.  Supported
// shapes are the paper's two: *variable block* (a contiguous, possibly
// unequal range per active node) and *cyclic* (iterations dealt modulo the
// active-node count).  A Distribution maps the global iteration space
// [lo, hi) onto `parties` relative ranks — the active nodes, in group order.
#pragma once

#include <vector>

#include "dynmpi/row_set.hpp"

namespace dynmpi {

class Distribution {
public:
    enum class Kind { Block, Cyclic };

    Distribution() = default;

    /// Variable block: counts[j] iterations go to relative rank j, in order.
    /// sum(counts) must equal hi - lo.
    static Distribution block(int lo, int hi, std::vector<int> counts);

    /// Equal block split of [lo, hi) over `parties` ranks (remainder spread
    /// over the first ranks).
    static Distribution even_block(int lo, int hi, int parties);

    /// Cyclic with the given block size (1 = classic cyclic).
    static Distribution cyclic(int lo, int hi, int parties,
                               int block_size = 1);

    Kind kind() const { return kind_; }

    /// Relative rank owning iteration i.
    int owner_of(int iter) const;

    /// Iterations assigned to relative rank j.
    RowSet iters_of(int rel) const;

    /// Number of iterations assigned to relative rank j.
    int count_of(int rel) const;

    /// Block only: contiguous range of relative rank j.
    RowInterval block_range(int rel) const;

    /// Per-party iteration counts.
    std::vector<int> counts() const;

    bool operator==(const Distribution&) const = default;

private:
    Kind kind_ = Kind::Block;
    int lo_ = 0;
    int hi_ = 0;
    int parties_ = 0;
    int block_size_ = 1;         ///< cyclic only
    std::vector<int> counts_;    ///< block only
    std::vector<int> starts_;    ///< block only: prefix sums (size parties+1)
};

}  // namespace dynmpi
