// Pairwise reference formulation of the redistribution schedule, kept for
// tests and benches only.
//
// transfer_rows answers one (src, dst) question from scratch, so calling it
// for every pair rebuilds the same owned/needed sets O(P²·A) times per
// redistribution.  The library executes RedistPlan instead; the redistributor
// tests pin the two against each other, and bench/micro_redist's Legacy arm
// times the pairwise derivation the plan replaced.
#pragma once

#include <vector>

#include "dynmpi/redistributor.hpp"
#include "support/error.hpp"

namespace dynmpi {

/// Rows `src_abs` must ship to `dst_abs` for one array: the source's old
/// ownership intersected with the destination's newly-needed rows, excluding
/// rows the destination already owned authoritatively.
inline RowSet transfer_rows(const RedistContext& ctx,
                            const std::vector<Drsd>& accesses, int src_abs,
                            int dst_abs) {
    DYNMPI_REQUIRE(ctx.old_active && ctx.old_dist && ctx.new_active &&
                       ctx.new_dist,
                   "incomplete redistribution context");
    if (src_abs == dst_abs) return {};
    RowSet src_owned = owned_rows(*ctx.old_active, *ctx.old_dist, src_abs);
    if (src_owned.empty()) return {};
    RowSet dst_need = needed_rows(*ctx.new_active, *ctx.new_dist, dst_abs,
                                  accesses, ctx.global_rows);
    RowSet dst_old_owned =
        owned_rows(*ctx.old_active, *ctx.old_dist, dst_abs);
    return src_owned.intersect(dst_need.subtract(dst_old_owned));
}

}  // namespace dynmpi
