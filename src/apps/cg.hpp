// Conjugate Gradient on an unstructured sparse system (paper §5.1; the NAS
// CG benchmark is the model).
//
// The matrix is a deterministic symmetric positive-definite band matrix
// stored in the Dyn-MPI vector-of-lists sparse format, distributed by rows
// together with the dense iteration vectors.  Each CG iteration gathers the
// full search direction p (AllGather pattern), applies A, and reduces two
// dot products through the removal-aware global reduction.  Per-row virtual
// cost is proportional to the row's stored entries, so the measured cost
// profile tracks the matrix structure.
#pragma once

#include "apps/app_common.hpp"

namespace dynmpi::apps {

struct CgConfig {
    int n = 512;    ///< system size (paper: 14000)
    int cycles = 25; ///< CG iterations run as phase cycles
    double sec_per_nnz = 1e-5; ///< unloaded reference cost per stored entry
    std::uint64_t seed = 99;   ///< matrix structure seed
    RuntimeOptions runtime;
    CycleHook on_cycle;
};

struct CgResult : AppResult {
    double residual_norm2 = 0.0; ///< final ||r||^2 (checksum mirrors this)
    std::vector<double> residual_history;
};

CgResult run_cg(msg::Rank& rank, const CgConfig& config);

struct CgRecoverResult : CgResult {
    bool matrix_intact = true; ///< owned A rows match the generator bitwise
    int redo_cycles = 0;       ///< cycles rolled back and redone after repair
};

/// Crash-masked CG.  Requires RuntimeOptions.replicate: every completed
/// cycle's replica refresh makes the buddies hold the cycle-boundary state.
/// When a node crash is repaired, the survivors agree on one restart cycle
/// (Runtime::take_rollback); each puts its rows back to that cycle's start
/// from the last two cycle-start snapshots, the adopter's restored rows
/// hold the same state, and the solve carries on from there.  Intended for
/// quiet-load scenarios (no removal of live nodes): a removed-but-alive
/// follower could not take part in the rollback.
CgRecoverResult run_cg_recoverable(msg::Rank& rank, const CgConfig& config);

/// Reference single-process CG on the same system; returns ||r||^2 history.
std::vector<double> reference_cg_residuals(const CgConfig& config);

}  // namespace dynmpi::apps
