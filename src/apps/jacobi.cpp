#include "apps/jacobi.hpp"

#include "support/error.hpp"

namespace dynmpi::apps {

namespace {

/// Deterministic initial condition, independent of the distribution.
/// Deliberately non-harmonic so the sweeps actually change the field.
double initial_value(int row, int col) {
    return 1.0 + 0.1 * ((row % 7) * (col % 5)) + 0.001 * row;
}

}  // namespace

JacobiResult run_jacobi(msg::Rank& rank, const JacobiConfig& config) {
    DYNMPI_REQUIRE(config.cols_math >= 3, "stencil needs at least 3 columns");
    DYNMPI_REQUIRE(config.cols_math <= config.cols_stored,
                   "cols_math must fit in cols_stored");
    const int n = config.rows;
    const int w = config.cols_math;
    const std::size_t row_bytes =
        static_cast<std::size_t>(config.cols_stored) * sizeof(double);

    Runtime rt(rank, n, config.runtime);
    DenseArray* grid[2] = {
        &rt.register_dense("A", config.cols_stored, sizeof(double)),
        &rt.register_dense("B", config.cols_stored, sizeof(double)),
    };
    int ph = rt.init_phase(
        0, n, PhaseComm{CommPattern::NearestNeighbor, row_bytes});
    for (const char* name : {"A", "B"}) {
        rt.add_array_access(name, AccessMode::Write, ph, 1, 0);
        rt.add_array_access(name, AccessMode::Read, ph, 1, -1);
        rt.add_array_access(name, AccessMode::Read, ph, 1, +1);
    }
    rt.commit_setup();

    // Initialize all held rows (ghosts included) deterministically.
    for (DenseArray* g : grid)
        for (int r : g->held().to_vector()) {
            double* row = g->row<double>(r);
            for (int c = 0; c < config.cols_stored; ++c)
                row[c] = initial_value(r, c);
        }

    for (int cycle = 0; cycle < config.cycles; ++cycle) {
        fire_hook(config.on_cycle, rank, cycle);
        rt.begin_cycle();
        if (rt.participating()) {
            DenseArray& read = *grid[cycle % 2];
            DenseArray& write = *grid[(cycle + 1) % 2];
            const int lo = rt.start_iter(ph);
            const int hi = rt.end_iter(ph); // inclusive

            // Halo exchange on the read array (paper Figure 1 pattern).
            rt.exchange_neighbors(
                10, 11, row_bytes,
                [&](int side) { return read.row_data(side < 0 ? lo : hi); },
                [&](int side, const void* ghost) {
                    std::memcpy(read.row_data(side < 0 ? lo - 1 : hi + 1),
                                ghost, row_bytes);
                });

            // Real stencil on the math stripe.  Row pointers are fetched
            // once per row, through the same (dirty-marking) accessor on the
            // same rows as per-element access would use.
            for (int i = lo; i <= hi; ++i) {
                if (i == 0 || i == n - 1) {
                    // Dirichlet boundary rows stay fixed.
                    std::memcpy(write.row_data(i), read.row_data(i),
                                row_bytes);
                    continue;
                }
                const double* mid = read.row<double>(i);
                const double* up = read.row<double>(i - 1);
                const double* down = read.row<double>(i + 1);
                double* out = write.row<double>(i);
                for (int j = 0; j < config.cols_stored; ++j) {
                    if (j == 0 || j >= w - 1)
                        out[j] = mid[j]; // fixed outside the stripe
                    else
                        out[j] = 0.25 * (up[j] + down[j] + mid[j - 1] +
                                         mid[j + 1]);
                }
            }

            // Charge the paper-scale virtual cost.
            std::vector<double> costs(
                static_cast<std::size_t>(rt.my_iters(ph).count()),
                config.sec_per_row);
            rt.run_phase(ph, costs);
        }
        rt.end_cycle();
    }

    // Checksum over the final read array (the one written last).
    DenseArray& last = *grid[config.cycles % 2];
    double local = 0.0;
    for (int r : rt.my_iters(ph).to_vector()) {
        const double* row = last.row<double>(r);
        for (int c = 0; c < w; ++c) local += row[c];
    }
    double sum = rt.allreduce_active(local, msg::OpSum{});

    JacobiResult out;
    out.checksum = sum;
    fill_common_result(out, rt);
    return out;
}

}  // namespace dynmpi::apps
