#include "apps/cg.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace dynmpi::apps {

namespace {

/// Symmetric band offsets; values depend only on the unordered pair, so the
/// matrix is symmetric by construction, and the diagonal dominates the
/// absolute row sum, so it is positive definite.
constexpr int kBand[] = {1, 7, 41};

double offdiag_value(std::uint64_t seed, int lo, int hi) {
    std::uint64_t h = hash_combine(hash_combine(seed, (std::uint64_t)lo),
                                   (std::uint64_t)hi);
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return -0.1 - 0.4 * u; // in [-0.5, -0.1]; 6 entries < diag 4.0
}

double diag_value(std::uint64_t seed, int r) {
    std::uint64_t h = hash_combine(seed ^ 0xD1A6ULL, (std::uint64_t)r);
    return 4.0 + static_cast<double>(h >> 11) * 0x1.0p-53;
}

double rhs_value(int r) { return 1.0 + 0.01 * (r % 13); }

/// Stored entries of row r: (col, value) pairs including the diagonal.
std::vector<std::pair<int, double>> row_entries(const CgConfig& cfg, int r) {
    std::vector<std::pair<int, double>> out;
    for (int band : kBand) {
        if (r - band >= 0)
            out.emplace_back(r - band, offdiag_value(cfg.seed, r - band, r));
    }
    out.emplace_back(r, diag_value(cfg.seed, r));
    for (int band : kBand) {
        if (r + band < cfg.n)
            out.emplace_back(r + band, offdiag_value(cfg.seed, r, r + band));
    }
    return out;
}

}  // namespace

std::vector<double> reference_cg_residuals(const CgConfig& cfg) {
    const int n = cfg.n;
    std::vector<double> x(n, 0.0), r(n), p(n), q(n);
    for (int i = 0; i < n; ++i) r[(size_t)i] = rhs_value(i);
    p = r;
    double rr = 0.0;
    for (int i = 0; i < n; ++i) rr += r[(size_t)i] * r[(size_t)i];

    std::vector<double> history;
    for (int it = 0; it < cfg.cycles; ++it) {
        for (int i = 0; i < n; ++i) {
            double s = 0.0;
            for (auto [c, v] : row_entries(cfg, i)) s += v * p[(size_t)c];
            q[(size_t)i] = s;
        }
        double pq = 0.0;
        for (int i = 0; i < n; ++i) pq += p[(size_t)i] * q[(size_t)i];
        double alpha = rr / pq;
        for (int i = 0; i < n; ++i) {
            x[(size_t)i] += alpha * p[(size_t)i];
            r[(size_t)i] -= alpha * q[(size_t)i];
        }
        double rr_new = 0.0;
        for (int i = 0; i < n; ++i) rr_new += r[(size_t)i] * r[(size_t)i];
        double beta = rr_new / rr;
        rr = rr_new;
        for (int i = 0; i < n; ++i)
            p[(size_t)i] = r[(size_t)i] + beta * p[(size_t)i];
        history.push_back(rr);
    }
    return history;
}

namespace {

/// The CG set-up and iteration shared by run_cg and run_cg_recoverable,
/// which differ only in how they sum over the active set and in crash
/// handling.
struct CgBody {
    CgBody(msg::Rank& rank, const CgConfig& config)
        : cfg(config),
          rt(rank, config.n, config.runtime),
          A(rt.register_sparse("A", config.n)),
          X(rt.register_dense("x", 1, sizeof(double))),
          R(rt.register_dense("r", 1, sizeof(double))),
          P(rt.register_dense("p", 1, sizeof(double))),
          Q(rt.register_dense("q", 1, sizeof(double))),
          ph(rt.init_phase(
              0, config.n,
              PhaseComm{CommPattern::AllGather,
                        static_cast<std::size_t>(config.n) * sizeof(double)})) {
        for (const char* name : {"A", "x", "r", "p", "q"})
            rt.add_array_access(name, AccessMode::Write, ph, 1, 0);
        rt.commit_setup();

        // Build this node's matrix rows and vector entries.
        for (int i : rt.my_iters(ph).to_vector()) {
            for (auto [c, v] : row_entries(cfg, i)) A.set(i, c, v);
            X.at<double>(i, 0) = 0.0;
            R.at<double>(i, 0) = rhs_value(i);
            P.at<double>(i, 0) = rhs_value(i);
            Q.at<double>(i, 0) = 0.0;
        }
    }

    /// This node's share of a . b; 0 on a removed node, which owns no rows.
    double local_dot(DenseArray& a, DenseArray& b) {
        double s = 0.0;
        for (int i : rt.my_iters(ph).to_vector())
            s += a.at<double>(i, 0) * b.at<double>(i, 0);
        return s;
    }

    /// One CG iteration between begin_cycle and end_cycle; `sum` is the
    /// caller's global sum.  Returns the new ||r||^2.
    template <typename Sum>
    double iterate(double rr, const Sum& sum) {
        const std::vector<int> my_rows = rt.my_iters(ph).to_vector();
        if (rt.participating()) {
            // Gather the full search direction p (AllGather pattern).
            std::vector<double> mine;
            mine.reserve(my_rows.size());
            for (int i : my_rows) mine.push_back(P.at<double>(i, 0));
            const std::vector<double> full_p =
                rt.allgather_owned(rt.active_group(), mine);

            // q = A * p over my rows; virtual cost tracks stored entries.
            std::vector<double> costs;
            costs.reserve(my_rows.size());
            for (int i : my_rows) {
                double s = 0.0;
                for (const auto& e : A.row(i))
                    s += e.value * full_p[static_cast<std::size_t>(e.col)];
                Q.at<double>(i, 0) = s;
                costs.push_back(cfg.sec_per_nnz * A.row_nnz(i));
            }
            rt.run_phase(ph, costs);
        }

        const double alpha = rr / sum(local_dot(P, Q));
        for (int i : my_rows) {
            X.at<double>(i, 0) += alpha * P.at<double>(i, 0);
            R.at<double>(i, 0) -= alpha * Q.at<double>(i, 0);
        }
        const double rr_new = sum(local_dot(R, R));
        const double beta = rr_new / rr;
        for (int i : my_rows)
            P.at<double>(i, 0) = R.at<double>(i, 0) + beta * P.at<double>(i, 0);
        return rr_new;
    }

    const CgConfig& cfg;
    Runtime rt;
    SparseMatrix& A;
    DenseArray& X;
    DenseArray& R;
    DenseArray& P;
    DenseArray& Q;
    int ph;
};

}  // namespace

CgResult run_cg(msg::Rank& rank, const CgConfig& config) {
    CgBody cg(rank, config);
    Runtime& rt = cg.rt;
    auto sum = [&](double v) { return rt.allreduce_active(v, msg::OpSum{}); };

    double rr = sum(cg.local_dot(cg.R, cg.R));
    CgResult out;
    for (int cycle = 0; cycle < config.cycles; ++cycle) {
        fire_hook(config.on_cycle, rank, cycle);
        rt.begin_cycle();
        rr = cg.iterate(rr, sum);
        out.residual_history.push_back(rr);
        rt.end_cycle();
    }

    out.residual_norm2 = rr;
    out.checksum = rr;
    fill_common_result(out, rt);
    return out;
}

CgRecoverResult run_cg_recoverable(msg::Rank& rank, const CgConfig& config) {
    DYNMPI_REQUIRE(config.runtime.replicate,
                   "run_cg_recoverable requires RuntimeOptions.replicate");
    CgBody cg(rank, config);
    Runtime& rt = cg.rt;
    auto sum_active = [&](double v) {
        return msg::allreduce_scalar(rank, rt.active_group(), v, msg::OpSum{});
    };

    double rr = sum_active(cg.local_dot(cg.R, cg.R));

    CgRecoverResult out;
    // The start state of my rows at the current and at the previous cycle,
    // indexed by cycle parity: an agreed rollback never goes further back.
    struct Snapshot {
        int cycle = -1;
        double rr = 0.0;
        std::vector<int> rows;
        std::vector<double> x, r, p;
    };
    Snapshot snaps[2];
    int hooked = 0; // the hook fires once per cycle, not again on a redo
    for (int cycle = 0; cycle < config.cycles;) {
        if (cycle == hooked) {
            fire_hook(config.on_cycle, rank, cycle);
            ++hooked;
        }
        Snapshot& snap = snaps[cycle % 2];
        snap.cycle = cycle;
        snap.rr = rr;
        snap.rows = rt.my_iters(cg.ph).to_vector();
        snap.x.clear();
        snap.r.clear();
        snap.p.clear();
        for (int i : snap.rows) {
            snap.x.push_back(cg.X.at<double>(i, 0));
            snap.r.push_back(cg.R.at<double>(i, 0));
            snap.p.push_back(cg.P.at<double>(i, 0));
        }

        bool interrupted = false;
        try {
            rt.begin_cycle();
            rr = cg.iterate(rr, sum_active);
            rt.end_cycle();
        } catch (const msg::PeerFailure&) {
            // A peer died mid-cycle.  Wake every rank stranded in the
            // abandoned collective, then join the survivors in end_cycle:
            // its monitoring pass repairs the active set, agrees on the
            // rollback cycle and restores the dead node's rows.
            interrupted = true;
            rank.revoke_control();
            rt.end_cycle();
        } catch (const msg::EpochRevoked&) {
            interrupted = true;
            rt.end_cycle();
        }
        out.residual_history.push_back(rr);
        ++cycle;

        const std::optional<int> restart = rt.take_rollback();
        DYNMPI_CHECK(!interrupted || (restart && *restart < cycle),
                     "cycle lost without a rollback");
        if (!restart || *restart == cycle) continue;
        // Every survivor restarts from the agreed cycle: put my rows and rr
        // back to its start; the restored rows of the dead node already
        // hold that state.
        const Snapshot& back = snaps[*restart % 2];
        DYNMPI_CHECK(back.cycle == *restart,
                     "no snapshot of the agreed rollback cycle");
        for (std::size_t k = 0; k < back.rows.size(); ++k) {
            const int i = back.rows[k];
            cg.X.at<double>(i, 0) = back.x[k];
            cg.R.at<double>(i, 0) = back.r[k];
            cg.P.at<double>(i, 0) = back.p[k];
        }
        rr = back.rr;
        out.redo_cycles += cycle - *restart;
        out.residual_history.resize(static_cast<std::size_t>(*restart));
        cycle = *restart;
    }

    // Bitwise row compare: restored matrix rows must match the generator
    // exactly, not approximately.  Stored rows are col-sorted; the generator
    // emits bands outward from the diagonal, so sort before comparing.
    for (int i : rt.my_iters(cg.ph).to_vector()) {
        auto expect = row_entries(config, i);
        std::sort(expect.begin(), expect.end());
        const auto& got = cg.A.row(i);
        if (got.size() != expect.size()) {
            out.matrix_intact = false;
            continue;
        }
        std::size_t k = 0;
        for (const auto& e : got) {
            if (e.col != expect[k].first || e.value != expect[k].second)
                out.matrix_intact = false;
            ++k;
        }
    }

    out.residual_norm2 = rr;
    out.checksum = rr;
    fill_common_result(out, rt);
    return out;
}

}  // namespace dynmpi::apps
