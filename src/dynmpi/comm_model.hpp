// Communication cost model and its micro-benchmark calibration (paper §4.3).
//
// The paper's key observation: relative-power distributions are suboptimal
// because communication itself consumes CPU.  To quantify that, Dyn-MPI runs
// micro-benchmarks at initialization — here a ping-pong sweep over two
// message sizes fits the latency/bandwidth pair, and repeated sends measured
// with /proc give the CPU cost per message and per byte.  The fitted model
// feeds the successive-balancing algorithm and the node-removal predictor.
#pragma once

#include <cstddef>

namespace dynmpi {

/// Fitted communication cost parameters.
struct CommCosts {
    double latency_s = 1e-4;
    double bandwidth_Bps = 12.5e6;
    double cpu_per_msg_s = 5e-5;
    double cpu_per_byte_s = 2e-9;

    /// Wall time for one message of `bytes` across one link, excluding CPU.
    double wire_time(std::size_t bytes) const {
        return latency_s + static_cast<double>(bytes) / bandwidth_Bps;
    }
    /// CPU seconds one host spends sending or receiving such a message.
    double cpu_cost(std::size_t bytes) const {
        return cpu_per_msg_s + cpu_per_byte_s * static_cast<double>(bytes);
    }
};

/// Communication shape of a phase, used to predict per-cycle costs.
enum class CommPattern {
    None,            ///< embarrassingly parallel
    NearestNeighbor, ///< one boundary exchange with each neighbor
    AllGather,       ///< every node contributes to / receives a global vector
};

struct PhaseComm {
    CommPattern pattern = CommPattern::NearestNeighbor;
    /// One ghost row (NearestNeighbor), or the whole gathered vector
    /// (AllGather).
    std::size_t bytes_per_message = 0;
};

/// Predicted CPU seconds per phase cycle a node spends communicating.
double comm_cpu_per_cycle(const CommCosts& c, const PhaseComm& p,
                          int active_nodes);

/// Predicted wall seconds per phase cycle of pure wire time on the critical
/// path (crude; used for the removal predictor's communication term).
double comm_wire_per_cycle(const CommCosts& c, const PhaseComm& p,
                           int active_nodes);

}  // namespace dynmpi

// Calibration needs the message layer; kept in a separate header section so
// pure model users don't pay for it.
namespace dynmpi::msg {
class Rank;
class Group;
}  // namespace dynmpi::msg

namespace dynmpi {

/// Run the calibration micro-benchmarks on ranks 0/1 of `group` and agree on
/// the fitted costs everywhere (collective over `group`).
CommCosts calibrate_comm_costs(msg::Rank& rank, const msg::Group& group);

}  // namespace dynmpi
