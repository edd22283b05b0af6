#include "dynmpi/comm_model.hpp"

#include <algorithm>
#include <vector>

#include "mpisim/collectives.hpp"
#include "mpisim/rank.hpp"
#include "support/error.hpp"

namespace dynmpi {

namespace {
/// Rounds of the allgather in mpisim/collectives.hpp: ceil(log2 n).
int allgather_rounds(int n) {
    int rounds = 0;
    while ((1 << rounds) < n) ++rounds;
    return rounds;
}

/// Bytes of the gathered vector a member sends, and receives, in all.
double allgather_share(const PhaseComm& p, int n) {
    return (n - 1.0) / n * static_cast<double>(p.bytes_per_message);
}
}  // namespace

double comm_cpu_per_cycle(const CommCosts& c, const PhaseComm& p,
                          int active_nodes) {
    DYNMPI_REQUIRE(active_nodes > 0, "need at least one active node");
    if (active_nodes == 1) return 0.0;
    switch (p.pattern) {
    case CommPattern::None:
        return 0.0;
    case CommPattern::NearestNeighbor:
        // Two neighbors, send + receive each: 4 message handlings per cycle
        // for interior nodes.
        return 4.0 * c.cpu_cost(p.bytes_per_message);
    case CommPattern::AllGather:
        // Bruck's allgather: on each side ceil(log2 n) messages, which
        // carry (n-1)/n of the vector once in all.
        return 2.0 * (allgather_rounds(active_nodes) * c.cpu_per_msg_s +
                      c.cpu_per_byte_s * allgather_share(p, active_nodes));
    }
    return 0.0;
}

double comm_wire_per_cycle(const CommCosts& c, const PhaseComm& p,
                           int active_nodes) {
    if (active_nodes == 1) return 0.0;
    switch (p.pattern) {
    case CommPattern::None:
        return 0.0;
    case CommPattern::NearestNeighbor:
        // One boundary exchange sits on the critical path; the rest overlaps
        // with computation.  A deliberately conservative (low) estimate: the
        // removal predictor must not talk itself out of beneficial drops by
        // overcharging the smaller configuration.
        return c.wire_time(p.bytes_per_message);
    case CommPattern::AllGather:
        return allgather_rounds(active_nodes) * c.latency_s +
               allgather_share(p, active_nodes) / c.bandwidth_Bps;
    }
    return 0.0;
}

namespace {

constexpr int kPingPongReps = 20;
constexpr std::size_t kSmallMsg = 64;
constexpr std::size_t kLargeMsg = 32 * 1024;
constexpr int kCpuReps = 400; ///< sends per size for /proc-visible CPU cost

// Messages are one zeroed body per burst, sent by reference: CPU, NIC and
// traffic counters price a packet by wire_size(), exactly as for copies.
void send_body(msg::Rank& rank, int peer, int tag,
               const std::vector<sim::SharedBytes>& body) {
    rank.send_wire(peer, msg::make_tag(msg::TagSpace::User, tag), nullptr, 0,
                   body);
}

void recv_body(msg::Rank& rank, int peer, int tag, std::size_t bytes) {
    sim::Packet p =
        rank.recv_wire_packet(peer, msg::make_tag(msg::TagSpace::User, tag));
    DYNMPI_CHECK(p.wire_size() == bytes, "calibration message size mismatch");
}

/// Round-trip wall time per message of `bytes`, averaged over reps.
double pingpong(msg::Rank& rank, int peer, int base_tag, std::size_t bytes,
                bool initiator) {
    const std::vector body{sim::SharedBytes::allocate(bytes, true)};
    double t0 = rank.hrtime();
    for (int i = 0; i < kPingPongReps; ++i) {
        if (initiator) {
            send_body(rank, peer, base_tag + i, body);
            recv_body(rank, peer, base_tag + i, bytes);
        } else {
            recv_body(rank, peer, base_tag + i, bytes);
            send_body(rank, peer, base_tag + i, body);
        }
    }
    return (rank.hrtime() - t0) / (2.0 * kPingPongReps);
}

/// CPU seconds per send of `bytes`, measured with /proc around a burst.
double cpu_per_send(msg::Rank& rank, int peer, int tag, std::size_t bytes) {
    const std::vector body{sim::SharedBytes::allocate(bytes, true)};
    double c0 = rank.proc_cpu_time();
    for (int i = 0; i < kCpuReps; ++i) send_body(rank, peer, tag, body);
    return (rank.proc_cpu_time() - c0) / kCpuReps;
}

void drain(msg::Rank& rank, int peer, int tag, std::size_t bytes, int count) {
    for (int i = 0; i < count; ++i) recv_body(rank, peer, tag, bytes);
}

}  // namespace

CommCosts calibrate_comm_costs(msg::Rank& rank, const msg::Group& group) {
    DYNMPI_REQUIRE(group.contains(rank.id()), "calibration by non-member");
    CommCosts fitted;
    const int rel = group.index_of(rank.id());

    if (group.size() >= 2 && rel < 2) {
        const int peer = group.member(rel == 0 ? 1 : 0);
        const bool initiator = rel == 0;
        // One-way time model: t(b) = latency + b/bandwidth + 2*cpu(b).
        // We fold CPU into the wire fit first, then measure CPU separately
        // and unfold it.
        double t_small = pingpong(rank, peer, 1000, kSmallMsg, initiator);
        double t_large = pingpong(rank, peer, 2000, kLargeMsg, initiator);

        double cpu_small, cpu_large;
        if (initiator) {
            cpu_small = cpu_per_send(rank, peer, 3000, kSmallMsg);
            cpu_large = cpu_per_send(rank, peer, 3001, kLargeMsg);
        } else {
            drain(rank, peer, 3000, kSmallMsg, kCpuReps);
            drain(rank, peer, 3001, kLargeMsg, kCpuReps);
            cpu_small = cpu_large = 0.0;
        }

        if (initiator) {
            fitted.cpu_per_byte_s =
                std::max(0.0, (cpu_large - cpu_small) /
                                  static_cast<double>(kLargeMsg - kSmallMsg));
            fitted.cpu_per_msg_s = std::max(
                0.0, cpu_small - fitted.cpu_per_byte_s * kSmallMsg);

            double per_byte =
                (t_large - t_small) / static_cast<double>(kLargeMsg - kSmallMsg);
            // Remove the CPU-per-byte contribution (sender + receiver) from
            // the apparent per-byte time to recover wire bandwidth.
            double wire_per_byte =
                std::max(1e-12, per_byte - 2.0 * fitted.cpu_per_byte_s);
            fitted.bandwidth_Bps = 1.0 / wire_per_byte;
            fitted.latency_s = std::max(
                1e-9, t_small - kSmallMsg * per_byte -
                          2.0 * fitted.cpu_per_msg_s);
        }
    }

    // Rank 0 announces its fit to the whole group.
    std::vector<double> packed{fitted.latency_s, fitted.bandwidth_Bps,
                               fitted.cpu_per_msg_s, fitted.cpu_per_byte_s};
    msg::bcast(rank, group, 0, packed);
    DYNMPI_CHECK(packed.size() == 4, "bad calibration broadcast");
    return CommCosts{packed[0], packed[1], packed[2], packed[3]};
}

}  // namespace dynmpi
