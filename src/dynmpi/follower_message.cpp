#include "dynmpi/follower_message.hpp"

#include "support/error.hpp"
#include "support/wire.hpp"

namespace dynmpi {

std::vector<std::byte> FollowerMessage::encode() const {
    std::vector<std::byte> out;
    wire::Writer w(out);
    w.u8(kFormatVersion).u8(static_cast<std::uint8_t>(kind)).ints(active);
    if (kind == Kind::Steady) return out;
    w.u64(redist_seq).doubles(baseline_loads).ints(quarantined);
    if (kind == Kind::Readd) {
        w.ints(old_counts).ints(new_active).ints(new_counts).doubles(row_costs);
        return out;
    }
    w.u64(next_cycle).u64(sendout_seq).doubles(speeds).doubles(memories);
    w.f64(comm_costs.latency_s).f64(comm_costs.bandwidth_Bps);
    w.f64(comm_costs.cpu_per_msg_s).f64(comm_costs.cpu_per_byte_s);
    w.u32(static_cast<std::uint32_t>(group_seqs.size()));
    for (const auto& [hash, seq] : group_seqs) w.u64(hash).u64(seq);
    return out;
}

FollowerMessage FollowerMessage::decode(const std::vector<std::byte>& bytes) {
    wire::Reader in(bytes);
    FollowerMessage m;
    DYNMPI_REQUIRE(in.u8() == kFormatVersion,
                   "unknown follower message format version");
    const std::uint8_t kind = in.u8();
    DYNMPI_REQUIRE(kind <= static_cast<std::uint8_t>(Kind::Bootstrap),
                   "unknown follower message kind");
    m.kind = static_cast<Kind>(kind);
    m.active = in.ints();
    if (m.kind != Kind::Steady) {
        m.redist_seq = in.u64();
        m.baseline_loads = in.doubles();
        m.quarantined = in.ints();
    }
    if (m.kind == Kind::Readd) {
        m.old_counts = in.ints();
        m.new_active = in.ints();
        m.new_counts = in.ints();
        m.row_costs = in.doubles();
    } else if (m.kind == Kind::Bootstrap) {
        m.next_cycle = in.u64();
        m.sendout_seq = in.u64();
        m.speeds = in.doubles();
        m.memories = in.doubles();
        m.comm_costs = {in.f64(), in.f64(), in.f64(), in.f64()};
        m.group_seqs.resize(in.count(16));
        for (auto& [hash, seq] : m.group_seqs) {
            hash = in.u64();
            seq = in.u64();
        }
    }
    in.finish();
    return m;
}

}  // namespace dynmpi
