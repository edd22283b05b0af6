// SPMD machine: runs one rank thread per simulated node under the engine.
//
// Concurrency model (SimGrid-style conservative co-simulation): rank code
// runs on real std::threads, but only the holder of a single "baton" runs —
// the main thread (the caller of run()) or one rank — and the holder also
// runs the event loop.  A rank that blocks (compute / recv / sleep)
// dispatches events until one resumes a rank: if that is itself it just
// continues, with no context switch; otherwise it releases that rank's
// semaphore and sleeps on its own.  Resuming only records the next runner,
// which is exact because every resume is the last action of its event.  The
// main thread takes the baton back once no strong events remain, and from
// every rank whose program ends or unwinds: a dying thread never dispatches,
// so a revive never joins its own thread.  The semaphore handoffs order all
// state, so runs are data-race-free by construction and fully deterministic.
// Since only one thread ever runs, run() confines its caller to the CPU it is
// on (Linux only) before spawning rank threads; they, and every incarnation a
// revive starts, inherit that mask, so each handoff is a same-CPU switch
// rather than a cross-CPU wake-up.  The caller's mask comes back however
// run() exits.
//
// Misbehaving programs are diagnosed rather than hung: if the event queue
// drains while ranks are still blocked, the machine aborts them and throws a
// deadlock Error naming the stuck ranks.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "mpisim/tags.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"

namespace dynmpi::msg {

/// Whether packet `p` satisfies a receive posted for source `src` (or
/// kAnySource) and wire tag `tag`; `any_tag` accepts every tag in `tag`'s
/// space.
inline bool packet_matches(const sim::Packet& p, int src, std::uint64_t tag,
                           bool any_tag) {
    bool src_ok = src == kAnySource || src == p.src;
    bool tag_ok = any_tag ? tag_space(p.tag) == tag_space(tag) : p.tag == tag;
    return src_ok && tag_ok;
}

class Rank;

/// Thrown inside rank code when the machine tears a blocked rank down
/// (deadlock recovery or a sibling rank's failure).  User code should not
/// catch it.
class MachineAborted : public std::exception {
public:
    const char* what() const noexcept override {
        return "simulation machine aborted";
    }
};

/// Thrown inside rank code when its *own* node crashes: the rank unwinds and
/// its thread exits quietly, matching a process that simply stops existing.
/// User code should not catch it.
class NodeCrashed : public std::exception {
public:
    const char* what() const noexcept override { return "node crashed"; }
};

/// Thrown from a receive that targets (or is woken by the crash of) a failed
/// peer — ULFM-style local error semantics.  Recovery code catches this,
/// revokes in-flight control-plane traffic, and retries on an epoch-salted
/// protocol group.
class PeerFailure : public std::exception {
public:
    explicit PeerFailure(int peer) : peer_(peer) {}
    int peer() const { return peer_; }
    const char* what() const noexcept override { return "peer rank failed"; }

private:
    int peer_ = -1;
};

/// Thrown from non-user-tag receives posted (or pending) across a control
/// revocation — the signal that a failure-recovery epoch has started and the
/// current protocol round must be abandoned and retried.
class EpochRevoked : public std::exception {
public:
    const char* what() const noexcept override {
        return "control epoch revoked";
    }
};

class Machine {
public:
    explicit Machine(sim::ClusterConfig config);
    ~Machine();

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    sim::Cluster& cluster() { return cluster_; }
    int num_ranks() const { return cluster_.size(); }

    /// Run `fn` as an SPMD program, one instance per rank, to completion.
    /// Blocks the calling thread; rethrows an exception thrown by an engine
    /// event, else the first rank failure; throws Error on deadlock.
    /// One-shot: a Machine runs one program.
    void run(std::function<void(Rank&)> fn);

    /// Total virtual time consumed by the program (valid after run()).
    double elapsed_seconds() const { return elapsed_; }

    /// Delivered-traffic accounting, split by tag namespace (user traffic vs
    /// collectives vs Dyn-MPI runtime) and data vs control plane.
    struct TrafficStats {
        std::uint64_t messages[3] = {0, 0, 0}; ///< indexed by TagSpace
        std::uint64_t bytes[3] = {0, 0, 0};
        std::uint64_t control_messages = 0;
        std::uint64_t control_bytes = 0;

        std::uint64_t total_messages() const {
            return messages[0] + messages[1] + messages[2];
        }
        std::uint64_t total_bytes() const {
            return bytes[0] + bytes[1] + bytes[2];
        }
    };
    const TrafficStats& traffic() const { return traffic_; }

    /// Count of control revocations so far (bumped by node crashes and by
    /// Rank::revoke_control).  Failure-recovery protocols salt their groups
    /// with this so abandoned rounds can never be confused with retries.
    std::uint64_t revoke_epoch() const { return revoke_epoch_; }

private:
    friend class Rank;

    enum class RankPhase { Idle, Running, Blocked, Done };

    struct RankState {
        std::binary_semaphore wake{0}; ///< released to hand this rank the baton
        RankPhase phase = RankPhase::Idle;
        std::exception_ptr error;
        std::thread thread; ///< after the members it uses

        // Mailbox of delivered-but-unmatched packets.
        std::deque<sim::Packet> mailbox;

        // Pending blocking receive, if any.
        bool recv_waiting = false;
        int recv_src = kAnySource;
        std::uint64_t recv_tag = 0;
        bool recv_any_tag = false;
        sim::Packet recv_result;

        // Failure-delivery flags, set by the engine before a forced resume.
        bool peer_failed = false; ///< woken because recv_src crashed
        int failed_peer = -1;
        bool revoked = false; ///< woken by revoke_control_recvs
        std::uint64_t seen_revoke = 0; ///< last revocation epoch observed
    };

    static constexpr int kMain = -1; ///< baton target: the main thread

    // ---- event context (whichever thread holds the baton) ----
    void export_observability();       ///< push traffic/engine stats to the
                                       ///< metrics registry + trace sink
    void resume_rank(int r);           ///< make rank r the next baton holder
    /// Incarnation-guarded resume for deferred wakes (sleep timers, delayed
    /// deliveries): dropped if the rank was revived since the wake was
    /// scheduled, so a dead incarnation's timers cannot fire into the new one.
    void resume_rank_inc(int r, std::uint64_t inc);
    std::uint64_t incarnation(int r) const {
        return incarnation_[static_cast<std::size_t>(r)];
    }
    void on_delivery(sim::Packet&& p); ///< network upcall (engine context)
    void on_node_crash(int node);      ///< cluster crash handler
    void on_node_revive(int node);     ///< cluster revive handler: restart the
                                       ///< rank with a fresh incarnation
    void spawn_rank_thread(int r);     ///< start rank r's thread running program_

    // ---- baton holder ----
    /// Run events until one resumes a rank; returns that rank, or kMain once
    /// no strong events remain or an event threw.
    int dispatch();
    void hand_to(int next); ///< release the baton to rank `next` or kMain
    void shutdown(); ///< main thread: abort unfinished ranks, join all threads
    void yield_from_rank(int r); ///< block rank r until an event resumes it
    RankState& state(int r);

    /// Start a new control revocation epoch: every rank blocked in a
    /// collective- or runtime-tag receive is woken with EpochRevoked so
    /// recovery protocols can restart on an epoch-salted group.  Called from
    /// rank context (the caller holds the baton) by Rank::revoke_control.
    void revoke_control_recvs();

    sim::Cluster cluster_;
    std::function<void(Rank&)> program_; ///< kept for rank restarts (revive)
    std::vector<std::uint64_t> incarnation_; ///< bumped per rank revival

    std::binary_semaphore main_wake_{0}; ///< hands the baton to the main thread
    int next_ = kMain; ///< rank resumed by the event being dispatched
    std::exception_ptr engine_error_; ///< first exception thrown by an event
    bool aborting_ = false;
    bool started_ = false;
    double elapsed_ = 0.0;
    TrafficStats traffic_;
    std::uint64_t revoke_epoch_ = 0;
    std::vector<std::unique_ptr<RankState>> ranks_; ///< last: threads use all
};

}  // namespace dynmpi::msg
