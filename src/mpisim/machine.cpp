#include "mpisim/machine.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <sstream>
#include <utility>

#include "mpisim/rank.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace dynmpi::msg {

Machine::Machine(sim::ClusterConfig config) : cluster_(std::move(config)) {
    cluster_.network().set_delivery_handler(
        [this](sim::Packet&& p) { on_delivery(std::move(p)); });
    cluster_.set_crash_handler([this](int node) { on_node_crash(node); });
    cluster_.set_revive_handler([this](int node) { on_node_revive(node); });
}

Machine::~Machine() {
    // If run() threw before its own shutdown, no rank thread may be left
    // parked on its semaphore.
    shutdown();
}

Machine::RankState& Machine::state(int r) {
    DYNMPI_CHECK(r >= 0 && r < static_cast<int>(ranks_.size()), "bad rank");
    return *ranks_[static_cast<std::size_t>(r)];
}

void Machine::run(std::function<void(Rank&)> fn) {
    DYNMPI_REQUIRE(!started_, "a Machine runs exactly one program");
    started_ = true;
    program_ = std::move(fn); // kept beyond this frame: revived ranks rerun it
#ifdef __GLIBC__
    // Only the baton holder runs, so per-thread malloc arenas buy no
    // concurrency and only fragment memory.
    mallopt(M_ARENA_MAX, 1);
#endif

    const int n = num_ranks();
    ranks_.reserve(static_cast<std::size_t>(n));
    incarnation_.assign(static_cast<std::size_t>(n), 0);
    for (int r = 0; r < n; ++r)
        ranks_.push_back(std::make_unique<RankState>());

    for (int r = 0; r < n; ++r) {
        spawn_rank_thread(r);
        // Kick every rank off at t=0.
        cluster_.engine().at(0, [this, r] { resume_rank(r); });
    }

    // Dispatch until a rank takes the baton; it comes back here whenever a
    // rank ends or unwinds, and for good once no strong events remain (weak
    // background events — daemons, load bursts — never keep the run alive).
    for (int next = dispatch(); next != kMain; next = dispatch()) {
        hand_to(next);
        main_wake_.acquire();
    }

    // Any rank not Done is deadlocked (blocked with no wake event) — tear
    // them down and report.
    std::vector<int> stuck;
    for (int r = 0; r < n; ++r)
        if (state(r).phase != RankPhase::Done) stuck.push_back(r);
    shutdown();
    if (engine_error_) std::rethrow_exception(engine_error_);

    elapsed_ = sim::to_seconds(cluster_.engine().now());
    export_observability();

    for (auto& rs : ranks_)
        if (rs->error) std::rethrow_exception(rs->error);

    if (!stuck.empty()) {
        std::ostringstream os;
        os << "deadlock: event queue drained with blocked ranks:";
        for (int r : stuck) os << ' ' << r;
        if (cluster_.crashed_count() > 0) {
            os << " (crashed nodes:";
            for (int i = 0; i < cluster_.size(); ++i)
                if (cluster_.node_crashed(i)) os << ' ' << i;
            os << " — a fault landed outside the recoverable window; see"
                  " docs/FAULTS.md)";
        }
        throw Error(os.str());
    }
}

void Machine::export_observability() {
    // One shot per run, after the clock stops: delivered-traffic totals by
    // tag space plus the engine's event-queue stats.  Counters accumulate
    // across Machines in one process (bench sweeps); gauges are last-run.
    sim::Engine& eng = cluster_.engine();
    if (support::metrics().enabled()) {
        auto& mx = support::metrics();
        static const char* const kSpace[3] = {"user", "collective",
                                              "runtime"};
        for (std::size_t s = 0; s < 3; ++s) {
            mx.counter(std::string("machine.messages.") + kSpace[s])
                .add(traffic_.messages[s]);
            mx.counter(std::string("machine.bytes.") + kSpace[s])
                .add(traffic_.bytes[s]);
        }
        mx.counter("machine.messages.control").add(traffic_.control_messages);
        mx.counter("machine.bytes.control").add(traffic_.control_bytes);
        mx.counter("machine.runs").add(1);
        mx.gauge("machine.elapsed_s").set(elapsed_);
        mx.counter("sim.events_fired").add(eng.events_fired());
        mx.gauge("sim.peak_pending_events")
            .set(static_cast<double>(eng.peak_pending_events()));
        mx.gauge("sim.pending_events")
            .set(static_cast<double>(eng.pending_events()));
    }
    if (support::trace().enabled()) {
        using support::targ;
        support::trace().instant(
            elapsed_, /*rank=*/-1, "machine.run_end",
            {targ("elapsed_s", elapsed_),
             targ("messages", traffic_.total_messages()),
             targ("bytes", traffic_.total_bytes()),
             targ("control_messages", traffic_.control_messages),
             targ("events_fired", eng.events_fired()),
             targ("peak_pending_events",
                  static_cast<std::uint64_t>(eng.peak_pending_events()))});
    }
}

void Machine::spawn_rank_thread(int r) {
    RankState& rs = state(r);
    rs.thread = std::thread([this, &rs, r] {
        rs.wake.acquire(); // the first resume
        if (!aborting_) {
            Rank rank(*this, r);
            try {
                program_(rank);
            } catch (const MachineAborted&) {
                // torn down deliberately; not an error of its own
            } catch (const NodeCrashed&) {
                // this rank's node died; the process just stops existing
            } catch (...) {
                rs.error = std::current_exception();
            }
        }
        rs.phase = RankPhase::Done;
        hand_to(kMain); // never dispatch from a thread that is about to exit
    });
}

void Machine::on_node_revive(int node) {
    // Event context.  The dead incarnation's thread unwound via NodeCrashed
    // when its crash wake fired (strictly before this event) and handed the
    // baton to the main thread, so this never runs on the thread it joins.
    // Reap it and start a fresh incarnation that reruns the program.
    if (!started_) return;
    RankState* old = ranks_[static_cast<std::size_t>(node)].get();
    DYNMPI_CHECK(old->phase == RankPhase::Done,
                 "revive of a rank that has not unwound");
    if (old->thread.joinable()) old->thread.join();
    if (old->error) {
        // A real error (not NodeCrashed) must not be silently discarded by
        // the state swap; keep the old state so run() rethrows it.
        return;
    }
    // Packets addressed to the dead incarnation died with it: fresh state,
    // fresh mailbox.  Deferred wakes from the old incarnation are dropped by
    // the incarnation guard.
    ++incarnation_[static_cast<std::size_t>(node)];
    ranks_[static_cast<std::size_t>(node)] = std::make_unique<RankState>();
    spawn_rank_thread(node);
    resume_rank(node);
}

void Machine::resume_rank_inc(int r, std::uint64_t inc) {
    if (inc != incarnation_[static_cast<std::size_t>(r)]) return;
    resume_rank(r);
}

void Machine::resume_rank(int r) {
    RankState& rs = state(r);
    if (rs.phase == RankPhase::Done && cluster_.node_crashed(r)) {
        // A stale wake (batch completion, matched recv) aimed at a rank
        // whose node has since crashed and unwound.  Nothing to resume.
        return;
    }
    DYNMPI_CHECK(rs.phase != RankPhase::Done, "resume of finished rank");
    // Recording the runner is exact only because every resume is the last
    // action of its event (Cpu::finish_batch, the network delivery, sleep
    // timers, on_node_revive): dispatch() stops before another event runs.
    DYNMPI_CHECK(next_ == kMain, "second resume pending in one event");
    rs.phase = RankPhase::Running;
    next_ = r;
}

int Machine::dispatch() {
    sim::Engine& eng = cluster_.engine();
    try {
        while (next_ == kMain && !engine_error_ && eng.has_strong())
            eng.step();
    } catch (...) {
        // run() rethrows it on the main thread, whichever thread hit it.
        engine_error_ = std::current_exception();
        next_ = kMain;
    }
    return std::exchange(next_, kMain);
}

void Machine::hand_to(int next) {
    (next == kMain ? main_wake_ : state(next).wake).release();
}

void Machine::yield_from_rank(int r) {
    if (aborting_) throw MachineAborted{};
    RankState& rs = state(r);
    rs.phase = RankPhase::Blocked;
    const int next = dispatch();
    if (next != r) { // else an event resumed r itself: no switch at all
        hand_to(next);
        rs.wake.acquire();
        if (aborting_) throw MachineAborted{};
    }
    // The single crash delivery point: a crash can only land while this rank
    // is blocked, so checking on every wake-up is both sufficient and exact.
    if (cluster_.node_crashed(r)) throw NodeCrashed{};
}

void Machine::shutdown() {
    aborting_ = true;
    for (auto& rs : ranks_) {
        if (rs->phase == RankPhase::Done || !rs->thread.joinable()) continue;
        // The rank throws MachineAborted, unwinds, marks Done and hands the
        // baton back.
        rs->wake.release();
        main_wake_.acquire();
    }
    for (auto& rs : ranks_)
        if (rs->thread.joinable()) rs->thread.join();
}

void Machine::on_node_crash(int node) {
    // Event context: no rank code is running, so rank states are quiescent.
    if (ranks_.empty()) return; // cluster faults without a running program
    sim::Engine& eng = cluster_.engine();
    // Every crash starts a new revocation epoch: survivors stranded in a
    // protocol round that still counts the dead node must abandon it, even
    // when their current recv targets a live peer.
    ++revoke_epoch_;
    for (int r = 0; r < static_cast<int>(ranks_.size()); ++r) {
        RankState& rs = state(r);
        if (rs.phase != RankPhase::Blocked) continue;
        if (r == node) {
            // Wake the dying rank so it can unwind via NodeCrashed — whether
            // it was blocked in a recv, a compute, or a sleep.
            rs.recv_waiting = false;
            eng.at(eng.now(), [this, r] { resume_rank(r); });
        } else if (rs.recv_waiting &&
                   rs.recv_space !=
                       static_cast<std::int64_t>(TagSpace::User)) {
            // Control-plane recv: revoke so the recovery loop retries on an
            // epoch-salted group.
            rs.recv_waiting = false;
            rs.revoked = true;
            eng.at(eng.now(), [this, r] { resume_rank(r); });
        } else if (rs.recv_waiting && rs.recv_src == node) {
            // A survivor waiting specifically on the dead node gets a local
            // failure notification instead of hanging forever.
            rs.recv_waiting = false;
            rs.peer_failed = true;
            rs.failed_peer = node;
            eng.at(eng.now(), [this, r] { resume_rank(r); });
        }
    }
}

void Machine::revoke_control_recvs() {
    // Rank context: the caller holds the baton, every other rank is parked.
    ++revoke_epoch_;
    sim::Engine& eng = cluster_.engine();
    for (int r = 0; r < static_cast<int>(ranks_.size()); ++r) {
        RankState& rs = state(r);
        if (rs.phase != RankPhase::Blocked || !rs.recv_waiting) continue;
        if (rs.recv_space == static_cast<std::int64_t>(TagSpace::User))
            continue; // user-plane traffic is never revoked
        rs.recv_waiting = false;
        rs.revoked = true;
        eng.at(eng.now(), [this, r] { resume_rank(r); });
    }
}

void Machine::on_delivery(sim::Packet&& p) {
    const int dst = p.dst;
    if (p.control) {
        ++traffic_.control_messages;
        traffic_.control_bytes += p.payload.size();
    } else {
        auto space = static_cast<std::size_t>(tag_space(p.tag));
        DYNMPI_CHECK(space < 3, "unknown tag space");
        ++traffic_.messages[space];
        traffic_.bytes[space] += p.payload.size();
    }
    RankState& rs = state(dst);
    if (rs.recv_waiting) {
        bool src_ok = rs.recv_src == kAnySource || rs.recv_src == p.src;
        bool tag_ok =
            rs.recv_any_tag
                ? (rs.recv_space < 0 ||
                   static_cast<std::int64_t>(tag_space(p.tag)) ==
                       rs.recv_space)
                : p.tag == rs.recv_tag;
        if (src_ok && tag_ok) {
            rs.recv_waiting = false;
            rs.recv_result = std::move(p);
            // A blocked process that becomes runnable on a loaded node waits
            // for the scheduler (wake-up latency).
            double delay = cluster_.node(dst).cpu().next_wake_delay();
            if (delay > 0.0) {
                std::uint64_t inc = incarnation(dst);
                cluster_.engine().after(
                    sim::from_seconds(delay),
                    [this, dst, inc] { resume_rank_inc(dst, inc); });
            } else {
                resume_rank(dst);
            }
            return;
        }
    }
    rs.mailbox.push_back(std::move(p));
}

}  // namespace dynmpi::msg
