// Deterministic event queue.
//
// Events at equal timestamps fire in schedule order (sequence-number
// tie-breaking), so a simulation run is a pure function of its inputs.
// Cancellation is lazy: a cancelled entry stays in the heap, no longer live,
// and is skipped when it reaches the top.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace dynmpi::sim {

/// Identifier for a scheduled event, usable with cancel().
using EventId = std::uint64_t;

/// Priority queue of (time, seq, action) with stable ordering.
///
/// Events are *strong* by default.  Recurring background activity (daemon
/// ticks, load-burst toggles) is scheduled *weak*: weak events fire normally
/// while the simulation is moving, but a run loop may stop once only weak
/// events remain — otherwise self-rescheduling daemons would keep the clock
/// ticking forever.
class EventQueue {
public:
    /// Schedule `fn` to fire at absolute time `t`.  Returns an id.
    EventId schedule(SimTime t, std::function<void()> fn, bool weak = false);

    /// Number of live strong events.
    std::size_t strong_count() const { return strong_; }

    /// Cancel a previously scheduled event.  Cancelling an already-fired or
    /// unknown id is a no-op.
    void cancel(EventId id);

    /// True when no live events remain.
    bool empty() const;

    /// Time of the earliest live event.  Precondition: !empty().
    SimTime next_time() const;

    /// Pop and return the earliest live event.  Precondition: !empty().
    struct Fired {
        SimTime time;
        std::function<void()> fn;
    };
    Fired pop();

    /// Number of live events.
    std::size_t size() const { return live_.size(); }

private:
    struct Entry {
        SimTime time;
        EventId id;
        std::function<void()> fn;
    };
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const {
            if (a.time != b.time) return a.time > b.time;
            return a.id > b.id;
        }
    };

    void drop_cancelled_head() const;

    mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    // Scheduled ids that have neither fired nor been cancelled, each with its
    // weak flag.  Membership tests and size() only; ordering comes from the
    // heap.
    std::unordered_map<EventId, bool> live_; // dynmpi-lint: ok(unordered-lookup)
    std::size_t strong_ = 0; ///< live strong events
    EventId next_id_ = 1;
};

}  // namespace dynmpi::sim
