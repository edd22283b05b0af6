#include "sim/event_queue.hpp"

#include "support/error.hpp"

namespace dynmpi::sim {

EventId EventQueue::schedule(SimTime t, std::function<void()> fn, bool weak) {
    DYNMPI_REQUIRE(t >= 0, "event time must be non-negative");
    EventId id = next_id_++;
    heap_.push(Entry{t, id, std::move(fn)});
    live_.emplace(id, weak);
    if (!weak) ++strong_;
    return id;
}

void EventQueue::cancel(EventId id) {
    auto it = live_.find(id);
    if (it == live_.end()) return; // fired, cancelled or never scheduled
    if (!it->second) --strong_;
    live_.erase(it);
}

void EventQueue::drop_cancelled_head() const {
    while (!heap_.empty() && !live_.contains(heap_.top().id)) heap_.pop();
}

bool EventQueue::empty() const {
    drop_cancelled_head();
    return heap_.empty();
}

SimTime EventQueue::next_time() const {
    drop_cancelled_head();
    DYNMPI_REQUIRE(!heap_.empty(), "next_time on empty queue");
    return heap_.top().time;
}

EventQueue::Fired EventQueue::pop() {
    drop_cancelled_head();
    DYNMPI_REQUIRE(!heap_.empty(), "pop on empty queue");
    // priority_queue::top() is const; the entry is about to be popped, so
    // moving the callback out is safe.
    Entry& top = const_cast<Entry&>(heap_.top());
    Fired f{top.time, std::move(top.fn)};
    auto it = live_.find(top.id);
    if (!it->second) --strong_;
    live_.erase(it);
    heap_.pop();
    return f;
}

}  // namespace dynmpi::sim
