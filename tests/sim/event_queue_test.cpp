#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace dynmpi::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInScheduleOrder) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) q.schedule(5, [&, i] { order.push_back(i); });
    while (!q.empty()) q.pop().fn();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
    EventQueue q;
    bool fired = false;
    auto id = q.schedule(10, [&] { fired = true; });
    q.cancel(id);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
    EventQueue q;
    q.schedule(1, [] {});
    q.cancel(9999);  // never scheduled
    q.cancel(0);     // reserved null id
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(1, [&] { order.push_back(1); });
    auto id = q.schedule(2, [&] { order.push_back(2); });
    q.schedule(3, [&] { order.push_back(3); });
    q.cancel(id);
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeReportsEarliestLive) {
    EventQueue q;
    auto early = q.schedule(5, [] {});
    q.schedule(9, [] {});
    EXPECT_EQ(q.next_time(), 5);
    q.cancel(early);
    EXPECT_EQ(q.next_time(), 9);
}

TEST(EventQueue, RejectsNegativeTime) {
    EventQueue q;
    EXPECT_THROW(q.schedule(-1, [] {}), dynmpi::Error);
}

TEST(EventQueue, PopOnEmptyThrows) {
    EventQueue q;
    EXPECT_THROW(q.pop(), dynmpi::Error);
}

TEST(EventQueue, SizeExcludesCancelled) {
    EventQueue q;
    auto a = q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelFiredIdIsNoop) {
    EventQueue q;
    auto fired = q.schedule(1, [] {});
    q.pop();
    q.cancel(fired);
    EXPECT_EQ(q.size(), 0u);
    EXPECT_TRUE(q.empty());
    q.schedule(2, [] {});
    q.schedule(3, [] {});
    q.cancel(fired);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.strong_count(), 2u);
}

TEST(EventQueue, CancelTwiceIsNoop) {
    EventQueue q;
    auto a = q.schedule(1, [] {});
    q.schedule(2, [] {}, /*weak=*/true);
    q.cancel(a);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.strong_count(), 0u);
    EXPECT_EQ(q.next_time(), 2);
}

}  // namespace
}  // namespace dynmpi::sim
