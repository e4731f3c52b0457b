/**
 * @file
 * Unit tests of the discrete-event engine: ordering, tie-breaking,
 * time monotonicity, nested scheduling, and bounded runs.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"

namespace cosmos::sim
{
namespace
{

TEST(EventQueue, StartsAtTimeZeroEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&]() { order.push_back(3); });
    eq.scheduleAt(10, [&]() { order.push_back(1); });
    eq.scheduleAt(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(5, [&, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesDuringExecution)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(17, [&]() { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 17u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick fired_at = 0;
    eq.scheduleAt(100, [&]() {
        eq.scheduleAfter(5, [&]() { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(fired_at, 105u);
}

TEST(EventQueue, NestedSchedulingChains)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 100)
            eq.scheduleAfter(1, chain);
    };
    eq.scheduleAt(0, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 99u);
}

TEST(EventQueue, RunHonoursEventLimit)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(i, [&]() { ++fired; });
    EXPECT_EQ(eq.run(4), 4u);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(eq.pending(), 6u);
    eq.run();
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, ExecutedCountsAllEvents)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.scheduleAt(i, []() {});
    eq.run();
    EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueueDeathTest, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.scheduleAt(50, []() {});
    eq.run();
    EXPECT_DEATH(eq.scheduleAt(10, []() {}), "past");
}

TEST(EventQueue, SameTickEventScheduledDuringExecutionRuns)
{
    // An event scheduled for "now" from inside a handler must still
    // fire (after the current event).
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(5, [&]() {
        order.push_back(1);
        eq.scheduleAt(5, [&]() { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ReserveDoesNotAffectSemantics)
{
    EventQueue eq;
    eq.reserve(1000);
    EXPECT_EQ(eq.pending(), 0u);
    std::vector<int> order;
    for (int i = 99; i >= 0; --i)
        eq.scheduleAt(static_cast<Tick>(i),
                      [&order, i]() { order.push_back(i); });
    EXPECT_EQ(eq.pending(), 100u);
    EXPECT_EQ(eq.run(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, HandlerMaySchedulePastItsOwnPop)
{
    // The callable leaves its slot before the handler runs, so a
    // handler that schedules (growing the heap and the slot pool) and
    // then keeps using its own captures must be safe.
    EventQueue eq;
    std::vector<int> order;
    const std::vector<int> payload = {1, 2, 3};
    eq.scheduleAt(1, [&eq, &order, payload]() {
        for (int i = 0; i < 64; ++i)
            eq.scheduleAfter(static_cast<Tick>(i + 1), []() {});
        // Captured state must still be intact after the growth above.
        for (int v : payload)
            order.push_back(v);
    });
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(order, payload);
    EXPECT_EQ(eq.pending(), 64u);
    eq.run();
    EXPECT_EQ(eq.executed(), 65u);
}

TEST(EventQueue, NonTrivialCapturesSurviveSlotPoolGrowth)
{
    // A short std::string points into itself (small-string buffer),
    // so these captures are only intact after the pool grows if
    // growth relocates them by move rather than by copying bytes.
    EventQueue eq;
    std::vector<std::string> seen;
    const std::string small = "sso";
    const std::string large(64, 'x'); // heap-allocated buffer
    std::function<void()> note = [&seen]() { seen.push_back("fn"); };
    eq.scheduleAt(1000, [&seen, small]() { seen.push_back(small); });
    eq.scheduleAt(1000, [&seen, large]() { seen.push_back(large); });
    eq.scheduleAt(1001, std::move(note));
    // Thousands of pending events grow the pool well past its first
    // size, relocating the captures above several times.
    for (int i = 0; i < 5000; ++i)
        eq.scheduleAt(static_cast<Tick>(i % 900), []() {});
    EXPECT_EQ(eq.pending(), 5003u);
    EXPECT_EQ(eq.run(), 5003u);
    EXPECT_EQ(seen, (std::vector<std::string>{small, large, "fn"}));
}

TEST(EventQueue, HandlerMayScheduleIntoTheSlotItJustFreed)
{
    // The only pending event's slot is free (top of the free list)
    // while its handler runs, so the handler's own schedule reuses
    // it. The handler's captures were moved out first and survive.
    EventQueue eq;
    std::vector<std::string> seen;
    eq.scheduleAt(1, [&eq, &seen, mine = std::string(40, 'a')]() {
        eq.scheduleAfter(1, [&seen, next = std::string(40, 'b')]() {
            seen.push_back(next);
        });
        seen.push_back(mine);
    });
    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(seen, (std::vector<std::string>{std::string(40, 'a'),
                                              std::string(40, 'b')}));
}

TEST(EventQueue, PendingCapturesAreDestroyedWithTheQueue)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue eq;
        eq.scheduleAt(1, [token]() {});
        eq.scheduleAt(2, [token]() {});
        EXPECT_EQ(token.use_count(), 3);
        // A fired event destroys its capture; a pending one lives on.
        EXPECT_TRUE(eq.runOne());
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
} // namespace cosmos::sim
