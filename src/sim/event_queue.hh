/**
 * @file
 * Deterministic discrete-event simulation core.
 *
 * This is the substrate standing in for the Wisconsin Wind Tunnel II:
 * every timed behaviour in the simulated machine (network delivery,
 * protocol occupancy, memory latency, processor progress) is an event
 * on this queue. Events at equal ticks fire in schedule order, which
 * makes whole-machine runs bit-reproducible.
 *
 * Scheduling allocates nothing once the queue has warmed up. Each
 * pending callable is stored by value in a fixed-size inline slot of
 * a slot pool, with per-type thunks that fire, relocate and destroy
 * it; a binary heap of 24-byte (tick, seq, slot) keys orders the
 * slots. A capture larger than slot_bytes is a compile error, not a
 * silent heap fallback: capture a pointer to larger state instead.
 * There is no calendar queue: the simulated machine keeps fewer than
 * a hundred events pending, so the heap is about six levels deep.
 */

#ifndef COSMOS_SIM_EVENT_QUEUE_HH
#define COSMOS_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"

namespace cosmos::sim
{

/**
 * A time-ordered queue of callback events.
 *
 * Ties at the same tick break by schedule order (FIFO), so a run is a
 * pure function of the schedule calls made into it.
 */
class EventQueue
{
  public:
    /** Largest callable an event may carry, in bytes. The biggest
     *  capture in the tree, a Network<std::string> delivery, fits. */
    static constexpr std::size_t slot_bytes = 48;

    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn, any void() callable of at most slot_bytes,
     *  to run at absolute time @p when (>= now). */
    template <class F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= slot_bytes,
                      "event capture exceeds EventQueue::slot_bytes; "
                      "capture a pointer to the state instead");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned event capture");
        checkNotPast(when);
        const std::uint32_t s = acquireSlot();
        ::new (static_cast<void *>(slots_[s].bytes))
            Fn(std::forward<F>(fn));
        slots_[s].ops = &Thunks<Fn>::ops;
        push(Key{when, nextSeq_++, s});
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <class F>
    void
    scheduleAfter(Tick delay, F &&fn)
    {
        scheduleAt(now_ + delay, std::forward<F>(fn));
    }

    /** Pre-size the heap and the slot pool for @p n pending events. */
    void reserve(std::size_t n);

    /** Fire the earliest event. @return false if the queue was empty. */
    bool runOne();

    /**
     * Run until the queue drains or @p max_events fire.
     * @return number of events executed.
     */
    std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

    /** Number of events currently pending. */
    std::size_t pending() const { return heap_.size(); }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /** High-water mark of pending events (queue depth). */
    std::size_t maxPending() const { return maxPending_; }

    /** Publish execution counters under "<prefix>." (e.g.
     *  "sim.events_executed"). All values are deterministic. */
    void publishMetrics(obs::Registry &reg,
                        const std::string &prefix = "sim") const;

  private:
    /** What the queue needs to know about one stored callable type. */
    struct Ops
    {
        /** Move the callable out of its slot, destroy the slot's copy,
         *  then call it: the slot is free before the handler runs. */
        void (*fire)(void *slot);
        /** Move-construct into @p dst and destroy @p src (pool
         *  growth). */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *slot);
    };

    template <class Fn>
    struct Thunks
    {
        static Fn *
        stored(void *slot)
        {
            return std::launder(static_cast<Fn *>(slot));
        }

        static void
        fire(void *slot)
        {
            Fn fn(std::move(*stored(slot)));
            stored(slot)->~Fn();
            fn();
        }

        static void
        relocate(void *dst, void *src)
        {
            ::new (dst) Fn(std::move(*stored(src)));
            stored(src)->~Fn();
        }

        static void destroy(void *slot) { stored(slot)->~Fn(); }

        static constexpr Ops ops{&fire, &relocate, &destroy};
    };

    struct Slot
    {
        alignas(std::max_align_t) unsigned char bytes[slot_bytes];
        const Ops *ops = nullptr; ///< null while the slot is free
    };

    /** Heap key; ordered by (when, seq), which is unique. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    static_assert(sizeof(Key) == 24);

    void checkNotPast(Tick when) const;
    /** A free slot index, growing the pool when none is left. */
    std::uint32_t acquireSlot();
    /** Grow the pool to @p n slots, relocating the live callables. */
    void growSlots(std::size_t n);
    void push(Key k);

    std::vector<Key> heap_;
    std::vector<Slot> slots_;
    /** Free slot indices, used LIFO. */
    std::vector<std::uint32_t> free_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t maxPending_ = 0;
};

} // namespace cosmos::sim

#endif // COSMOS_SIM_EVENT_QUEUE_HH
