#include "sim/event_queue.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/trace_event.hh"

namespace cosmos::sim
{

namespace
{

/** Min-heap order on (when, seq) for the std heap algorithms. */
template <class Key>
bool
later(const Key &a, const Key &b)
{
    if (a.when != b.when)
        return a.when > b.when;
    return a.seq > b.seq;
}

} // namespace

EventQueue::~EventQueue()
{
    for (Slot &s : slots_)
        if (s.ops != nullptr)
            s.ops->destroy(s.bytes);
}

void
EventQueue::checkNotPast(Tick when) const
{
    cosmos_assert(when >= now_, "scheduling into the past: when=", when,
                  " now=", now_);
}

std::uint32_t
EventQueue::acquireSlot()
{
    if (free_.empty())
        growSlots(slots_.empty() ? 64 : 2 * slots_.size());
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
}

void
EventQueue::growSlots(std::size_t n)
{
    const std::size_t old = slots_.size();
    if (n <= old)
        return;
    std::vector<Slot> bigger(n);
    for (std::size_t i = 0; i < old; ++i) {
        if (const Ops *ops = slots_[i].ops) {
            ops->relocate(bigger[i].bytes, slots_[i].bytes);
            bigger[i].ops = ops;
        }
    }
    slots_ = std::move(bigger);
    // Every slot may be free at once; reserving here keeps runOne's
    // push_back allocation-free.
    free_.reserve(n);
    for (std::size_t i = n; i-- > old;)
        free_.push_back(static_cast<std::uint32_t>(i));
}

void
EventQueue::push(Key k)
{
    heap_.push_back(k);
    std::push_heap(heap_.begin(), heap_.end(), later<Key>);
    if (heap_.size() > maxPending_)
        maxPending_ = heap_.size();
}

void
EventQueue::reserve(std::size_t n)
{
    heap_.reserve(n);
    growSlots(n);
}

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), later<Key>);
    const Key top = heap_.back();
    heap_.pop_back();
    now_ = top.when;
    ++executed_;
    // Free the slot before the handler runs: fire() moves the callable
    // out first, so the handler may reuse the slot or grow the pool.
    Slot &s = slots_[top.slot];
    const Ops *ops = s.ops;
    s.ops = nullptr;
    free_.push_back(top.slot);
    ops->fire(s.bytes);
    return true;
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    const obs::Span span("sim.run");
    std::uint64_t n = 0;
    while (n < max_events && runOne())
        ++n;
    return n;
}

void
EventQueue::publishMetrics(obs::Registry &reg,
                           const std::string &prefix) const
{
    reg.counter(prefix + ".events_executed").add(executed_);
    auto &depth = reg.gauge(prefix + ".queue_depth");
    depth.set(static_cast<std::int64_t>(maxPending_));
    depth.set(static_cast<std::int64_t>(pending()));
}

} // namespace cosmos::sim
