#include "obs/trace_event.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/log.hh"

namespace cosmos::obs
{

namespace detail
{
std::atomic<bool> tracing_active{false};
}

namespace
{

/** Spans kept per thread; later ones are counted as dropped.
 *  64Ki spans ~= 3.5 MB per thread. */
constexpr std::size_t buffer_capacity = std::size_t{1} << 16;

struct Event
{
    const char *name;
    const char *k0; ///< null = no argument
    const char *k1;
    std::uint64_t ts;  ///< ns since the trace epoch
    std::uint64_t dur; ///< ns
    std::uint64_t a0;
    std::uint64_t a1;
};

/** One thread's recorder. Appends come only from the owning thread;
 *  the mutex exists so start/flush from other threads are race-free. */
struct ThreadBuffer
{
    std::mutex mutex;
    std::vector<Event> events;
    std::uint64_t dropped = 0;
    int tid = 0;

    void
    append(const Event &e)
    {
        std::lock_guard<std::mutex> guard(mutex);
        if (events.size() < buffer_capacity)
            events.push_back(e);
        else
            ++dropped;
    }
};

struct BufferRegistry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    int nextTid = 1;
};

BufferRegistry &
registry()
{
    static BufferRegistry *r = new BufferRegistry; // leaked on exit:
    // thread-local buffers may flush during static destruction.
    return *r;
}

ThreadBuffer &
myBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buf = [] {
        auto b = std::make_shared<ThreadBuffer>();
        BufferRegistry &r = registry();
        std::lock_guard<std::mutex> guard(r.mutex);
        b->tid = r.nextTid++;
        r.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

std::chrono::steady_clock::time_point
epoch()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

/** Nanoseconds since the process-wide trace epoch. */
std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch())
            .count());
}

} // namespace

void
Span::open(const char *name, const char *arg_name0, std::uint64_t arg0,
           const char *arg_name1, std::uint64_t arg1)
{
    name_ = name;
    argName0_ = arg_name0;
    arg0_ = arg0;
    argName1_ = arg_name1;
    arg1_ = arg1;
    start_ = nowNs();
}

void
Span::close()
{
    const std::uint64_t end = nowNs();
    myBuffer().append(Event{name_, argName0_, argName1_, start_,
                            end - start_, arg0_, arg1_});
}

void
startTracing()
{
    epoch(); // pin the epoch before the first span
    BufferRegistry &r = registry();
    {
        std::lock_guard<std::mutex> guard(r.mutex);
        for (auto &b : r.buffers) {
            std::lock_guard<std::mutex> bguard(b->mutex);
            b->events.clear();
            b->dropped = 0;
        }
    }
    detail::tracing_active.store(true, std::memory_order_relaxed);
}

bool
writeTrace(const std::string &path)
{
    detail::tracing_active.store(false, std::memory_order_relaxed);

    // Drain every buffer, tagging each span with its tid: a later
    // writeTrace() must not re-emit these.
    struct Tagged
    {
        Event e;
        int tid;
    };
    std::vector<Tagged> events;
    std::uint64_t dropped = 0;
    {
        BufferRegistry &r = registry();
        std::lock_guard<std::mutex> guard(r.mutex);
        for (const auto &b : r.buffers) {
            std::lock_guard<std::mutex> bguard(b->mutex);
            for (const Event &e : b->events)
                events.push_back({e, b->tid});
            dropped += b->dropped;
            b->events.clear();
            b->dropped = 0;
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Tagged &a, const Tagged &b) {
                         return a.e.ts < b.e.ts;
                     });

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        cosmos_warn("cannot write trace to ", path);
        return false;
    }

    auto us = [](std::uint64_t ns) {
        return static_cast<double>(ns) / 1000.0;
    };
    std::fprintf(f, "{\n\"traceEvents\": [");
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Event &e = events[i].e;
        // The category is the name's layer: "replay" for "replay.cell".
        const int layer =
            static_cast<int>(std::strcspn(e.name, "."));
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%.*s\", "
                     "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                     "\"pid\": 1, \"tid\": %d",
                     i ? "," : "", e.name, layer, e.name, us(e.ts),
                     us(e.dur), events[i].tid);
        if (e.k0 != nullptr || e.k1 != nullptr) {
            std::fprintf(f, ", \"args\": {");
            bool first = true;
            if (e.k0 != nullptr) {
                std::fprintf(f, "\"%s\": %llu", e.k0,
                             static_cast<unsigned long long>(e.a0));
                first = false;
            }
            if (e.k1 != nullptr)
                std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ",
                             e.k1,
                             static_cast<unsigned long long>(e.a1));
            std::fprintf(f, "}");
        }
        std::fprintf(f, "}");
    }
    std::fprintf(f,
                 "\n],\n\"displayTimeUnit\": \"ms\",\n"
                 "\"otherData\": {\"dropped_events\": %llu}\n}\n",
                 static_cast<unsigned long long>(dropped));
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok)
        cosmos_warn("short write of trace to ", path);
    return ok;
}

} // namespace cosmos::obs
