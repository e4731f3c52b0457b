/**
 * @file
 * Run-time span tracing to Chrome trace-event JSON.
 *
 * An obs::Span records [construction, destruction) into a per-thread
 * buffer while tracing is on; obs::writeTrace() collects every buffer
 * and writes a Chrome trace-event JSON file that chrome://tracing and
 * https://ui.perfetto.dev load directly.
 *
 * Cost policy (docs/ARCHITECTURE.md "Observability"):
 *
 *  - Off (before startTracing()): one relaxed load and a
 *    predicted-untaken branch per site.
 *  - On: a span costs two steady_clock reads and one append to its
 *    thread's buffer. Each buffer keeps its first 64Ki spans and
 *    counts the rest as dropped.
 *
 * Span names are "<layer>.<what>" (e.g. "replay.cell"); the layer is
 * the event's category. Names and argument names must be string
 * literals (or otherwise live until writeTrace()): spans store the
 * pointers, not copies.
 */

#ifndef COSMOS_OBS_TRACE_EVENT_HH
#define COSMOS_OBS_TRACE_EVENT_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace cosmos::obs
{

namespace detail
{
extern std::atomic<bool> tracing_active;
}

/** True between startTracing() and writeTrace(). */
inline bool
tracingActive()
{
    return detail::tracing_active.load(std::memory_order_relaxed);
}

/** Switch tracing on and discard previously buffered spans. */
void startTracing();

/**
 * Switch tracing off, write every span buffered since startTracing()
 * as Chrome trace-event JSON, and drain the buffers (a second call
 * without a new startTracing() writes an empty document). @return
 * false (with a warning) on I/O failure.
 */
bool writeTrace(const std::string &path);

/** RAII span: records [construction, destruction) when tracing is
 *  on at construction, with up to two named integer arguments. */
class Span
{
  public:
    explicit Span(const char *name, const char *arg_name0 = nullptr,
                  std::uint64_t arg0 = 0,
                  const char *arg_name1 = nullptr,
                  std::uint64_t arg1 = 0)
    {
        if (tracingActive())
            open(name, arg_name0, arg0, arg_name1, arg1);
    }

    ~Span()
    {
        if (name_ != nullptr)
            close();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void open(const char *name, const char *arg_name0,
              std::uint64_t arg0, const char *arg_name1,
              std::uint64_t arg1);
    void close();

    const char *name_ = nullptr; ///< null = inactive span
    const char *argName0_ = nullptr;
    const char *argName1_ = nullptr;
    std::uint64_t arg0_ = 0;
    std::uint64_t arg1_ = 0;
    std::uint64_t start_ = 0;
};

} // namespace cosmos::obs

#endif // COSMOS_OBS_TRACE_EVENT_HH
