/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark measures each layer from outside: a Span opens around
 * a call into one layer's public API and closes when the call returns.
 * A span records its name, start, end and parent; names are
 * "<layer>.<what>" (e.g. "sim.run" around runtime::Runtime::runPrograms),
 * so a layer's self time is the sum over its spans of the span's
 * duration minus the time its direct children cover.
 *
 * Recording is off unless enabled, and a disabled Span costs one
 * branch, so the untimed and end-to-end passes run the same code.
 * Spans stay in memory until writeChromeTrace() dumps them after the
 * measurement.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One closed span. */
struct SpanRecord
{
    const char *name;      ///< "<layer>.<what>", a string literal
    std::int64_t startNs;  ///< since the recorder's origin
    std::int64_t endNs;
    std::int32_t parent;   ///< index of the enclosing span, -1 at top
};

/** Inclusive and self time of every span name and layer. */
struct SpanTotals
{
    /** Inclusive seconds per span name. */
    std::map<std::string, double> inclusive;
    /** Self seconds per layer (span minus its direct children). */
    std::map<std::string, double> self;
};

/** Process-wide span recorder (single-threaded use). */
class Spans
{
  public:
    static Spans &instance();

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (or -1 when disabled). */
    std::int32_t open(const char *name);
    void close(std::int32_t index);

    /** Totals over every recorded span. */
    SpanTotals totals() const;

    /** Write all spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Spans();

    bool enabled_ = false;
    Clock::time_point origin_;
    std::int32_t current_ = -1;
    std::vector<SpanRecord> records_;
};

/** RAII span around one call. */
class Span
{
  public:
    explicit Span(const char *name)
        : index_(Spans::instance().enabled() ? Spans::instance().open(name)
                                             : -1)
    {
    }

    ~Span()
    {
        if (index_ >= 0)
            Spans::instance().close(index_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::int32_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
