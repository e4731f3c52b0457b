/**
 * @file
 * The metrics registry: named, typed runtime metrics with a stable
 * JSON export.
 *
 * Four metric kinds cover the simulator's reporting needs:
 *
 *  - Counter    monotonically increasing uint64 (events dispatched,
 *               messages delivered, tasks stolen);
 *  - Gauge      instantaneous int64 level with a high-water mark
 *               (queue depth, messages in flight);
 *  - Histogram  fixed-bucket distribution with percentile queries
 *               (message latency, probe lengths) -- common/stats.hh;
 *  - Summary    count/mean/min/max/stddev scalar summary
 *               (table load factors) -- common/stats.hh Distribution.
 *
 * Every metric is registered under a dotted name ("net.latency",
 * "replay.pool.steals") and tagged with a Stability class:
 *
 *  - Stability::stable    a pure function of (configuration, seed) --
 *    the same discipline as the replay shard reduction. Stable
 *    metrics are what writeJson() exports, and the export is
 *    byte-identical across runs and thread counts (asserted by
 *    tests/obs_test.cc).
 *  - Stability::volatile_ scheduling- or layout-dependent (worker
 *    utilization, wall times, hash-table probe lengths). Shown in
 *    the human table and exported only on request.
 *
 * Registries are mergeable by name (counters add, gauges max their
 * high-water marks, histograms/summaries fold), so per-shard
 * registries reduce exactly like a ShardedPredictorBank's shard
 * statistics do.
 *
 * The registry is deliberately NOT thread-safe: hot paths keep their
 * own plain counters (or per-shard registries) and publish once at
 * the end, so instrumentation never adds synchronization to the code
 * it observes. See docs/ARCHITECTURE.md "Observability".
 */

#ifndef COSMOS_OBS_METRICS_HH
#define COSMOS_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace cosmos::obs
{

/** Determinism class of a metric (see file comment). */
enum class Stability
{
    stable,
    volatile_,
};

/** Monotonic event count. */
class Counter
{
  public:
    void add(std::uint64_t delta = 1) { value_ += delta; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Instantaneous level with a high-water mark. */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        value_ = v;
        if (v > highWater_)
            highWater_ = v;
    }

    void add(std::int64_t delta = 1) { set(value_ + delta); }
    void sub(std::int64_t delta = 1) { value_ -= delta; }

    std::int64_t value() const { return value_; }
    std::int64_t highWater() const { return highWater_; }

    /** Shard reduction: levels add, high-water marks max. */
    void
    mergeFrom(const Gauge &other)
    {
        value_ += other.value_;
        if (other.highWater_ > highWater_)
            highWater_ = other.highWater_;
    }

  private:
    std::int64_t value_ = 0;
    std::int64_t highWater_ = 0;
};

/**
 * A named bag of metrics. Look-ups create on first use; re-looking
 * up an existing name returns the same object (the kind must match).
 */
class Registry
{
  public:
    Registry() = default;

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;
    Registry(Registry &&) = default;
    Registry &operator=(Registry &&) = default;

    Counter &counter(const std::string &name,
                     Stability st = Stability::stable);
    Gauge &gauge(const std::string &name,
                 Stability st = Stability::stable);

    /** First use fixes the bucket layout; later calls ignore @p
     *  layout and return the existing histogram. */
    Histogram &histogram(const std::string &name,
                         const Histogram &layout,
                         Stability st = Stability::stable);

    Distribution &summary(const std::string &name,
                          Stability st = Stability::stable);

    /** Number of registered metrics. */
    std::size_t size() const { return metrics_.size(); }

    /**
     * Fold @p other in by name: counters add, gauge values add and
     * high-water marks max, histograms and summaries merge. Metrics
     * absent here are created. Kinds must agree.
     */
    void merge(const Registry &other);

    /**
     * Stable JSON document (schema "cosmos-metrics-v1"): metrics
     * sorted by name, volatile metrics included only when asked.
     * Deterministic inputs produce byte-identical output.
     */
    std::string toJson(bool include_volatile = false) const;

    /** Write toJson() to @p path; false (with a warning) on I/O
     *  failure. */
    bool writeJson(const std::string &path,
                   bool include_volatile = false) const;

    /** Human-readable table of every metric (volatile ones marked). */
    std::string format() const;

  private:
    enum class Kind
    {
        counter,
        gauge,
        histogram,
        summary,
    };

    struct Metric
    {
        Kind kind;
        Stability stability;
        Counter counter;
        Gauge gauge;
        Histogram histogram;
        Distribution summary;
    };

    Metric &obtain(const std::string &name, Kind kind, Stability st);

    /// std::map: export iterates in name order, giving the stable
    /// JSON field order for free.
    std::map<std::string, std::unique_ptr<Metric>> metrics_;
};

} // namespace cosmos::obs

#endif // COSMOS_OBS_METRICS_HH
