/**
 * @file
 * The benchmark's four workloads.
 *
 * A workload turns the benchmark seed into inputs (setup), then runs
 * one fixed unit of work per round as a short sequence of passes. Each
 * pass checks its own outputs and counts every checked operation in
 * ops, so a wrong result is a counted failure, never a crash.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench
{

/** Operations attempted and failed. */
struct Ops
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }
};

/** What every workload is given. */
struct Options
{
    /** Benchmark seed; 0 selects the paper's default inputs, whose
     *  replay counters are pinned by the golden grid. */
    std::uint64_t seed = 0;
    /** Directory inside the checkout for generated input files. */
    std::string workDir = ".";
    /** Worker threads for parallel replay: min(4, nproc). */
    unsigned threads = 1;
    /** Self-check: perturb one golden counter, so the gate must count
     *  a failure. */
    bool plantWrongGolden = false;
};

/** Named metric values. */
using Metrics = std::map<std::string, double>;

/** Running sums (or maxima) of per-layer counts over passes. */
class Counts
{
  public:
    void add(const std::string &name, double v) { values_[name] += v; }
    void
    max(const std::string &name, double v)
    {
        double &cur = values_[name];
        if (v > cur)
            cur = v;
    }
    double
    get(const std::string &name) const
    {
        const auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second;
    }
    void clear() { values_.clear(); }

  private:
    std::map<std::string, double> values_;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One-line reason the workload is in the benchmark. */
    virtual const char *why() const = 0;

    /** Generate the inputs. Called several times; the last one is
     *  kept for the passes. */
    virtual void setup() = 0;

    /** Kinds of pass making up one unit of work, in run order. */
    virtual std::vector<std::string> unit() const = 0;

    /** Run pass @p kind of the unit; returns the coherence messages
     *  it processed. */
    virtual std::uint64_t pass(std::size_t kind) = 0;

    /** Untimed checks after the measurement. */
    virtual void finish() {}

    /**
     * Per-layer metrics per unit of work, from the counts gathered
     * since resetCounts() and the span totals of the same passes.
     */
    virtual void layerMetrics(Metrics &m, const SpanTotals &spans,
                              double units) const = 0;

    /** Human-readable report lines (meaning fields, digests). */
    virtual void describe(std::FILE *out, double wall_s) const = 0;

    void resetCounts() { counts_.clear(); }
    const Ops &ops() const { return ops_; }

    /** Lap marks set by the last pass; the caller clears them. */
    std::vector<Clock::time_point> &laps() { return laps_; }

  protected:
    /**
     * Mark a lap boundary inside the current pass. A pass of one kind
     * is split into the same laps every time, so each lap is compared
     * with the same lap of other passes (wall_s takes the fastest).
     */
    void lap() { laps_.push_back(Clock::now()); }

    Ops ops_;
    Counts counts_;

  private:
    std::vector<Clock::time_point> laps_;
};

/** Construct a workload by name; nullptr when unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
