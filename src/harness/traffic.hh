/**
 * @file
 * Drive any forge::TrafficSource through the simulated machine.
 *
 * The trace front door of harness::runWorkload's run loop (both are
 * defined in harness/experiment.cc): instead of a workload kernel
 * emitting per-iteration programs, accesses are pulled from a source
 * in chunks, projected onto per-processor programs (preserving each
 * processor's order), and executed with a global barrier between
 * chunks. The captured coherence-message trace is the same artifact
 * a kernel run produces, so predictors, census, sweeps, and benches
 * consume it unchanged.
 */

#ifndef COSMOS_HARNESS_TRAFFIC_HH
#define COSMOS_HARNESS_TRAFFIC_HH

#include <functional>

#include "common/config.hh"
#include "forge/traffic_source.hh"
#include "harness/experiment.hh"

namespace cosmos::harness
{

/** How to replay a traffic stream. */
struct TrafficConfig
{
    MachineConfig machine{};

    /**
     * Accesses pulled per iteration (one barrier-delimited chunk).
     * Within a chunk processors run concurrently, like the source
     * machine the trace was captured on.
     */
    std::size_t opsPerIteration = 2048;

    /**
     * Iteration cap; -1 runs a bounded source to exhaustion.
     * Unbounded sources (the forge) require a cap.
     */
    int maxIterations = -1;

    /** Leading iterations excluded from the trace (§5 warm-up).
     *  External captures usually already exclude start-up, so the
     *  default keeps every record. */
    int warmupIterations = 0;

    /** Check whole-machine coherence invariants between chunks. */
    bool checkInvariants = false;

    /** Optional observability export (see RunConfig::metrics). */
    obs::Registry *metrics = nullptr;

    /**
     * Per-chunk trace drain. When set, the records captured during
     * each chunk are handed to the sink after the chunk's barrier
     * and dropped -- the returned RunResult's trace carries metadata
     * only (records stays empty), so an arbitrarily long source runs
     * in constant memory. Records arrive in trace order, at most one
     * chunk's worth per call.
     */
    std::function<void(const std::vector<trace::TraceRecord> &)>
        recordSink;
};

/**
 * Replay @p source through a fresh machine.
 *
 * Fatal (with the source's file:line diagnostic) when the source
 * fails mid-stream -- a malformed trace line is a hard error, never
 * a silently truncated run.
 */
RunResult runTraffic(const TrafficConfig &cfg,
                     forge::TrafficSource &source);

} // namespace cosmos::harness

#endif // COSMOS_HARNESS_TRAFFIC_HH
