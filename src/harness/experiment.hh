/**
 * @file
 * End-to-end experiment driver: build the target machine, run a
 * workload kernel on it, and capture the coherence-message trace the
 * predictor evaluations consume. This is the reproduction of the
 * paper's methodology pipeline (§5): WWT II simulation -> Stache
 * message traces -> offline Cosmos evaluation. runAccelerated() runs
 * the same pipeline with an OnlineAccelerator attached (§4.1), and
 * runTraffic() (harness/traffic.hh) feeds it from a traffic source;
 * all three share one run loop.
 */

#ifndef COSMOS_HARNESS_EXPERIMENT_HH
#define COSMOS_HARNESS_EXPERIMENT_HH

#include <memory>
#include <string>

#include "accel/online.hh"
#include "common/config.hh"
#include "net/network_stats.hh"
#include "obs/metrics.hh"
#include "proto/machine.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace cosmos::harness
{

/** What to simulate. */
struct RunConfig
{
    std::string app;
    MachineConfig machine{};
    /** Traced iterations; -1 uses the workload's default. */
    int iterations = -1;
    /** Override the workload's warm-up; -1 uses its default. */
    int warmupIterations = -1;
    std::uint64_t seed = 0x5eedc05305ULL;
    /** Check whole-machine coherence invariants between iterations. */
    bool checkInvariants = true;
    /**
     * When set, the machine publishes its observability surface
     * (sim.*, net.*, proto.* -- see proto::Machine::publishMetrics)
     * here after the run, before the machine is torn down.
     */
    obs::Registry *metrics = nullptr;
};

/** Whole-machine protocol activity totals, summed over nodes. */
struct ProtocolTotals
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t invalsSent = 0;
    std::uint64_t exclusiveGrants = 0;
    std::uint64_t recalls = 0;
    std::uint64_t evictions = 0;
    std::uint64_t staleInvals = 0;
    /** Owner recalls sent with the forwarded mark (three-hop). */
    std::uint64_t forwardsSent = 0;
    /** Recalls the speculation hook demoted to home replies. */
    std::uint64_t forwardsSuppressed = 0;
    /** fwd_ack receipts the directories consumed. */
    std::uint64_t fwdAcks = 0;
};

/** What came out. */
struct RunResult
{
    trace::Trace trace;
    std::string workloadStats;
    net::NetworkStats network;
    ProtocolTotals totals;
    Tick finalTime = 0;
    std::uint64_t events = 0;
};

/** Sum protocol counters over a machine's caches and directories. */
ProtocolTotals collectTotals(const proto::Machine &machine);

/** Run the named workload (RunConfig::app) on a fresh machine. */
RunResult runWorkload(const RunConfig &cfg);

/** Run a caller-constructed workload instance. */
RunResult runWorkload(const RunConfig &cfg, wl::Workload &workload);

/** Result of an accelerated run. */
struct AcceleratedRunResult
{
    RunResult run;
    accel::OnlineStats accel;
    /** Accuracy of the live predictors over the (accelerated)
     *  message stream. */
    double predictorAccuracyPercent = 0.0;
};

/** Run the named workload with the online accelerator attached, so
 *  Cosmos predictions steer the directory live. */
AcceleratedRunResult runAccelerated(const RunConfig &cfg,
                                    const accel::OnlineOptions &opts);

/** Run a caller-constructed workload with the accelerator attached. */
AcceleratedRunResult runAccelerated(const RunConfig &cfg,
                                    wl::Workload &workload,
                                    const accel::OnlineOptions &opts);

} // namespace cosmos::harness

#endif // COSMOS_HARNESS_EXPERIMENT_HH
