#include "harness/experiment.hh"

#include "common/log.hh"
#include "harness/traffic.hh"
#include "obs/trace_event.hh"
#include "proto/invariants.hh"
#include "proto/machine.hh"
#include "runtime/processor.hh"
#include "trace/trace.hh"

namespace cosmos::harness
{

ProtocolTotals
collectTotals(const proto::Machine &machine)
{
    ProtocolTotals t;
    for (NodeId n = 0; n < machine.numNodes(); ++n) {
        const auto &c = machine.cache(n).stats();
        t.loads += c.loads;
        t.stores += c.stores;
        t.readMisses += c.readMisses;
        t.writeMisses += c.writeMisses;
        t.upgrades += c.upgrades;
        t.evictions += c.evictions;
        t.staleInvals += c.staleInvals;
        const auto &d = machine.directory(n).stats();
        t.invalsSent += d.invalsSent;
        t.exclusiveGrants += d.exclusiveGrants;
        t.recalls += d.recalls;
        t.forwardsSent += d.forwardsSent;
        t.forwardsSuppressed += d.forwardsSuppressed;
        t.fwdAcks += d.fwdAcks;
    }
    return t;
}

namespace
{

using RecordSink = decltype(TrafficConfig::recordSink);

/** How the shared loop drives a machine. */
struct LoopConfig
{
    int iterations; ///< < 0: until the fill step runs dry
    int warmupIterations;
    bool checkInvariants;
    obs::Registry *metrics;
    const RecordSink *sink; ///< null or empty: keep every record
};

/**
 * The one run loop behind runWorkload, runAccelerated and runTraffic.
 * Each iteration sets the machine's iteration, lets @p fill emit the
 * programs (it returns false once its source is dry), runs them,
 * checks coherence and hands the iteration's records to the sink.
 * Afterwards the machine's totals go into @p result and its metrics
 * into LoopConfig::metrics. Observers the caller attached to
 * @p machine see every message before the trace recorder does.
 */
template <class Fill>
void
runLoop(proto::Machine &machine, const LoopConfig &loop,
        RunResult &result, Fill &&fill)
{
    runtime::Runtime rt(machine);
    result.trace.numNodes = machine.numNodes();
    result.trace.blockBytes = machine.config().blockBytes;
    trace::TraceRecorder recorder(result.trace, loop.warmupIterations);
    machine.addObserver(&recorder);

    int iter = 0;
    for (; loop.iterations < 0 || iter < loop.iterations; ++iter) {
        machine.setIteration(iter);
        runtime::ProgramBuilder builder(machine.numNodes());
        if (!fill(iter, builder))
            break;
        rt.runPrograms(builder.take());
        if (loop.checkInvariants) {
            const obs::Span span("proto.check");
            const auto violations = proto::checkCoherence(machine);
            if (!violations.empty()) {
                cosmos_panic("coherence violation after iteration ",
                             iter, " of ", result.trace.app, ": ",
                             violations.front(), " (",
                             violations.size(), " total)");
            }
        }
        if (loop.sink != nullptr && *loop.sink) {
            (*loop.sink)(result.trace.records);
            result.trace.records.clear();
        }
    }

    result.trace.iterations = iter;
    result.network = machine.networkStats();
    result.totals = collectTotals(machine);
    result.finalTime = machine.eventQueue().now();
    result.events = machine.eventQueue().executed();
    if (loop.metrics != nullptr)
        machine.publishMetrics(*loop.metrics);
}

/** Run @p workload on @p machine, whose observers are attached. */
RunResult
runKernel(const RunConfig &cfg, wl::Workload &workload,
          proto::Machine &machine)
{
    workload.setup(machine.addrMap(), machine.numNodes(), cfg.seed);
    const auto &info = workload.info();
    const int iterations =
        cfg.iterations >= 0 ? cfg.iterations : info.iterations;
    const int warmup = cfg.warmupIterations >= 0
                           ? cfg.warmupIterations
                           : info.warmupIterations;
    cosmos_assert(warmup <= iterations,
                  "warm-up exceeds iteration count");

    RunResult result;
    result.trace.app = info.name;
    result.trace.seed = cfg.seed;
    runLoop(machine,
            {iterations, warmup, cfg.checkInvariants, cfg.metrics,
             nullptr},
            result, [&](int iter, runtime::ProgramBuilder &builder) {
                const obs::Span span("workloads.emit");
                workload.emitIteration(iter, builder);
                return true;
            });
    result.workloadStats = workload.statsSummary();
    return result;
}

} // namespace

RunResult
runWorkload(const RunConfig &cfg)
{
    auto workload = wl::makeWorkload(cfg.app);
    return runWorkload(cfg, *workload);
}

RunResult
runWorkload(const RunConfig &cfg, wl::Workload &workload)
{
    proto::Machine machine(cfg.machine);
    return runKernel(cfg, workload, machine);
}

AcceleratedRunResult
runAccelerated(const RunConfig &cfg, const accel::OnlineOptions &opts)
{
    auto workload = wl::makeWorkload(cfg.app);
    return runAccelerated(cfg, *workload, opts);
}

AcceleratedRunResult
runAccelerated(const RunConfig &cfg, wl::Workload &workload,
               const accel::OnlineOptions &opts)
{
    proto::Machine machine(cfg.machine);
    accel::OnlineAccelerator accelerator(machine, opts);
    AcceleratedRunResult result;
    result.run = runKernel(cfg, workload, machine);
    result.accel = accelerator.stats();
    result.predictorAccuracyPercent =
        accelerator.bank().accuracy().overall().percent();
    return result;
}

RunResult
runTraffic(const TrafficConfig &cfg, forge::TrafficSource &source)
{
    cosmos_assert(cfg.opsPerIteration > 0,
                  "opsPerIteration must be positive");
    cosmos_assert(source.bounded() || cfg.maxIterations >= 0,
                  "an unbounded source needs --iterations");
    cosmos_assert(cfg.machine.numNodes >= source.numProcs(),
                  "source references ", source.numProcs(),
                  " processors but the machine has ",
                  cfg.machine.numNodes, " nodes");

    proto::Machine machine(cfg.machine);
    RunResult result;
    result.trace.app = source.name();
    result.trace.seed = cfg.machine.seed;
    std::vector<forge::Access> chunk;
    runLoop(machine,
            {cfg.maxIterations, cfg.warmupIterations,
             cfg.checkInvariants, cfg.metrics, &cfg.recordSink},
            result, [&](int, runtime::ProgramBuilder &builder) {
                {
                    const obs::Span span("forge.parse");
                    if (source.next(chunk, cfg.opsPerIteration) == 0)
                        return false;
                }
                for (const forge::Access &a : chunk) {
                    if (a.write)
                        builder.proc(a.proc).write(a.addr);
                    else
                        builder.proc(a.proc).read(a.addr);
                }
                builder.barrier();
                return true;
            });
    if (source.failed())
        cosmos_fatal("traffic source failed: ", source.error());
    return result;
}

} // namespace cosmos::harness
