#include "workloads.hh"

#include <algorithm>
#include <optional>

#include "accel/online.hh"
#include "check/fuzzer.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "cosmos/predictor_bank.hh"
#include "cosmos/sharded_bank.hh"
#include "fixtures/golden_accuracy.hh"
#include "forge/synth.hh"
#include "forge/text_trace.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"
#include "harness/traffic.hh"
#include "model/explorer.hh"
#include "obs/metrics.hh"
#include "proto/invariants.hh"
#include "proto/machine.hh"
#include "runtime/processor.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using namespace cosmos;

/** Block shards of the sharded replay paths. */
constexpr unsigned shard_count = 4;

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Benchmark seed 0 is harness::RunConfig's default kernel seed, the
 *  inputs the golden grid was recorded on. */
std::uint64_t
kernelSeed(const Options &opt)
{
    return harness::RunConfig{}.seed + opt.seed;
}

/** Every counter one replay cell produces that two replay paths must
 *  agree on. */
struct Cell
{
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheTotal = 0;
    std::uint64_t dirHits = 0;
    std::uint64_t dirTotal = 0;
    std::uint64_t coldMisses = 0;
    std::uint64_t mhrEntries = 0;
    std::uint64_t phtEntries = 0;

    bool operator==(const Cell &) const = default;

    std::uint64_t lookups() const { return cacheTotal + dirTotal; }
    std::uint64_t hits() const { return cacheHits + dirHits; }
};

Cell
cellOf(const pred::AccuracyTracker &acc, const pred::MemoryStats &mem)
{
    return {acc.cacheSide().hits,   acc.cacheSide().total,
            acc.directorySide().hits, acc.directorySide().total,
            acc.coldMisses(),       mem.mhrEntries,
            mem.phtEntries};
}

/**
 * Check a default-seed cell against tests/fixtures/golden_accuracy.hh.
 * With Options::plantWrongGolden the first golden row is off by one,
 * so the gate must report exactly that cell.
 */
bool
matchesGolden(const Options &opt, const std::string &app,
              const pred::CosmosConfig &cfg, const Cell &c)
{
    for (const auto &g : fixtures::golden_accuracy_rows) {
        if (app != g.app || cfg.depth != g.depth ||
            cfg.filterMax != g.filterMax) {
            continue;
        }
        const std::uint64_t plant =
            opt.plantWrongGolden && &g == &fixtures::golden_accuracy_rows[0]
                ? 1
                : 0;
        const bool ok = c.cacheHits == g.cacheHits + plant &&
                        c.cacheTotal == g.cacheTotal &&
                        c.dirHits == g.dirHits &&
                        c.dirTotal == g.dirTotal &&
                        c.coldMisses == g.coldMisses;
        if (!ok) {
            std::fprintf(stderr,
                         "GOLDEN DRIFT %s depth=%u filter=%u: got C "
                         "%llu/%llu D %llu/%llu cold %llu\n",
                         g.app, g.depth, g.filterMax,
                         (unsigned long long)c.cacheHits,
                         (unsigned long long)c.cacheTotal,
                         (unsigned long long)c.dirHits,
                         (unsigned long long)c.dirTotal,
                         (unsigned long long)c.coldMisses);
        }
        return ok;
    }
    std::fprintf(stderr, "no golden row for %s depth=%u filter=%u\n",
                 app.c_str(), cfg.depth, cfg.filterMax);
    return false;
}

/** FNV-1a over the 64-bit words of every record. */
std::uint64_t
digestOf(const trace::Trace &t)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    for (const trace::TraceRecord &r : t.records) {
        mix(r.block);
        mix(r.when);
        mix(r.receiver);
        mix(r.sender);
        mix(static_cast<std::uint64_t>(r.type));
        mix(static_cast<std::uint64_t>(r.role));
        mix(static_cast<std::uint32_t>(r.iteration));
    }
    return h;
}

/** Add one replay cell's prediction counters to the cosmos.* counts. */
void
countCell(Counts &counts, const Cell &c, std::size_t records)
{
    counts.add("cosmos.lookups", static_cast<double>(c.lookups()));
    counts.add("cosmos.hits", static_cast<double>(c.hits()));
    counts.add("cosmos.cold", static_cast<double>(c.coldMisses));
    counts.add("cosmos.mhr_entries", static_cast<double>(c.mhrEntries));
    counts.add("cosmos.pht_entries", static_cast<double>(c.phtEntries));
    counts.add("cosmos.records", static_cast<double>(records));
}

/** Batched serial replay of one cell (the cosmos layer alone). */
Cell
replaySerial(const trace::Trace &t,
             const std::vector<std::uint32_t> &census,
             const pred::CosmosConfig &cfg, Counts &counts)
{
    std::optional<pred::PredictorBank> bank;
    {
        Span s("cosmos.reserve");
        bank.emplace(t.numNodes, cfg);
        bank->reserveFromCensus(census);
    }
    {
        Span s("cosmos.replay");
        bank->replayBatched(t);
    }
    obs::Registry reg;
    bank->publishMetrics(reg, "pred");
    counts.add("cosmos.probe_len_sum",
               reg.histogram("pred.probe_length",
                             Histogram::linear(1.0, 16.0, 15))
                   .mean());
    counts.add("cosmos.probe_cells", 1.0);
    const Cell c = cellOf(bank->accuracy(), bank->memoryStats());
    countCell(counts, c, t.records.size());
    return c;
}

/** The same cell through a 4-shard ShardedPredictorBank. */
Cell
replaySharded(const trace::Trace &t,
              const std::vector<std::uint32_t> &census,
              const pred::CosmosConfig &cfg)
{
    std::optional<pred::ShardedPredictorBank> bank;
    {
        Span s("cosmos.reserve");
        bank.emplace(t.numNodes, cfg, shard_count);
        bank->reserveFromCensus(census);
    }
    {
        Span s("replay.stage");
        bank->stageChunk(t.records.data(), t.records.size());
    }
    {
        Span s("replay.apply");
        for (unsigned k = 0; k < shard_count; ++k)
            bank->applyShard(k);
    }
    return cellOf(bank->accuracy(), bank->memoryStats());
}

/** Machine-level counts (sim.*, net.*, proto.*) of one run. */
void
countMachine(Counts &counts, obs::Registry &reg,
             const net::NetworkStats &net,
             const harness::ProtocolTotals &totals)
{
    counts.add("sim.events",
               static_cast<double>(reg.counter("sim.events_executed").value()));
    counts.max("sim.max_pending",
               static_cast<double>(reg.gauge("sim.queue_depth").highWater()));
    counts.add("net.remote_msgs", static_cast<double>(net.remoteMessages));
    counts.add("net.local_msgs", static_cast<double>(net.localMessages));
    counts.add("net.latency_ticks", static_cast<double>(net.totalLatency));
    counts.add("proto.read_misses", static_cast<double>(totals.readMisses));
    counts.add("proto.write_misses",
               static_cast<double>(totals.writeMisses));
    counts.add("proto.upgrades", static_cast<double>(totals.upgrades));
    counts.add("proto.invals_sent", static_cast<double>(totals.invalsSent));
    counts.add("proto.recalls", static_cast<double>(totals.recalls));
}

/** sim/net/proto per-layer metrics shared by the simulating workloads;
 *  @p run_s is the host time the event loop ran. */
void
machineMetrics(Metrics &m, const Counts &counts, double run_s, double units)
{
    const double events = counts.get("sim.events");
    m["sim.events"] = events / units;
    m["sim.max_pending"] = counts.get("sim.max_pending");
    m["sim.ns_per_event"] = ratio(run_s * 1e9, events);
    m["sim.events_per_s"] = ratio(events, run_s);
    for (const char *name :
         {"net.remote_msgs", "net.local_msgs", "proto.read_misses",
          "proto.write_misses", "proto.upgrades", "proto.invals_sent",
          "proto.recalls"}) {
        m[name] = counts.get(name) / units;
    }
    m["net.mean_latency_ticks"] = ratio(counts.get("net.latency_ticks"),
                                        counts.get("net.remote_msgs"));
}

/** cosmos.* ratios over the counted replay cells. */
void
cosmosMetrics(Metrics &m, const Counts &counts, const SpanTotals &spans,
              double units)
{
    const double lookups = counts.get("cosmos.lookups");
    m["cosmos.lookups"] = lookups / units;
    m["cosmos.hit_ratio"] = ratio(counts.get("cosmos.hits"), lookups);
    m["cosmos.accuracy_pct"] = 100.0 * m["cosmos.hit_ratio"];
    m["cosmos.cold_share_pct"] =
        100.0 * ratio(counts.get("cosmos.cold"), lookups);
    m["cosmos.mhr_entries"] = counts.get("cosmos.mhr_entries") / units;
    m["cosmos.pht_entries"] = counts.get("cosmos.pht_entries") / units;
    m["cosmos.probe_len_mean"] = ratio(counts.get("cosmos.probe_len_sum"),
                                       counts.get("cosmos.probe_cells"));
    const auto it = spans.inclusive.find("cosmos.replay");
    if (it != spans.inclusive.end())
        m["cosmos.msgs_per_s"] =
            ratio(counts.get("cosmos.records"), it->second);
}

/** Prediction accuracy and cold share of the counted cells, printed
 *  beside every throughput so a cold stream cannot pass for fast. */
void
printMeaning(std::FILE *out, const Counts &counts)
{
    const double lookups = counts.get("cosmos.lookups");
    std::fprintf(out,
                 "  (accuracy_pct %.2f, cosmos.cold_share_pct %.2f over "
                 "%.0f lookups)\n",
                 100.0 * ratio(counts.get("cosmos.hits"), lookups),
                 100.0 * ratio(counts.get("cosmos.cold"), lookups),
                 lookups);
}

// ---------------------------------------------------------------------
// paper-kernels

/** One kernel run on a fresh machine. */
struct KernelRun
{
    trace::Trace trace;
    Tick finalTime = 0;
    std::uint64_t events = 0;
    accel::OnlineStats accel;
    HitRatio live;
};

/** Deterministic outputs of one kernel's pass. */
struct PerApp
{
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t records = 0;
    Tick baseTime = 0;
    Tick accelTime = 0;

    bool operator==(const PerApp &) const = default;
};

class PaperKernels final : public Workload
{
  public:
    explicit PaperKernels(const Options &opt)
        : opt_(opt), apps_(wl::paperWorkloads())
    {
    }

    const char *
    why() const override
    {
        return "the paper's pipeline end to end: five kernels on the "
               "simulated machine, plain and accelerated, then Table 5 "
               "replay; the simulator dominates";
    }

    // Every input is made inside a pass (kernel host state is rebuilt
    // per run, as a user of `cosmos run` pays it); set-up is only the
    // warm-up unit main.cc runs.
    void setup() override {}

    std::vector<std::string> unit() const override { return apps_; }

    /** One kernel: the plain run, the accelerated run, then the Table 5
     *  replay of the plain run's trace. Each run is split into about
     *  eight laps of iterations, the replay into one lap per depth. */
    std::uint64_t
    pass(std::size_t kind) override
    {
        Span root("bench.pass");
        const std::string &app = apps_[kind];
        const KernelRun base = runKernel(app, false);
        recordRuns(app, base, runKernel(app, true));
        replayTable5(app, base.trace);
        return base.trace.records.size();
    }

    void
    layerMetrics(Metrics &m, const SpanTotals &spans,
                 double units) const override
    {
        const auto run = spans.inclusive.find("sim.run");
        machineMetrics(m, counts_,
                       run == spans.inclusive.end() ? 0.0 : run->second,
                       units);
        cosmosMetrics(m, counts_, spans, units);
        m["workloads.accesses"] = counts_.get("workloads.accesses") / units;
        m["trace.records"] = counts_.get("trace.records") / units;
        m["trace.blocks"] = counts_.get("trace.blocks") / units;
        const double base = counts_.get("sim.time_base");
        m["sim.time_ns"] = base / units;
        m["accel.speedup_pct"] =
            100.0 * ratio(base - counts_.get("sim.time_accel"), base);
        m["accel.rmw_grant_ratio"] =
            ratio(counts_.get("accel.rmw_grants"),
                  counts_.get("accel.rmw_queries"));
        m["accel.recall_ratio"] =
            ratio(counts_.get("accel.recalls_started"),
                  counts_.get("accel.recall_triggers"));
        m["accel.live_accuracy_pct"] =
            100.0 * ratio(counts_.get("accel.live_hits"),
                          counts_.get("accel.live_total"));
        const auto run_accel = spans.inclusive.find("sim.run_accel");
        if (run != spans.inclusive.end() &&
            run_accel != spans.inclusive.end()) {
            m["accel.extra_s"] = (run_accel->second - run->second) / units;
        }
    }

    void
    describe(std::FILE *out, double wall_s) const override
    {
        std::uint64_t records = 0;
        std::uint64_t base = 0;
        std::uint64_t fast = 0;
        for (const auto &app : apps_) {
            const PerApp &a = perApp_.at(app);
            records += a.records;
            base += a.baseTime;
            fast += a.accelTime;
        }
        std::fprintf(out,
                     "paper-kernels: %llu trace messages per five-kernel "
                     "unit -> %.3f M msg/s end to end\n",
                     (unsigned long long)records,
                     ratio(static_cast<double>(records), wall_s) / 1e6);
        printMeaning(out, counts_);
        std::fprintf(out,
                     "  sim_time_ns %llu (deterministic), accelerated "
                     "%llu -> accel_speedup_pct %.4f\n",
                     (unsigned long long)base, (unsigned long long)fast,
                     100.0 * ratio(static_cast<double>(base) -
                                       static_cast<double>(fast),
                                   static_cast<double>(base)));
        for (const auto &app : apps_) {
            const PerApp &a = perApp_.at(app);
            std::fprintf(out,
                         "  digest %-12s %016llx  sim.events %llu\n",
                         app.c_str(), (unsigned long long)a.digest,
                         (unsigned long long)a.events);
        }
    }

  private:
    /** Count both runs; their deterministic outputs must repeat
     *  exactly on every unit. */
    void
    recordRuns(const std::string &app, const KernelRun &base,
               const KernelRun &fast)
    {
        std::uint64_t digest = 0;
        {
            Span s("trace.digest");
            digest = digestOf(base.trace);
        }
        const PerApp now{digest, base.events, base.trace.records.size(),
                         base.finalTime, fast.finalTime};
        const auto [it, fresh] = perApp_.emplace(app, now);
        ops_.add(fresh || it->second == now);

        counts_.add("sim.time_base", static_cast<double>(base.finalTime));
        counts_.add("sim.time_accel", static_cast<double>(fast.finalTime));
        counts_.add("accel.rmw_queries",
                    static_cast<double>(fast.accel.rmwQueries));
        counts_.add("accel.rmw_grants",
                    static_cast<double>(fast.accel.rmwGrants));
        counts_.add("accel.recall_triggers",
                    static_cast<double>(fast.accel.recallTriggers));
        counts_.add("accel.recalls_started",
                    static_cast<double>(fast.accel.recallsStarted));
        counts_.add("accel.live_hits", static_cast<double>(fast.live.hits));
        counts_.add("accel.live_total",
                    static_cast<double>(fast.live.total));
    }

    /** MHR depths 1-4, serial batched and 4-shard, cross-checked (and
     *  golden-gated at seed 0). */
    void
    replayTable5(const std::string &app, const trace::Trace &t)
    {
        std::vector<std::uint32_t> census;
        {
            Span s("trace.census");
            census = trace::moduleBlockCensus(t);
        }
        counts_.add("trace.records", static_cast<double>(t.records.size()));
        counts_.add("trace.blocks", static_cast<double>(t.distinctBlocks()));
        for (unsigned depth = 1; depth <= 4; ++depth) {
            lap();
            const pred::CosmosConfig cfg{depth, 0};
            const Cell serial = replaySerial(t, census, cfg, counts_);
            const Cell sharded = replaySharded(t, census, cfg);
            bool ok = serial == sharded;
            if (opt_.seed == 0)
                ok = matchesGolden(opt_, app, cfg, serial) && ok;
            ops_.add(ok);
        }
    }

    KernelRun
    runKernel(const std::string &app, bool accelerate)
    {
        // The loop of harness::runWorkload, with a span around each
        // call into a layer.
        std::unique_ptr<proto::Machine> machine;
        std::unique_ptr<runtime::Runtime> rt;
        {
            Span s("proto.machine_build");
            machine = std::make_unique<proto::Machine>(MachineConfig{});
            rt = std::make_unique<runtime::Runtime>(*machine);
        }
        std::unique_ptr<accel::OnlineAccelerator> accelerator;
        if (accelerate) {
            accelerator = std::make_unique<accel::OnlineAccelerator>(
                *machine, accel::OnlineOptions{});
        }
        auto workload = wl::makeWorkload(app);
        {
            Span s("workloads.setup");
            workload->setup(machine->addrMap(), machine->numNodes(),
                            kernelSeed(opt_));
        }
        const auto &info = workload->info();

        KernelRun run;
        run.trace.app = info.name;
        run.trace.numNodes = machine->numNodes();
        run.trace.blockBytes = machine->config().blockBytes;
        run.trace.iterations = info.iterations;
        run.trace.seed = kernelSeed(opt_);
        trace::TraceRecorder recorder(run.trace, info.warmupIterations);
        machine->addObserver(&recorder);

        double accesses = 0.0;
        const int lap_iterations = std::max(1, info.iterations / 8);
        for (int iter = 0; iter < info.iterations; ++iter) {
            if (iter > 0 && iter % lap_iterations == 0)
                lap();
            machine->setIteration(iter);
            runtime::ProgramBuilder builder(machine->numNodes());
            {
                Span s("workloads.emit");
                workload->emitIteration(iter, builder);
            }
            std::vector<runtime::Program> programs = builder.take();
            for (const runtime::Program &p : programs) {
                for (const runtime::Op &op : p) {
                    accesses += op.kind == runtime::Op::Kind::read ||
                                op.kind == runtime::Op::Kind::write;
                }
            }
            Span s(accelerate ? "sim.run_accel" : "sim.run");
            rt->runPrograms(std::move(programs));
        }
        // checkCoherence scans every directory once per cached block,
        // so it runs on each run's final state rather than after every
        // iteration (where it would dominate the pass).
        {
            Span s("proto.check");
            ops_.add(proto::checkCoherence(*machine).empty());
        }

        run.finalTime = machine->eventQueue().now();
        run.events = machine->eventQueue().executed();
        if (accelerator) {
            run.accel = accelerator->stats();
            run.live = accelerator->bank().accuracy().overall();
        } else {
            obs::Registry reg;
            machine->publishMetrics(reg);
            countMachine(counts_, reg, machine->networkStats(),
                         harness::collectTotals(*machine));
            counts_.add("workloads.accesses", accesses);
        }
        return run;
    }

    Options opt_;
    std::vector<std::string> apps_;
    std::map<std::string, PerApp> perApp_;
};

// ---------------------------------------------------------------------
// replay-grid

class ReplayGrid final : public Workload
{
  public:
    explicit ReplayGrid(const Options &opt) : opt_(opt)
    {
        for (const auto &row : fixtures::golden_accuracy_rows) {
            jobs_.push_back({.app = row.app,
                             .seed = kernelSeed(opt_),
                             .config = pred::CosmosConfig{row.depth,
                                                          row.filterMax},
                             .shards = shard_count});
        }
    }

    const char *
    why() const override
    {
        return "predictor replay and sharded sweeps alone: traces are "
               "simulated in set-up, so simulator changes should move "
               "nothing here";
    }

    void
    setup() override
    {
        // Pre-simulate the five traces through the process-wide cache
        // runSweep reads from.
        harness::clearTraceCache();
        traces_.clear();
        messages_ = 0;
        for (const auto &app : wl::paperWorkloads()) {
            traces_[app] = &harness::cachedTrace(
                app, -1, OwnerReadPolicy::half_migratory, kernelSeed(opt_));
        }
        for (const auto &job : jobs_)
            messages_ += traces_.at(job.app)->records.size();
    }

    /** The 40-cell grid serially, then through runSweep; the sweep
     *  pass checks every cell against the serial one. */
    std::vector<std::string> unit() const override
    {
        return {"serial", "sweep"};
    }

    std::uint64_t
    pass(std::size_t kind) override
    {
        Span root("bench.pass");
        if (kind == 0) {
            serialGrid();
            return messages_;
        }
        obs::Registry reg;
        std::vector<replay::ReplayResult> swept;
        {
            Span s("replay.sweep");
            swept = harness::runSweep(
                jobs_, {.threads = opt_.threads, .metrics = &reg});
        }
        for (const char *name :
             {"replay.pool.steals", "replay.pool.idle_waits"}) {
            counts_.add(name, static_cast<double>(
                                  reg.counter(name, obs::Stability::volatile_)
                                      .value()));
        }
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            bool ok = cellOf(swept[i].accuracy, swept[i].memory) == serial_[i];
            if (opt_.seed == 0) {
                ok = matchesGolden(opt_, jobs_[i].app, jobs_[i].config,
                                   serial_[i]) &&
                     ok;
            }
            ops_.add(ok);
        }
        return messages_;
    }

    void
    layerMetrics(Metrics &m, const SpanTotals &spans,
                 double units) const override
    {
        cosmosMetrics(m, counts_, spans, units);
        m["trace.records"] = static_cast<double>(messages_);
        m["replay.pool.steals"] = counts_.get("replay.pool.steals") / units;
        m["replay.pool.idle_waits"] =
            counts_.get("replay.pool.idle_waits") / units;
        const auto incl = [&spans](const char *name) {
            const auto it = spans.inclusive.find(name);
            return it == spans.inclusive.end() ? 0.0 : it->second;
        };
        const double grid = static_cast<double>(messages_) * units;
        const double sweep_rate = ratio(grid, incl("replay.sweep"));
        const double serial_rate =
            ratio(grid, incl("cosmos.reserve") + incl("cosmos.replay"));
        m["replay.sweep_msgs_per_s"] = sweep_rate;
        m["replay.parallel_efficiency"] =
            ratio(sweep_rate, opt_.threads * serial_rate);
    }

    void
    describe(std::FILE *out, double wall_s) const override
    {
        std::fprintf(out,
                     "replay-grid: %zu cells, %llu grid messages, serial "
                     "and %u-shard sweep on %u threads -> %.3f M msg/s\n",
                     jobs_.size(), (unsigned long long)messages_,
                     shard_count, opt_.threads,
                     ratio(2.0 * static_cast<double>(messages_), wall_s) /
                         1e6);
        printMeaning(out, counts_);
        for (const auto &[app, t] : traces_) {
            std::fprintf(out, "  digest %-12s %016llx\n", app.c_str(),
                         (unsigned long long)digestOf(*t));
        }
    }

  private:
    void
    serialGrid()
    {
        std::map<std::string, std::vector<std::uint32_t>> census;
        {
            Span s("trace.census");
            for (const auto &[app, t] : traces_)
                census[app] = trace::moduleBlockCensus(*t);
        }
        serial_.clear();
        for (const auto &job : jobs_) {
            if (!serial_.empty() && serial_.size() % cells_per_lap == 0)
                lap();
            serial_.push_back(replaySerial(*traces_.at(job.app),
                                           census.at(job.app), job.config,
                                           counts_));
        }
    }

    /** Serial cells per lap: the 40-cell grid in ten laps. */
    static constexpr std::size_t cells_per_lap = 4;

    Options opt_;
    std::vector<replay::ReplayJob> jobs_;
    std::map<std::string, const trace::Trace *> traces_;
    std::uint64_t messages_ = 0;
    /** The current unit's serial cells, in job order. */
    std::vector<Cell> serial_;
};

// ---------------------------------------------------------------------
// trace-ingest

/** Times every next() of the wrapped source as a forge.parse span. */
class TimedSource final : public forge::TrafficSource
{
  public:
    explicit TimedSource(forge::TrafficSource &inner) : inner_(inner) {}

    const std::string &name() const override { return inner_.name(); }
    NodeId numProcs() const override { return inner_.numProcs(); }
    bool bounded() const override { return inner_.bounded(); }
    bool failed() const override { return inner_.failed(); }
    std::string error() const override { return inner_.error(); }

    std::size_t
    next(std::vector<forge::Access> &out, std::size_t max) override
    {
        Span s("forge.parse");
        return inner_.next(out, max);
    }

  private:
    forge::TrafficSource &inner_;
};

class TraceIngest final : public Workload
{
  public:
    /** Write-heavy forge mix over 16,384 blocks (1 MB of 64 B lines,
     *  the modelled cache), with roles rotating every 8 rounds. */
    static constexpr const char *spec =
        "migratory=0.45,false=0.15,private=0.1,readonly=0.05,phase=8,"
        "blocks=16384";
    static constexpr std::uint64_t accesses = 500'000;
    static constexpr unsigned cache_blocks = 16384;
    /** runTraffic chunks (2048 accesses each) per lap: a pass of 245
     *  chunks is 16 laps. */
    static constexpr std::uint64_t chunks_per_lap = 16;

    explicit TraceIngest(const Options &opt) : opt_(opt)
    {
        machine_.cacheCapacityBlocks = cache_blocks;
        path_ = opt_.workDir + "/ingest-" + std::to_string(opt_.seed) +
                ".trace";
    }

    const char *
    why() const override
    {
        return "a write-heavy trace file at cache capacity, parsed, "
               "simulated and replayed sharded while sharing roles "
               "rotate by phase";
    }

    void
    setup() override
    {
        forge::ForgeParams fp;
        std::string err;
        if (!forge::ForgeParams::parse(spec, fp, &err))
            cosmos_fatal("bad forge spec: ", err);
        fp.seed += opt_.seed;
        forge::SynthSource synth(fp);
        forge::writeTextTrace(path_, synth, accesses);
    }

    std::vector<std::string> unit() const override { return {"ingest"}; }

    std::uint64_t
    pass(std::size_t) override
    {
        Span root("bench.pass");
        forge::TextTraceReader reader(path_, machine_.numNodes);
        TimedSource timed(reader);
        std::optional<pred::ShardedPredictorBank> bank;
        {
            Span s("cosmos.reserve");
            bank.emplace(machine_.numNodes, predictor_, shard_count);
        }
        std::uint64_t records = 0;
        std::uint64_t chunks = 0;
        obs::Registry reg;
        harness::TrafficConfig tc;
        tc.machine = machine_;
        tc.metrics = &reg;
        tc.recordSink = [&](const std::vector<trace::TraceRecord> &recs) {
            if (++chunks % chunks_per_lap == 0)
                lap();
            Span sink("harness.sink");
            {
                Span s("replay.stage");
                bank->stageChunk(recs.data(), recs.size());
            }
            Span s("replay.apply");
            for (unsigned k = 0; k < shard_count; ++k)
                bank->applyShard(k);
            records += recs.size();
        };
        harness::RunResult run;
        {
            Span s("harness.run_traffic");
            run = harness::runTraffic(tc, timed);
        }
        passCells_.push_back(cellOf(bank->accuracy(), bank->memoryStats()));
        records_ = records;

        countMachine(counts_, reg, run.network, run.totals);
        counts_.add("sim.time", static_cast<double>(run.finalTime));
        counts_.add("trace.records", static_cast<double>(records));
        counts_.add("forge.accesses",
                    static_cast<double>(reader.accessesRead()));
        counts_.add("forge.bytes", static_cast<double>(reader.bytesRead()));
        return records;
    }

    void
    finish() override
    {
        // Untimed reference: materialise the trace, then one serial
        // batched replay. Every streamed sharded pass must match it.
        forge::TextTraceReader reader(path_, machine_.numNodes);
        harness::TrafficConfig tc;
        tc.machine = machine_;
        const harness::RunResult ref = harness::runTraffic(tc, reader);
        pred::PredictorBank bank(ref.trace.numNodes, predictor_);
        bank.reserveFromCensus(trace::moduleBlockCensus(ref.trace));
        bank.replayBatched(ref.trace);
        reference_ = cellOf(bank.accuracy(), bank.memoryStats());
        for (const Cell &c : passCells_)
            ops_.add(c == reference_);
        digest_ = digestOf(ref.trace);
        blocks_ = ref.trace.distinctBlocks();
        events_ = ref.events;
    }

    void
    layerMetrics(Metrics &m, const SpanTotals &spans,
                 double units) const override
    {
        // runTraffic simulates between the parse and sink spans, so
        // the harness layer's self time is the event loop's.
        const auto self = spans.self.find("harness");
        machineMetrics(m, counts_,
                       self == spans.self.end() ? 0.0 : self->second, units);
        // Every passed cell equals the reference, so its counters stand
        // for all passes.
        Counts cell;
        countCell(cell, reference_, 0);
        cosmosMetrics(m, cell, spans, 1.0);
        m["sim.time_ns"] = counts_.get("sim.time") / units;
        m["trace.records"] = counts_.get("trace.records") / units;
        m["trace.blocks"] = static_cast<double>(blocks_);
        m["forge.accesses"] = counts_.get("forge.accesses") / units;
        const auto parse = spans.inclusive.find("forge.parse");
        if (parse != spans.inclusive.end())
            m["forge.bytes_per_s"] =
                ratio(counts_.get("forge.bytes"), parse->second);
    }

    void
    describe(std::FILE *out, double wall_s) const override
    {
        std::fprintf(out,
                     "trace-ingest: %llu accesses over %u blocks -> %llu "
                     "messages per pass, %.3f M msg/s end to end\n",
                     (unsigned long long)accesses, cache_blocks,
                     (unsigned long long)records_,
                     ratio(static_cast<double>(records_), wall_s) / 1e6);
        Counts cell;
        countCell(cell, reference_, 0);
        printMeaning(out, cell);
        std::fprintf(out, "  digest %-12s %016llx  sim.events %llu\n",
                     "ingest", (unsigned long long)digest_,
                     (unsigned long long)events_);
    }

  private:
    Options opt_;
    pred::CosmosConfig predictor_{2, 0};
    MachineConfig machine_;
    std::string path_;
    std::vector<Cell> passCells_;
    std::uint64_t records_ = 0;
    Cell reference_;
    std::uint64_t digest_ = 0;
    std::size_t blocks_ = 0;
    std::uint64_t events_ = 0;
};

// ---------------------------------------------------------------------
// verify

class Verify final : public Workload
{
  public:
    /** Cases per fuzz pass; seed 0's first pass runs CI's seeds
     *  1..200. */
    static constexpr unsigned fuzz_cases = 200;
    static constexpr unsigned fuzz_passes = 4;
    static constexpr unsigned cases_per_lap = 50;

    explicit Verify(const Options &opt) : opt_(opt)
    {
        fuzz_.numSeeds = fuzz_cases;
        fuzz_.forgeMix = 0.5;
    }

    const char *
    why() const override
    {
        return "the model checker and the schedule fuzzer, which drive "
               "the live controllers with and without the event queue";
    }

    // The closure has no inputs and fuzz cases derive from the seed
    // inside the campaign; set-up is only the warm-up unit.
    void setup() override {}

    /** The closure, then a fuzz campaign split into four passes. */
    std::vector<std::string> unit() const override
    {
        std::vector<std::string> kinds = {"model"};
        for (unsigned i = 0; i < fuzz_passes; ++i)
            kinds.push_back("fuzz" + std::to_string(i));
        return kinds;
    }

    std::uint64_t
    pass(std::size_t kind) override
    {
        Span root("bench.pass");
        if (kind == 0) {
            // The 3-node 2-block closure: 0.3 s, so a run times it
            // often enough to catch a quiet stretch. The 5x larger
            // forwarding closure is gated once, untimed, in finish().
            explore(false, 51297, 151392);
            return 0;
        }
        // check::fuzz's campaign loop, keeping each case's delivered
        // message count that FuzzReport does not carry.
        fuzz_.baseSeed =
            1 + (opt_.seed * fuzz_passes + kind - 1) * fuzz_cases;
        std::uint64_t delivered = 0;
        for (unsigned i = 0; i < fuzz_.numSeeds; ++i) {
            if (i > 0 && i % cases_per_lap == 0)
                lap();
            check::FuzzCase c;
            {
                Span s("check.make_case");
                c = check::makeCase(fuzz_.baseSeed + i, fuzz_);
            }
            check::CaseResult r;
            {
                Span s("check.run_case");
                r = check::runCase(c, fuzz_);
            }
            ops_.add(!r.failed);
            delivered += r.delivered;
        }
        counts_.add("check.cases", fuzz_.numSeeds);
        counts_.add("check.delivered_msgs", static_cast<double>(delivered));
        return delivered;
    }

    void
    finish() override
    {
        explore(true, 276396, 971246);
    }

    void
    layerMetrics(Metrics &m, const SpanTotals &spans,
                 double units) const override
    {
        const auto incl = [&spans](const char *name) {
            const auto it = spans.inclusive.find(name);
            return it == spans.inclusive.end() ? 0.0 : it->second;
        };
        m["model.states"] = counts_.get("model.states") / units;
        m["model.transitions"] = counts_.get("model.transitions") / units;
        m["model.max_depth"] = counts_.get("model.max_depth");
        m["model.states_per_s"] =
            ratio(counts_.get("model.states"), incl("model.explore"));
        const double fuzz_s = incl("check.make_case") + incl("check.run_case");
        m["check.fuzz_s"] = fuzz_s / units;
        m["check.cases"] = counts_.get("check.cases") / units;
        m["check.delivered_msgs"] =
            counts_.get("check.delivered_msgs") / units;
        m["check.ns_per_delivered"] =
            ratio(incl("check.run_case") * 1e9,
                  counts_.get("check.delivered_msgs"));
        m["check.fuzz_cases_per_s"] =
            ratio(counts_.get("check.cases"), fuzz_s);
    }

    void
    describe(std::FILE *out, double wall_s) const override
    {
        std::fprintf(out,
                     "verify: 3n2b closure + %u fuzz cases per unit, %.3f s "
                     "per unit; 3n2b forwarding closure gated once\n",
                     fuzz_cases * fuzz_passes, wall_s);
        std::fprintf(out, "  (no prediction runs in this workload)\n");
    }

  private:
    /** Explore the 3-node 2-block closure, which must be complete,
     *  clean, consistent and exactly as large as pinned. */
    void
    explore(bool forwarding, std::size_t states, std::size_t transitions)
    {
        model::ExploreOptions eo;
        eo.mc.numNodes = 3;
        eo.mc.numBlocks = 2;
        eo.mc.forwarding = forwarding;
        model::ExploreResult r;
        {
            Span s("model.explore");
            r = model::explore(eo);
        }
        ops_.add(r.states == states && r.transitions == transitions &&
                 r.complete && r.consistent() && r.counterexamples.empty());
        counts_.add("model.states", static_cast<double>(r.states));
        counts_.add("model.transitions", static_cast<double>(r.transitions));
        counts_.max("model.max_depth", r.maxDepth);
    }

    Options opt_;
    check::FuzzOptions fuzz_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &opt)
{
    if (name == "paper-kernels")
        return std::make_unique<PaperKernels>(opt);
    if (name == "replay-grid")
        return std::make_unique<ReplayGrid>(opt);
    if (name == "trace-ingest")
        return std::make_unique<TraceIngest>(opt);
    if (name == "verify")
        return std::make_unique<Verify>(opt);
    return nullptr;
}

} // namespace perfbench
