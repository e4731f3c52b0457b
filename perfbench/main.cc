/**
 * @file
 * The pipeline benchmark program.
 *
 *   cosmos_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--work-dir DIR] [--git-sha SHA]
 *                    [--spans-out PATH] [--plant-wrong-golden]
 *
 * Closed loop in one process: set-up (input generation plus one
 * untimed warm-up unit) runs three times and its median is setup_s;
 * then units of work run back to back for S seconds, each pass timed.
 * With --trace 1 the first half runs untraced and the second half with
 * spans on; per-layer metrics come from the traced half and the
 * difference between the halves is the tracing overhead. The last
 * stdout line is the result JSON; the lines before it are a header and
 * a human-readable report.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hh"

namespace
{

using namespace perfbench;

/** A metric name with its unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed by every --trace 0 run. */
constexpr MetricDef end_to_end[] = {
    {"setup_s", "s"},      {"wall_s", "s"},       {"msgs_per_s", "1/s"},
    {"peak_rss_mb", "MB"}, {"ok_ops_pct", "%"},
};

/**
 * Per-layer metrics, printed by every --trace 1 run (0 where the
 * workload does not exercise the layer). Times and counts are per unit
 * of work.
 */
constexpr MetricDef per_layer[] = {
    {"bench.tracing_overhead_pct", "%"},
    {"bench.wall_median_s", "s"},
    {"bench.wall_tail_s", "s"},
    {"bench.self_s", "s"},
    {"workloads.emit_s", "s"},
    {"workloads.self_s", "s"},
    {"workloads.accesses", "count"},
    {"sim.run_s", "s"},
    {"sim.self_s", "s"},
    {"sim.events", "count"},
    {"sim.max_pending", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_s", "1/s"},
    {"sim.time_ns", "ns"},
    {"net.remote_msgs", "count"},
    {"net.local_msgs", "count"},
    {"net.mean_latency_ticks", "ticks"},
    {"proto.read_misses", "count"},
    {"proto.write_misses", "count"},
    {"proto.upgrades", "count"},
    {"proto.invals_sent", "count"},
    {"proto.recalls", "count"},
    {"proto.check_s", "s"},
    {"proto.machine_build_s", "s"},
    {"proto.self_s", "s"},
    {"trace.records", "count"},
    {"trace.blocks", "count"},
    {"trace.census_s", "s"},
    {"trace.digest_s", "s"},
    {"trace.self_s", "s"},
    {"cosmos.reserve_s", "s"},
    {"cosmos.replay_s", "s"},
    {"cosmos.self_s", "s"},
    {"cosmos.msgs_per_s", "1/s"},
    {"cosmos.lookups", "count"},
    {"cosmos.hit_ratio", "ratio"},
    {"cosmos.accuracy_pct", "%"},
    {"cosmos.cold_share_pct", "%"},
    {"cosmos.mhr_entries", "count"},
    {"cosmos.pht_entries", "count"},
    {"cosmos.probe_len_mean", "slots"},
    {"replay.sweep_s", "s"},
    {"replay.stage_s", "s"},
    {"replay.apply_s", "s"},
    {"replay.self_s", "s"},
    {"replay.sweep_msgs_per_s", "1/s"},
    {"replay.parallel_efficiency", "ratio"},
    {"replay.pool.steals", "count"},
    {"replay.pool.idle_waits", "count"},
    {"forge.parse_s", "s"},
    {"forge.accesses", "count"},
    {"forge.bytes_per_s", "B/s"},
    {"harness.sink_s", "s"},
    {"harness.self_s", "s"},
    {"accel.rmw_grant_ratio", "ratio"},
    {"accel.recall_ratio", "ratio"},
    {"accel.live_accuracy_pct", "%"},
    {"accel.extra_s", "s"},
    {"accel.speedup_pct", "%"},
    {"model.explore_s", "s"},
    {"model.states", "count"},
    {"model.transitions", "count"},
    {"model.max_depth", "count"},
    {"model.states_per_s", "1/s"},
    {"check.fuzz_s", "s"},
    {"check.run_case_s", "s"},
    {"check.cases", "count"},
    {"check.delivered_msgs", "count"},
    {"check.ns_per_delivered", "ns"},
    {"check.fuzz_cases_per_s", "1/s"},
};

/** Set-ups per run; setup_s is their median. */
constexpr int setup_repeats = 3;

struct Args
{
    std::string workload;
    Options opt;
    double seconds = 10.0;
    bool trace = false;
    std::string gitSha = "unknown";
    std::string spansOut;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] "
                 "[--git-sha SHA] [--spans-out PATH] "
                 "[--plant-wrong-golden]\n",
                 argv0);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    a.opt.threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (flag == "--workload")
            a.workload = value();
        else if (flag == "--seed")
            a.opt.seed = std::strtoull(value().c_str(), nullptr, 0);
        else if (flag == "--seconds")
            a.seconds = std::atof(value().c_str());
        else if (flag == "--trace")
            a.trace = value() == "1";
        else if (flag == "--work-dir")
            a.opt.workDir = value();
        else if (flag == "--git-sha")
            a.gitSha = value();
        else if (flag == "--spans-out")
            a.spansOut = value();
        else if (flag == "--plant-wrong-golden")
            a.opt.plantWrongGolden = true;
        else
            usage(argv[0]);
    }
    if (a.workload.empty() || a.seconds <= 0.0)
        usage(argv[0]);
    return a;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One timed pass, or one lap of a pass. */
struct Sample
{
    std::size_t kind;
    std::size_t lap;
    double seconds;
};

/** The timed passes of one measurement phase. */
struct Phase
{
    std::vector<Sample> passes;
    std::vector<Sample> laps;
    double units = 0.0;
    double messages = 0.0;
};

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

void
runUnit(Workload &w, std::size_t kinds, Phase *phase)
{
    for (std::size_t k = 0; k < kinds; ++k) {
        w.laps().clear();
        const auto t0 = Clock::now();
        const double msgs = static_cast<double>(w.pass(k));
        const auto t1 = Clock::now();
        if (phase == nullptr)
            continue;
        phase->passes.push_back({k, 0, secondsBetween(t0, t1)});
        auto from = t0;
        std::size_t i = 0;
        for (const auto mark : w.laps()) {
            phase->laps.push_back({k, i++, secondsBetween(from, mark)});
            from = mark;
        }
        phase->laps.push_back({k, i, secondsBetween(from, t1)});
        phase->messages += msgs;
    }
    if (phase != nullptr)
        phase->units += 1.0;
}

/** Whole units of work, back to back, until @p seconds have passed. */
Phase
measure(Workload &w, std::size_t kinds, double seconds)
{
    Phase p;
    const auto start = Clock::now();
    while (secondsSince(start) < seconds)
        runUnit(w, kinds, &p);
    return p;
}

/** The tail percentile. It is fixed, so a faster build, which times
 *  more laps, does not read its tail further out. */
constexpr double tail_percentile = 90.0;

/** Laps that must lie beyond the tail percentile for it to be read
 *  steadily; fewer are reported as a warning. */
constexpr std::size_t tail_min_beyond = 10;

/** Time of one unit of work. */
struct WallStats
{
    /** Sum over laps of the lap's fastest time: wall_s. */
    double fastest = 0.0;
    /** Sum over pass kinds of the median pass: bench.wall_median_s. */
    double median = 0.0;
    /** median scaled by the p90 lap/median ratio: bench.wall_tail_s. */
    double tail = 0.0;
    std::size_t laps = 0;
    /** Laps slower than the one read as the tail. */
    std::size_t beyond = 0;
    std::vector<double> kindMedians;
};

/**
 * A unit is a fixed sequence of pass kinds of different lengths, and a
 * pass of one kind is split into the same laps every time, so every
 * lap is compared with the same lap of other units.
 *
 * wall_s sums each lap's fastest time in the run: the unit's cost when
 * nothing else slows the host. Other tenants of a shared host slow a
 * vCPU by up to 2x for seconds to minutes at a time, and only add time,
 * so a median of passes moves with them from run to run while the
 * fastest lap stays put as long as any stretch of the run is quiet.
 *
 * The median unit and the tail are reported beside it. The tail takes
 * each lap's ratio to the median of the same lap, and scales the median
 * unit by that ratio at the 90th percentile (nearest rank).
 */
WallStats
wallStats(const Phase &p, std::size_t kinds)
{
    WallStats s;
    s.kindMedians.assign(kinds, 0.0);
    for (std::size_t k = 0; k < kinds; ++k) {
        std::vector<double> t;
        for (const Sample &x : p.passes) {
            if (x.kind == k)
                t.push_back(x.seconds);
        }
        s.kindMedians[k] = median(t);
        s.median += s.kindMedians[k];
    }
    std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> byLap;
    for (const Sample &x : p.laps)
        byLap[{x.kind, x.lap}].push_back(x.seconds);
    std::map<std::pair<std::size_t, std::size_t>, double> lapMedians;
    for (const auto &[key, t] : byLap) {
        lapMedians[key] = median(t);
        s.fastest += *std::min_element(t.begin(), t.end());
    }
    std::vector<double> ratios;
    for (const Sample &x : p.laps)
        ratios.push_back(x.seconds / lapMedians.at({x.kind, x.lap}));
    std::sort(ratios.begin(), ratios.end());
    s.laps = ratios.size();
    const auto idx = static_cast<std::size_t>(std::ceil(
                         tail_percentile / 100.0 *
                         static_cast<double>(s.laps))) -
                     1;
    s.beyond = s.laps - 1 - idx;
    s.tail = s.median * ratios[idx];
    return s;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printMetrics(const MetricDef *defs, std::size_t n, const Metrics &m)
{
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = m.find(defs[i].name);
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", defs[i].name,
                    it == m.end() ? 0.0 : it->second, defs[i].unit);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    auto w = makeWorkload(args.workload, args.opt);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const std::size_t kinds = w->unit().size();

    std::printf("# header {\"workload\": \"%s\", \"seed\": %llu, "
                "\"git_sha\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"COSMOS_OBS_TRACING\": %d, "
                "\"nproc\": %u, \"threads\": %u}\n",
                args.workload.c_str(), (unsigned long long)args.opt.seed,
                args.gitSha.c_str(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, PERFBENCH_OBS_TRACING,
                std::thread::hardware_concurrency(), args.opt.threads);
    if (PERFBENCH_OBS_TRACING)
        std::printf("# WARNING: in-program tracing is compiled in; "
                    "times include its recorders\n");
    std::printf("# why: %s\n", w->why());
    std::fflush(stdout);

    std::vector<double> setups;
    for (int r = 0; r < setup_repeats; ++r) {
        const auto t0 = Clock::now();
        w->setup();
        runUnit(*w, kinds, nullptr);
        setups.push_back(secondsSince(t0));
    }

    const Phase plain =
        measure(*w, kinds, args.trace ? args.seconds / 2 : args.seconds);
    const WallStats ws = wallStats(plain, kinds);
    Metrics layers;
    if (args.trace) {
        w->resetCounts();
        Spans::instance().enable(true);
        const Phase traced = measure(*w, kinds, args.seconds / 2);
        Spans::instance().enable(false);
        const WallStats wt = wallStats(traced, kinds);
        const SpanTotals totals = Spans::instance().totals();
        for (const auto &[name, secs] : totals.inclusive)
            layers[name + "_s"] = secs / traced.units;
        for (const auto &[layer, secs] : totals.self)
            layers[layer + ".self_s"] = secs / traced.units;
        w->layerMetrics(layers, totals, traced.units);
        layers["bench.tracing_overhead_pct"] =
            100.0 * (wt.fastest / ws.fastest - 1.0);
        layers["bench.wall_median_s"] = ws.median;
        layers["bench.wall_tail_s"] = ws.tail;
        if (!args.spansOut.empty() &&
            !Spans::instance().writeChromeTrace(args.spansOut)) {
            std::fprintf(stderr, "cannot write %s\n",
                         args.spansOut.c_str());
            return 1;
        }
    }
    // Before finish(): its untimed reference check is not the workload.
    const double rss_mb = peakRssMb();
    w->finish();

    const Ops &ops = w->ops();
    Metrics e2e;
    e2e["setup_s"] = median(setups);
    e2e["wall_s"] = ws.fastest;
    e2e["msgs_per_s"] = plain.messages / plain.units / ws.fastest;
    e2e["peak_rss_mb"] = rss_mb;
    e2e["ok_ops_pct"] = 100.0 * static_cast<double>(ops.attempted - ops.failed) /
                        static_cast<double>(ops.attempted);

    std::printf("setup_s %.4f (median of %d set-ups with warm-up)\n",
                e2e["setup_s"], setup_repeats);
    std::printf("wall_s %.4f (fastest of each lap), median unit %.4f, "
                "tail %.4f at p%.0f of %zu laps, %zu beyond it "
                "(%.0f units)\n",
                ws.fastest, ws.median, ws.tail, tail_percentile, ws.laps,
                ws.beyond, plain.units);
    if (ws.beyond < tail_min_beyond)
        std::printf("# WARNING: only %zu laps lie beyond p%.0f, fewer than "
                    "%zu; the tail is not steady at this run length\n",
                    ws.beyond, tail_percentile, tail_min_beyond);
    const auto kindNames = w->unit();
    for (std::size_t k = 0; k < kinds; ++k)
        std::printf("  pass %-20s median %.4f s\n", kindNames[k].c_str(),
                    ws.kindMedians[k]);
    w->describe(stdout, ws.fastest);
    std::printf("ops: %llu attempted, %llu failed\n",
                (unsigned long long)ops.attempted,
                (unsigned long long)ops.failed);
    if (args.trace) {
        std::string top;
        double topSelf = -1.0;
        for (const auto &[name, v] : layers) {
            const auto dot = name.rfind(".self_s");
            if (dot != std::string::npos && name != "bench.self_s" &&
                v > topSelf) {
                topSelf = v;
                top = name.substr(0, dot);
            }
        }
        std::printf("largest layer self time: %s (%.4f s per unit); "
                    "tracing overhead %.2f %%\n",
                    top.c_str(), topSelf,
                    layers["bench.tracing_overhead_pct"]);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                ops.failed == 0 ? "true" : "false",
                (unsigned long long)ops.attempted,
                (unsigned long long)ops.failed);
    if (args.trace)
        printMetrics(per_layer, std::size(per_layer), layers);
    else
        printMetrics(end_to_end, std::size(end_to_end), e2e);
    std::printf("}}\n");
    return 0;
}
