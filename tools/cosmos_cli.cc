/**
 * @file
 * cosmos -- command-line driver for the library.
 *
 * Subcommands:
 *   list                         available workloads
 *   run <app> [options]          simulate; print a run summary and
 *                                optionally save the message trace.
 *                                Instead of a built-in app, traffic
 *                                can come from an external capture
 *                                (--trace-file) or the synthetic
 *                                forge (--forge)
 *   gen [options]                write a forge stream as a text
 *                                trace file (--forge ... --out F)
 *   analyze <trace> [options]    replay a saved trace through Cosmos
 *   sweep <app> [options]        depth x filter accuracy table
 *   accel <app> [options]        baseline vs predictor-accelerated run
 *   figures <app> [options]      write Graphviz signature graphs
 *   census <app> [options]       sharing-pattern census
 *   fuzz [options]               schedule-fuzz the protocol under
 *                                the invariant checker (src/check)
 *   model [options]              exhaustively enumerate every
 *                                reachable protocol state of a small
 *                                configuration (src/model), check
 *                                safety invariants, count the hits
 *                                of every declared transition row,
 *                                and check each observed transition
 *                                against its row
 *   lint [options]               statically analyze the declared
 *                                transition table (src/lint): no
 *                                exploration, just the rows --
 *                                completeness, determinism, message
 *                                conservation, channel discipline,
 *                                forwarding asymmetry
 *
 * Lint options:
 *   --nodes N        configured node count (default 2)
 *   --forwarding / --legacy-forwarding / --policy P
 *                    select the protocol variant whose table to build
 *   --capacity N     cache capacity in blocks (0 = unlimited);
 *                    enables the stale-invalidation rows
 *   --mutate KIND    plant a table bug before analyzing (must-fail CI
 *                    legs): missing_row | overlapping_rows |
 *                    dropped_response | out_of_order_consume |
 *                    forwarding_asymmetry
 *   --out FILE       write the cosmos-lint-v1 JSON artifact
 *
 * Model options:
 *   --nodes N        nodes in the modeled machine, 2..4 (default 2)
 *   --blocks N       modeled blocks, 1..2 (default 1)
 *   --reorder K      allow a delivery to overtake up to K earlier
 *                    messages on its channel, 0..7 (default 0 = the
 *                    simulator's FIFO contract)
 *   --max-states N   abort (as a liveness failure) past N states
 *                    (a decimal integer, at least 1)
 *   --threads N      workers expanding each BFS batch (see Common
 *                    options); the results do not depend on N
 *   --forwarding     enable SGI-Origin-style request forwarding
 *                    (three-hop). Only inval_rw/downgrade recalls
 *                    are forwarded -- inval_ro sweeps never are,
 *                    since the home itself holds the data while the
 *                    block is shared. The transfer is closed by a
 *                    requester->home fwd_ack that keeps the
 *                    directory entry busy until the forwarded data
 *                    arrived; the full state space closes with zero
 *                    violations (see ARCHITECTURE.md "Protocol
 *                    assumptions")
 *   --legacy-forwarding
 *                    (with --forwarding) drop the fwd_ack handshake
 *                    and release the directory entry on the owner's
 *                    revision message alone -- the pre-fix protocol.
 *                    Negative-testing oracle: the checker must find
 *                    the direct-reply-vs-next-invalidation race
 *   --inject-ignore-inval N
 *                    plant the lost-invalidation bug (the checker
 *                    must find an SWMR counterexample), 0..256
 *   --out FILE       write the cosmos-model-v2 JSON artifact: the
 *                    verdicts, every live declared row with its hit
 *                    count, and the consistency findings
 *   --counterexample-out FILE
 *                    write the first counterexample as a replayable
 *                    schedule (cosmos fuzz --replay-model FILE)
 *
 * Fuzz options:
 *   --seeds N        number of fuzz cases (default 100)
 *   --seed S         first seed of the campaign
 *   --replay S       re-run exactly one seed (and shrink if it fails;
 *                    decimal or 0x hex)
 *   --nodes N        nodes per fuzz machine, 1..64 (default 4;
 *                    at least 2 with --forge-mix above 0)
 *   --blocks N       contended blocks, at least 1 (default 8)
 *   --ops N          random ops per node (default 64)
 *   --jitter T       max extra delivery delay in ticks (default 64)
 *   --forge-mix F    probability in [0,1] that a case's workload is
 *                    structured forge traffic (migratory /
 *                    producer-consumer / false-sharing rounds)
 *                    instead of uniform random ops (default 0)
 *   --inject-ignore-inval N
 *                    plant a lost-invalidation bug: every Nth
 *                    inval_ro ack skips the invalidation (negative
 *                    testing -- the run must FAIL)
 *   --out FILE       write the cosmos-fuzz-v1 JSON artifact
 *   --replay-model FILE
 *                    execute a model-checker counterexample schedule
 *                    through the real simulator (jitter 0); exits
 *                    nonzero when the invariant engine confirms it
 *
 * Traffic options (run / gen):
 *   --trace-file P   (run) replay an external text trace -- a file of
 *                    `<proc> <r|w> <hexaddr>` lines or a benchmark
 *                    directory of such files (.gz transparent when
 *                    zlib is available). Use --nodes for machines
 *                    bigger than the default 16
 *   --forge SPEC     (run/gen) synthetic traffic with ground-truth
 *                    labels; SPEC is key=value pairs: migratory,
 *                    false, private, readonly (class fractions),
 *                    fanout, phase, blocks, procs, seed
 *   --forge-out F    (run --forge) write the per-class accuracy
 *                    report as cosmos-forge-v1 JSON
 *   --chunk N        accesses replayed per barrier-delimited chunk,
 *                    at least 1 (default 2048)
 *   --accesses N     (gen) accesses to write (default 100000)
 *
 * Common options:
 *   --iterations N   override the workload's iteration count (at
 *                    least its warm-up); for --forge, chunks to
 *                    generate (default 64)
 *   --seed S         simulation seed (decimal or 0x hex)
 *   --policy P       owner-read policy: half-migratory | downgrade
 *   --depth D        MHR depth for analyze, 1..4 (default 2)
 *   --filter F       filter max count for analyze, 0..255 (default 0)
 *   --threads N      (sweep, model) worker threads, a decimal
 *                    integer in [0, 256]; 0 = COSMOS_THREADS, else
 *                    hardware concurrency
 *   --out FILE       (run) save the trace here; (figures) output
 *                    directory (default ".")
 *   --metrics-out F  write the metrics registry as stable JSON
 *                    (run / analyze / sweep); the export contains
 *                    only Stability::stable metrics, so it is
 *                    byte-identical across runs and thread counts
 *   --trace-out F    record the command's spans (sim.run,
 *                    workloads.emit, replay.cell, replay.shard, ...)
 *                    in any build type and write them as Chrome
 *                    trace-event JSON (load in chrome://tracing or
 *                    ui.perfetto.dev)
 *
 * Integer flags take plain decimal values (--seed and --replay also
 * 0x hex), and --forge-mix a number; a sign, a suffix, or a value
 * out of range exits 2 naming the flag, before any work.
 *
 * Examples:
 *   cosmos run moldyn --iterations 20 --out moldyn.trace
 *   cosmos analyze moldyn.trace --depth 3
 *   cosmos sweep unstructured
 *   cosmos sweep micro_migratory --metrics-out metrics.json \
 *       --trace-out trace.json
 *   cosmos accel micro_rmw
 *   cosmos figures appbt --out figs/
 *   cosmos gen --forge migratory=0.4,fanout=3 --out synth.trace
 *   cosmos run --trace-file synth.trace --nodes 16
 *   cosmos run --forge migratory=0.4,phase=8 --forge-out forge.json
 */

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <fstream>

#include "check/fuzzer.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "lint/analyzer.hh"
#include "lint/mutate.hh"
#include "lint/report.hh"
#include "forge/score.hh"
#include "forge/synth.hh"
#include "forge/text_trace.hh"
#include "harness/traffic.hh"
#include "model/explorer.hh"
#include "model/report.hh"
#include "cosmos/predictor_bank.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/sweep.hh"
#include "replay/thread_pool.hh"
#include "trace/pattern_census.hh"
#include "trace/trace_io.hh"
#include "workloads/workload.hh"

namespace
{

using namespace cosmos;

struct CliArgs
{
    std::string command;
    std::string target;
    int iterations = -1;
    std::uint64_t seed = 0x5eedc05305ULL;
    OwnerReadPolicy policy = OwnerReadPolicy::half_migratory;
    unsigned depth = 2;
    unsigned filter = 0;
    unsigned threads = 0;
    std::string out;
    std::string metricsOut;
    std::string traceOut;

    // fuzz-only options
    unsigned fuzzSeeds = 100;
    bool haveReplay = false;
    std::uint64_t replaySeed = 0;
    unsigned fuzzNodes = 4;
    unsigned fuzzBlocks = 8;
    unsigned fuzzOps = 64;
    Tick fuzzJitter = 64;
    unsigned injectIgnoreInval = 0;
    std::string replayModel;
    double forgeMix = 0.0;

    // traffic options (run / gen)
    std::string traceFile;
    std::string forgeSpec;
    std::string forgeOut;
    std::size_t chunk = 2048;
    std::uint64_t genAccesses = 100000;

    // model-only options (--nodes / --blocks are shared with fuzz,
    // whose defaults differ, so the model command only overrides its
    // own defaults when the flag was given explicitly)
    bool haveNodes = false;
    bool haveBlocks = false;
    unsigned modelReorder = 0;
    std::size_t modelMaxStates = 1u << 20;
    bool forwarding = false;
    bool legacyForwarding = false;
    std::string counterexampleOut;

    // lint-only options
    std::string mutate;
    unsigned lintCapacity = 0;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: cosmos "
        "<list|run|gen|analyze|sweep|accel|figures|census|fuzz|model"
        "|lint> "
        "[target] [--iterations N] [--seed S]\n"
        "              [--policy half-migratory|downgrade] "
        "[--depth D] [--filter F] [--threads N] [--out FILE]\n"
        "              [--metrics-out FILE] [--trace-out FILE]\n"
        "       cosmos run --trace-file PATH [--nodes N] [--chunk N] "
        "[--out FILE]\n"
        "       cosmos run --forge SPEC [--nodes N] [--iterations N] "
        "[--forge-out FILE]\n"
        "       cosmos gen --forge SPEC --out FILE [--accesses N]\n"
        "       cosmos fuzz [--seeds N] [--seed S] [--replay S] "
        "[--nodes N] [--blocks N] [--ops N]\n"
        "              [--jitter T] [--forge-mix F] "
        "[--inject-ignore-inval N] "
        "[--replay-model FILE] [--out FILE]\n"
        "       cosmos model [--nodes N] [--blocks N] [--reorder K] "
        "[--max-states N] [--forwarding] [--legacy-forwarding]\n"
        "              [--policy half-migratory|downgrade] "
        "[--inject-ignore-inval N] [--threads N] [--out FILE]\n"
        "              [--counterexample-out FILE]\n"
        "       cosmos lint [--nodes N] [--forwarding] "
        "[--legacy-forwarding] [--policy P] [--capacity N]\n"
        "              [--mutate KIND] [--out FILE]\n");
    std::exit(2);
}

/** @p text as a decimal integer in [lo, hi]; nullopt for anything
 *  else -- a sign, a suffix, an exponent, overflow. */
std::optional<unsigned long long>
decimalIn(const char *text, unsigned long long lo, unsigned long long hi)
{
    const char *end = text + std::strlen(text);
    unsigned long long v = 0;
    const auto [stop, err] = std::from_chars(text, end, v);
    if (err != std::errc{} || stop != end || v < lo || v > hi)
        return std::nullopt;
    return v;
}

/** @p text as a decimal or 0x-prefixed hex 64-bit integer; nullopt
 *  for anything else. */
std::optional<std::uint64_t>
seedIn(const char *text)
{
    if (text[0] != '0' || (text[1] != 'x' && text[1] != 'X'))
        return decimalIn(text, 0, UINT64_MAX);
    const char *digits = text + 2;
    const char *end = digits + std::strlen(digits);
    std::uint64_t v = 0;
    const auto [stop, err] = std::from_chars(digits, end, v, 16);
    if (err != std::errc{} || stop != end)
        return std::nullopt;
    return v;
}

/** Reject a flag value before any work: name the flag and what it
 *  accepts, exit with status 2. */
[[noreturn]] void
badFlagValue(const CliArgs &args, const char *flag,
             const std::string &accepts, const char *value)
{
    std::fprintf(stderr, "cosmos %s: %s must be %s, got \"%s\"\n",
                 args.command.c_str(), flag, accepts.c_str(), value);
    std::exit(2);
}

CliArgs
parse(int argc, char **argv)
{
    if (argc < 2)
        usage();
    CliArgs args;
    args.command = argv[1];
    int i = 2;
    if (i < argc && argv[i][0] != '-')
        args.target = argv[i++];
    for (; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        // A plain decimal integer in [lo, hi], else exit 2 saying
        // what the flag @p accepts.
        auto decimal = [&](unsigned long long lo, unsigned long long hi,
                           const std::string &accepts) {
            const char *v = value();
            const auto n = decimalIn(v, lo, hi);
            if (!n)
                badFlagValue(args, flag.c_str(), accepts, v);
            return *n;
        };
        // A count: a plain decimal integer that fits an unsigned; a
        // command checks any narrower range.
        auto count = [&]() {
            return static_cast<unsigned>(
                decimal(0, UINT_MAX, "a decimal integer"));
        };
        auto seed = [&]() {
            const char *v = value();
            const auto n = seedIn(v);
            if (!n)
                badFlagValue(args, flag.c_str(),
                             "a decimal or 0x-prefixed hex integer", v);
            return *n;
        };
        if (flag == "--iterations") {
            args.iterations = static_cast<int>(
                decimal(0, INT_MAX, "a decimal integer"));
        } else if (flag == "--seed") {
            args.seed = seed();
        } else if (flag == "--policy") {
            const std::string p = value();
            if (p == "half-migratory")
                args.policy = OwnerReadPolicy::half_migratory;
            else if (p == "downgrade")
                args.policy = OwnerReadPolicy::downgrade;
            else
                usage();
        } else if (flag == "--depth") {
            args.depth = static_cast<unsigned>(decimal(
                1, pred::max_mhr_depth,
                detail::concat("a decimal integer in [1, ",
                               pred::max_mhr_depth, "]")));
        } else if (flag == "--filter") {
            // The filter counter is a uint8_t.
            args.filter = static_cast<unsigned>(
                decimal(0, 255, "a decimal integer in [0, 255]"));
        } else if (flag == "--threads") {
            args.threads = static_cast<unsigned>(decimal(
                0, replay::ThreadPool::max_threads,
                detail::concat("a decimal integer in [0, ",
                               replay::ThreadPool::max_threads, "]")));
        } else if (flag == "--out") {
            args.out = value();
        } else if (flag == "--metrics-out") {
            args.metricsOut = value();
        } else if (flag == "--trace-out") {
            args.traceOut = value();
        } else if (flag == "--seeds") {
            args.fuzzSeeds = count();
        } else if (flag == "--replay") {
            args.haveReplay = true;
            args.replaySeed = seed();
        } else if (flag == "--nodes") {
            args.fuzzNodes = count();
            args.haveNodes = true;
        } else if (flag == "--blocks") {
            args.fuzzBlocks = count();
            args.haveBlocks = true;
        } else if (flag == "--ops") {
            args.fuzzOps = count();
        } else if (flag == "--jitter") {
            args.fuzzJitter = decimal(0, UINT64_MAX, "a decimal integer");
        } else if (flag == "--inject-ignore-inval") {
            args.injectIgnoreInval = count();
        } else if (flag == "--replay-model") {
            args.replayModel = value();
        } else if (flag == "--forge-mix") {
            // A number with nothing after it; fuzzFlagError checks
            // its range.
            const char *v = value();
            const char *end = v + std::strlen(v);
            const auto [stop, err] = std::from_chars(v, end, args.forgeMix);
            if (err != std::errc{} || stop != end)
                badFlagValue(args, "--forge-mix", "a number", v);
        } else if (flag == "--trace-file") {
            args.traceFile = value();
        } else if (flag == "--forge") {
            args.forgeSpec = value();
        } else if (flag == "--forge-out") {
            args.forgeOut = value();
        } else if (flag == "--chunk") {
            args.chunk = static_cast<std::size_t>(
                decimal(1, SIZE_MAX, "a decimal integer of at least 1"));
        } else if (flag == "--accesses") {
            args.genAccesses =
                decimal(0, UINT64_MAX, "a decimal integer");
        } else if (flag == "--reorder") {
            args.modelReorder = count();
        } else if (flag == "--max-states") {
            args.modelMaxStates = static_cast<std::size_t>(
                decimal(1, SIZE_MAX, "a decimal integer of at least 1"));
        } else if (flag == "--forwarding") {
            args.forwarding = true;
        } else if (flag == "--legacy-forwarding") {
            args.legacyForwarding = true;
        } else if (flag == "--counterexample-out") {
            args.counterexampleOut = value();
        } else if (flag == "--mutate") {
            args.mutate = value();
        } else if (flag == "--capacity") {
            args.lintCapacity = count();
        } else {
            usage();
        }
    }
    return args;
}

/** Reject an --iterations below the built-in kernel's warm-up before
 *  any work (the run would trip the harness's warm-up assertion). */
void
checkKernelIterations(const CliArgs &args)
{
    if (args.iterations < 0)
        return;
    const int warmup =
        wl::makeWorkload(args.target)->info().warmupIterations;
    if (args.iterations < warmup)
        badFlagValue(args, "--iterations",
                     detail::concat("a decimal integer of at least ",
                                    warmup, " (", args.target,
                                    "'s warm-up)"),
                     std::to_string(args.iterations).c_str());
}

harness::RunConfig
makeRunConfig(const CliArgs &args)
{
    checkKernelIterations(args);
    harness::RunConfig cfg;
    cfg.app = args.target;
    cfg.iterations = args.iterations;
    cfg.seed = args.seed;
    cfg.machine.ownerReadPolicy = args.policy;
    cfg.checkInvariants = false;
    return cfg;
}

/** Write @p reg to @p path and confirm on stdout (no-op when the
 *  --metrics-out flag was absent). */
void
maybeWriteMetrics(const obs::Registry &reg, const std::string &path)
{
    if (path.empty())
        return;
    if (reg.writeJson(path))
        std::printf("metrics written to %s\n", path.c_str());
}

void
printAnalysis(const trace::Trace &trace, unsigned depth,
              unsigned filter, obs::Registry *reg = nullptr)
{
    pred::PredictorBank bank(trace.numNodes,
                             pred::CosmosConfig{depth, filter});
    bank.replayBatched(trace);
    if (reg != nullptr)
        bank.publishMetrics(*reg);
    const auto &acc = bank.accuracy();
    std::printf("Cosmos depth %u, filter %u over %zu messages:\n",
                depth, filter, trace.records.size());
    std::printf("  cache %.1f%%  directory %.1f%%  overall %.1f%%\n",
                acc.cacheSide().percent(),
                acc.directorySide().percent(),
                acc.overall().percent());
    const auto mem = bank.memoryStats();
    std::printf("  memory: PHT/MHR ratio %.2f, overhead %.1f%% of a "
                "128B block\n",
                mem.ratio(), mem.overheadPercent());
    for (auto role : {proto::Role::cache, proto::Role::directory}) {
        std::printf("  dominant arcs at the %s (hit%%/ref%%):\n",
                    proto::toString(role));
        for (const auto &arc : bank.arcs(role).dominantArcs(3.0)) {
            std::printf("    %-22s -> %-22s %3.0f/%-3.0f\n",
                        proto::toString(arc.from),
                        proto::toString(arc.to), arc.hitPercent,
                        arc.refPercent);
        }
    }
}

int
cmdList()
{
    std::printf("paper applications:\n");
    for (const auto &name : wl::paperWorkloads())
        std::printf("  %s\n", name.c_str());
    std::printf("microbenchmarks:\n");
    for (const char *name :
         {"micro_producer_consumer", "micro_migratory", "micro_rmw",
          "micro_false_sharing"})
        std::printf("  %s\n", name);
    return 0;
}

/** The shared first lines of every run summary. */
void
printRunSummary(const std::string &label,
                const harness::RunResult &result)
{
    std::printf("%s: %zu messages, %zu blocks, %llu events, "
                "%llu ns simulated\n",
                label.c_str(), result.trace.records.size(),
                result.trace.distinctBlocks(),
                static_cast<unsigned long long>(result.events),
                static_cast<unsigned long long>(result.finalTime));
    std::printf("network: %s\n", result.network.format().c_str());
}

/** `cosmos run --trace-file` / `cosmos run --forge`: pull traffic
 *  from an external capture or the synthetic forge instead of a
 *  built-in kernel. */
int
cmdRunTraffic(const CliArgs &args)
{
    if (!args.traceFile.empty() && !args.forgeSpec.empty())
        usage();
    obs::Registry reg;
    harness::TrafficConfig cfg;
    cfg.machine.ownerReadPolicy = args.policy;
    cfg.machine.seed = args.seed;
    cfg.opsPerIteration = args.chunk;
    cfg.maxIterations = args.iterations;
    if (!args.metricsOut.empty())
        cfg.metrics = &reg;

    std::unique_ptr<forge::TextTraceReader> reader;
    std::unique_ptr<forge::SynthSource> synth;
    forge::TrafficSource *source = nullptr;
    if (!args.traceFile.empty()) {
        cfg.machine.numNodes =
            args.haveNodes ? static_cast<NodeId>(args.fuzzNodes)
                           : cfg.machine.numNodes;
        reader = std::make_unique<forge::TextTraceReader>(
            args.traceFile, cfg.machine.numNodes);
        source = reader.get();
    } else {
        forge::ForgeParams params;
        std::string err;
        if (!forge::ForgeParams::parse(args.forgeSpec, params,
                                       &err)) {
            std::fprintf(stderr, "bad --forge spec: %s\n",
                         err.c_str());
            return 2;
        }
        cfg.machine.numNodes =
            args.haveNodes ? static_cast<NodeId>(args.fuzzNodes)
                           : params.numProcs;
        cfg.machine.blockBytes = params.blockBytes;
        cfg.machine.pageBytes = params.pageBytes;
        if (cfg.maxIterations < 0)
            cfg.maxIterations = 64; // chunks; forge is unbounded
        synth = std::make_unique<forge::SynthSource>(params);
        source = synth.get();
        std::printf("forge: %s\n", params.summary().c_str());
    }

    const auto result = harness::runTraffic(cfg, *source);
    printRunSummary(source->name(), result);
    if (reader != nullptr) {
        std::printf("ingested: %llu accesses over %llu lines "
                    "(%llu bytes%s)\n",
                    static_cast<unsigned long long>(
                        reader->accessesRead()),
                    static_cast<unsigned long long>(
                        reader->linesRead()),
                    static_cast<unsigned long long>(
                        reader->bytesRead()),
                    forge::gzipSupported() ? ", gzip-capable" : "");
    }

    if (synth != nullptr) {
        const auto score = forge::scoreByClass(
            result.trace, *synth,
            pred::CosmosConfig{args.depth, args.filter});
        std::fputs(score.formatTable().c_str(), stdout);
        if (!args.forgeOut.empty()) {
            if (forge::writeForgeReport(args.forgeOut, *synth,
                                        result.trace, score)) {
                std::printf("forge report written to %s\n",
                            args.forgeOut.c_str());
            } else {
                std::fprintf(stderr, "cannot write %s\n",
                             args.forgeOut.c_str());
                return 1;
            }
        }
    }
    if (!args.out.empty()) {
        trace::saveTrace(args.out, result.trace);
        std::printf("trace written to %s\n", args.out.c_str());
    } else if (synth == nullptr) {
        printAnalysis(result.trace, args.depth, args.filter,
                      args.metricsOut.empty() ? nullptr : &reg);
    }
    maybeWriteMetrics(reg, args.metricsOut);
    return 0;
}

/** `cosmos gen`: write a forge stream as a text trace file that
 *  `cosmos run --trace-file` (or any other simulator speaking the
 *  format) can ingest. */
int
cmdGen(const CliArgs &args)
{
    if (args.out.empty())
        usage();
    forge::ForgeParams params;
    std::string err;
    if (!forge::ForgeParams::parse(args.forgeSpec, params, &err)) {
        std::fprintf(stderr, "bad --forge spec: %s\n", err.c_str());
        return 2;
    }
    forge::SynthSource src(params);
    std::printf("forge: %s\n", params.summary().c_str());
    const std::uint64_t n =
        forge::writeTextTrace(args.out, src, args.genAccesses);
    std::vector<std::uint64_t> byClass(forge::num_block_classes, 0);
    for (forge::BlockClass c : src.labels())
        ++byClass[static_cast<unsigned>(c)];
    std::printf("wrote %llu accesses (%u full rounds) to %s\n",
                static_cast<unsigned long long>(n), src.round(),
                args.out.c_str());
    std::printf("ground truth:");
    for (unsigned i = 0; i < forge::num_block_classes; ++i) {
        std::printf(" %s=%llu",
                    forge::toString(
                        static_cast<forge::BlockClass>(i)),
                    static_cast<unsigned long long>(byClass[i]));
    }
    std::printf(" blocks\n");
    return 0;
}

int
cmdRun(const CliArgs &args)
{
    if (!args.traceFile.empty() || !args.forgeSpec.empty()) {
        if (!args.target.empty())
            usage();
        return cmdRunTraffic(args);
    }
    if (args.target.empty())
        usage();
    obs::Registry reg;
    harness::RunConfig cfg = makeRunConfig(args);
    if (!args.metricsOut.empty())
        cfg.metrics = &reg;
    auto result = harness::runWorkload(cfg);
    printRunSummary(args.target, result);
    if (!result.workloadStats.empty())
        std::printf("workload: %s\n", result.workloadStats.c_str());
    std::printf("protocol: %llu loads, %llu stores, %llu read "
                "misses, %llu write misses, %llu upgrades\n",
                static_cast<unsigned long long>(result.totals.loads),
                static_cast<unsigned long long>(result.totals.stores),
                static_cast<unsigned long long>(
                    result.totals.readMisses),
                static_cast<unsigned long long>(
                    result.totals.writeMisses),
                static_cast<unsigned long long>(
                    result.totals.upgrades));
    if (!args.out.empty()) {
        trace::saveTrace(args.out, result.trace);
        std::printf("trace written to %s\n", args.out.c_str());
    } else {
        printAnalysis(result.trace, args.depth, args.filter,
                      args.metricsOut.empty() ? nullptr : &reg);
    }
    maybeWriteMetrics(reg, args.metricsOut);
    return 0;
}

int
cmdAnalyze(const CliArgs &args)
{
    if (args.target.empty())
        usage();
    const auto trace = trace::loadTrace(args.target);
    std::printf("trace: app=%s nodes=%u iterations=%d\n",
                trace.app.c_str(), trace.numNodes, trace.iterations);
    obs::Registry reg;
    printAnalysis(trace, args.depth, args.filter,
                  args.metricsOut.empty() ? nullptr : &reg);
    maybeWriteMetrics(reg, args.metricsOut);
    return 0;
}

int
cmdSweep(const CliArgs &args)
{
    if (args.target.empty())
        usage();
    checkKernelIterations(args);
    // All 12 depth x filter cells replay the one simulated trace
    // concurrently through the parallel sweep engine.
    std::vector<replay::ReplayJob> jobs;
    for (unsigned depth = 1; depth <= 4; ++depth)
        for (unsigned filter = 0; filter <= 2; ++filter)
            jobs.push_back(
                {.app = args.target,
                 .iterations = args.iterations,
                 .policy = args.policy,
                 .seed = args.seed,
                 .config = pred::CosmosConfig{depth, filter}});
    obs::Registry reg;
    harness::SweepOptions opts{.threads = args.threads};
    if (!args.metricsOut.empty())
        opts.metrics = &reg;
    const auto results = harness::runSweep(jobs, opts);
    if (!args.metricsOut.empty())
        harness::publishSweepMetrics(jobs, results, reg);

    TextTable table("overall accuracy (%), " + args.target);
    table.setHeader({"Depth", "filter 0", "filter 1", "filter 2"});
    std::size_t i = 0;
    for (unsigned depth = 1; depth <= 4; ++depth) {
        std::vector<std::string> row = {std::to_string(depth)};
        for (unsigned filter = 0; filter <= 2; ++filter, ++i)
            row.push_back(TextTable::num(
                results[i].accuracy.overall().percent(), 1));
        table.addRow(row);
    }
    std::fputs(table.render().c_str(), stdout);
    maybeWriteMetrics(reg, args.metricsOut);
    return 0;
}

int
cmdFigures(const CliArgs &args)
{
    if (args.target.empty())
        usage();
    auto result = harness::runWorkload(makeRunConfig(args));
    pred::PredictorBank bank(result.trace.numNodes,
                             pred::CosmosConfig{args.depth,
                                                args.filter});
    bank.replayBatched(result.trace);
    const std::string dir = args.out.empty() ? "." : args.out;
    for (const auto &path : harness::dumpSignatureDots(
             args.target, bank.arcs(proto::Role::cache),
             bank.arcs(proto::Role::directory), dir)) {
        std::printf("wrote %s\n", path.c_str());
    }
    std::printf("render with: dot -Tsvg <file> -o <file>.svg\n");
    return 0;
}

int
cmdCensus(const CliArgs &args)
{
    if (args.target.empty())
        usage();
    auto result = harness::runWorkload(makeRunConfig(args));
    const auto census = trace::classifyTrace(result.trace);
    std::printf("sharing-pattern census of %s (%llu classified "
                "blocks, %llu directory messages):\n%s",
                args.target.c_str(),
                static_cast<unsigned long long>(census.totalBlocks),
                static_cast<unsigned long long>(census.totalMessages),
                census.format().c_str());
    return 0;
}

int
cmdAccel(const CliArgs &args)
{
    if (args.target.empty())
        usage();
    const auto cfg = makeRunConfig(args);
    const auto base = harness::runWorkload(cfg);
    accel::OnlineOptions opts;
    opts.predictor = pred::CosmosConfig{args.depth,
                                        std::max(args.filter, 1u)};
    const auto acc = harness::runAccelerated(cfg, opts);
    const double speedup =
        100.0 * (static_cast<double>(base.finalTime) /
                     static_cast<double>(acc.run.finalTime) -
                 1.0);
    std::printf("baseline:     %llu ns, %llu remote messages, "
                "%llu upgrades\n",
                static_cast<unsigned long long>(base.finalTime),
                static_cast<unsigned long long>(
                    base.network.remoteMessages),
                static_cast<unsigned long long>(
                    base.totals.upgrades));
    std::printf("accelerated:  %llu ns, %llu remote messages, "
                "%llu upgrades\n",
                static_cast<unsigned long long>(acc.run.finalTime),
                static_cast<unsigned long long>(
                    acc.run.network.remoteMessages),
                static_cast<unsigned long long>(
                    acc.run.totals.upgrades));
    std::printf("speedup %.1f%%; %llu exclusive grants, %llu "
                "recalls; live predictor accuracy %.1f%%\n",
                speedup,
                static_cast<unsigned long long>(
                    acc.run.totals.exclusiveGrants),
                static_cast<unsigned long long>(
                    acc.run.totals.recalls),
                acc.predictorAccuracyPercent);
    return 0;
}

/**
 * Why the fuzz flags in @p args cannot build a case, or "" when they
 * can. Checked before any case runs, so a bad value is reported by
 * its flag instead of by the assertion deep inside a case it trips.
 */
std::string
fuzzFlagError(const CliArgs &args)
{
    if (!(args.forgeMix >= 0.0 && args.forgeMix <= 1.0))
        return "--forge-mix must be in [0, 1], got " +
               std::to_string(args.forgeMix);
    // The directory's full-map sharer mask holds 64 nodes; forge
    // traffic needs a second processor to share with.
    const bool forge = args.forgeMix > 0.0;
    const unsigned minNodes = forge ? 2 : 1;
    if (args.fuzzNodes < minNodes || args.fuzzNodes > 64)
        return "--nodes must be in [" + std::to_string(minNodes) +
               ", 64]" + (forge ? " with --forge-mix above 0" : "") +
               ", got " + std::to_string(args.fuzzNodes);
    if (args.fuzzBlocks < 1)
        return "--blocks must be at least 1, got 0";
    return {};
}

check::FuzzOptions
makeFuzzOptions(const CliArgs &args)
{
    check::FuzzOptions opts;
    opts.numSeeds = args.fuzzSeeds;
    opts.baseSeed = args.seed;
    opts.numNodes = static_cast<NodeId>(args.fuzzNodes);
    opts.numBlocks = args.fuzzBlocks;
    opts.opsPerNode = args.fuzzOps;
    opts.maxJitter = args.fuzzJitter;
    opts.ignoreInvalEvery = args.injectIgnoreInval;
    opts.forgeMix = args.forgeMix;
    return opts;
}

void
printReplayHint(const check::FuzzOptions &opts, std::uint64_t seed)
{
    std::printf("replay with: cosmos fuzz --replay %llu --nodes %u "
                "--blocks %u --ops %u --jitter %llu",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned>(opts.numNodes), opts.numBlocks,
                opts.opsPerNode,
                static_cast<unsigned long long>(opts.maxJitter));
    if (opts.ignoreInvalEvery != 0)
        std::printf(" --inject-ignore-inval %u", opts.ignoreInvalEvery);
    std::printf("\n");
}

/** Execute a model-checker counterexample through the real
 *  simulator: zero jitter, so the network replays the schedule's
 *  issue order deterministically. Exits nonzero when the invariant
 *  engine confirms the violation -- CI's replay leg asserts that. */
int
replayModelCounterexample(const CliArgs &args)
{
    const check::FuzzCase c =
        check::loadCounterexample(args.replayModel);
    check::FuzzOptions opts;
    opts.maxJitter = 0;
    const check::CaseResult r = check::runCase(c, opts);
    std::printf("model counterexample %s: %s (%llu messages "
                "delivered)\n",
                args.replayModel.c_str(),
                r.failed ? "CONFIRMED" : "did not reproduce",
                static_cast<unsigned long long>(r.delivered));
    for (const auto &v : r.violations)
        std::printf("%s\n", v.format().c_str());
    return r.failed ? 1 : 0;
}

int
cmdModel(const CliArgs &args)
{
    // Reject sizes the model cannot hold before exploring, by flag
    // (ModelConfig::validate is the library's own guard).
    const auto checkRange = [&](const char *flag, unsigned v,
                                unsigned lo, unsigned hi) {
        if (v < lo || v > hi)
            badFlagValue(args, flag,
                         detail::concat("a decimal integer in [", lo,
                                        ", ", hi, "]"),
                         std::to_string(v).c_str());
    };
    if (args.haveNodes)
        checkRange("--nodes", args.fuzzNodes, 2, model::max_nodes);
    if (args.haveBlocks)
        checkRange("--blocks", args.fuzzBlocks, 1, model::max_blocks);
    checkRange("--reorder", args.modelReorder, 0, model::max_queue - 1);
    checkRange("--inject-ignore-inval", args.injectIgnoreInval, 0,
               model::max_ignore_inval_every);

    model::ExploreOptions opt;
    opt.mc.numNodes = static_cast<NodeId>(args.haveNodes
                                              ? args.fuzzNodes
                                              : 2u);
    opt.mc.numBlocks = args.haveBlocks ? args.fuzzBlocks : 1u;
    opt.mc.reorder = args.modelReorder;
    opt.mc.policy = args.policy;
    opt.mc.forwarding = args.forwarding;
    opt.mc.legacyForwarding = args.legacyForwarding;
    opt.mc.ignoreInvalEvery = args.injectIgnoreInval;
    opt.maxStates = args.modelMaxStates;
    opt.threads = args.threads;
    opt.mc.validate();

    const model::ExploreResult res = model::explore(opt);
    std::fputs(model::renderReport(opt.mc, res).c_str(), stdout);

    if (!args.out.empty()) {
        if (model::writeReportJson(args.out, opt.mc, res)) {
            std::printf("model report written to %s\n",
                        args.out.c_str());
        } else {
            std::fprintf(stderr, "cannot write %s\n",
                         args.out.c_str());
            return 1;
        }
    }
    if (!args.counterexampleOut.empty() &&
        !res.counterexamples.empty()) {
        if (model::writeCounterexample(args.counterexampleOut, opt.mc,
                                       res.counterexamples.front())) {
            std::printf("counterexample written to %s (replay with: "
                        "cosmos fuzz --replay-model %s)\n",
                        args.counterexampleOut.c_str(),
                        args.counterexampleOut.c_str());
        } else {
            std::fprintf(stderr, "cannot write %s\n",
                         args.counterexampleOut.c_str());
            return 1;
        }
    }
    return res.clean() ? 0 : 1;
}

int
cmdLint(const CliArgs &args)
{
    lint::MutationKind kind = lint::MutationKind::none;
    if (!args.mutate.empty() &&
        !lint::parseMutation(args.mutate, kind)) {
        std::fprintf(stderr, "unknown --mutate kind '%s'\n",
                     args.mutate.c_str());
        return 2;
    }

    MachineConfig cfg;
    cfg.numNodes =
        static_cast<NodeId>(args.haveNodes ? args.fuzzNodes : 2u);
    cfg.forwarding = args.forwarding;
    cfg.legacyForwarding = args.legacyForwarding;
    cfg.ownerReadPolicy = args.policy;
    cfg.cacheCapacityBlocks = args.lintCapacity;

    proto::ProtocolTable table = proto::ProtocolTable::build(cfg);
    if (kind != lint::MutationKind::none) {
        std::printf("mutation: %s\n",
                    lint::applyMutation(table, kind).c_str());
    }

    const std::vector<lint::Finding> findings = lint::analyze(table);
    std::fputs(lint::renderReport(table, findings, kind).c_str(),
               stdout);

    if (!args.out.empty()) {
        std::ofstream f(args.out);
        if (f)
            f << lint::renderJson(table, findings, kind);
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         args.out.c_str());
            return 2;
        }
        std::printf("lint report written to %s\n", args.out.c_str());
    }
    return findings.empty() ? 0 : 1;
}

int
cmdFuzz(const CliArgs &args)
{
    if (!args.replayModel.empty())
        return replayModelCounterexample(args);

    if (const std::string err = fuzzFlagError(args); !err.empty()) {
        std::fprintf(stderr, "cosmos fuzz: %s\n", err.c_str());
        return 2;
    }
    const check::FuzzOptions opts = makeFuzzOptions(args);

    check::FuzzReport report;
    if (args.haveReplay) {
        check::Failure f = check::replaySeed(args.replaySeed, opts);
        report.casesRun = 1;
        std::printf("replay seed %llu: %s (%llu messages "
                    "delivered)\n",
                    static_cast<unsigned long long>(args.replaySeed),
                    f.result.failed ? "FAILED" : "clean",
                    static_cast<unsigned long long>(
                        f.result.delivered));
        for (const auto &v : f.result.violations)
            std::printf("%s\n", v.format().c_str());
        if (f.result.failed) {
            std::printf("shrunk reproducer (%zu of %zu ops):\n",
                        f.shrunkOps, f.originalOps);
            for (const auto &line : f.reproducer)
                std::printf("  %s\n", line.c_str());
            report.failures.push_back(std::move(f));
        }
    } else {
        report = check::fuzz(opts, &std::cout);
        for (const auto &f : report.failures)
            printReplayHint(opts, f.result.seed);
    }

    if (!args.out.empty()) {
        if (check::writeReport(report, opts, args.out)) {
            std::printf("fuzz report written to %s\n",
                        args.out.c_str());
        } else {
            std::fprintf(stderr, "cannot write %s\n",
                         args.out.c_str());
            return 1;
        }
    }
    return report.clean() ? 0 : 1;
}

int
dispatch(const CliArgs &args)
{
    if (args.command == "list")
        return cmdList();
    if (args.command == "run")
        return cmdRun(args);
    if (args.command == "gen")
        return cmdGen(args);
    if (args.command == "analyze")
        return cmdAnalyze(args);
    if (args.command == "sweep")
        return cmdSweep(args);
    if (args.command == "accel")
        return cmdAccel(args);
    if (args.command == "figures")
        return cmdFigures(args);
    if (args.command == "census")
        return cmdCensus(args);
    if (args.command == "fuzz")
        return cmdFuzz(args);
    if (args.command == "model")
        return cmdModel(args);
    if (args.command == "lint")
        return cmdLint(args);
    usage();
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = parse(argc, argv);
    if (!args.traceOut.empty())
        obs::startTracing();
    const int rc = dispatch(args);
    if (!args.traceOut.empty() && obs::writeTrace(args.traceOut))
        std::printf("trace events written to %s\n",
                    args.traceOut.c_str());
    return rc;
}
