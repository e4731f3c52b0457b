/**
 * @file
 * Trace workflow walk-through: simulate, save the coherence-message
 * trace to disk, load it back, and inspect it three ways --
 * sharing-pattern census, Cosmos accuracy at several depths, and a
 * Graphviz signature graph -- all through the public API. This is
 * the offline methodology of the paper (§5) as a program.
 *
 * Run:  ./replay_and_inspect [workload] [trace-file]
 */

#include <cstdio>
#include <string>

#include "cosmos/predictor_bank.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "trace/pattern_census.hh"
#include "trace/trace_io.hh"

int
main(int argc, char **argv)
{
    using namespace cosmos;

    const std::string app = argc > 1 ? argv[1] : "unstructured";
    const std::string path =
        argc > 2 ? argv[2] : "/tmp/" + app + ".trace";

    // --- 1. simulate and persist ----------------------------------
    harness::RunConfig cfg;
    cfg.app = app;
    cfg.iterations = 20;
    auto result = harness::runWorkload(cfg);
    trace::saveTrace(path, result.trace);
    std::printf("simulated %s: %zu messages -> %s\n", app.c_str(),
                result.trace.records.size(), path.c_str());

    // --- 2. reload (pretend this is a later analysis session) -----
    const trace::Trace trace = trace::loadTrace(path);
    std::printf("loaded: app=%s, %u nodes, %d iterations\n\n",
                trace.app.c_str(), trace.numNodes, trace.iterations);

    // --- 3a. sharing-pattern census --------------------------------
    std::printf("sharing-pattern census (directory side):\n%s\n",
                trace::classifyTrace(trace).format().c_str());

    // --- 3b. predictor sweep ---------------------------------------
    std::printf("Cosmos accuracy by depth:\n");
    for (unsigned depth = 1; depth <= 4; ++depth) {
        pred::PredictorBank bank(trace.numNodes,
                                 pred::CosmosConfig{depth, 0});
        bank.replayBatched(trace);
        std::printf("  depth %u: %5.1f%% overall (%5.1f%% cache, "
                    "%5.1f%% directory)\n",
                    depth, bank.accuracy().overall().percent(),
                    bank.accuracy().cacheSide().percent(),
                    bank.accuracy().directorySide().percent());
    }

    // --- 3c. signature graph ---------------------------------------
    pred::PredictorBank bank(trace.numNodes, pred::CosmosConfig{1, 0});
    bank.replayBatched(trace);
    const auto files = harness::dumpSignatureDots(
        app, bank.arcs(proto::Role::cache),
        bank.arcs(proto::Role::directory), "/tmp");
    std::printf("\nsignature graphs:\n");
    for (const auto &f : files)
        std::printf("  %s  (render: dot -Tsvg %s -o %s.svg)\n",
                    f.c_str(), f.c_str(), f.c_str());
    return 0;
}
