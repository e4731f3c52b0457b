/**
 * @file
 * Signature explorer: run any of the bundled workloads and print its
 * dominant incoming-message signatures (the Figures 6/7 view), plus
 * per-depth accuracy -- a working tool for investigating how sharing
 * patterns turn into predictable message streams.
 *
 * Run:  ./signature_explorer [workload] [iterations]
 *       ./signature_explorer moldyn 20
 * Workloads: appbt barnes dsmc moldyn unstructured
 *            micro_producer_consumer micro_migratory micro_rmw
 *            micro_false_sharing
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cosmos/predictor_bank.hh"
#include "harness/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace cosmos;

    const std::string app = argc > 1 ? argv[1] : "moldyn";
    const int iterations = argc > 2 ? std::atoi(argv[2]) : -1;

    harness::RunConfig cfg;
    cfg.app = app;
    cfg.iterations = iterations;

    std::printf("running %s on %u nodes (%s)...\n", app.c_str(),
                cfg.machine.numNodes,
                cfg.machine.summary().c_str());
    auto result = harness::runWorkload(cfg);
    std::printf("%zu messages, %zu blocks, workload: %s\n\n",
                result.trace.records.size(),
                result.trace.distinctBlocks(),
                result.workloadStats.c_str());

    pred::PredictorBank bank(result.trace.numNodes,
                             pred::CosmosConfig{1, 0});
    bank.replayBatched(result.trace);

    for (auto role : {proto::Role::cache, proto::Role::directory}) {
        std::printf("dominant signatures at the %s "
                    "(hit%% / ref%%):\n",
                    proto::toString(role));
        for (const auto &arc : bank.arcs(role).dominantArcs(2.0)) {
            std::printf("  %-22s -> %-22s  %3.0f/%-3.0f\n",
                        proto::toString(arc.from),
                        proto::toString(arc.to), arc.hitPercent,
                        arc.refPercent);
        }
        std::printf("\n");
    }

    std::printf("accuracy by MHR depth:\n");
    for (unsigned depth = 1; depth <= 4; ++depth) {
        pred::PredictorBank b(result.trace.numNodes,
                              pred::CosmosConfig{depth, 0});
        b.replayBatched(result.trace);
        std::printf("  depth %u: cache %5.1f%%  directory %5.1f%%  "
                    "overall %5.1f%%\n",
                    depth, b.accuracy().cacheSide().percent(),
                    b.accuracy().directorySide().percent(),
                    b.accuracy().overall().percent());
    }
    return 0;
}
