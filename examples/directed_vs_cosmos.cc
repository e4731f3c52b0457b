/**
 * @file
 * The §7 argument as a runnable demo: a workload whose sharing
 * pattern *changes phase* (unstructured's migratory <->
 * producer-consumer oscillation) defeats predictors directed at a
 * single pattern, while Cosmos -- which adapts to whatever message
 * signature actually occurs -- tracks both phases.
 *
 * Run:  ./directed_vs_cosmos
 */

#include <cstdio>

#include "cosmos/directed.hh"
#include "cosmos/predictor_bank.hh"
#include "harness/experiment.hh"
#include "workloads/micro.hh"
#include "workloads/unstructured.hh"

namespace
{

using namespace cosmos;

void
report(const char *label, const trace::Trace &trace)
{
    pred::PredictorBank cosmos1(trace.numNodes,
                                pred::CosmosConfig{1, 0});
    pred::PredictorBank cosmos3(trace.numNodes,
                                pred::CosmosConfig{3, 0});
    pred::PredictorBank directed(
        trace.numNodes,
        [](NodeId, proto::Role role)
            -> std::unique_ptr<pred::MessagePredictor> {
            if (role == proto::Role::cache)
                return std::make_unique<pred::DsiPredictor>();
            return std::make_unique<pred::MigratoryPredictor>();
        });
    cosmos1.replayBatched(trace);
    cosmos3.replayBatched(trace);
    directed.replayBatched(trace);

    std::printf("%-28s directed %5.1f%%   Cosmos d1 %5.1f%%   "
                "Cosmos d3 %5.1f%%\n",
                label, directed.accuracy().overall().percent(),
                cosmos1.accuracy().overall().percent(),
                cosmos3.accuracy().overall().percent());
}

} // namespace

int
main()
{
    using namespace cosmos;

    std::printf("overall prediction accuracy:\n\n");

    {
        // The directed predictors' home turf: a pure migratory
        // pattern. Both approaches do well here.
        harness::RunConfig cfg;
        wl::MigratoryParams params;
        params.iterations = 40;
        wl::MigratoryMicro workload(params);
        auto result = harness::runWorkload(cfg, workload);
        report("pure migratory (micro):", result.trace);
    }
    {
        // The §7 counterexample: unstructured oscillates between
        // migratory and producer-consumer phases on the same blocks.
        harness::RunConfig cfg;
        cfg.app = "unstructured";
        cfg.iterations = 25;
        auto result = harness::runWorkload(cfg);
        report("unstructured (composite):", result.trace);
    }

    std::printf(
        "\nA migratory-only or self-invalidation-only predictor "
        "covers just the\nslice of the message stream it was designed "
        "for; Cosmos discovers the\ncomposite, application-specific "
        "signature on its own and converts the\nextra history depth "
        "into accuracy -- the paper's case for general\nprediction "
        "over directed optimizations.\n");
    return 0;
}
