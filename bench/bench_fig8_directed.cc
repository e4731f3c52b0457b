/**
 * @file
 * Reproduces paper Figure 8 and the §7 comparison with directed
 * optimizations.
 *
 * Figure 8 shows the trigger signatures of dynamic self-invalidation
 * (data response followed by invalidation, at a cache) and of a
 * migratory protocol (read then upgrade by the same node, at the
 * directory). Part 1 drives the matching micro-workloads and shows
 * that both the directed detectors and Cosmos capture the signatures.
 *
 * Part 2 is the §7 argument quantified: on unstructured -- whose
 * composite migratory <-> producer-consumer phases no single directed
 * pattern matches -- Cosmos keeps its accuracy while each directed
 * predictor covers only a corner of the message stream.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/table.hh"
#include "cosmos/directed.hh"
#include "cosmos/predictor_bank.hh"
#include "harness/experiment.hh"
#include "harness/trace_cache.hh"
#include "workloads/micro.hh"

namespace
{

using namespace cosmos;

pred::PredictorBank
directedBank(NodeId nodes)
{
    return pred::PredictorBank(
        nodes, [](NodeId, proto::Role role)
                   -> std::unique_ptr<pred::MessagePredictor> {
            if (role == proto::Role::cache)
                return std::make_unique<pred::DsiPredictor>();
            return std::make_unique<pred::MigratoryPredictor>();
        });
}

void
compareOn(const trace::Trace &trace, const char *label)
{
    pred::PredictorBank cosmos_bank(trace.numNodes,
                                    pred::CosmosConfig{2, 0});
    cosmos_bank.replayBatched(trace);
    auto directed = directedBank(trace.numNodes);
    directed.replayBatched(trace);

    std::printf("  %-22s Cosmos(d2): C=%3.0f%% D=%3.0f%% O=%3.0f%%   "
                "directed:   C=%3.0f%% D=%3.0f%% O=%3.0f%%\n",
                label, cosmos_bank.accuracy().cacheSide().percent(),
                cosmos_bank.accuracy().directorySide().percent(),
                cosmos_bank.accuracy().overall().percent(),
                directed.accuracy().cacheSide().percent(),
                directed.accuracy().directorySide().percent(),
                directed.accuracy().overall().percent());
}

} // namespace

int
main()
{
    bench::banner(
        "Figure 8a: self-invalidation trigger signature "
        "(producer-consumer micro, blind producer writes)");
    {
        wl::ProducerConsumerParams params;
        params.producerReadsFirst = false;
        params.iterations = 40;
        harness::RunConfig cfg;
        cfg.machine.numNodes = 16;
        wl::ProducerConsumerMicro workload(params);
        auto result = harness::runWorkload(cfg, workload);

        auto directed = directedBank(16);
        directed.replayBatched(result.trace);
        std::uint64_t marked = 0;
        for (NodeId n = 0; n < 16; ++n) {
            marked += dynamic_cast<pred::DsiPredictor *>(
                          &directed.predictor(n, proto::Role::cache))
                          ->selfInvalBlocks();
        }
        std::printf("  (block, cache) pairs marked self-invalidate: "
                    "%llu (>= %u expected: producer + consumer "
                    "copies)\n",
                    static_cast<unsigned long long>(marked),
                    params.blocks);
        compareOn(result.trace, "producer-consumer");
    }

    bench::banner(
        "Figure 8b: migratory trigger signature (migratory micro)");
    {
        wl::MigratoryParams params;
        params.iterations = 40;
        harness::RunConfig cfg;
        cfg.machine.numNodes = 16;
        wl::MigratoryMicro workload(params);
        auto result = harness::runWorkload(cfg, workload);

        auto directed = directedBank(16);
        directed.replayBatched(result.trace);
        std::uint64_t migratory = 0;
        for (NodeId n = 0; n < 16; ++n) {
            migratory += dynamic_cast<pred::MigratoryPredictor *>(
                             &directed.predictor(
                                 n, proto::Role::directory))
                             ->migratoryBlocks();
        }
        std::printf("  blocks detected migratory across directories: "
                    "%llu of %u\n",
                    static_cast<unsigned long long>(migratory),
                    params.blocks);
        compareOn(result.trace, "migratory");
    }

    bench::banner(
        "S7: Cosmos vs directed predictors on the full applications "
        "(directed predictors only cover their own pattern)");
    for (const auto &app : bench::apps)
        compareOn(harness::cachedTrace(app), app.c_str());

    return 0;
}
