/**
 * @file
 * Ablation: non-blocking caches. The paper's introduction lists
 * non-blocking caches among the latency-tolerance techniques that
 * prediction complements; its target model, however, is a blocking
 * processor (one outstanding miss). Here each processor may overlap
 * 1 / 2 / 4 misses to distinct blocks and we measure both what the
 * machine gains (runtime) and what the predictor pays (accuracy),
 * since overlapping misses interleave the per-block message streams
 * more aggressively.
 *
 * Expected shape: runtime drops markedly with the window; accuracy
 * falls only modestly, because per-block access order is preserved
 * (same-block dependences stall) and Cosmos keys its history by
 * block.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/table.hh"
#include "cosmos/predictor_bank.hh"
#include "harness/experiment.hh"

int
main()
{
    using namespace cosmos;
    bench::banner(
        "Ablation: outstanding misses per processor (non-blocking "
        "caches); depth-2 accuracy and runtime");

    TextTable table;
    table.setHeader({"App", "O @ mlp=1", "O @ mlp=2", "O @ mlp=4",
                     "time mlp=1", "time mlp=4", "time saved"});

    for (const auto &app : bench::apps) {
        std::vector<std::string> row = {app};
        Tick t1 = 0, t4 = 0;
        for (unsigned mlp : {1u, 2u, 4u}) {
            harness::RunConfig cfg;
            cfg.app = app;
            cfg.iterations = app == "dsmc" ? 150 : -1;
            cfg.machine.memoryLevelParallelism = mlp;
            cfg.checkInvariants = false;
            auto result = harness::runWorkload(cfg);
            pred::PredictorBank bank(result.trace.numNodes,
                                     pred::CosmosConfig{2, 0});
            bank.replayBatched(result.trace);
            row.push_back(TextTable::num(
                bank.accuracy().overall().percent(), 1));
            if (mlp == 1)
                t1 = result.finalTime;
            if (mlp == 4)
                t4 = result.finalTime;
        }
        row.push_back(TextTable::num(t1));
        row.push_back(TextTable::num(t4));
        row.push_back(
            TextTable::num(100.0 * (1.0 - static_cast<double>(t4) /
                                              static_cast<double>(t1)),
                           1) +
            "%");
        table.addRow(row);
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}
