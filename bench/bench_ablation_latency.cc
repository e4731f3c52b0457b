/**
 * @file
 * Ablation: network-latency insensitivity (§5).
 *
 * The paper reports that raising the network latency from 40 ns to a
 * full microsecond "hardly changes Cosmos' prediction rates". We run
 * each application at both latencies and print the depth-1 accuracy
 * side by side; the deltas should be small (a point or two), because
 * prediction depends on per-block message *order*, which timing only
 * perturbs at the margins.
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
        "Ablation: Cosmos depth-1 accuracy at 40 ns vs 1000 ns "
        "network latency");

    TextTable table;
    table.setHeader({"App", "O @ 40ns", "O @ 1000ns", "delta"});

    for (const auto &app : bench::apps) {
        double rates[2];
        const Tick latencies[2] = {40, 1000};
        for (int i = 0; i < 2; ++i) {
            harness::RunConfig cfg;
            cfg.app = app;
            cfg.machine.networkLatency = latencies[i];
            cfg.checkInvariants = false;
            auto result = harness::runWorkload(cfg);
            pred::PredictorBank bank(result.trace.numNodes,
                                     pred::CosmosConfig{1, 0});
            bank.replayBatched(result.trace);
            rates[i] = bank.accuracy().overall().percent();
        }
        table.addRow({app, TextTable::num(rates[0], 1),
                      TextTable::num(rates[1], 1),
                      TextTable::num(rates[1] - rates[0], 1)});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}
