/**
 * @file
 * Robustness: Table 5's headline numbers across five simulation
 * seeds. Timing interleavings, workload randomness, and initial
 * conditions all derive from the seed, so the spread here bounds how
 * much of the reported accuracy is seed luck. Runs are shortened
 * (the cumulative accuracy is stable well before the default lengths,
 * see bench_adaptation_curves).
 *
 * Shape criterion: per-application spread of a few points at most,
 * with the cross-application ordering (barnes worst, dsmc/moldyn/
 * unstructured in the 80s) preserved under every seed.
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
        "Seed variance: depth-2 overall accuracy over five seeds "
        "(min / mean / max)");

    const std::uint64_t seeds[] = {0x5eedc05305ULL, 1, 42, 777,
                                   0xabcdef};

    TextTable table;
    table.setHeader({"App", "min", "mean", "max", "spread"});
    for (const auto &app : bench::apps) {
        double lo = 101.0, hi = -1.0, sum = 0.0;
        for (std::uint64_t seed : seeds) {
            harness::RunConfig cfg;
            cfg.app = app;
            cfg.iterations = app == "dsmc" ? 200 : 25;
            cfg.seed = seed;
            cfg.checkInvariants = false;
            auto result = harness::runWorkload(cfg);
            pred::PredictorBank bank(result.trace.numNodes,
                                     pred::CosmosConfig{2, 0});
            bank.replayBatched(result.trace);
            const double o = bank.accuracy().overall().percent();
            lo = std::min(lo, o);
            hi = std::max(hi, o);
            sum += o;
        }
        table.addRow({app, TextTable::num(lo, 1),
                      TextTable::num(sum / 5.0, 1),
                      TextTable::num(hi, 1),
                      TextTable::num(hi - lo, 1)});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}
