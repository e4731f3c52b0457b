/**
 * @file
 * Ablation: cache replacement. Stache never replaces the remote pages
 * it caches (§5.1), which keeps both cache lines and Cosmos history
 * persistent. This ablation caps each cache at N blocks (read-only
 * victims dropped silently) and measures what replacement does to
 * (a) protocol traffic and (b) prediction accuracy -- the concern the
 * paper raises in §3.7 and §5.1 for protocols that do replace.
 *
 * Measured finding: even with tens of thousands of evictions the
 * accuracy loss is only ~0.1-3 points. The reason is an implementation
 * decision the paper discusses in §3.7: our Message History Table is
 * *separate* from the cache-line state, so a silent drop loses no
 * predictor history -- only the re-fetch messages perturb the
 * signature. An implementation that merged the MHR into the cache
 * line (the paper's space optimization) would lose the history
 * itself, which is exactly why §5.1 suggests that replacing
 * protocols "can speculate only at the directory, where Cosmos'
 * history information is persistent".
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
        "Ablation: cache capacity (blocks); depth-2 accuracy "
        "C/D/O and eviction-driven extra misses");

    const unsigned capacities[] = {0, 256, 64, 24};

    for (const auto &app : bench::apps) {
        TextTable table(app);
        table.setHeader({"Capacity", "C", "D", "O", "read misses",
                         "evictions", "stale invals"});
        for (unsigned capacity : capacities) {
            harness::RunConfig cfg;
            cfg.app = app;
            cfg.iterations = app == "dsmc" ? 150 : -1;
            cfg.machine.cacheCapacityBlocks = capacity;
            cfg.checkInvariants = true;
            auto result = harness::runWorkload(cfg);

            pred::PredictorBank bank(result.trace.numNodes,
                                     pred::CosmosConfig{2, 0});
            bank.replayBatched(result.trace);
            const auto &acc = bank.accuracy();

            table.addRow(
                {capacity == 0 ? "unbounded (Stache)"
                               : std::to_string(capacity),
                 TextTable::num(acc.cacheSide().percent(), 1),
                 TextTable::num(acc.directorySide().percent(), 1),
                 TextTable::num(acc.overall().percent(), 1),
                 TextTable::num(result.totals.readMisses),
                 TextTable::num(result.totals.evictions),
                 TextTable::num(result.totals.staleInvals)});
        }
        std::fputs(table.render().c_str(), stdout);
    }
    return 0;
}
