/**
 * @file
 * Reproduces paper Figures 6 and 7: the dominant incoming-message
 * signatures of every application at the cache and at the directory,
 * each arc labelled X/Y (X = % correct predictions on that arc,
 * Y = % of references on that arc), measured with a filterless
 * depth-1 Cosmos predictor -- the figures' exact setup.
 *
 * Shape criteria: appbt's producer cycle
 * (get_ro_response -> upgrade_response -> inval_rw_request) and
 * 5-arc directory cycle dominate; moldyn shows the migratory
 * <get_ro_response, upgrade_response, inval_rw_response> cache
 * signature; dsmc's dominant arcs are the producer-consumer buffer
 * hand-offs; appbt's directory arc upgrade_request ->
 * inval_ro_response carries visibly lower accuracy (false sharing).
 */

#include <cstdio>
#include <cstdlib>

#include "bench_util.hh"
#include "cosmos/predictor_bank.hh"
#include "harness/figures.hh"
#include "harness/trace_cache.hh"

int
main()
{
    using namespace cosmos;
    bench::banner(
        "Figures 6/7: dominant incoming-message signatures, arcs "
        "labelled hit%/ref% (depth 1, no filter)");

    for (const auto &app : bench::apps) {
        const auto &trace = harness::cachedTrace(app);
        pred::PredictorBank bank(trace.numNodes,
                                 pred::CosmosConfig{1, 0});
        bank.replayBatched(trace);

        std::printf("--- %s ---\n", app.c_str());
        if (const char *dir = std::getenv("COSMOS_FIGURE_DIR")) {
            for (const auto &path : harness::dumpSignatureDots(
                     app, bank.arcs(proto::Role::cache),
                     bank.arcs(proto::Role::directory), dir)) {
                std::printf("  wrote %s\n", path.c_str());
            }
        }
        for (auto role : {proto::Role::cache, proto::Role::directory}) {
            std::printf("  at the %s:\n", proto::toString(role));
            // The figures show only dominant transitions; 2% of
            // references is roughly their cut.
            for (const auto &arc : bank.arcs(role).dominantArcs(2.0)) {
                std::printf("    %-22s -> %-22s  %3.0f/%-3.0f"
                            "  (%llu refs)\n",
                            proto::toString(arc.from),
                            proto::toString(arc.to), arc.hitPercent,
                            arc.refPercent,
                            static_cast<unsigned long long>(arc.refs));
            }
        }
    }
    return 0;
}
