/**
 * @file
 * Reproduces paper Table 5: Cosmos prediction rates (percent hits) at
 * the cache (C), directory (D), and overall (O), for MHR depths 1-4,
 * across the five applications.
 *
 * One simulation per application; the four predictor depths replay
 * the same trace, exactly like the paper's offline methodology.
 *
 * The 20 (app x depth) replay cells run through the parallel
 * SweepEngine; a serial replay of the same grid runs first, both are
 * timed, and every cell is checked bit-identical (same integer
 * hit/total counts) before the table is printed from the sweep
 * results.
 *
 * Shape criteria (DESIGN.md §4): barnes lowest overall; dsmc highest
 * at depth >= 3; unstructured gains the most from depth; C > D for
 * every application at depth 1.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "cosmos/predictor_bank.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"

namespace
{

using namespace cosmos;

} // namespace

int
main()
{
    bench::banner(
        "Table 5: Cosmos prediction rates (% hits); C = cache, "
        "D = directory, O = overall");

    TextTable table;
    std::vector<std::string> header = {"Depth"};
    for (const auto &app : bench::apps) {
        header.push_back(app + ":C");
        header.push_back("D");
        header.push_back("O");
    }
    table.setHeader(header);

    // Paper rows for side-by-side comparison.
    for (unsigned depth = 1; depth <= 4; ++depth) {
        std::vector<std::string> row = {"paper " +
                                        std::to_string(depth)};
        for (std::size_t a = 0; a < bench::apps.size(); ++a) {
            const auto &cdo = bench::paper_table5[a][depth - 1];
            for (int v : cdo)
                row.push_back(std::to_string(v));
        }
        table.addRow(row);
    }
    table.addSeparator();

    // The replay grid: depth-major so results[] maps onto table rows.
    std::vector<replay::ReplayJob> jobs;
    for (unsigned depth = 1; depth <= 4; ++depth)
        for (const auto &app : bench::apps)
            jobs.push_back({.app = app,
                            .config = pred::CosmosConfig{depth, 0}});

    // Simulate the five traces once, outside both timed regions.
    for (const auto &app : bench::apps)
        harness::cachedTrace(app);

    // Serial reference pass (one batched bank per cell), timed.
    auto start = std::chrono::steady_clock::now();
    std::vector<pred::AccuracyTracker> serial;
    serial.reserve(jobs.size());
    for (const auto &job : jobs) {
        const auto &trace = harness::cachedTrace(job.app);
        pred::PredictorBank bank(trace.numNodes, job.config);
        bank.replayBatched(trace);
        serial.push_back(bank.accuracy());
    }
    const double serial_s = bench::secondsSince(start);

    // Parallel sweep over the same grid, timed.
    const unsigned threads = replay::ThreadPool::defaultThreadCount();
    start = std::chrono::steady_clock::now();
    const auto results = harness::runSweep(jobs, {.threads = threads});
    const double sweep_s = bench::secondsSince(start);

    // The sweep must reproduce the serial counts bit-for-bit.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto &s = serial[i].overall();
        const auto &p = results[i].accuracy.overall();
        cosmos_assert(s.hits == p.hits && s.total == p.total,
                      "parallel sweep diverged from serial replay on ",
                      jobs[i].app, " depth ", jobs[i].config.depth);
    }

    std::size_t i = 0;
    for (unsigned depth = 1; depth <= 4; ++depth) {
        std::vector<std::string> row = {"ours  " +
                                        std::to_string(depth)};
        for (std::size_t a = 0; a < bench::apps.size(); ++a, ++i) {
            const auto &acc = results[i].accuracy;
            row.push_back(
                TextTable::num(acc.cacheSide().percent(), 0));
            row.push_back(
                TextTable::num(acc.directorySide().percent(), 0));
            row.push_back(TextTable::num(acc.overall().percent(), 0));
        }
        table.addRow(row);
    }

    std::fputs(table.render().c_str(), stdout);

    std::printf("\nreplay of %zu cells: serial %.3f s, sweep %.3f s "
                "on %u thread%s -> %.2fx speedup "
                "(results bit-identical)\n",
                jobs.size(), serial_s, sweep_s, threads,
                threads == 1 ? "" : "s",
                sweep_s > 0.0 ? serial_s / sweep_s : 0.0);

    std::printf("\ntrace sizes:\n");
    for (const auto &app : bench::apps) {
        const auto &trace = harness::cachedTrace(app);
        std::printf("  %-13s %8zu messages, %6zu blocks, %d iterations\n",
                    app.c_str(), trace.records.size(),
                    trace.distinctBlocks(), trace.iterations);
    }
    return 0;
}
