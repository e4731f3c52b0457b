/**
 * @file
 * Reproduces paper Table 7: Cosmos memory overhead. Ratio = total
 * PHT entries / total MHR entries; Ovhd = the caption's formula
 * (two-byte tuples, percentage of a 128-byte block).
 *
 * Shape criteria: barnes is the outlier whose ratio and overhead blow
 * up with depth (address reassignment creates ever-new patterns);
 * dsmc's ratio is below one and *decreases* with depth (many
 * rarely-touched buffer blocks never earn a PHT); everyone's
 * overhead grows with depth.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/table.hh"
#include "cosmos/predictor_bank.hh"
#include "harness/trace_cache.hh"

int
main()
{
    using namespace cosmos;
    bench::banner(
        "Table 7: memory overhead; Ratio = PHT entries / MHR "
        "entries, Ovhd = % of a 128-byte block");

    TextTable table;
    std::vector<std::string> header = {"Depth"};
    for (const auto &app : bench::apps) {
        header.push_back(app + ":Ratio");
        header.push_back("Ovhd");
    }
    table.setHeader(header);

    for (unsigned depth = 1; depth <= 4; ++depth) {
        std::vector<std::string> row = {"paper " +
                                        std::to_string(depth)};
        for (std::size_t a = 0; a < bench::apps.size(); ++a) {
            row.push_back(TextTable::num(
                bench::paper_table7[a][depth - 1][0], 1));
            row.push_back(
                TextTable::num(bench::paper_table7[a][depth - 1][1],
                               1) +
                "%");
        }
        table.addRow(row);
    }
    table.addSeparator();

    for (unsigned depth = 1; depth <= 4; ++depth) {
        std::vector<std::string> row = {"ours  " +
                                        std::to_string(depth)};
        for (const auto &app : bench::apps) {
            const auto &trace = harness::cachedTrace(app);
            pred::PredictorBank bank(trace.numNodes,
                                     pred::CosmosConfig{depth, 0});
            bank.replayBatched(trace);
            const auto mem = bank.memoryStats();
            row.push_back(TextTable::num(mem.ratio(), 1));
            row.push_back(TextTable::num(mem.overheadPercent(), 1) +
                          "%");
        }
        table.addRow(row);
    }

    std::fputs(table.render().c_str(), stdout);
    return 0;
}
