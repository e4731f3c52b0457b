/**
 * @file
 * Adaptation curves (§6.2's "time to adapt" analysis as a figure):
 * cumulative depth-1 accuracy after each iteration, for every
 * application, printed as aligned columns and -- when
 * COSMOS_FIGURE_DIR is set -- written as a CSV ready for plotting.
 *
 * Shape criteria: barnes and unstructured reach their plateau almost
 * immediately, appbt and moldyn shortly after, while dsmc keeps
 * climbing for well over a hundred iterations (the paper's ~300-
 * iteration convergence, §6.2 and Table 8).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench_util.hh"
#include "common/table.hh"
#include "cosmos/predictor_bank.hh"
#include "harness/figures.hh"
#include "harness/trace_cache.hh"

int
main()
{
    using namespace cosmos;
    bench::banner(
        "Adaptation curves: cumulative depth-1 accuracy (%) after N "
        "iterations");

    const int checkpoints[] = {2, 5, 10, 20, 40, 80, 160, 320};

    TextTable table;
    std::vector<std::string> header = {"App"};
    for (int c : checkpoints) {
        std::string h = "@";
        h += std::to_string(c);
        header.push_back(std::move(h));
    }
    table.setHeader(header);

    std::vector<std::vector<std::string>> csv_rows;
    for (const auto &app : bench::apps) {
        // dsmc's long run shows the slow climb; others use defaults.
        const int iters = app == "dsmc" ? 320 : -1;
        const auto &trace = harness::cachedTrace(app, iters);
        pred::PredictorBank bank(trace.numNodes,
                                 pred::CosmosConfig{1, 0});
        bank.replayBatched(trace);

        std::vector<std::string> row = {app};
        std::vector<std::string> csv_row = {app};
        for (int c : checkpoints) {
            const auto upto = bank.accuracy().upToIteration(c - 1);
            const std::string cell =
                upto.total == 0 ? "-"
                                : TextTable::num(upto.percent(), 1);
            row.push_back(cell);
            csv_row.push_back(cell);
        }
        table.addRow(row);
        csv_rows.push_back(csv_row);
    }
    std::fputs(table.render().c_str(), stdout);

    if (const char *dir = std::getenv("COSMOS_FIGURE_DIR")) {
        const std::string path =
            std::string(dir) + "/adaptation_curves.csv";
        std::ofstream os(path);
        harness::writeCsv(os, header, csv_rows);
        std::printf("\nwrote %s\n", path.c_str());
    }
    return 0;
}
