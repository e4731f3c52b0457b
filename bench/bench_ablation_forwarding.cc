/**
 * @file
 * Ablation: four-hop Stache message routing vs SGI-Origin-style
 * three-hop forwarding (§2.1), now with the prediction-gated cell.
 *
 * The paper asserts that protocols which forward the owner's data
 * directly to the requester "should have no first-order effect on
 * coherence prediction's usability". Forwarding does change the
 * observation streams -- a cache now receives data responses from
 * *other caches*, not just its home directory, so the cache side
 * loses its fixed-sender property -- and this bench quantifies how
 * much that costs Cosmos, alongside the latency the protocol gains.
 *
 * Three cells per application:
 *
 *   never      forwarding off, every hand-off routes through home;
 *   always     every owner recall is marked forwarded (static §2.1);
 *   predicted  the OnlineAccelerator's forwarding gate decides per
 *              transaction from the block's confidence streak
 *              (Table 8 machinery, minConfidence = 2).
 *
 * Each cell reports protocol time, replayed depth-2 Cosmos accuracy,
 * the forwarding counters (sent / suppressed / acks), the measured
 * speedup against the never cell, and the §4.4 analytic speedup
 * projection at the cell's accuracy. Results are written as JSON
 * (default BENCH_forwarding.json) for tracking; scripts/check_json.py
 * --schema forwarding validates the document in CI.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "cosmos/predictor_bank.hh"
#include "accel/speedup_model.hh"
#include "harness/experiment.hh"

namespace
{

using namespace cosmos;

struct CellResult
{
    const char *mode;
    Tick time = 0;
    double acc[3] = {0, 0, 0}; ///< cache / directory / overall %
    harness::ProtocolTotals totals;
    std::uint64_t fwdQueries = 0;
    std::uint64_t fwdGranted = 0;
};

harness::RunConfig
baseConfig(const std::string &app)
{
    harness::RunConfig cfg;
    cfg.app = app;
    cfg.iterations = app == "dsmc" ? 150 : -1;
    cfg.checkInvariants = false;
    return cfg;
}

void
replayAccuracy(CellResult &cell, const trace::Trace &trace)
{
    pred::PredictorBank bank(trace.numNodes, pred::CosmosConfig{2, 0});
    bank.replayBatched(trace);
    cell.acc[0] = bank.accuracy().cacheSide().percent();
    cell.acc[1] = bank.accuracy().directorySide().percent();
    cell.acc[2] = bank.accuracy().overall().percent();
}

CellResult
runPlainCell(const std::string &app, bool forwarding)
{
    CellResult cell;
    cell.mode = forwarding ? "always" : "never";
    harness::RunConfig cfg = baseConfig(app);
    cfg.machine.forwarding = forwarding;
    const auto result = harness::runWorkload(cfg);
    cell.time = result.finalTime;
    cell.totals = result.totals;
    replayAccuracy(cell, result.trace);
    return cell;
}

CellResult
runPredictedCell(const std::string &app)
{
    CellResult cell;
    cell.mode = "predicted";
    harness::RunConfig cfg = baseConfig(app);
    cfg.machine.forwarding = true;
    cfg.machine.forwardingPredicted = true;
    accel::OnlineOptions opts;
    opts.enableReplyExclusive = false;
    opts.enableVoluntaryRecall = false;
    opts.minConfidence = 2;
    const auto result = harness::runAccelerated(cfg, opts);
    cell.time = result.run.finalTime;
    cell.totals = result.run.totals;
    cell.fwdQueries = result.accel.fwdQueries;
    cell.fwdGranted = result.accel.fwdGranted;
    replayAccuracy(cell, result.run.trace);
    return cell;
}

double
measuredSpeedupPct(const CellResult &cell, const CellResult &never)
{
    return 100.0 * (static_cast<double>(never.time) /
                        static_cast<double>(cell.time) -
                    1.0);
}

double
modelSpeedupPct(const CellResult &cell)
{
    // §4.4 at the cell's replayed overall accuracy; f = 0.3 and
    // r = 0.5 match the Figure 5 calibration used elsewhere.
    return accel::speedupPercent({cell.acc[2] / 100.0, 0.3, 0.5});
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_forwarding.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--out PATH]\n", argv[0]);
            return 2;
        }
    }

    bench::banner(
        "Ablation: 4-hop (Stache) vs 3-hop forwarding vs "
        "prediction-gated forwarding; depth-2 Cosmos accuracy and "
        "protocol latency");

    TextTable table;
    table.setHeader({"App", "Cell", "C/D/O %", "time", "fwd sent",
                     "fwd supp", "speedup", "model §4.4"});

    struct AppRow
    {
        std::string app;
        std::vector<CellResult> cells;
    };
    std::vector<AppRow> rows;

    bool ok = true;
    for (const auto &app : bench::apps) {
        AppRow row{app, {}};
        row.cells.push_back(runPlainCell(app, false));
        row.cells.push_back(runPlainCell(app, true));
        row.cells.push_back(runPredictedCell(app));
        const CellResult &never = row.cells.front();

        for (const CellResult &cell : row.cells) {
            // Handshake closure: every forwarded recall produced
            // exactly one fwd_ack by quiescence.
            if (cell.totals.fwdAcks != cell.totals.forwardsSent) {
                std::fprintf(stderr,
                             "FAILED: %s/%s: %llu forwards but %llu "
                             "fwd_acks at quiescence\n",
                             app.c_str(), cell.mode,
                             (unsigned long long)
                                 cell.totals.forwardsSent,
                             (unsigned long long)cell.totals.fwdAcks);
                ok = false;
            }
            table.addRow(
                {app, cell.mode,
                 TextTable::num(cell.acc[0], 0) + "/" +
                     TextTable::num(cell.acc[1], 0) + "/" +
                     TextTable::num(cell.acc[2], 0),
                 TextTable::num(cell.time),
                 TextTable::num(cell.totals.forwardsSent),
                 TextTable::num(cell.totals.forwardsSuppressed),
                 TextTable::num(measuredSpeedupPct(cell, never), 1) +
                     "%",
                 TextTable::num(modelSpeedupPct(cell), 1) + "%"});
        }
        rows.push_back(std::move(row));
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf(
        "\nThe paper's §2.1 expectation holds when the overall "
        "accuracy moves by\nonly a few points between routing "
        "schemes, while 3-hop routing shortens\nthe owner-hand-off "
        "critical path. The predicted cell should suppress\n"
        "forwards only on low-confidence blocks, landing between the "
        "other two.\n");
    if (!ok)
        return 1;

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "FAILED: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"cosmos-bench-forwarding-v1\","
                    "\n  \"apps\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const AppRow &row = rows[i];
        std::fprintf(f, "    {\"app\": \"%s\", \"cells\": [\n",
                     row.app.c_str());
        for (std::size_t j = 0; j < row.cells.size(); ++j) {
            const CellResult &cell = row.cells[j];
            std::fprintf(
                f,
                "      {\"mode\": \"%s\", \"time\": %llu, "
                "\"cache_pct\": %.2f, \"directory_pct\": %.2f, "
                "\"overall_pct\": %.2f,\n"
                "       \"forwards_sent\": %llu, "
                "\"forwards_suppressed\": %llu, \"fwd_acks\": %llu, "
                "\"fwd_queries\": %llu, \"fwd_granted\": %llu,\n"
                "       \"measured_speedup_pct\": %.2f, "
                "\"model_speedup_pct\": %.2f}%s\n",
                cell.mode, (unsigned long long)cell.time,
                cell.acc[0], cell.acc[1], cell.acc[2],
                (unsigned long long)cell.totals.forwardsSent,
                (unsigned long long)cell.totals.forwardsSuppressed,
                (unsigned long long)cell.totals.fwdAcks,
                (unsigned long long)cell.fwdQueries,
                (unsigned long long)cell.fwdGranted,
                measuredSpeedupPct(cell, row.cells.front()),
                modelSpeedupPct(cell),
                j + 1 < row.cells.size() ? "," : "");
        }
        std::fprintf(f, "    ]}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
