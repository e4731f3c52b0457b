/**
 * @file
 * Ablation: predictor design variants (§7's cost/benefit axis).
 *
 *  - last-value: one tuple of state per block; what does the second
 *    predictor level buy?
 *  - Cosmos depth 2 (the reference point);
 *  - macroblock Cosmos (4 blocks share one predictor entry): the
 *    paper's suggested table-size reduction;
 *  - budget Cosmos (at most 4 PHT entries per block, FIFO eviction):
 *    the §3.7 preallocation sketch.
 *
 * Findings this bench demonstrates:
 *  - last-value scores ~0%: coherence message streams essentially
 *    never repeat a tuple back to back (requests alternate with
 *    responses, producers with consumers), so -- unlike branch
 *    streams -- there is no "last outcome" locality at all. The
 *    pattern-history level is not an optimization, it is the whole
 *    predictor.
 *  - macroblocks shrink the first-level table 4x but mix the member
 *    blocks' histories, costing real accuracy; useful only where
 *    neighbouring blocks genuinely share a pattern (dsmc's buffers).
 *  - a *hard* per-block PHT cap hurts far more than the mean
 *    PHT/MHR ratio (Table 7, < 4) suggests, because pattern counts
 *    are heavily skewed toward hot blocks. This quantifies why §3.7
 *    proposes a few preallocated entries per block plus a shared
 *    dynamic pool (LimitLESS-style) instead of a fixed cap.
 */

#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "common/table.hh"
#include "cosmos/predictor_bank.hh"
#include "cosmos/variants.hh"
#include "harness/trace_cache.hh"

namespace
{

using namespace cosmos;

double
accuracyWith(const trace::Trace &trace, pred::PredictorFactory factory)
{
    pred::PredictorBank bank(trace.numNodes, std::move(factory));
    bank.replayBatched(trace);
    return bank.accuracy().overall().percent();
}

} // namespace

int
main()
{
    bench::banner(
        "Ablation: predictor variants, overall accuracy (%)");

    TextTable table;
    table.setHeader({"App", "last-value", "Cosmos d2",
                     "macroblock(4) d2", "budget(4 PHT) d2",
                     "type-only d2", "sender-set d2"});

    for (const auto &app : bench::apps) {
        const auto &trace = harness::cachedTrace(app);
        const unsigned block_bytes = trace.blockBytes;

        const double last = accuracyWith(
            trace, [](NodeId, proto::Role) {
                return std::make_unique<pred::LastValuePredictor>();
            });
        const double d2 = accuracyWith(
            trace, [](NodeId, proto::Role) {
                return std::make_unique<pred::CosmosPredictor>(
                    pred::CosmosConfig{2, 0});
            });
        const double macro = accuracyWith(
            trace, [block_bytes](NodeId, proto::Role) {
                return std::make_unique<pred::MacroblockPredictor>(
                    pred::CosmosConfig{2, 0}, 4, block_bytes);
            });
        const double budget = accuracyWith(
            trace, [](NodeId, proto::Role) {
                return std::make_unique<pred::CosmosPredictor>(
                    pred::CosmosConfig{2, 0, 4});
            });
        // Footnote 2: ignore senders entirely (type hit only).
        const double type_only = accuracyWith(
            trace, [](NodeId, proto::Role) {
                return std::make_unique<pred::TypeOnlyPredictor>(
                    pred::CosmosConfig{2, 0});
            });
        // Footnote 3: predict type + a sender *set*.
        pred::PredictorBank set_bank(
            trace.numNodes, [](NodeId, proto::Role)
                -> std::unique_ptr<pred::MessagePredictor> {
                return std::make_unique<pred::SenderSetPredictor>(
                    pred::CosmosConfig{2, 0});
            });
        set_bank.replayBatched(trace);
        double mean_set = 0.0;
        std::uint64_t samples = 0;
        for (NodeId n = 0; n < trace.numNodes; ++n) {
            for (auto role :
                 {proto::Role::cache, proto::Role::directory}) {
                auto *sp =
                    dynamic_cast<const pred::SenderSetPredictor *>(
                        &set_bank.predictor(n, role));
                if (sp && sp->meanSetSize() > 0.0) {
                    mean_set += sp->meanSetSize();
                    ++samples;
                }
            }
        }
        mean_set = samples ? mean_set / samples : 0.0;
        const double set_acc =
            set_bank.accuracy().overall().percent();

        table.addRow(
            {app, TextTable::num(last, 1), TextTable::num(d2, 1),
             TextTable::num(macro, 1), TextTable::num(budget, 1),
             TextTable::num(type_only, 1),
             TextTable::num(set_acc, 1) + " (set " +
                 TextTable::num(mean_set, 1) + ")"});
    }
    std::fputs(table.render().c_str(), stdout);

    bench::banner(
        "PHT budget sweep (Cosmos d2): accuracy vs entries per block");
    TextTable sweep;
    sweep.setHeader(
        {"App", "1", "2", "4", "8", "unbounded"});
    for (const auto &app : bench::apps) {
        const auto &trace = harness::cachedTrace(app);
        std::vector<std::string> row = {app};
        for (unsigned cap : {1u, 2u, 4u, 8u, 0u}) {
            pred::PredictorBank bank(trace.numNodes,
                                     pred::CosmosConfig{2, 0, cap});
            bank.replayBatched(trace);
            row.push_back(TextTable::num(
                bank.accuracy().overall().percent(), 1));
        }
        sweep.addRow(row);
    }
    std::fputs(sweep.render().c_str(), stdout);
    return 0;
}
