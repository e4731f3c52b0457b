/**
 * @file
 * Ablation: the Stache half-migratory optimization vs a DASH-style
 * downgrade protocol (§5.1, §6.1).
 *
 * The paper argues the optimization *hurts* appbt (the producer reads
 * before writing, so invalidating it costs an extra fetch) and
 * *helps* dsmc and moldyn (their producers write blind / upgrade
 * immediately, so a shared downgrade copy would just add a
 * handshake). We run both protocol modes and report the remote
 * message volume -- the protocol-efficiency metric -- plus Cosmos
 * accuracy under each, showing prediction is robust to the protocol
 * variant.
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
        "Ablation: half-migratory (Stache) vs downgrade (DASH-style) "
        "owner-read policy");

    TextTable table;
    table.setHeader({"App", "msgs (half-migr)", "msgs (downgrade)",
                     "delta", "accuracy d1 (hm)", "accuracy d1 (dg)"});

    for (const auto &app : bench::apps) {
        const auto &hm = harness::cachedTrace(
            app, -1, OwnerReadPolicy::half_migratory);
        const auto &dg = harness::cachedTrace(
            app, -1, OwnerReadPolicy::downgrade);

        pred::PredictorBank bank_hm(hm.numNodes,
                                    pred::CosmosConfig{1, 0});
        bank_hm.replayBatched(hm);
        pred::PredictorBank bank_dg(dg.numNodes,
                                    pred::CosmosConfig{1, 0});
        bank_dg.replayBatched(dg);

        const double delta =
            100.0 *
            (static_cast<double>(dg.records.size()) -
             static_cast<double>(hm.records.size())) /
            static_cast<double>(hm.records.size());
        table.addRow(
            {app, TextTable::num(std::uint64_t(hm.records.size())),
             TextTable::num(std::uint64_t(dg.records.size())),
             std::string(delta >= 0 ? "+" : "") +
                 TextTable::num(delta, 1) + "%",
             TextTable::num(bank_hm.accuracy().overall().percent(), 1),
             TextTable::num(bank_dg.accuracy().overall().percent(),
                            1)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf(
        "\nInterpretation: a *negative* delta means the half-migratory\n"
        "optimization costs extra messages for that application "
        "(appbt's\nproducer re-fetches the block it was invalidated "
        "out of), a\n*positive* delta means it saves messages (dsmc/"
        "moldyn write without\nreading first), matching §6.1.\n");
    return 0;
}
