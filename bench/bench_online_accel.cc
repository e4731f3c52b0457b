/**
 * @file
 * End-to-end protocol acceleration -- the experiment the paper
 * defers to future work (§8): Cosmos predictors run live beside the
 * directories, and their predictions trigger reply-exclusive and
 * voluntary-recall actions through the speculation hook. We compare
 * runtime (simulated ns) and remote message volume against the
 * unaccelerated baseline for every application.
 *
 * Expectations: read-modify-write-heavy workloads (the rmw micro,
 * appbt's producer sweep, moldyn's migratory reduction) convert
 * their upgrade transactions into single exclusive fetches and speed
 * up; dsmc's blind producers offer little for reply-exclusive but
 * its stable producer-consumer hand-offs benefit from recall.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/table.hh"
#include "harness/experiment.hh"

int
main()
{
    using namespace cosmos;
    bench::banner(
        "Online acceleration: baseline vs Cosmos-steered directory "
        "(depth-2, filter-1 predictors)");

    TextTable table;
    table.setHeader({"App", "time base", "time accel", "speedup",
                     "msgs base", "msgs accel", "upg base",
                     "upg accel", "grants", "recalls", "pred acc"});

    std::vector<std::string> apps = {"micro_rmw"};
    for (const auto &a : bench::apps)
        apps.push_back(a);

    for (const auto &app : apps) {
        harness::RunConfig cfg;
        cfg.app = app;
        cfg.checkInvariants = false;
        if (app == "dsmc")
            cfg.iterations = 150; // keep the accelerated sweep quick

        const auto base = harness::runWorkload(cfg);

        accel::OnlineOptions opts;
        const auto acc = harness::runAccelerated(cfg, opts);

        const double speedup =
            100.0 * (static_cast<double>(base.finalTime) /
                         static_cast<double>(acc.run.finalTime) -
                     1.0);
        table.addRow(
            {app, TextTable::num(base.finalTime),
             TextTable::num(acc.run.finalTime),
             (speedup >= 0 ? "+" : "") + TextTable::num(speedup, 1) +
                 "%",
             TextTable::num(base.network.remoteMessages),
             TextTable::num(acc.run.network.remoteMessages),
             TextTable::num(base.totals.upgrades),
             TextTable::num(acc.run.totals.upgrades),
             TextTable::num(acc.run.totals.exclusiveGrants),
             TextTable::num(acc.run.totals.recalls),
             TextTable::num(acc.predictorAccuracyPercent, 1) + "%"});
    }
    std::fputs(table.render().c_str(), stdout);

    bench::banner(
        "Action ablation on micro_rmw (which action buys what)");
    {
        harness::RunConfig cfg;
        cfg.app = "micro_rmw";
        cfg.checkInvariants = false;
        const auto base = harness::runWorkload(cfg);

        struct Variant
        {
            const char *name;
            bool rmw, recall;
        } variants[] = {
            {"reply-exclusive only", true, false},
            {"voluntary recall only", false, true},
            {"both", true, true},
        };
        TextTable t2;
        t2.setHeader({"Variant", "time", "vs baseline", "msgs"});
        t2.addRow({"baseline", TextTable::num(base.finalTime), "-",
                   TextTable::num(base.network.remoteMessages)});
        for (const auto &v : variants) {
            accel::OnlineOptions opts;
            opts.enableReplyExclusive = v.rmw;
            opts.enableVoluntaryRecall = v.recall;
            const auto acc = harness::runAccelerated(cfg, opts);
            const double speedup =
                100.0 * (static_cast<double>(base.finalTime) /
                             static_cast<double>(acc.run.finalTime) -
                         1.0);
            t2.addRow({v.name, TextTable::num(acc.run.finalTime),
                       (speedup >= 0 ? "+" : "") +
                           TextTable::num(speedup, 1) + "%",
                       TextTable::num(
                           acc.run.network.remoteMessages)});
        }
        std::fputs(t2.render().c_str(), stdout);
    }

    bench::banner(
        "Confidence gating (section 4.2): act only after a per-block "
        "prediction streak; barnes (unpredictable) vs moldyn "
        "(predictable)");
    {
        TextTable t3;
        t3.setHeader({"App", "conf", "speedup", "grants", "recalls",
                      "gated"});
        for (const char *app : {"barnes", "moldyn"}) {
            harness::RunConfig cfg;
            cfg.app = app;
            cfg.iterations = 12;
            cfg.checkInvariants = false;
            const auto base = harness::runWorkload(cfg);
            for (unsigned conf : {0u, 2u, 4u}) {
                accel::OnlineOptions opts;
                opts.minConfidence = conf;
                const auto acc = harness::runAccelerated(cfg, opts);
                const double speedup =
                    100.0 *
                    (static_cast<double>(base.finalTime) /
                         static_cast<double>(acc.run.finalTime) -
                     1.0);
                t3.addRow(
                    {app, std::to_string(conf),
                     (speedup >= 0 ? "+" : "") +
                         TextTable::num(speedup, 1) + "%",
                     TextTable::num(acc.run.totals.exclusiveGrants),
                     TextTable::num(acc.run.totals.recalls),
                     TextTable::num(acc.accel.gatedByConfidence)});
            }
        }
        std::fputs(t3.render().c_str(), stdout);
    }
    return 0;
}
