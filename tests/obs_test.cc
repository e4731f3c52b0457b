/**
 * @file
 * Tests of the observability subsystem: the metrics registry (typed
 * metrics, name-wise merge, the stable JSON export and its central
 * guarantee -- byte-identical output across runs, thread counts, and
 * serial-vs-sharded replay) and the Chrome trace-event span recorder
 * (files always parse; spans carry the required keys, and spans
 * recorded on pool workers reach the file).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "fixtures/mini_json.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"

namespace cosmos
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

// ------------------------------------------------------------ registry

TEST(Registry, LookupCreatesOnceAndReturnsSameObject)
{
    obs::Registry reg;
    obs::Counter &a = reg.counter("x.count");
    a.add(3);
    EXPECT_EQ(&reg.counter("x.count"), &a);
    EXPECT_EQ(reg.counter("x.count").value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, GaugeTracksHighWater)
{
    obs::Registry reg;
    obs::Gauge &g = reg.gauge("q.depth");
    g.set(5);
    g.set(2);
    g.add(1);
    EXPECT_EQ(g.value(), 3);
    EXPECT_EQ(g.highWater(), 5);
}

TEST(Registry, MergeFoldsEveryKind)
{
    obs::Registry a;
    a.counter("c").add(10);
    a.gauge("g").set(7);
    a.histogram("h", Histogram::linear(0.0, 10.0, 10)).record(3.0);
    a.summary("s").sample(1.0);

    obs::Registry b;
    b.counter("c").add(5);
    b.gauge("g").set(3);
    b.histogram("h", Histogram::linear(0.0, 10.0, 10)).record(8.0);
    b.summary("s").sample(5.0);
    b.counter("only_in_b").add(1);

    a.merge(b);
    EXPECT_EQ(a.counter("c").value(), 15u);
    EXPECT_EQ(a.gauge("g").value(), 10);
    EXPECT_EQ(a.gauge("g").highWater(), 7);
    EXPECT_EQ(a.histogram("h", {}).count(), 2u);
    EXPECT_EQ(a.summary("s").count(), 2u);
    EXPECT_EQ(a.counter("only_in_b").value(), 1u);
}

TEST(Registry, JsonParsesAndHidesVolatileByDefault)
{
    obs::Registry reg;
    reg.counter("stable.count").add(42);
    reg.counter("volatile.count", obs::Stability::volatile_).add(9);
    reg.histogram("stable.hist", Histogram::exponential(1.0, 2.0, 4))
        .record(3.0);

    const std::string json = reg.toJson();
    auto doc = mini_json::parse(json);
    ASSERT_TRUE(doc->isObject());
    ASSERT_TRUE(doc->has("schema"));
    EXPECT_EQ(doc->get("schema")->string, "cosmos-metrics-v1");
    const auto *metrics = doc->get("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_TRUE(metrics->has("stable.count"));
    EXPECT_TRUE(metrics->has("stable.hist"));
    EXPECT_FALSE(metrics->has("volatile.count"));

    auto full = mini_json::parse(reg.toJson(true));
    EXPECT_TRUE(full->get("metrics")->has("volatile.count"));
}

TEST(Registry, JsonIsByteStableAcrossIdenticalRuns)
{
    auto build = [] {
        obs::Registry reg;
        reg.counter("a").add(7);
        reg.gauge("b").set(-3);
        reg.histogram("c", Histogram::linear(0.0, 1.0, 4)).record(0.5);
        reg.summary("d").sample(2.5);
        return reg.toJson();
    };
    EXPECT_EQ(build(), build());
}

// ----------------------------------------------- machine instrumentation

TEST(MachineMetrics, MatchTheRunResultCounters)
{
    obs::Registry reg;
    harness::RunConfig cfg;
    cfg.app = "micro_rmw";
    cfg.iterations = 4;
    cfg.checkInvariants = false;
    cfg.metrics = &reg;
    const auto result = harness::runWorkload(cfg);

    EXPECT_EQ(reg.counter("sim.events_executed").value(),
              result.events);
    EXPECT_EQ(reg.counter("net.remote_messages").value(),
              result.network.remoteMessages);
    EXPECT_EQ(reg.counter("proto.cache.loads").value(),
              result.totals.loads);
    EXPECT_EQ(reg.counter("proto.cache.stores").value(),
              result.totals.stores);
    // Every remote message shows up in the latency histogram.
    EXPECT_EQ(reg.histogram("net.latency_ticks", {}).count(),
              result.network.remoteMessages);
    // All in-flight messages were delivered by quiescence.
    EXPECT_EQ(reg.gauge("net.in_flight").value(), 0);
    EXPECT_GT(reg.gauge("net.in_flight").highWater(), 0);
    EXPECT_GT(reg.gauge("sim.queue_depth").highWater(), 0);
}

TEST(MachineMetrics, AcceleratedRunMatchesItsCounters)
{
    obs::Registry reg;
    harness::RunConfig cfg;
    cfg.app = "micro_rmw";
    cfg.iterations = 4;
    cfg.checkInvariants = false;
    cfg.metrics = &reg;
    const auto acc = harness::runAccelerated(cfg, accel::OnlineOptions{});

    EXPECT_EQ(reg.counter("sim.events_executed").value(), acc.run.events);
    EXPECT_EQ(reg.counter("net.remote_messages").value(),
              acc.run.network.remoteMessages);
    EXPECT_EQ(reg.counter("proto.cache.loads").value(),
              acc.run.totals.loads);
}

// -------------------------------------------------- export determinism

std::vector<replay::ReplayJob>
smallGrid(unsigned shards = 0)
{
    std::vector<replay::ReplayJob> jobs;
    for (unsigned depth = 1; depth <= 2; ++depth) {
        replay::ReplayJob j;
        j.app = "micro_migratory";
        j.iterations = 6;
        j.config = pred::CosmosConfig{depth, 0};
        j.shards = shards;
        jobs.push_back(j);
    }
    return jobs;
}

std::string
sweepJson(unsigned threads, unsigned shards)
{
    const auto jobs = smallGrid(shards);
    obs::Registry reg;
    harness::SweepOptions opts;
    opts.threads = threads;
    opts.metrics = &reg; // volatile pool stats must not leak into JSON
    const auto results = harness::runSweep(jobs, opts);
    harness::publishSweepMetrics(jobs, results, reg);
    return reg.toJson();
}

TEST(MetricsExport, ByteIdenticalAcrossThreadCounts)
{
    const std::string serial = sweepJson(1, 1);
    const std::string threaded = sweepJson(4, 1);
    EXPECT_EQ(serial, threaded);
}

TEST(MetricsExport, ByteIdenticalSerialVsShardedReplay)
{
    const std::string serial = sweepJson(2, 1);
    const std::string sharded = sweepJson(2, 4);
    EXPECT_EQ(serial, sharded);
}

TEST(MetricsExport, WriteJsonRoundTrips)
{
    obs::Registry reg;
    reg.counter("k").add(1);
    const std::string path = tempPath("metrics_roundtrip.json");
    ASSERT_TRUE(reg.writeJson(path));
    EXPECT_EQ(slurp(path), reg.toJson());
    std::remove(path.c_str());
}

// -------------------------------------------------------------- tracing

/** Write the spans recorded since startTracing() and parse them. */
mini_json::ValuePtr
writeAndParseTrace(const char *name)
{
    const std::string path = tempPath(name);
    EXPECT_TRUE(obs::writeTrace(path));
    auto doc = mini_json::parse(slurp(path));
    std::remove(path.c_str());
    return doc;
}

TEST(Tracing, TraceFileIsValidChromeTraceJson)
{
    obs::startTracing();
    {
        const obs::Span outer("test.outer");
        const obs::Span inner("test.inner", "index", 7u);
    }
    const auto doc = writeAndParseTrace("trace_events.json");
    ASSERT_TRUE(doc->isObject());
    const auto *events = doc->get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->array.size(), 2u);
    std::set<std::string> names;
    for (const auto &ev : events->array) {
        ASSERT_TRUE(ev->isObject());
        ASSERT_TRUE(ev->has("name"));
        ASSERT_TRUE(ev->has("cat"));
        ASSERT_TRUE(ev->has("ph"));
        EXPECT_TRUE(ev->has("ts"));
        EXPECT_TRUE(ev->has("dur"));
        EXPECT_TRUE(ev->has("pid"));
        EXPECT_TRUE(ev->has("tid"));
        EXPECT_EQ(ev->get("ph")->string, "X");
        // The category is the name's layer.
        EXPECT_EQ(ev->get("cat")->string, "test");
        const std::string name = ev->get("name")->string;
        names.insert(name);
        if (name == "test.inner")
            EXPECT_EQ(ev->get("args")->get("index")->number, 7.0);
        else
            EXPECT_FALSE(ev->has("args"));
    }
    EXPECT_EQ(names, (std::set<std::string>{"test.inner", "test.outer"}));
    EXPECT_EQ(doc->get("otherData")->get("dropped_events")->number, 0.0);
}

TEST(Tracing, DisabledRecordersProduceAnEmptyValidTrace)
{
    // Not started: the span is inactive and records nothing.
    {
        const obs::Span ignored("test.ignored");
    }
    const auto doc = writeAndParseTrace("trace_empty.json");
    const auto *events = doc->get("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->array.empty());
}

TEST(Tracing, PoolWorkersRecordEveryCell)
{
    // Sweep cells run on pool workers (and the calling thread): every
    // thread's buffer must reach the file, one cell span per job.
    const auto jobs = smallGrid();
    obs::startTracing();
    harness::SweepOptions opts;
    opts.threads = 2;
    harness::runSweep(jobs, opts);
    const auto doc = writeAndParseTrace("trace_pool.json");

    std::multiset<double> cells;
    for (const auto &ev : doc->get("traceEvents")->array) {
        if (ev->get("name")->string == "replay.cell")
            cells.insert(ev->get("args")->get("job")->number);
    }
    EXPECT_EQ(cells, (std::multiset<double>{0.0, 1.0}));
    EXPECT_EQ(doc->get("otherData")->get("dropped_events")->number, 0.0);
}

} // namespace
} // namespace cosmos
