/**
 * @file
 * Coherence-message traces.
 *
 * The paper evaluates Cosmos offline on traces of incoming coherence
 * messages captured per cache and per directory (§5). A TraceRecorder
 * observes the machine and appends one record per remote message; the
 * resulting Trace is then replayed through predictor banks at any MHR
 * depth / filter setting without re-simulating, exactly like the
 * paper's methodology separates trace generation from prediction.
 */

#ifndef COSMOS_TRACE_TRACE_HH
#define COSMOS_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "proto/machine.hh"
#include "proto/messages.hh"

namespace cosmos::trace
{

/** One incoming coherence message as seen by its receiver. */
struct TraceRecord
{
    Addr block = 0;
    Tick when = 0;
    NodeId receiver = invalid_node;
    NodeId sender = invalid_node;
    proto::MsgType type{};
    proto::Role role{};
    std::int32_t iteration = 0;

    bool operator==(const TraceRecord &) const = default;
};

/** A complete run's message trace plus identifying metadata. */
struct Trace
{
    std::string app;
    NodeId numNodes = 0;
    unsigned blockBytes = 0;
    std::int32_t iterations = 0;
    std::uint64_t seed = 0;
    std::vector<TraceRecord> records;

    /** Records with role == cache. */
    std::size_t cacheRecords() const;

    /** Records with role == directory. */
    std::size_t directoryRecords() const;

    /** Distinct blocks appearing in the trace. */
    std::size_t distinctBlocks() const;
};

/**
 * Distinct blocks per (node, role) module, indexed 2 * node + (0 for
 * cache, 1 for directory) -- exactly the per-predictor table sizes a
 * PredictorBank will grow to when replaying this trace. Computed once
 * outside a timed region, the census lets banks reserve their block
 * tables up front so no rehash ever lands inside a replay.
 */
std::vector<std::uint32_t> moduleBlockCensus(const Trace &t);

/**
 * Machine observer that appends records to a Trace.
 *
 * Records tagged with an iteration below @p warmup_iterations are
 * dropped, mirroring the paper's exclusion of the start-up phase (§5).
 */
class TraceRecorder : public proto::MsgObserver
{
  public:
    TraceRecorder(Trace &out, std::int32_t warmup_iterations);

    void onMessage(const proto::Msg &m, proto::Role role,
                   int iteration, Tick when) override;

    std::uint64_t dropped() const { return dropped_; }

  private:
    Trace &out_;
    std::int32_t warmup_;
    std::uint64_t dropped_ = 0;
};

} // namespace cosmos::trace

#endif // COSMOS_TRACE_TRACE_HH
