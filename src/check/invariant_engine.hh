/**
 * @file
 * Per-message protocol invariant engine.
 *
 * Attaches to a proto::Machine's delivery probe and, after every
 * delivered coherence message, verifies the global safety properties
 * of the protocol on the block the message touched:
 *
 *  - the coherence rule of proto/invariants: single-writer /
 *    multiple-reader at every delivery, and directory/cache agreement
 *    unless a miss is outstanding or the home is busy. The engine
 *    builds the block's proto::BlockView and reports each breach
 *    proto::brokenRules() returns, with its nodes and words;
 *  - message conservation: per block, responses never outnumber the
 *    requests they answer, and at quiescence every request has been
 *    matched (no in-flight transactions survive a drained queue);
 *  - busy-entry liveness: a block may not sit with requests
 *    outstanding for longer than a bounded pending window.
 *
 * Violations are recorded as structured check::Violation values
 * carrying the block, the implicated nodes, the states seen, and the
 * last-k delivered messages -- kept raw in a fixed ring and rendered
 * to text only when a violation is recorded -- rather than aborting
 * the process. Assertion failures inside the protocol are folded in
 * through the common/log FailureTrap.
 */

#ifndef COSMOS_CHECK_INVARIANT_ENGINE_HH
#define COSMOS_CHECK_INVARIANT_ENGINE_HH

#include <unordered_map>
#include <vector>

#include "check/violation.hh"
#include "common/log.hh"
#include "proto/invariants.hh"
#include "proto/machine.hh"

namespace cosmos::check
{

/** Tunables of the invariant engine. */
struct CheckOptions
{
    /** Delivered messages kept in the violation history ring. */
    unsigned historyDepth = 12;

    /**
     * Ticks a block may continuously have unanswered requests before
     * the liveness invariant reports it stuck. Generous by default:
     * a legitimate transaction spans a few network hops plus memory
     * and occupancy, i.e. hundreds of ticks, not a million.
     */
    Tick maxPendingWindow = 1'000'000;

    /** Recording stops after this many violations (the count of
     *  suppressed ones is still kept). */
    unsigned maxViolations = 64;
};

/** @p b, broken by @p block, as a violation detected at @p when. */
Violation toViolation(proto::Breach b, Addr block, Tick when = 0);

class InvariantEngine
{
  public:
    /** Installs itself as @p machine's delivery probe. */
    explicit InvariantEngine(proto::Machine &machine,
                             CheckOptions opts = {});
    ~InvariantEngine();

    InvariantEngine(const InvariantEngine &) = delete;
    InvariantEngine &operator=(const InvariantEngine &) = delete;

    /**
     * Full-machine sweep for quiescent points (event queue drained):
     * SWMR + directory agreement over every known block, message
     * conservation (no outstanding requests), and liveness (no busy
     * caches or directory entries).
     */
    void checkQuiescent();

    /** Fold a trapped assertion/panic into the violation list. */
    void noteFailure(const RecoverableError &e);

    const std::vector<Violation> &violations() const
    {
        return violations_;
    }

    bool clean() const { return violations_.empty(); }

    /** Violations dropped after maxViolations was reached. */
    std::uint64_t suppressed() const { return suppressed_; }

    /** Messages observed through the delivery probe. */
    std::uint64_t delivered() const { return delivered_; }

  private:
    void onDelivered(const proto::Msg &m, Tick when);
    /** Report every coherence rule @p block breaks. */
    void checkBlock(Addr block, Tick when);
    void scanPendingWindows(Tick when);
    void report(Violation v);
    /** The ring's deliveries as "t=<tick> <Msg::format()>" lines,
     *  oldest first. */
    std::vector<std::string> historySnapshot() const;

    proto::Machine &machine_;
    CheckOptions opts_;

    /** One delivered message, kept raw until a report renders it. */
    struct Delivery
    {
        Tick when = 0;
        proto::Msg msg;
    };

    /** The last historyDepth deliveries, in a ring sized once. */
    std::vector<Delivery> history_;
    /** The ring slot the next delivery overwrites: the oldest entry
     *  once the ring is full. */
    std::size_t historyNext_ = 0;

    /** Request/response bookkeeping for one block. */
    struct Flight
    {
        std::int64_t outstanding = 0;
        Tick since = 0;
        bool reportedStuck = false;
    };

    std::unordered_map<Addr, Flight> flights_;
    std::vector<Violation> violations_;
    std::uint64_t delivered_ = 0;
    std::uint64_t suppressed_ = 0;
};

} // namespace cosmos::check

#endif // COSMOS_CHECK_INVARIANT_ENGINE_HH
