/**
 * @file
 * Live predictor-driven protocol acceleration -- the paper's "next
 * step" (§8): Cosmos predictors run *beside* the directories while
 * the machine executes, and their predictions trigger §4.1 actions
 * through the DirectorySpeculation hook:
 *
 *  - reply-exclusive: a read predicted to be followed by an upgrade
 *    from the same node is answered with an exclusive copy, removing
 *    the upgrade transaction from the critical path;
 *  - voluntary recall: when the predictor expects the next message
 *    for an exclusively-held block to be a read by another node, the
 *    owner's copy is recalled home early, so the eventual read is
 *    served from memory without the three-hop owner round trip;
 *  - forwarding gate: under --forwarding with forwardingPredicted,
 *    each owner recall consults the predictor before marking the
 *    recall forwarded -- predictable blocks take the three-hop
 *    direct path, unpredictable ones the plain home reply. The
 *    accelerator answers every query the directory makes, so
 *    forwardingPredicted is the gate's one switch.
 *
 * All three actions move the protocol between legal states, so a
 * wrong prediction costs only extra misses/messages (§4.3, class 1).
 */

#ifndef COSMOS_ACCEL_ONLINE_HH
#define COSMOS_ACCEL_ONLINE_HH

#include <cstdint>

#include "common/flat_map.hh"
#include "cosmos/predictor_bank.hh"
#include "proto/machine.hh"

namespace cosmos::accel
{

/** Knobs of the online accelerator. */
struct OnlineOptions
{
    /** Configuration of the per-directory Cosmos predictors. The
     *  filter matters here: speculation should not flip on one
     *  noisy message. */
    pred::CosmosConfig predictor{2, 1};
    bool enableReplyExclusive = true;
    bool enableVoluntaryRecall = true;
    /**
     * Act only when the block's recent prediction streak reaches
     * this length (0 = act on any prediction). §4.2's timing
     * concern: acting on an unproven prediction wastes work on
     * unpredictable blocks, so gating trades coverage for action
     * accuracy.
     */
    unsigned minConfidence = 0;
};

/** Outcome counters of the accelerator itself. */
struct OnlineStats
{
    std::uint64_t rmwQueries = 0;  ///< grantExclusiveOnRead calls
    std::uint64_t rmwGrants = 0;   ///< ... answered "grant"
    std::uint64_t recallTriggers = 0; ///< predictions suggesting recall
    std::uint64_t recallsStarted = 0; ///< accepted by the directory
    std::uint64_t gatedByConfidence = 0; ///< actions suppressed
    std::uint64_t fwdQueries = 0;  ///< forwardOwnerTransfer calls
    std::uint64_t fwdGranted = 0;  ///< ... answered "forward 3-hop"
};

/**
 * Attaches Cosmos predictors to a live machine and converts their
 * predictions into speculative directory actions.
 *
 * Construct after the machine; the constructor registers the object
 * as a message observer and as every directory's speculation hook.
 * The accelerator must outlive the machine's use.
 */
class OnlineAccelerator : public proto::MsgObserver,
                          public proto::DirectorySpeculation
{
  public:
    OnlineAccelerator(proto::Machine &machine,
                      const OnlineOptions &options);

    // proto::MsgObserver
    void onMessage(const proto::Msg &m, proto::Role role,
                   int iteration, Tick when) override;

    // proto::DirectorySpeculation
    bool grantExclusiveOnRead(Addr block, NodeId requester) override;
    bool forwardOwnerTransfer(Addr block, NodeId owner,
                              NodeId requester,
                              bool wantWritable) override;

    const OnlineStats &stats() const { return stats_; }
    const pred::PredictorBank &bank() const { return bank_; }

  private:
    /** Recent per-(directory, block) prediction streak length, kept
     *  only when OnlineOptions::minConfidence > 0 (nothing else reads
     *  it). */
    std::uint8_t &confidence(NodeId dir, Addr block);
    bool confident(NodeId dir, Addr block);

    proto::Machine &machine_;
    OnlineOptions options_;
    pred::PredictorBank bank_;
    OnlineStats stats_;
    FlatMap<std::uint64_t, std::uint8_t> confidence_;
};

} // namespace cosmos::accel

#endif // COSMOS_ACCEL_ONLINE_HH
