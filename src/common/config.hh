/**
 * @file
 * Machine configuration, defaulted to the paper's Table 3 parameters.
 */

#ifndef COSMOS_COMMON_CONFIG_HH
#define COSMOS_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace cosmos
{

/** Which remote-read-to-exclusive-owner policy the directory uses. */
enum class OwnerReadPolicy
{
    /**
     * Stache's half-migratory optimization (paper §5.1): a read or
     * write miss to a block held exclusive elsewhere makes the
     * directory ask the owner to *invalidate* (inval_rw_request), not
     * to downgrade to shared.
     */
    half_migratory,

    /**
     * DASH-style: a read miss to a block held exclusive elsewhere
     * downgrades the owner to shared (downgrade_request), keeping a
     * read-only copy at the former owner. Used for the §6.1 ablation.
     */
    downgrade,
};

/**
 * Parameters of the simulated target machine.
 *
 * Latencies are in nanoseconds (1 ns = 1 Tick); defaults follow the
 * paper's Table 3: 16 single-processor nodes, 64-byte blocks, 1 MB
 * direct-mapped caches (moot: Stache never replaces remote pages),
 * 120 ns memory, 40 ns network, 60 ns network-interface access.
 */
struct MachineConfig
{
    NodeId numNodes = 16;
    unsigned blockBytes = 64;
    unsigned pageBytes = 4096;

    Tick cacheHitLatency = 1;
    Tick memoryLatency = 120;
    Tick networkLatency = 40;
    Tick networkInterfaceLatency = 60;

    /**
     * Directory/protocol-occupancy per handled message. Stache runs
     * coherence handlers in software, so this is tens of ns.
     */
    Tick protocolOccupancy = 25;

    OwnerReadPolicy ownerReadPolicy = OwnerReadPolicy::half_migratory;

    /**
     * Cache capacity in blocks; 0 = unbounded (Stache never replaces
     * remote cache pages, §5.1). With a bound, read-only lines are
     * silently dropped to make room -- an ablation showing how
     * replacement disturbs the message signatures Cosmos learns.
     */
    unsigned cacheCapacityBlocks = 0;

    /**
     * Outstanding misses each processor may overlap (non-blocking
     * caches, one of the latency-tolerance alternatives the paper's
     * introduction lists). 1 = the paper's blocking target model.
     */
    unsigned memoryLevelParallelism = 1;

    /**
     * SGI-Origin-style forwarding (§2.1): on a miss to an exclusive
     * block the former owner sends the data *directly* to the
     * requester (three hops) instead of through the home (four).
     * The paper expects "no first-order effect on coherence
     * prediction's usability"; bench_ablation_forwarding checks.
     *
     * The three-hop transfer is closed by a fwd_ack from the
     * requester to the home: the directory entry stays busy (queueing
     * later requests) until the requester confirms the forwarded data
     * arrived, so the home's next invalidation can never overtake the
     * owner's direct reply. Model-checked to closure by
     * `cosmos model --forwarding`.
     */
    bool forwarding = false;

    /**
     * Revert to the pre-fwd_ack forwarding protocol: the owner's
     * direct reply is not acknowledged and the home releases the
     * entry as soon as the owner's revision message arrives. This
     * reintroduces a real race (the home's next invalidation can
     * reach the requester before the owner's data) and exists purely
     * as a negative-testing oracle for the model checker and CI.
     */
    bool legacyForwarding = false;

    /**
     * Gate each three-hop forward on the directory's speculation
     * hook (DirectorySpeculation::forwardOwnerTransfer): forward only
     * when the predictor expects the requester to be the block's next
     * reader; otherwise fall back to the four-hop home reply. The one
     * switch for prediction-gated forwarding: an installed
     * accel::OnlineAccelerator answers every query. No-op unless
     * `forwarding` is set and a speculation hook is installed.
     */
    bool forwardingPredicted = false;

    /**
     * Deliberate protocol-bug injection, exclusively for exercising
     * the checker (src/check). Production configurations leave every
     * field zero; the fuzzer's negative tests and CI's
     * catch-the-planted-bug stage turn them on.
     */
    struct FaultInjection
    {
        /**
         * Every Nth inval_ro_request to a live shared copy is
         * acknowledged *without* invalidating the line -- a lost
         * invalidation, the classic directory-protocol bug. The
         * directory then grants exclusivity while a stale read-only
         * copy survives, which the single-writer/multiple-reader
         * invariant must catch. 0 = off.
         */
        unsigned ignoreInvalEvery = 0;
    };

    FaultInjection fault{};

    /** Seed for all derived RNG streams. */
    std::uint64_t seed = 0x5eedc05305ULL;

    /** Validate invariants; calls cosmos_fatal on bad values. */
    void validate() const;

    /** One-line human-readable summary. */
    std::string summary() const;
};

const char *toString(OwnerReadPolicy policy);

} // namespace cosmos

#endif // COSMOS_COMMON_CONFIG_HH
