/**
 * @file
 * Structured protocol-safety violation records.
 *
 * The invariant engine and the schedule fuzzer report what went wrong
 * as data -- which property, which block, which nodes, the machine
 * states involved, and the last few delivered messages leading up to
 * the failure -- instead of an abort() with a one-line string. A
 * Violation renders to a human paragraph for terminals and to JSON
 * for CI artifacts (scripts/check_json.py validates the schema).
 */

#ifndef COSMOS_CHECK_VIOLATION_HH
#define COSMOS_CHECK_VIOLATION_HH

#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace cosmos::check
{

/** Which safety property was violated. */
enum class ViolationKind : std::uint8_t
{
    multiple_writers,   ///< SWMR: more than one read_write copy
    writer_and_readers, ///< SWMR: read_write and read_only coexist
    directory_mismatch, ///< sharer bits / owner disagree with caches
    conservation,       ///< request/response imbalance for a block
    liveness,           ///< pending window exceeded / stuck at quiescence
    assertion,          ///< a cosmos_assert/panic recovered by the trap
};

const char *toString(ViolationKind k);

/** One detected safety violation, with enough context to debug it. */
struct Violation
{
    ViolationKind kind{};
    Addr block = 0;
    /** Nodes implicated (e.g. the coexisting writer and readers). */
    std::vector<NodeId> nodes;
    /** Human-readable description of the offending states. */
    std::string detail;
    /** Simulated time of detection. */
    Tick when = 0;
    /** Last-k delivered messages before detection, oldest first. */
    std::vector<std::string> history;

    /** Multi-line human rendering (detail + message history). */
    std::string format() const;

    /** Write the JSON object the model and fuzz artifacts carry:
     *  kind, block, when, nodes, detail, history. */
    void appendJson(std::ostream &os) const;
};

/** "block 0x40 nodes [1, 3]"-style one-liner used inside reports. */
std::string describeBlockNodes(Addr block,
                               const std::vector<NodeId> &nodes);

} // namespace cosmos::check

#endif // COSMOS_CHECK_VIOLATION_HH
