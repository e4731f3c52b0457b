/**
 * @file
 * Golden simulator outputs: what the simulated machine produces, pinned
 * so that a change to its containers, event queue or network can be
 * shown to leave every trace byte-identical.
 *
 * Per paper kernel at the default seed: the FNV-1a digest of the plain
 * run's trace (the digest perfbench prints), the events that run
 * executed and its final simulated time, plus the final time and
 * accelerator counters of the same kernel under the default
 * OnlineAccelerator. Beside them, one capacity-mode forge run that
 * evicts, the delivered-message total of the 200-seed fuzz campaign
 * that CI runs, and a digest of the reports of CI's planted-bug
 * campaign.
 *
 * Regenerate only when the simulated machine intentionally changes:
 * each drifting row of tests/golden_test.cc prints its measured value
 * in this file's syntax.
 */

#ifndef COSMOS_TESTS_FIXTURES_GOLDEN_SIM_HH
#define COSMOS_TESTS_FIXTURES_GOLDEN_SIM_HH

#include <cstdint>

namespace cosmos::fixtures
{

/** One kernel's plain and accelerated runs at the default seed. */
struct GoldenKernelRun
{
    const char *app;
    std::uint64_t digest;    ///< FNV-1a over the plain run's records
    std::uint64_t events;    ///< events the plain run executed
    std::uint64_t finalTime; ///< plain run's final simulated time
    std::uint64_t accelFinalTime; ///< accelerated run's final time
    // accel::OnlineStats of the accelerated run, in declaration order.
    std::uint64_t rmwQueries;
    std::uint64_t rmwGrants;
    std::uint64_t recallTriggers;
    std::uint64_t recallsStarted;
    std::uint64_t gatedByConfidence;
    std::uint64_t fwdQueries;
    std::uint64_t fwdGranted;
};

inline constexpr GoldenKernelRun golden_kernel_runs[] = {
    {"appbt", 0x88de90bc116d6989u, 272118u, 2299699u, 2240529u, 19208u,
     2248u, 2754u, 251u, 0u, 0u, 0u},
    {"barnes", 0x919f67309aa91786u, 402536u, 8332805u, 8344167u, 9243u,
     0u, 5375u, 317u, 0u, 0u, 0u},
    {"dsmc", 0x3c13c5894c2124b6u, 596058u, 6875457u, 6596954u, 31400u,
     7623u, 0u, 0u, 0u, 0u, 0u},
    {"moldyn", 0xfedf85fd02b13134u, 1386730u, 11668731u, 10830085u,
     95454u, 27650u, 45046u, 4187u, 0u, 0u, 0u},
    {"unstructured", 0x4587dd496f889371u, 378227u, 4040946u, 3732649u,
     27935u, 9495u, 3085u, 425u, 0u, 0u, 0u},
};

/** A forge run at a cache capacity small enough to evict: the
 *  capacity-mode victim rule is part of the pinned output. */
inline constexpr const char *golden_forge_spec =
    "migratory=0.45,false=0.15,private=0.1,readonly=0.05,phase=8,"
    "blocks=512";
inline constexpr unsigned golden_forge_capacity = 48;
inline constexpr int golden_forge_iterations = 12;
inline constexpr std::uint64_t golden_forge_digest = 0xca493d6008740e2fu;
inline constexpr std::uint64_t golden_forge_evictions = 5399u;

/** Messages delivered by the clean 200-seed campaign from seed 1
 *  (`cosmos fuzz --seeds 200 --seed 1`). */
inline constexpr std::uint64_t golden_fuzz_delivered = 122556u;

/** FNV-1a digest of the planted-bug campaign CI runs (`cosmos fuzz
 *  --seeds 5 --seed 1 --inject-ignore-inval 2`, shrinking on): each
 *  failure's seed, delivered count and shrunk op count, and each of
 *  its violations rendered by Violation::format() -- kind, block,
 *  nodes, detail and message history. */
inline constexpr std::uint64_t golden_fuzz_planted_digest =
    0x14a2b72481cff3ffu;

} // namespace cosmos::fixtures

#endif // COSMOS_TESTS_FIXTURES_GOLDEN_SIM_HH
