/**
 * @file
 * Golden prediction-accuracy counters for the Table 5 / Table 6
 * replay grid: every (application, MHR depth, filter) cell's exact
 * integer hit/total counts per receiver role, plus cold misses.
 *
 * These were produced by the seed implementation (std::unordered_map
 * tables, vector MHRs) and pin the predictor's externally visible
 * behaviour bit-for-bit: any layout or hot-path change that alters a
 * single counter is a correctness regression, not noise. The golden
 * regression suite (tests/golden_test.cc) checks serial replay and
 * the sweep engine, default and 4-shard, against these rows, and
 * the pipeline benchmark (perfbench/) gates its replay-grid cells on
 * them at seed 0.
 *
 * Regenerate only when the *model* intentionally changes: each
 * drifting cell of golden_test prints its measured row in this
 * file's syntax.
 */

#ifndef COSMOS_TESTS_FIXTURES_GOLDEN_ACCURACY_HH
#define COSMOS_TESTS_FIXTURES_GOLDEN_ACCURACY_HH

#include <cstddef>
#include <cstdint>

namespace cosmos::fixtures
{

/** One pinned replay cell: config plus its exact result counters. */
struct GoldenAccuracyRow
{
    const char *app;         ///< standard paper trace name
    unsigned depth;          ///< MHR depth (CosmosConfig::depth)
    unsigned filterMax;      ///< filter max (CosmosConfig::filterMax)
    std::uint64_t cacheHits; ///< cache-side hits (Table 5 "C")
    std::uint64_t cacheTotal;
    std::uint64_t dirHits; ///< directory-side hits (Table 5 "D")
    std::uint64_t dirTotal;
    std::uint64_t coldMisses; ///< lookups that found no pattern
};

/**
 * The full pinned grid, application-major: depths 1-4 unfiltered
 * (Table 5), then depths 1-2 x filters 1-2 (Table 6).
 */
inline constexpr GoldenAccuracyRow golden_accuracy_rows[] = {
    {"appbt", 1, 0, 64071u, 69738u, 53529u, 71874u, 8286u},
    {"appbt", 2, 0, 62959u, 68373u, 57512u, 70675u, 10398u},
    {"appbt", 3, 0, 61800u, 67565u, 56347u, 69992u, 12358u},
    {"appbt", 4, 0, 60624u, 66779u, 55113u, 69508u, 14220u},
    {"appbt", 1, 1, 64801u, 69738u, 56108u, 71874u, 8286u},
    {"appbt", 1, 2, 64930u, 69738u, 56864u, 71874u, 8286u},
    {"appbt", 2, 1, 63647u, 68373u, 59005u, 70675u, 10398u},
    {"appbt", 2, 2, 63734u, 68373u, 59305u, 70675u, 10398u},
    {"barnes", 1, 0, 97155u, 109564u, 60423u, 113699u, 17948u},
    {"barnes", 2, 0, 97383u, 105163u, 62436u, 113313u, 31628u},
    {"barnes", 3, 0, 94444u, 101677u, 57960u, 112931u, 46345u},
    {"barnes", 4, 0, 91601u, 98316u, 52848u, 112551u, 55719u},
    {"barnes", 1, 1, 98974u, 109564u, 60647u, 113699u, 17948u},
    {"barnes", 1, 2, 98932u, 109564u, 60209u, 113699u, 17948u},
    {"barnes", 2, 1, 97381u, 105163u, 62269u, 113313u, 31628u},
    {"barnes", 2, 2, 97378u, 105163u, 62003u, 113313u, 31628u},
    {"dsmc", 1, 0, 112750u, 117521u, 104688u, 134773u, 18886u},
    {"dsmc", 2, 0, 111721u, 117082u, 108981u, 132016u, 16757u},
    {"dsmc", 3, 0, 111306u, 116795u, 109702u, 129399u, 14970u},
    {"dsmc", 4, 0, 110651u, 116508u, 109062u, 126799u, 13169u},
    {"dsmc", 1, 1, 112355u, 117521u, 104533u, 134773u, 18886u},
    {"dsmc", 1, 2, 111767u, 117521u, 103263u, 134773u, 18886u},
    {"dsmc", 2, 1, 111889u, 117082u, 108732u, 132016u, 16757u},
    {"dsmc", 2, 2, 112095u, 117082u, 108139u, 132016u, 16757u},
    {"moldyn", 1, 0, 308697u, 338803u, 271513u, 353726u, 41708u},
    {"moldyn", 2, 0, 315504u, 331429u, 274323u, 347362u, 57239u},
    {"moldyn", 3, 0, 309988u, 325024u, 262877u, 344479u, 70060u},
    {"moldyn", 4, 0, 304472u, 318619u, 252046u, 343110u, 83496u},
    {"moldyn", 1, 1, 315651u, 338803u, 273946u, 353726u, 41708u},
    {"moldyn", 1, 2, 315651u, 338803u, 266650u, 353726u, 41708u},
    {"moldyn", 2, 1, 315220u, 331429u, 274827u, 347362u, 57239u},
    {"moldyn", 2, 2, 314918u, 331429u, 273021u, 347362u, 57239u},
    {"unstructured", 1, 0, 68145u, 79259u, 48007u, 80018u, 3971u},
    {"unstructured", 2, 0, 72427u, 78767u, 65977u, 79430u, 5341u},
    {"unstructured", 3, 0, 71544u, 78275u, 68758u, 79057u, 6503u},
    {"unstructured", 4, 0, 70780u, 77783u, 67982u, 78795u, 7822u},
    {"unstructured", 1, 1, 71708u, 79259u, 56530u, 80018u, 3971u},
    {"unstructured", 1, 2, 71874u, 79259u, 57422u, 80018u, 3971u},
    {"unstructured", 2, 1, 73120u, 78767u, 68547u, 79430u, 5341u},
    {"unstructured", 2, 2, 73297u, 78767u, 68889u, 79430u, 5341u},
};

inline constexpr std::size_t num_golden_accuracy_rows =
    sizeof(golden_accuracy_rows) / sizeof(golden_accuracy_rows[0]);

} // namespace cosmos::fixtures

#endif // COSMOS_TESTS_FIXTURES_GOLDEN_ACCURACY_HH
