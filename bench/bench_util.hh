/**
 * @file
 * Shared helpers for the table-reproduction benches: the paper's
 * published numbers (for side-by-side comparison) and small
 * formatting utilities.
 *
 * Reproduction success is judged on *shape*, not absolute match (our
 * substrate is a miniature simulator, not WWT II + the real codes):
 * see DESIGN.md §4 for the per-experiment criteria.
 */

#ifndef COSMOS_BENCH_BENCH_UTIL_HH
#define COSMOS_BENCH_BENCH_UTIL_HH

#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace cosmos::bench
{

/** The five applications in the paper's (alphabetical) order. */
inline const std::vector<std::string> apps = {
    "appbt", "barnes", "dsmc", "moldyn", "unstructured"};

/** Paper Table 5: [app][depth 1..4][cache, directory, overall]. */
inline const int paper_table5[5][4][3] = {
    // appbt
    {{91, 77, 84}, {90, 79, 85}, {89, 80, 85}, {89, 80, 85}},
    // barnes
    {{80, 42, 62}, {81, 56, 69}, {79, 57, 69}, {78, 56, 68}},
    // dsmc
    {{94, 73, 84}, {95, 77, 86}, {94, 92, 93}, {94, 92, 93}},
    // moldyn
    {{92, 79, 86}, {91, 80, 86}, {90, 79, 85}, {90, 77, 84}},
    // unstructured
    {{85, 65, 74}, {90, 86, 88}, {90, 88, 89}, {96, 88, 92}},
};

/** Paper Table 6: [app][depth 1..2][filter max 0..2] overall %. */
inline const int paper_table6[5][2][3] = {
    {{84, 85, 85}, {85, 85, 86}}, // appbt
    {{62, 66, 66}, {69, 71, 71}}, // barnes
    {{84, 86, 86}, {86, 88, 88}}, // dsmc
    {{86, 86, 86}, {86, 86, 86}}, // moldyn
    {{74, 78, 78}, {88, 89, 89}}, // unstructured
};

/** Paper Table 7: [app][depth 1..4][ratio, overhead %]. */
inline const double paper_table7[5][4][2] = {
    {{1.2, 5.4}, {1.4, 9.6}, {1.9, 16.4}, {2.6, 26.5}},
    {{3.8, 13.5}, {6.9, 35.4}, {9.3, 63.0}, {10.9, 91.8}},
    {{0.8, 3.9}, {0.4, 5.1}, {0.3, 6.7}, {0.3, 8.9}},
    {{0.8, 4.0}, {1.1, 8.3}, {1.6, 14.9}, {2.0, 21.6}},
    {{1.7, 6.8}, {2.1, 12.8}, {2.8, 21.9}, {3.4, 33.0}},
};

/** Print a section header. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

/** Monotonic seconds since @p start (all bench timing runs on
 *  steady_clock; wall clocks jump under NTP). */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace cosmos::bench

#endif // COSMOS_BENCH_BENCH_UTIL_HH
