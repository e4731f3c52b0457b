#include "model/report.hh"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/config.hh"
#include "common/json.hh"
#include "proto/transition_table.hh"

namespace cosmos::model
{

std::string
renderReport(const ModelConfig &mc, const ExploreResult &res)
{
    std::ostringstream os;
    os << "model check: nodes=" << mc.numNodes
       << " blocks=" << mc.numBlocks << " reorder=" << mc.reorder
       << " policy=" << toString(mc.policy)
       << " forwarding=" << (mc.forwarding ? 1 : 0);
    if (mc.legacyForwarding)
        os << " legacy_forwarding=1";
    if (mc.ignoreInvalEvery)
        os << " inject_ignore_inval=" << mc.ignoreInvalEvery;
    os << "\n";
    os << "explored " << res.states << " states, " << res.transitions
       << " transitions, depth " << res.maxDepth
       << (res.complete ? "" : " (INCOMPLETE: state bound hit)")
       << "\n";
    os << "violations: " << res.counterexamples.size()
       << ", deadlocks: " << res.deadlocks
       << ", trapped assertions: " << res.failedSteps << "\n";

    os << "declared-table consistency: "
       << (res.consistent() ? "ok" : "DIVERGED") << " ("
       << res.consistency.size() << " findings)\n";
    for (const ConsistencyFinding &f : res.consistency) {
        os << "  [" << ConsistencyFinding::toString(f.kind) << "] "
           << proto::toString(f.role) << ": " << f.detail << "\n";
    }

    for (const Counterexample &ce : res.counterexamples) {
        os << "\nviolation: " << check::toString(ce.violation.kind)
           << " -- " << ce.violation.detail << "\n";
        os << "counterexample (" << ce.schedule.size() << " steps):\n";
        std::size_t i = 0;
        for (const Action &a : ce.schedule)
            os << "  step " << i++ << ": " << a.format() << "\n";
    }

    const proto::ProtocolTable declared =
        proto::ProtocolTable::build(mc.machineConfig());
    std::ostringstream rows;
    std::size_t live = 0;
    std::size_t hit = 0;
    for (std::size_t i = 0; i < declared.rows().size(); ++i) {
        const proto::TransitionRow &r = declared.rows()[i];
        if (r.unreachable)
            continue;
        ++live;
        hit += res.rowHits[i] != 0 ? 1 : 0;
        rows << std::setw(10) << res.rowHits[i] << "  " << r.where()
             << "  " << r.format() << "\n";
    }
    os << "\ndeclared rows: " << hit << " of " << live
       << " live rows hit\n"
       << rows.str();
    return os.str();
}

bool
writeReportJson(const std::string &path, const ModelConfig &mc,
                const ExploreResult &res)
{
    std::ofstream os(path);
    if (!os)
        return false;

    os << "{\n  \"format\": \"cosmos-model-v2\",\n";
    os << "  \"config\": {\"nodes\": "
       << static_cast<unsigned>(mc.numNodes)
       << ", \"blocks\": " << mc.numBlocks
       << ", \"reorder\": " << mc.reorder << ", \"policy\": ";
    appendJsonString(os, toString(mc.policy));
    os << ", \"forwarding\": " << (mc.forwarding ? "true" : "false")
       << ", \"legacy_forwarding\": "
       << (mc.legacyForwarding ? "true" : "false")
       << ", \"ignore_inval_every\": " << mc.ignoreInvalEvery
       << "},\n";
    os << "  \"complete\": " << (res.complete ? "true" : "false")
       << ",\n";
    os << "  \"clean\": " << (res.clean() ? "true" : "false") << ",\n";
    os << "  \"states\": " << res.states << ",\n";
    os << "  \"transitions\": " << res.transitions << ",\n";
    os << "  \"max_depth\": " << res.maxDepth << ",\n";
    os << "  \"deadlocks\": " << res.deadlocks << ",\n";
    os << "  \"failed_steps\": " << res.failedSteps << ",\n";

    os << "  \"rows\": [";
    const proto::ProtocolTable declared =
        proto::ProtocolTable::build(mc.machineConfig());
    bool firstRow = true;
    for (std::size_t i = 0; i < declared.rows().size(); ++i) {
        const proto::TransitionRow &r = declared.rows()[i];
        if (r.unreachable)
            continue;
        os << (firstRow ? "" : ",") << "\n    {\"where\": ";
        appendJsonString(os, r.where());
        os << ", \"row\": ";
        appendJsonString(os, r.format());
        os << ", \"hits\": " << res.rowHits[i] << "}";
        firstRow = false;
    }
    os << (firstRow ? "]" : "\n  ]") << ",\n";

    os << "  \"consistent\": "
       << (res.consistent() ? "true" : "false") << ",\n";
    os << "  \"consistency\": [";
    for (std::size_t i = 0; i < res.consistency.size(); ++i) {
        const ConsistencyFinding &f = res.consistency[i];
        os << (i ? "," : "") << "\n    {\"kind\": ";
        appendJsonString(os, ConsistencyFinding::toString(f.kind));
        os << ", \"module\": ";
        appendJsonString(os, proto::toString(f.role));
        os << ", \"detail\": ";
        appendJsonString(os, f.detail);
        os << "}";
    }
    os << (res.consistency.empty() ? "]" : "\n  ]") << ",\n";

    os << "  \"violations\": [";
    for (std::size_t i = 0; i < res.counterexamples.size(); ++i) {
        os << (i ? "," : "") << "\n    ";
        res.counterexamples[i].violation.appendJson(os);
    }
    os << (res.counterexamples.empty() ? "]" : "\n  ]") << "\n}\n";
    return static_cast<bool>(os);
}

} // namespace cosmos::model
