#include "lint/report.hh"

#include <sstream>

#include "common/json.hh"

namespace cosmos::lint
{

namespace
{

std::size_t
countUnreachable(const proto::ProtocolTable &t)
{
    std::size_t n = 0;
    for (const proto::TransitionRow &r : t.rows())
        n += r.unreachable ? 1 : 0;
    return n;
}

void
appendConfig(std::ostream &os, const MachineConfig &cfg)
{
    os << "{\"nodes\": " << static_cast<unsigned>(cfg.numNodes)
       << ", \"forwarding\": " << (cfg.forwarding ? "true" : "false")
       << ", \"legacy_forwarding\": "
       << (cfg.legacyForwarding ? "true" : "false")
       << ", \"owner_read_policy\": ";
    appendJsonString(os, toString(cfg.ownerReadPolicy));
    os << ", \"cache_capacity_blocks\": " << cfg.cacheCapacityBlocks
       << "}";
}

} // namespace

std::string
renderReport(const proto::ProtocolTable &table,
             const std::vector<Finding> &findings,
             MutationKind mutation)
{
    std::ostringstream os;
    const MachineConfig &cfg = table.config();
    os << "lint: rows=" << table.rows().size() - countUnreachable(table)
       << " unreachable=" << countUnreachable(table)
       << " forwarding=" << (cfg.forwarding ? 1 : 0)
       << " legacy_forwarding=" << (cfg.legacyForwarding ? 1 : 0)
       << " policy=" << toString(cfg.ownerReadPolicy)
       << " capacity=" << cfg.cacheCapacityBlocks;
    if (mutation != MutationKind::none)
        os << " mutation=" << toString(mutation);
    os << "\n";
    os << "findings: " << findings.size() << "\n";
    for (const Finding &f : findings) {
        os << "  [" << Finding::toString(f.kind) << "] "
           << proto::toString(f.role) << ": " << f.detail << "\n";
        for (const RowRef &r : f.rows)
            os << "    " << r.where << ": " << r.row << "\n";
    }
    return os.str();
}

std::string
renderJson(const proto::ProtocolTable &table,
           const std::vector<Finding> &findings, MutationKind mutation)
{
    std::ostringstream os;
    os << "{\n  \"format\": \"cosmos-lint-v1\",\n";
    os << "  \"config\": ";
    appendConfig(os, table.config());
    os << ",\n";
    os << "  \"mutation\": ";
    appendJsonString(os, toString(mutation));
    os << ",\n";
    os << "  \"rows\": "
       << table.rows().size() - countUnreachable(table) << ",\n";
    os << "  \"unreachable_rows\": " << countUnreachable(table)
       << ",\n";
    os << "  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << (i ? "," : "") << "\n    {\"kind\": ";
        appendJsonString(os, Finding::toString(f.kind));
        os << ", \"role\": ";
        appendJsonString(os, proto::toString(f.role));
        os << ", \"detail\": ";
        appendJsonString(os, f.detail);
        os << ", \"rows\": [";
        for (std::size_t j = 0; j < f.rows.size(); ++j) {
            os << (j ? ", " : "") << "{\"where\": ";
            appendJsonString(os, f.rows[j].where);
            os << ", \"row\": ";
            appendJsonString(os, f.rows[j].row);
            os << "}";
        }
        os << "]}";
    }
    os << (findings.empty() ? "]" : "\n  ]") << ",\n";
    os << "  \"clean\": " << (findings.empty() ? "true" : "false")
       << "\n}\n";
    return os.str();
}

} // namespace cosmos::lint
