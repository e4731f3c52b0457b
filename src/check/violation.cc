#include "check/violation.hh"

#include <sstream>

#include "common/json.hh"

namespace cosmos::check
{

const char *
toString(ViolationKind k)
{
    switch (k) {
      case ViolationKind::multiple_writers:   return "multiple_writers";
      case ViolationKind::writer_and_readers: return "writer_and_readers";
      case ViolationKind::directory_mismatch: return "directory_mismatch";
      case ViolationKind::conservation:       return "conservation";
      case ViolationKind::liveness:           return "liveness";
      case ViolationKind::assertion:          return "assertion";
    }
    return "?";
}

std::string
describeBlockNodes(Addr block, const std::vector<NodeId> &nodes)
{
    std::ostringstream os;
    os << "block 0x" << std::hex << block << std::dec;
    if (!nodes.empty()) {
        os << " nodes [";
        for (std::size_t i = 0; i < nodes.size(); ++i)
            os << (i ? ", " : "") << nodes[i];
        os << "]";
    }
    return os.str();
}

std::string
Violation::format() const
{
    std::ostringstream os;
    os << toString(kind) << " at t=" << when << ": "
       << describeBlockNodes(block, nodes) << "\n  " << detail;
    if (!history.empty()) {
        os << "\n  last " << history.size() << " messages:";
        for (const auto &h : history)
            os << "\n    " << h;
    }
    return os.str();
}

void
Violation::appendJson(std::ostream &os) const
{
    os << "{\"kind\": ";
    appendJsonString(os, toString(kind));
    os << ", \"block\": " << block << ", \"when\": " << when
       << ", \"nodes\": [";
    for (std::size_t i = 0; i < nodes.size(); ++i)
        os << (i ? ", " : "") << static_cast<unsigned>(nodes[i]);
    os << "], \"detail\": ";
    appendJsonString(os, detail);
    os << ", \"history\": [";
    for (std::size_t i = 0; i < history.size(); ++i) {
        os << (i ? ", " : "");
        appendJsonString(os, history[i]);
    }
    os << "]}";
}

} // namespace cosmos::check
