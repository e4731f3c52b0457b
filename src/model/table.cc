#include "model/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/log.hh"

namespace cosmos::model
{

const char *
toString(Module m)
{
    return m == Module::cache ? "cache" : "directory";
}

const char *
toString(DirAbstract s)
{
    switch (s) {
      case DirAbstract::idle:        return "idle";
      case DirAbstract::shared:      return "shared";
      case DirAbstract::exclusive:   return "exclusive";
      case DirAbstract::busy_read:   return "busy_read";
      case DirAbstract::busy_write:  return "busy_write";
      case DirAbstract::busy_recall: return "busy_recall";
    }
    return "?";
}

const char *
inputName(std::uint8_t input)
{
    if (input == input_proc_read)
        return "proc_read";
    if (input == input_proc_write)
        return "proc_write";
    cosmos_assert(input < proto::num_msg_types, "bad table input ",
                  unsigned{input});
    return proto::toString(static_cast<proto::MsgType>(input));
}

namespace
{

const char *
stateName(Module m, std::uint8_t st)
{
    if (m == Module::cache)
        return proto::toString(static_cast<proto::LineState>(st));
    return toString(static_cast<DirAbstract>(st));
}

/** Inputs a module can receive, in reporting order. */
std::vector<std::uint8_t>
moduleInputs(Module m)
{
    std::vector<std::uint8_t> in;
    for (unsigned t = 0; t < proto::num_msg_types; ++t) {
        const auto mt = static_cast<proto::MsgType>(t);
        const bool cacheSide = receiverRole(mt) == proto::Role::cache;
        if (cacheSide == (m == Module::cache))
            in.push_back(static_cast<std::uint8_t>(t));
    }
    if (m == Module::cache) {
        in.push_back(input_proc_read);
        in.push_back(input_proc_write);
    }
    return in;
}

/** All declared states of a module, in enum order. */
std::vector<std::uint8_t>
moduleStates(Module m)
{
    std::vector<std::uint8_t> st;
    for (unsigned s = 0; s < 6; ++s)
        st.push_back(static_cast<std::uint8_t>(s));
    (void)m; // both modules declare six states
    return st;
}

} // namespace

std::string
TableKey::format() const
{
    std::string s = detail::concat(toString(module), " ",
                                   stateName(module, state), " x ",
                                   inputName(input));
    if (!context.empty())
        s += detail::concat(" [", context, "]");
    return s;
}

std::string
Outcome::format(Module module) const
{
    std::string s = detail::concat("-> ", stateName(module, next));
    if (!emissions.empty()) {
        s += " !";
        for (proto::MsgType t : emissions)
            s += detail::concat(" ", proto::toString(t));
    }
    return s;
}

void
TransitionTable::record(const Sample &s, std::uint64_t hits)
{
    TableKey key;
    key.module = s.module;
    key.state = s.pre;
    key.input = s.input;
    key.context = proto::guardContext(s.guard);

    Outcome o;
    o.next = s.post;
    for (unsigned t = 0; t < proto::num_msg_types; ++t)
        if (s.emissions & (1u << t))
            o.emissions.push_back(static_cast<proto::MsgType>(t));

    TableEntry &e = entries_[key];
    e.outcomes.insert(std::move(o));
    e.hits += hits;
}

std::set<std::uint8_t>
TransitionTable::observedStates(Module m) const
{
    std::set<std::uint8_t> st;
    for (const auto &[key, entry] : entries_) {
        if (key.module != m)
            continue;
        st.insert(key.state);
        for (const Outcome &o : entry.outcomes)
            st.insert(o.next);
    }
    return st;
}

std::vector<const TableKey *>
TransitionTable::nondeterministicKeys() const
{
    std::vector<const TableKey *> keys;
    for (const auto &[key, entry] : entries_) {
        if (entry.outcomes.size() <= 1)
            continue;
        // "q" entries aggregate over the queued-request backlog;
        // their outcome legitimately depends on what was waiting.
        if (key.context.find('q') != std::string::npos)
            continue;
        keys.push_back(&key);
    }
    return keys;
}

const char *
LintFinding::toString(Kind k)
{
    switch (k) {
      case Kind::unreachable_state: return "unreachable_state";
      case Kind::dead_input:        return "dead_input";
      case Kind::nondeterministic:  return "nondeterministic";
      case Kind::forwarding_asymmetry:
        return "forwarding_asymmetry";
    }
    return "?";
}

std::vector<LintFinding>
TransitionTable::lint() const
{
    std::vector<LintFinding> findings;

    for (Module m : {Module::cache, Module::directory}) {
        const std::set<std::uint8_t> observed = observedStates(m);

        for (std::uint8_t st : moduleStates(m)) {
            if (observed.count(st))
                continue;
            findings.push_back(
                {LintFinding::Kind::unreachable_state, m,
                 detail::concat("state ", stateName(m, st),
                                " is never reached")});
        }

        // Inputs never seen module-wide get one finding; inputs seen
        // somewhere get one finding per observed state that never
        // receives them.
        std::set<std::uint8_t> observedInputs;
        for (const auto &[key, entry] : entries_)
            if (key.module == m)
                observedInputs.insert(key.input);

        for (std::uint8_t in : moduleInputs(m)) {
            if (!observedInputs.count(in)) {
                findings.push_back(
                    {LintFinding::Kind::dead_input, m,
                     detail::concat("input ", inputName(in),
                                    " is never exercised")});
                continue;
            }
            for (std::uint8_t st : observed) {
                bool seen = false;
                for (const auto &[key, entry] : entries_) {
                    if (key.module == m && key.state == st &&
                        key.input == in) {
                        seen = true;
                        break;
                    }
                }
                if (!seen) {
                    findings.push_back(
                        {LintFinding::Kind::dead_input, m,
                         detail::concat("state ", stateName(m, st),
                                        " never receives ",
                                        inputName(in))});
                }
            }
        }
    }

    // inval_ro_request sweeps are never forwarded (the home holds
    // the data while the block is shared), so no cache row handling
    // one may emit a data response. A violation here means
    // DirectoryController::forward() started marking ro-sweeps
    // `forwarded`, which the fwd_ack handshake does not cover.
    for (const auto &[key, entry] : entries_) {
        if (key.module != Module::cache ||
            key.input != static_cast<std::uint8_t>(
                             proto::MsgType::inval_ro_request)) {
            continue;
        }
        for (const Outcome &o : entry.outcomes) {
            for (proto::MsgType t : o.emissions) {
                if (t == proto::MsgType::get_ro_response ||
                    t == proto::MsgType::get_rw_response) {
                    findings.push_back(
                        {LintFinding::Kind::forwarding_asymmetry,
                         key.module,
                         detail::concat(key.format(),
                                        " emits a forwarded data "
                                        "response (",
                                        proto::toString(t), ")")});
                }
            }
        }
    }

    for (const TableKey *key : nondeterministicKeys()) {
        const TableEntry &e = entries_.at(*key);
        std::string nexts;
        for (const Outcome &o : e.outcomes) {
            if (!nexts.empty())
                nexts += ", ";
            nexts += stateName(key->module, o.next);
        }
        findings.push_back(
            {LintFinding::Kind::nondeterministic, key->module,
             detail::concat(key->format(), " has ", e.outcomes.size(),
                            " outcomes (next states: {", nexts, "})")});
    }

    return findings;
}

const char *
ConsistencyFinding::toString(Kind k)
{
    switch (k) {
      case Kind::undeclared_transition: return "undeclared_transition";
      case Kind::unreachable_reached:   return "unreachable_reached";
      case Kind::outcome_mismatch:      return "outcome_mismatch";
    }
    return "?";
}

std::vector<ConsistencyFinding>
TransitionTable::diffAgainstDeclared(
    const proto::ProtocolTable &declared) const
{
    std::vector<ConsistencyFinding> findings;
    for (const auto &[key, entry] : entries_) {
        const proto::Role role = key.module == Module::cache
                                     ? proto::Role::cache
                                     : proto::Role::directory;
        const proto::GuardBits guard =
            proto::guardFromContext(key.context);
        const proto::TransitionRow *row =
            declared.find(role, key.state, key.input, guard);
        if (!row) {
            findings.push_back(
                {ConsistencyFinding::Kind::undeclared_transition,
                 key.module,
                 detail::concat("no declared row covers ",
                                key.format())});
            continue;
        }
        if (row->unreachable) {
            findings.push_back(
                {ConsistencyFinding::Kind::unreachable_reached,
                 key.module,
                 detail::concat(key.format(),
                                " matched the declared-unreachable "
                                "marker at ",
                                row->where())});
            continue;
        }
        // A completing row serviced from the backlog folds the
        // re-served request's transition into the same sample.
        if (row->completes && (guard & proto::guard_q))
            continue;

        std::vector<proto::MsgType> want = row->emits;
        std::sort(want.begin(), want.end());
        want.erase(std::unique(want.begin(), want.end()), want.end());
        for (const Outcome &o : entry.outcomes) {
            if (o.next == row->next && o.emissions == want)
                continue;
            Outcome decl;
            decl.next = row->next;
            decl.emissions = want;
            findings.push_back(
                {ConsistencyFinding::Kind::outcome_mismatch,
                 key.module,
                 detail::concat(key.format(), " observed ",
                                o.format(key.module),
                                " but the row at ", row->where(),
                                " declares ", decl.format(key.module))});
        }
    }
    return findings;
}

std::string
TransitionTable::format() const
{
    std::ostringstream os;
    Module last = Module::directory;
    bool first = true;
    for (const auto &[key, entry] : entries_) {
        if (first || key.module != last) {
            os << (first ? "" : "\n") << toString(key.module)
               << " transitions:\n";
            last = key.module;
            first = false;
        }
        for (const Outcome &o : entry.outcomes) {
            os << "  " << std::left << std::setw(52)
               << key.format().substr(
                      std::string(toString(key.module)).size() + 1)
               << " " << o.format(key.module);
            if (entry.outcomes.size() > 1)
                os << "  (1 of " << entry.outcomes.size() << ")";
            os << "  [" << entry.hits << " hits]\n";
        }
    }
    return os.str();
}

} // namespace cosmos::model
