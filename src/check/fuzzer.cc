#include "check/fuzzer.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>

#include "common/json.hh"
#include "common/rng.hh"
#include "forge/synth.hh"
#include "proto/machine.hh"
#include "runtime/processor.hh"

namespace cosmos::check
{

namespace
{

// Independent derived streams per seed.
constexpr std::uint64_t case_stream = 0xca5e00ULL;
constexpr std::uint64_t jitter_stream = 0x717732ULL;

Addr
blockAddr(const MachineConfig &cfg, unsigned b)
{
    // One block per page: homes spread round-robin across nodes, and
    // all contention is concentrated on numBlocks hot blocks.
    return Addr{b} * cfg.pageBytes;
}

std::string
formatOp(const runtime::Op &op)
{
    std::ostringstream os;
    switch (op.kind) {
      case runtime::Op::Kind::read:
        os << "R 0x" << std::hex << op.addr;
        break;
      case runtime::Op::Kind::write:
        os << "W 0x" << std::hex << op.addr;
        break;
      case runtime::Op::Kind::think:
        os << "T " << op.delay;
        break;
      default:
        os << "?";
        break;
    }
    return os.str();
}

/**
 * Draw per-seed forge parameters and lower the synthetic stream to
 * per-node programs. The forge uses the fuzzer's block layout (one
 * block per page), so violations print the same addresses either way.
 */
void
makeForgePrograms(FuzzCase &c, Rng &rng, const FuzzOptions &opts)
{
    forge::ForgeParams fp;
    fp.numProcs = opts.numNodes;
    fp.blocks = std::max(1u, opts.numBlocks);
    fp.blockBytes = c.cfg.blockBytes;
    fp.pageBytes = c.cfg.pageBytes;
    fp.seed = c.seed;
    // Random class mix per seed; the four explicit fractions sum to
    // at most 0.9, leaving producer-consumer the remainder.
    fp.migratory = 0.1 * static_cast<double>(rng.nextBelow(4));
    fp.falseSharing = 0.1 * static_cast<double>(rng.nextBelow(3));
    fp.privateFrac = 0.1 * static_cast<double>(rng.nextBelow(3));
    fp.readOnly = 0.1 * static_cast<double>(rng.nextBelow(3));
    fp.fanout = 1 + static_cast<unsigned>(rng.nextBelow(
                        std::max<NodeId>(opts.numNodes, 2) - 1));
    fp.phase = rng.nextBool(0.5)
                   ? 1 + static_cast<unsigned>(rng.nextBelow(4))
                   : 0;

    forge::SynthSource src(fp);
    const std::size_t want =
        static_cast<std::size_t>(opts.opsPerNode) * opts.numNodes;
    std::vector<forge::Access> batch;
    std::size_t pulled = 0;
    while (pulled < want && src.next(batch, want - pulled) > 0) {
        for (const forge::Access &a : batch) {
            c.programs[a.proc].push_back(
                {a.write ? runtime::Op::Kind::write
                         : runtime::Op::Kind::read,
                 a.addr, 0, 0});
        }
        pulled += batch.size();
    }
}

} // namespace

std::size_t
FuzzCase::totalOps() const
{
    std::size_t n = 0;
    for (const auto &p : programs)
        n += p.size();
    return n;
}

FuzzCase
makeCase(std::uint64_t seed, const FuzzOptions &opts)
{
    Rng rng(seed ^ case_stream);

    FuzzCase c;
    c.seed = seed;
    c.cfg.numNodes = opts.numNodes;
    c.cfg.seed = seed;
    // Vary the protocol-shaping knobs per seed so the campaign covers
    // every flow family (half-migratory vs downgrade owner reads,
    // 3-hop forwarding, replacement, overlapping misses).
    c.cfg.ownerReadPolicy = rng.nextBool(0.5)
                                ? OwnerReadPolicy::half_migratory
                                : OwnerReadPolicy::downgrade;
    c.cfg.forwarding = rng.nextBool(0.5);
    if (rng.nextBool(0.25))
        c.cfg.cacheCapacityBlocks =
            2 + static_cast<unsigned>(rng.nextBelow(opts.numBlocks));
    if (rng.nextBool(0.3))
        c.cfg.memoryLevelParallelism = 2;
    c.cfg.fault.ignoreInvalEvery = opts.ignoreInvalEvery;

    c.programs.resize(opts.numNodes);
    if (opts.forgeMix > 0.0 && rng.nextBool(opts.forgeMix)) {
        makeForgePrograms(c, rng, opts);
        return c;
    }
    for (NodeId p = 0; p < opts.numNodes; ++p) {
        runtime::Program &prog = c.programs[p];
        prog.reserve(opts.opsPerNode);
        for (unsigned i = 0; i < opts.opsPerNode; ++i) {
            const Addr a = blockAddr(
                c.cfg,
                static_cast<unsigned>(rng.nextBelow(opts.numBlocks)));
            switch (rng.nextBelow(10)) {
              case 8:
              case 9:
                prog.push_back({runtime::Op::Kind::think, 0, 0,
                                1 + static_cast<Tick>(
                                        rng.nextBelow(32))});
                break;
              case 0:
              case 1:
              case 2:
              case 3:
                prog.push_back({runtime::Op::Kind::read, a, 0, 0});
                break;
              default:
                prog.push_back({runtime::Op::Kind::write, a, 0, 0});
                break;
            }
        }
    }
    return c;
}

CaseResult
runCase(const FuzzCase &c, const FuzzOptions &opts)
{
    CaseResult r;
    r.seed = c.seed;

    // Declared before the machine: the jitter closure captures it and
    // lives inside the machine's network.
    Rng jrng(c.seed ^ jitter_stream);

    proto::Machine machine(c.cfg);
    if (opts.maxJitter > 0) {
        machine.network().setDeliveryJitter(
            [&jrng, &opts](NodeId, NodeId, const proto::Msg &) {
                return static_cast<Tick>(
                    jrng.nextBelow(opts.maxJitter + 1));
            });
    }

    InvariantEngine engine(machine);
    runtime::Runtime rt(machine);

    bool drained = false;
    try {
        FailureTrap trap;
        rt.runPrograms(c.programs);
        drained = true;
    } catch (const RecoverableError &e) {
        engine.noteFailure(e);
    }
    // Quiescent invariants only hold for a drained queue; after a
    // trapped panic the machine is frozen mid-transaction and the
    // sweep would report that, not the root cause.
    if (drained)
        engine.checkQuiescent();

    r.failed = !engine.clean();
    r.violations = engine.violations();
    r.suppressed = engine.suppressed();
    r.delivered = engine.delivered();
    return r;
}

FuzzCase
shrinkCase(const FuzzCase &failing, const FuzzOptions &opts)
{
    FuzzCase best = failing;
    unsigned runs = 0;

    const auto stillFails = [&](const FuzzCase &cand) {
        ++runs;
        return runCase(cand, opts).failed;
    };

    bool progress = true;
    while (progress && runs < opts.maxShrinkRuns) {
        progress = false;
        for (NodeId p = 0;
             p < best.programs.size() && runs < opts.maxShrinkRuns;
             ++p) {
            for (std::size_t len =
                     std::max<std::size_t>(1,
                                           best.programs[p].size() / 2);
                 len >= 1; len /= 2) {
                std::size_t i = 0;
                while (i < best.programs[p].size() &&
                       runs < opts.maxShrinkRuns) {
                    FuzzCase cand = best;
                    auto &ops = cand.programs[p];
                    const std::size_t take =
                        std::min(len, ops.size() - i);
                    ops.erase(ops.begin() +
                                  static_cast<std::ptrdiff_t>(i),
                              ops.begin() +
                                  static_cast<std::ptrdiff_t>(i + take));
                    if (stillFails(cand)) {
                        best = std::move(cand);
                        progress = true;
                        // Same index now names the next chunk.
                    } else {
                        i += len;
                    }
                }
                if (len == 1)
                    break;
            }
        }
    }
    return best;
}

std::vector<std::string>
formatPrograms(const std::vector<runtime::Program> &programs)
{
    std::vector<std::string> out;
    for (std::size_t p = 0; p < programs.size(); ++p) {
        if (programs[p].empty())
            continue;
        std::ostringstream os;
        os << "node " << p << ": ";
        for (std::size_t i = 0; i < programs[p].size(); ++i)
            os << (i ? ", " : "") << formatOp(programs[p][i]);
        out.push_back(os.str());
    }
    return out;
}

Failure
replaySeed(std::uint64_t seed, const FuzzOptions &opts)
{
    const FuzzCase c = makeCase(seed, opts);
    Failure f;
    f.result = runCase(c, opts);
    f.originalOps = c.totalOps();
    f.shrunkOps = f.originalOps;
    f.reproducer = formatPrograms(c.programs);
    if (f.result.failed && opts.shrink) {
        const FuzzCase small = shrinkCase(c, opts);
        f.shrunkOps = small.totalOps();
        f.reproducer = formatPrograms(small.programs);
    }
    return f;
}

FuzzReport
fuzz(const FuzzOptions &opts, std::ostream *log)
{
    FuzzReport report;
    for (unsigned i = 0; i < opts.numSeeds; ++i) {
        const std::uint64_t seed = opts.baseSeed + i;
        const FuzzCase c = makeCase(seed, opts);
        CaseResult r = runCase(c, opts);
        ++report.casesRun;
        if (!r.failed)
            continue;

        Failure f;
        f.result = std::move(r);
        f.originalOps = c.totalOps();
        f.shrunkOps = f.originalOps;
        f.reproducer = formatPrograms(c.programs);
        if (opts.shrink) {
            const FuzzCase small = shrinkCase(c, opts);
            f.shrunkOps = small.totalOps();
            f.reproducer = formatPrograms(small.programs);
        }
        if (log != nullptr) {
            *log << "fuzz: seed " << seed << " FAILED ("
                 << f.result.violations.size() << " violation(s), "
                 << f.shrunkOps << "/" << f.originalOps
                 << " ops after shrink)\n";
            if (!f.result.violations.empty())
                *log << f.result.violations.front().format() << "\n";
        }
        report.failures.push_back(std::move(f));
    }
    if (log != nullptr) {
        *log << "fuzz: " << report.casesRun << " case(s), "
             << report.failures.size() << " failure(s)\n";
    }
    return report;
}

bool
writeReport(const FuzzReport &report, const FuzzOptions &opts,
            const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return false;

    os << "{\n  \"format\": \"cosmos-fuzz-v1\",\n";
    os << "  \"base_seed\": " << opts.baseSeed << ",\n";
    os << "  \"num_seeds\": " << opts.numSeeds << ",\n";
    os << "  \"cases_run\": " << report.casesRun << ",\n";
    os << "  \"clean\": " << (report.clean() ? "true" : "false")
       << ",\n";
    os << "  \"config\": {\"nodes\": "
       << static_cast<unsigned>(opts.numNodes)
       << ", \"blocks\": " << opts.numBlocks
       << ", \"ops_per_node\": " << opts.opsPerNode
       << ", \"max_jitter\": " << opts.maxJitter
       << ", \"ignore_inval_every\": " << opts.ignoreInvalEvery
       << ", \"forge_mix\": " << opts.forgeMix << "},\n";
    os << "  \"failures\": [";
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
        const Failure &f = report.failures[i];
        os << (i ? "," : "") << "\n    {\"seed\": " << f.result.seed
           << ", \"delivered\": " << f.result.delivered
           << ", \"original_ops\": " << f.originalOps
           << ", \"shrunk_ops\": " << f.shrunkOps
           << ", \"suppressed\": " << f.result.suppressed << ",\n";
        os << "     \"violations\": [";
        for (std::size_t v = 0; v < f.result.violations.size(); ++v) {
            os << (v ? ",\n       " : "");
            f.result.violations[v].appendJson(os);
        }
        os << "],\n     \"reproducer\": [";
        for (std::size_t r = 0; r < f.reproducer.size(); ++r) {
            os << (r ? ", " : "");
            appendJsonString(os, f.reproducer[r]);
        }
        os << "]}";
    }
    os << (report.failures.empty() ? "]\n" : "\n  ]\n") << "}\n";
    return static_cast<bool>(os);
}

namespace
{

/** Extract the unsigned value of "key=<num>" from @p line, or
 *  @p fallback when the key is absent. */
unsigned
parseField(const std::string &line, const std::string &key,
           unsigned fallback)
{
    const std::string needle = key + "=";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return fallback;
    return static_cast<unsigned>(
        std::strtoul(line.c_str() + at + needle.size(), nullptr, 10));
}

/** Extract the string value of "key=<word>" from @p line. */
std::string
parseWord(const std::string &line, const std::string &key)
{
    const std::string needle = key + "=";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return {};
    const std::size_t begin = at + needle.size();
    std::size_t end = begin;
    while (end < line.size() && !std::isspace(
                                    static_cast<unsigned char>(line[end])))
        ++end;
    return line.substr(begin, end - begin);
}

} // namespace

FuzzCase
loadCounterexample(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        cosmos_fatal("cannot open counterexample file ", path);

    std::string line;
    if (!std::getline(in, line) ||
        line != "# cosmos-model-counterexample-v1") {
        cosmos_fatal(path, " is not a cosmos-model-counterexample-v1 "
                           "file");
    }

    FuzzCase c;
    c.seed = 0;
    runtime::ProgramBuilder *builder = nullptr;
    std::unique_ptr<runtime::ProgramBuilder> owned;

    while (std::getline(in, line)) {
        if (line.rfind("# config", 0) == 0) {
            c.cfg.numNodes = static_cast<NodeId>(
                parseField(line, "nodes", c.cfg.numNodes));
            // "forwarding=" also matches inside "legacy_forwarding=",
            // but the header always writes the plain field first, so
            // the first occurrence is the right one.
            c.cfg.forwarding = parseField(line, "forwarding", 0) != 0;
            c.cfg.legacyForwarding =
                parseField(line, "legacy_forwarding", 0) != 0;
            c.cfg.fault.ignoreInvalEvery =
                parseField(line, "inject_ignore_inval", 0);
            const std::string policy = parseWord(line, "policy");
            if (policy == "downgrade")
                c.cfg.ownerReadPolicy = OwnerReadPolicy::downgrade;
            else
                c.cfg.ownerReadPolicy =
                    OwnerReadPolicy::half_migratory;
            owned = std::make_unique<runtime::ProgramBuilder>(
                c.cfg.numNodes);
            builder = owned.get();
            continue;
        }
        if (line.rfind("step ", 0) != 0 ||
            line.find(" issue ") == std::string::npos) {
            continue; // deliver steps and comments need no lowering
        }
        cosmos_assert(builder != nullptr,
                      "counterexample has steps before its # config "
                      "header");
        const auto node = static_cast<NodeId>(
            parseField(line, "node", invalid_node));
        const unsigned block = parseField(line, "block", 0);
        cosmos_assert(node < c.cfg.numNodes,
                      "counterexample issue at bad node ", node);
        const Addr addr = blockAddr(c.cfg, block);
        if (parseWord(line, "op") == "write")
            builder->proc(node).write(addr);
        else
            builder->proc(node).read(addr);
        // The model's schedule orders issues across nodes; a global
        // barrier after each op is the runtime equivalent.
        builder->barrier();
    }

    cosmos_assert(builder != nullptr,
                  "counterexample file has no # config header");
    c.programs = builder->take();
    return c;
}

} // namespace cosmos::check
