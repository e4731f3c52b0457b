#include "model/explorer.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>

#include "check/invariant_engine.hh"
#include "common/arena.hh"
#include "common/flat_map.hh"
#include "common/log.hh"
#include "model/stepper.hh"
#include "replay/thread_pool.hh"

namespace cosmos::model
{

namespace
{

std::uint64_t
fnv1a(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint32_t no_state = 0xFFFFFFFFu;

/** One visited canonical state (the encoding lives in the arena). */
struct StateRec
{
    const std::uint8_t *enc = nullptr;
    std::uint32_t len = 0;
    std::uint32_t nextSameHash = no_state;
    std::uint32_t parent = no_state;
    std::uint32_t depth = 0;
    Action via{};
};

/**
 * Exact-dedup visited set: hash -> chain of states sharing the hash,
 * membership decided by byte comparison of the arena-stored
 * encodings.
 */
class VisitedSet
{
  public:
    /** @return (state id, true) on first insertion, (existing id,
     *  false) on a revisit. */
    std::pair<std::uint32_t, bool>
    insert(const std::uint8_t *enc, std::size_t len, std::uint64_t h)
    {
        std::uint32_t *head = map_.find(h);
        if (head) {
            for (std::uint32_t id = *head; id != no_state;
                 id = recs_[id].nextSameHash) {
                const StateRec &r = recs_[id];
                if (r.len == len && std::equal(enc, enc + len, r.enc))
                    return {id, false};
            }
        }
        auto *mem = static_cast<std::uint8_t *>(arena_.allocate(len, 1));
        std::copy(enc, enc + len, mem);
        StateRec r;
        r.enc = mem;
        r.len = static_cast<std::uint32_t>(len);
        const auto id = static_cast<std::uint32_t>(recs_.size());
        if (head) {
            // Chain onto the existing hash bucket; no map insertion,
            // so `head` stays valid.
            r.nextSameHash = *head;
            *head = id;
        } else {
            map_.insert(h, id);
        }
        recs_.push_back(r);
        return {id, true};
    }

    /** Start loading the hash bucket an insert of @p h will probe. */
    void prefetch(std::uint64_t h) const { map_.prefetchFind(h); }

    StateRec &rec(std::uint32_t id) { return recs_[id]; }
    std::size_t size() const { return recs_.size(); }

  private:
    Arena arena_;
    FlatMap<std::uint64_t, std::uint32_t> map_{&arena_};
    std::vector<StateRec> recs_;
};

/** First safety violation of @p s, if any (fixed check order keeps
 *  reports deterministic): the first coherence rule a block breaks,
 *  in block order, else a deadlock. Allocates only to report. */
std::optional<check::Violation>
checkState(const GlobalState &s, const ModelConfig &mc)
{
    for (unsigned b = 0; b < mc.numBlocks; ++b) {
        proto::BlockView view;
        for (unsigned n = 0; n < mc.numNodes; ++n)
            view.addLine(static_cast<NodeId>(n),
                         static_cast<proto::LineState>(s.line[n][b]));
        const DirEntryState &e = s.dir[b];
        view.homeBusy = e.busy;
        view.homeState = e.state;
        view.sharers = e.sharers;
        view.owner = e.owner == no_node ? invalid_node : NodeId{e.owner};
        std::vector<proto::Breach> breaches = proto::brokenRules(view);
        if (!breaches.empty())
            return check::toViolation(std::move(breaches.front()),
                                      mc.blockAddr(b));
    }

    // Deadlock: an in-progress transaction with an empty network can
    // never complete -- the ack or response it waits for does not
    // exist.
    bool networkEmpty = true;
    for (unsigned src = 0; src < mc.numNodes && networkEmpty; ++src)
        for (unsigned dst = 0; dst < mc.numNodes; ++dst)
            if (s.channel(src, dst).count != 0) {
                networkEmpty = false;
                break;
            }
    if (networkEmpty) {
        for (unsigned b = 0; b < mc.numBlocks; ++b) {
            bool stuck = s.dir[b].busy;
            std::uint8_t waiting = 0;
            for (unsigned n = 0; n < mc.numNodes; ++n) {
                const auto st =
                    static_cast<proto::LineState>(s.line[n][b]);
                if (st == proto::LineState::wait_ro ||
                    st == proto::LineState::wait_rw ||
                    st == proto::LineState::wait_upg) {
                    stuck = true;
                    waiting |= static_cast<std::uint8_t>(1u << n);
                }
            }
            if (stuck) {
                check::Violation v;
                v.kind = check::ViolationKind::liveness;
                v.block = mc.blockAddr(b);
                v.nodes = proto::nodesOf(waiting);
                v.detail = detail::concat(
                    "deadlock: block ", b,
                    " has a transaction in progress but the network "
                    "is empty");
                return v;
            }
        }
    }

    return std::nullopt;
}

/** Translate node ids of a canonical-space action through @p inv. */
Action
translateAction(const Action &a,
                const std::array<std::uint8_t, max_nodes> &inv)
{
    Action c = a;
    if (a.kind == Action::Kind::deliver) {
        c.src = inv[a.src];
        c.dst = inv[a.dst];
        c.msg.src = inv[a.msg.src];
        c.msg.dst = inv[a.msg.dst];
        if (a.msg.requester != no_node)
            c.msg.requester = inv[a.msg.requester];
    } else {
        c.node = inv[a.node];
    }
    return c;
}

/**
 * Rebuild the concrete schedule reaching state @p id (plus the
 * optional @p extra violating action) and re-execute it from the
 * initial state so the reported counterexample is executable as-is.
 */
Counterexample
buildCounterexample(const ModelConfig &mc, Stepper &stepper,
                    VisitedSet &visited, std::uint32_t id,
                    const Action *extra, check::Violation v)
{
    std::vector<Action> raw;
    for (std::uint32_t cur = id;
         visited.rec(cur).parent != no_state;
         cur = visited.rec(cur).parent) {
        raw.push_back(visited.rec(cur).via);
    }
    std::reverse(raw.begin(), raw.end());
    if (extra)
        raw.push_back(*extra);

    Counterexample ce;
    GlobalState s = Stepper::initialState();
    std::vector<std::uint8_t> enc;
    std::array<std::uint8_t, max_nodes> perm{};
    std::array<std::uint8_t, max_nodes> inv{};
    Stepper::Result r;
    for (const Action &a : raw) {
        canonicalEncoding(s, mc, enc, &perm);
        for (unsigned n = 0; n < mc.numNodes; ++n)
            inv[perm[n]] = static_cast<std::uint8_t>(n);
        const Action c = translateAction(a, inv);
        ce.schedule.push_back(c);
        stepper.step(s, c, r);
        // Record which declared rows this step dispatched through:
        // the replayable counterexample names each transition by its
        // declaration site instead of an opaque handler.
        ce.rowTrace.emplace_back();
        for (const Sample &smp : r.samples) {
            const proto::TransitionRow *row = stepper.table().find(
                smp.role, smp.pre, smp.input, smp.guard);
            ce.rowTrace.back().push_back(
                row ? detail::concat(row->where(), "  ", row->format())
                    : detail::concat("(undeclared) ",
                                     proto::toString(smp.role), " ",
                                     proto::tableInputName(smp.input)));
        }
        if (r.failed)
            break; // assertion counterexamples end at the failure
        s = r.next;
    }

    const std::size_t first =
        ce.schedule.size() > 8 ? ce.schedule.size() - 8 : 0;
    for (std::size_t i = first; i < ce.schedule.size(); ++i)
        v.history.push_back(detail::concat("step ", i, ": ",
                                           ce.schedule[i].format()));
    ce.violation = std::move(v);
    return ce;
}

/** States a batch takes from the head of the frontier. */
constexpr std::size_t batch_states = 2048;
/** States per chunk, the unit of work a worker claims. */
constexpr std::size_t chunk_states = 64;
/** Candidates the merge looks ahead when prefetching hash buckets. */
constexpr std::size_t prefetch_ahead = 8;

/** One step of a batch state, as a worker hands it to the merge. */
struct Candidate
{
    Action action;
    /** FNV-1a hash of the successor's canonical encoding. */
    std::uint64_t hash = 0;
    /** The encoding: bytes [encAt, encAt + encLen) of the chunk's. */
    std::uint32_t encAt = 0;
    std::uint32_t encLen = 0;
    /** One past the step's last sample in the chunk's samples. */
    std::uint32_t samplesEnd = 0;
    /** Index into the chunk's verdicts, or -1: the trapped failure
     *  when `failed`, else the successor's checkState violation. */
    std::int32_t verdict = -1;
    bool failed = false;
};

/** A worker's expansion of consecutive batch states. Cache-line
 *  aligned: workers append to neighbouring chunks concurrently. */
struct alignas(64) Chunk
{
    /** Per state: one past its last candidate. */
    std::vector<std::uint32_t> stateEnd;
    std::vector<Candidate> cands;
    std::vector<std::uint8_t> bytes;
    /** packSample keys of every step's samples, in step order. */
    std::vector<std::uint64_t> samples;
    std::vector<check::Violation> verdicts;
};

/** @p smp packed into one counting key (unpackSample inverts it). */
std::uint64_t
packSample(const Sample &smp)
{
    cosmos_assert(smp.guard <= 0xFFFFu, "guard bits 0x", std::hex,
                  smp.guard, " do not fit the sample key");
    return std::uint64_t{smp.emissions} |
           std::uint64_t{smp.guard} << 16 |
           std::uint64_t{smp.post} << 32 |
           std::uint64_t{smp.input} << 40 |
           std::uint64_t{smp.pre} << 48 |
           std::uint64_t{static_cast<std::uint8_t>(smp.role)} << 56;
}

Sample
unpackSample(std::uint64_t key)
{
    Sample smp;
    smp.emissions = static_cast<std::uint16_t>(key);
    smp.guard = static_cast<proto::GuardBits>((key >> 16) & 0xFFFFu);
    smp.post = static_cast<std::uint8_t>(key >> 32);
    smp.input = static_cast<std::uint8_t>(key >> 40);
    smp.pre = static_cast<std::uint8_t>(key >> 48);
    smp.role = static_cast<proto::Role>(key >> 56);
    return smp;
}

/** One expanding thread's stepper and buffers (cache-line aligned:
 *  workers write their own concurrently). */
struct alignas(64) Worker
{
    explicit Worker(const ModelConfig &mc) : stepper(mc) {}

    Stepper stepper;
    GlobalState state;
    std::vector<Action> actions;
    std::vector<std::uint8_t> enc;
    Stepper::Result result;
};

/** Where a batch state's encoding lives (arena bytes never move, so
 *  workers read them while the merge inserts). */
struct EncodedState
{
    const std::uint8_t *enc = nullptr;
    std::uint32_t len = 0;
};

/**
 * Expand the @p n batch states @p states into @p out: every enabled
 * action stepped, its successor canonically encoded, hashed and
 * checked.
 */
void
expandChunk(Worker &w, const ModelConfig &mc, const EncodedState *states,
            std::size_t n, Chunk &out)
{
    out.stateEnd.clear();
    out.cands.clear();
    out.bytes.clear();
    out.samples.clear();
    out.verdicts.clear();

    Stepper::Result &r = w.result;
    for (std::size_t i = 0; i < n; ++i) {
        decodeState(states[i].enc, states[i].len, mc, w.state);
        enumerateActions(w.state, mc, w.actions);
        for (const Action &a : w.actions) {
            w.stepper.step(w.state, a, r);
            Candidate c;
            c.action = a;
            for (const Sample &smp : r.samples)
                out.samples.push_back(packSample(smp));
            c.samplesEnd = static_cast<std::uint32_t>(out.samples.size());
            std::optional<check::Violation> verdict;
            if (r.failed) {
                c.failed = true;
                verdict.emplace();
                verdict->kind = check::ViolationKind::assertion;
                verdict->detail = r.failureMsg;
            } else {
                canonicalEncoding(r.next, mc, w.enc);
                c.hash = fnv1a(w.enc.data(), w.enc.size());
                c.encAt = static_cast<std::uint32_t>(out.bytes.size());
                c.encLen = static_cast<std::uint32_t>(w.enc.size());
                out.bytes.insert(out.bytes.end(), w.enc.begin(),
                                 w.enc.end());
                verdict = checkState(r.next, mc);
            }
            if (verdict) {
                c.verdict = static_cast<std::int32_t>(out.verdicts.size());
                out.verdicts.push_back(std::move(*verdict));
            }
            out.cands.push_back(c);
        }
        out.stateEnd.push_back(static_cast<std::uint32_t>(out.cands.size()));
    }
}

/** A distinct sample with its merge count, plus the renderings
 *  findings sort and print by. */
struct Observed
{
    Sample smp;
    std::uint64_t hits = 0;
    std::string context; ///< guardContext(smp.guard)
    std::vector<proto::MsgType> emits; ///< smp.emissions, ascending

    auto key() const
    {
        return std::tie(smp.role, smp.pre, smp.input, context);
    }
    auto order() const
    {
        return std::tie(smp.role, smp.pre, smp.input, context, smp.post,
                        emits);
    }
};

/**
 * Resolve each distinct sample of @p counts to the @p declared row
 * its dispatch matched, add its count to that row's hits, and check
 * it against the row (see ExploreResult::consistency).
 */
void
countRows(const proto::ProtocolTable &declared,
          const FlatMap<std::uint64_t, std::uint64_t> &counts,
          ExploreResult &res)
{
    std::vector<Observed> seen;
    counts.forEach([&](std::uint64_t key, std::uint64_t hits) {
        Observed o;
        o.smp = unpackSample(key);
        o.hits = hits;
        o.context = proto::guardContext(o.smp.guard);
        for (unsigned t = 0; t < proto::num_msg_types; ++t)
            if (o.smp.emissions & (1u << t))
                o.emits.push_back(static_cast<proto::MsgType>(t));
        seen.push_back(std::move(o));
    });
    std::sort(seen.begin(), seen.end(),
              [](const Observed &a, const Observed &b) {
                  return a.order() < b.order();
              });

    using Kind = ConsistencyFinding::Kind;
    res.rowHits.assign(declared.rows().size(), 0);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        const Observed &o = seen[i];
        const Sample &smp = o.smp;
        const auto keyText = [&] {
            return proto::formatRowKey(smp.role, smp.pre, smp.input,
                                       smp.guard);
        };
        // Row-level findings are reported once per key.
        const bool firstOfKey = i == 0 || seen[i - 1].key() != o.key();
        const proto::TransitionRow *row =
            declared.find(smp.role, smp.pre, smp.input, smp.guard);
        if (!row) {
            if (firstOfKey)
                res.consistency.push_back(
                    {Kind::undeclared_transition, smp.role,
                     detail::concat("no declared row covers ",
                                    keyText())});
            continue;
        }
        res.rowHits[row - declared.rows().data()] += o.hits;
        if (row->unreachable) {
            if (firstOfKey)
                res.consistency.push_back(
                    {Kind::unreachable_reached, smp.role,
                     detail::concat(keyText(),
                                    " matched the declared-unreachable "
                                    "marker at ",
                                    row->where())});
            continue;
        }
        // A completing row serviced from the backlog folds the
        // re-served request's transition into the same sample.
        if (row->completes && (smp.guard & proto::guard_q))
            continue;
        if (smp.post == row->next && o.emits == row->emits)
            continue;
        res.consistency.push_back(
            {Kind::outcome_mismatch, smp.role,
             detail::concat(
                 keyText(), " observed ",
                 proto::formatRowOutcome(smp.role, smp.post, o.emits),
                 " but the row at ", row->where(), " declares ",
                 proto::formatRowOutcome(smp.role, row->next,
                                         row->emits))});
    }
}

} // namespace

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

ExploreResult
explore(const ExploreOptions &opt)
{
    const ModelConfig &mc = opt.mc;
    mc.validate();

    // Worker 0 is the calling thread: it merges, and its stepper
    // re-executes counterexample schedules.
    const unsigned threads = opt.threads != 0
                                 ? opt.threads
                                 : replay::ThreadPool::defaultThreadCount();
    std::vector<std::unique_ptr<Worker>> workers;
    for (unsigned w = 0; w < threads; ++w)
        workers.push_back(std::make_unique<Worker>(mc));
    std::optional<replay::ThreadPool> pool;
    if (threads > 1)
        pool.emplace(threads - 1); // the calling thread is a worker too

    ExploreResult res;
    VisitedSet visited;
    std::deque<std::uint32_t> frontier;
    {
        std::vector<std::uint8_t> enc;
        canonicalEncoding(Stepper::initialState(), mc, enc);
        frontier.push_back(
            visited.insert(enc.data(), enc.size(),
                           fnv1a(enc.data(), enc.size()))
                .first);
    }

    const auto record = [&](std::uint32_t parentId, const Action *extra,
                            check::Violation v) {
        if (res.counterexamples.size() >= opt.maxViolations)
            return;
        v.when = visited.rec(parentId).depth + (extra ? 1 : 0);
        res.counterexamples.push_back(buildCounterexample(
            mc, workers.front()->stepper, visited, parentId, extra,
            std::move(v)));
    };

    FlatMap<std::uint64_t, std::uint64_t> sampleCounts;
    std::vector<std::uint32_t> batch;
    std::vector<EncodedState> batchStates;
    std::atomic<std::size_t> nextChunk{0};
    std::size_t numChunks = 0;
    std::vector<Chunk> chunks(batch_states / chunk_states);
    std::vector<std::atomic<bool>> ready(batch_states / chunk_states);
    // The largest chunk merged so far, per buffer.
    std::size_t peakCands = 0;
    std::size_t peakBytes = 0;
    std::size_t peakSamples = 0;

    // Claim and expand the next unclaimed chunk; false when none is
    // left.
    const auto expandNext = [&](Worker &w) {
        const std::size_t k = nextChunk.fetch_add(1);
        if (k >= numChunks)
            return false;
        const std::size_t lo = k * chunk_states;
        expandChunk(w, mc, batchStates.data() + lo,
                    std::min(chunk_states, batch.size() - lo), chunks[k]);
        ready[k].store(true, std::memory_order_release);
        return true;
    };

    // Merge chunk k in (batch position, action index) order -- the
    // order a one-state-at-a-time BFS steps in -- so ids, parents,
    // counterexamples and the cut-off match it exactly. False once
    // the state bound cut the search off.
    const auto merge = [&](std::size_t k) {
        const Chunk &ch = chunks[k];
        std::size_t ci = 0;
        std::size_t si = 0;
        for (std::size_t i = 0; i < ch.stateEnd.size(); ++i) {
            const std::uint32_t id = batch[k * chunk_states + i];
            const std::uint32_t depth = visited.rec(id).depth;
            res.maxDepth = std::max(res.maxDepth, unsigned{depth});
            for (; ci < ch.stateEnd[i]; ++ci) {
                if (ci + prefetch_ahead < ch.cands.size())
                    visited.prefetch(ch.cands[ci + prefetch_ahead].hash);
                const Candidate &c = ch.cands[ci];
                ++res.transitions;
                for (; si < c.samplesEnd; ++si)
                    ++sampleCounts.obtain(ch.samples[si]);

                if (c.failed) {
                    ++res.failedSteps;
                    record(id, &c.action, ch.verdicts[c.verdict]);
                    continue;
                }
                const auto [nid, fresh] = visited.insert(
                    ch.bytes.data() + c.encAt, c.encLen, c.hash);
                if (!fresh)
                    continue;
                StateRec &nr = visited.rec(nid);
                nr.parent = id;
                nr.via = c.action;
                nr.depth = depth + 1;

                if (c.verdict >= 0) {
                    // Violating states are terminal: record, don't
                    // expand, so a clean space's size is a golden
                    // number and a buggy one stops at the bug's
                    // frontier.
                    const check::Violation &v = ch.verdicts[c.verdict];
                    if (v.kind == check::ViolationKind::liveness)
                        ++res.deadlocks;
                    record(nid, nullptr, v);
                    continue;
                }
                if (visited.size() > opt.maxStates) {
                    res.complete = false;
                    check::Violation v;
                    v.kind = check::ViolationKind::liveness;
                    v.detail = detail::concat(
                        "exploration exceeded the ", opt.maxStates,
                        "-state bound without closing; livelock or an "
                        "unbounded transient");
                    record(nid, nullptr, std::move(v));
                    return false;
                }
                frontier.push_back(nid);
            }
        }
        return true;
    };

    bool open = true;
    while (open && !frontier.empty()) {
        const std::size_t n = std::min(frontier.size(), batch_states);
        batch.assign(frontier.begin(), frontier.begin() + n);
        frontier.erase(frontier.begin(), frontier.begin() + n);
        batchStates.clear();
        for (const std::uint32_t id : batch)
            batchStates.push_back({visited.rec(id).enc, visited.rec(id).len});
        numChunks = (n + chunk_states - 1) / chunk_states;
        nextChunk.store(0);
        // Size the chunks here, on the calling thread, so workers
        // rarely allocate: memory a worker's thread allocates stays in
        // its malloc arena once freed, and would add to peak RSS on
        // every exploration.
        for (std::size_t k = 0; k < numChunks; ++k) {
            ready[k].store(false, std::memory_order_relaxed);
            Chunk &ch = chunks[k];
            ch.stateEnd.reserve(chunk_states);
            ch.cands.reserve(2 * peakCands);
            ch.bytes.reserve(2 * peakBytes);
            ch.samples.reserve(2 * peakSamples);
        }

        // The other workers only expand. The calling thread, worker 0,
        // merges the chunks in order as they become ready and expands
        // chunks itself while the next one is not. The merge writes
        // the visited set while workers read nothing of it but
        // batchStates' arena bytes; keeping it on the calling thread
        // keeps the set's memory in that thread's malloc arena.
        std::vector<std::future<void>> helpers;
        const std::size_t active = std::min<std::size_t>(threads, numChunks);
        for (std::size_t w = 1; w < active; ++w)
            helpers.push_back(pool->async([&expandNext, &workers, w] {
                while (expandNext(*workers[w])) {
                }
            }));
        for (std::size_t k = 0; k < numChunks && open; ++k) {
            while (!ready[k].load(std::memory_order_acquire))
                if (!expandNext(*workers[0]))
                    std::this_thread::yield();
            open = merge(k);
            peakCands = std::max(peakCands, chunks[k].cands.size());
            peakBytes = std::max(peakBytes, chunks[k].bytes.size());
            peakSamples = std::max(peakSamples, chunks[k].samples.size());
        }
        for (std::future<void> &h : helpers)
            h.get();
    }

    res.states = visited.size();
    countRows(workers.front()->stepper.table(), sampleCounts, res);
    return res;
}

std::string
formatCounterexample(const ModelConfig &mc, const Counterexample &ce)
{
    std::string out = "# cosmos-model-counterexample-v1\n";
    out += detail::concat(
        "# config nodes=", mc.numNodes, " blocks=", mc.numBlocks,
        " reorder=", mc.reorder, " policy=", toString(mc.policy),
        " forwarding=", mc.forwarding ? 1 : 0,
        " legacy_forwarding=", mc.legacyForwarding ? 1 : 0,
        " inject_ignore_inval=", mc.ignoreInvalEvery, "\n");
    out += detail::concat("# violation ",
                          check::toString(ce.violation.kind), "\n");
    out += detail::concat("# detail ", ce.violation.detail, "\n");
    std::size_t i = 0;
    for (const Action &a : ce.schedule) {
        if (a.kind == Action::Kind::deliver) {
            out += detail::concat(
                "step ", i, " deliver src=", unsigned{a.src},
                " dst=", unsigned{a.dst}, " type=",
                proto::toString(a.msg.type), " block=",
                unsigned{a.msg.blockIdx}, " depth=", unsigned{a.depth},
                "\n");
        } else {
            out += detail::concat(
                "step ", i, " issue node=", unsigned{a.node}, " op=",
                a.kind == Action::Kind::issue_write ? "write" : "read",
                " block=", unsigned{a.blockIdx}, "\n");
        }
        // Row provenance as replay-transparent comments: each handler
        // invocation of the step, named by its declaring table row.
        if (i < ce.rowTrace.size())
            for (const std::string &row : ce.rowTrace[i])
                out += detail::concat("#   row ", row, "\n");
        ++i;
    }
    return out;
}

bool
writeCounterexample(const std::string &path, const ModelConfig &mc,
                    const Counterexample &ce)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << formatCounterexample(mc, ce);
    return static_cast<bool>(f);
}

} // namespace cosmos::model
