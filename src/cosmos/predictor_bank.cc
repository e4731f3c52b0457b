#include "cosmos/predictor_bank.hh"

#include <algorithm>

#include "common/log.hh"

namespace cosmos::pred
{

namespace
{

/**
 * Block-grouping hash for the counting-sort key: a multiplicative mix
 * whose top bits drive the bucket index, masked to the clamped group
 * width. Collisions are harmless -- two blocks in one bucket merely
 * interleave, each block's own record order is untouched.
 */
inline std::uint32_t
blockGroupHash(Addr block)
{
    return static_cast<std::uint32_t>(
        (block * 0x9E3779B97F4A7C15ull) >> 47);
}

} // namespace

PredictorBank::PredictorBank(NodeId num_nodes, const CosmosConfig &cfg)
    : numNodes_(num_nodes), cosmosDepth_(cfg.depth)
{
    predictors_.reserve(2u * num_nodes);
    for (NodeId n = 0; n < num_nodes; ++n) {
        predictors_.push_back(std::make_unique<CosmosPredictor>(cfg));
        predictors_.push_back(std::make_unique<CosmosPredictor>(cfg));
    }
}

PredictorBank::PredictorBank(NodeId num_nodes, PredictorFactory factory)
    : numNodes_(num_nodes)
{
    predictors_.reserve(2u * num_nodes);
    for (NodeId n = 0; n < num_nodes; ++n) {
        predictors_.push_back(factory(n, proto::Role::cache));
        predictors_.push_back(factory(n, proto::Role::directory));
    }
}

std::size_t
PredictorBank::index(NodeId n, proto::Role role) const
{
    cosmos_assert(n < numNodes_, "bad node ", n);
    return 2u * n + (role == proto::Role::directory ? 1 : 0);
}

MessagePredictor &
PredictorBank::predictor(NodeId n, proto::Role role)
{
    return *predictors_[index(n, role)];
}

const MessagePredictor &
PredictorBank::predictor(NodeId n, proto::Role role) const
{
    return *predictors_[index(n, role)];
}

void
PredictorBank::observe(const trace::TraceRecord &r)
{
    MessagePredictor &p = *predictors_[index(r.receiver, r.role)];
    const MsgTuple actual{r.sender, r.type};

    if (cosmosDepth_ != 0) {
        // Cosmos banks are homogeneous, so the call devirtualizes;
        // the qualified call inlines the header definition of
        // CosmosPredictor::observe into the replay loop, and the
        // predictor's own block state supplies the previous message
        // type -- no separate lastType_ probe.
        const ObserveResult res =
            static_cast<CosmosPredictor &>(p).CosmosPredictor::observe(
                r.block, actual);
        if (res.counted) {
            accuracy_.record(r.role, r.iteration, res.hit,
                             res.hadPrediction);
            if (res.hadPrevType) {
                ArcStats &arcs = r.role == proto::Role::cache
                                     ? cacheArcs_
                                     : dirArcs_;
                arcs.record(res.prevType, r.type, res.hit);
            }
        }
        return;
    }

    const ObserveResult res = p.observe(r.block, actual);

    const std::uint64_t last_key =
        (static_cast<std::uint64_t>(r.receiver) << 48) |
        (static_cast<std::uint64_t>(
             r.role == proto::Role::directory ? 1 : 0)
         << 40) |
        r.block;

    // One probe covers both uses: the previous type feeds the arc
    // statistics, then the slot is updated in place.
    proto::MsgType *lt = lastType_.find(last_key);
    if (res.counted) {
        accuracy_.record(r.role, r.iteration, res.hit,
                         res.hadPrediction);
        if (lt != nullptr) {
            ArcStats &arcs = r.role == proto::Role::cache ? cacheArcs_
                                                          : dirArcs_;
            arcs.record(*lt, r.type, res.hit);
        }
    }
    if (lt != nullptr)
        *lt = r.type;
    else
        lastType_.insert(last_key, r.type);
}

void
PredictorBank::replay(const trace::Trace &t, std::int32_t max_iteration)
{
    for (const auto &r : t.records) {
        if (r.iteration > max_iteration)
            continue;
        observe(r);
    }
}

void
PredictorBank::applySlice(CosmosPredictor &p, bool dir_side,
                          const Addr *blocks,
                          const std::uint16_t *tuples,
                          const std::int32_t *iters, std::size_t n,
                          const BatchConfig &bc)
{
    const proto::Role role =
        dir_side ? proto::Role::directory : proto::Role::cache;
    ArcStats &arcs = dir_side ? dirArcs_ : cacheArcs_;
    const std::size_t depth = bc.depth > 0 ? bc.depth : 1;
    const unsigned dist = bc.prefetchDistance;
    refs_.resize(std::min(n, depth));

    // Run memoization state. Block grouping placed each block's
    // records back-to-back, so the node resolved at the head of a
    // same-block run serves the whole run; runs may span sub-batch
    // boundaries, so the state lives outside the batch loop.
    bool have_run = false;
    Addr run_block = 0;
    CosmosPredictor::BlockRef run_ref = nullptr;

    for (std::size_t b = 0; b < n; b += depth) {
        const std::size_t sub = std::min(depth, n - b);
        // Probe pass: resolve each run head's block node (slot
        // prefetch running a fixed distance ahead) and let
        // probeBlock() warm the node and PHT lines. The run heads'
        // chains are independent, so their misses overlap -- the
        // scalar path serializes the same loads behind each
        // element's update. Within a run the head's ref is simply
        // propagated.
        for (std::size_t j = 0; j < sub; ++j) {
            const Addr blk = blocks[b + j];
            if (dist > 0 && j + dist < sub &&
                blocks[b + j + dist] != blocks[b + j + dist - 1])
                p.prefetchBlock(blocks[b + j + dist]);
            refs_[j] = (j > 0 && blk == blocks[b + j - 1])
                           ? refs_[j - 1]
                           : p.probeBlock(blk);
        }
        // Apply pass: the scalar observes, in order, against warm
        // lines. Nodes are stable (the block table stores pointers),
        // so refs survive any insertions this pass performs. A run
        // of a never-seen block probes null; its head obtains the
        // node once and the memoized ref covers the rest.
        for (std::size_t j = 0; j < sub; ++j) {
            const Addr blk = blocks[b + j];
            if (!have_run || blk != run_block) {
                have_run = true;
                run_block = blk;
                run_ref = refs_[j] != nullptr ? refs_[j]
                                              : p.obtainRef(blk);
            }
            const ObserveResult res = p.CosmosPredictor::observeRef(
                run_ref, tuples[b + j]);
            if (res.counted) {
                accuracy_.record(role, iters[b + j], res.hit,
                                 res.hadPrediction);
                if (res.hadPrevType)
                    arcs.record(res.prevType,
                                static_cast<proto::MsgType>(
                                    tuples[b + j] & 0xf),
                                res.hit);
            }
        }
    }
}

void
PredictorBank::applyStaged(const SoaBatch &batch, const BatchConfig &bc)
{
    cosmos_assert(cosmosDepth_ != 0,
                  "applyStaged requires a Cosmos bank");
    const std::size_t n = batch.size();
    const std::uint16_t *modules = batch.modules.data();
    const unsigned nmod = 2u * numNodes_;

    // Stable counting sort by (module, block-hash). Each module's
    // slice replays consecutively so one predictor's tables stay
    // cache-hot, and inside a slice each block's records sit
    // back-to-back so the apply pass resolves the block node once per
    // run. Per-(module, block) record order -- the only order any
    // counter depends on -- is untouched, so the result is
    // bit-identical to trace-order replay. The group width is
    // clamped so the bucket array resets cheaply per window even for
    // very wide machines.
    unsigned g = bc.groupBits;
    while (g > 0 && (static_cast<std::size_t>(nmod) << g) > (1u << 17))
        --g;
    const std::size_t nbuckets = static_cast<std::size_t>(nmod) << g;
    const std::uint32_t gmask = (1u << g) - 1u;
    keys_.resize(n);
    cnt_.assign(nbuckets + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t key =
            (static_cast<std::uint32_t>(modules[i]) << g) |
            (blockGroupHash(batch.blocks[i]) & gmask);
        keys_[i] = key;
        ++cnt_[key + 1];
    }
    for (std::size_t b = 0; b < nbuckets; ++b)
        cnt_[b + 1] += cnt_[b];
    sorted_.ensure(n);
    pos_.assign(cnt_.begin(), cnt_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t d = pos_[keys_[i]]++;
        sorted_.blocks[d] = batch.blocks[i];
        sorted_.tuples[d] = batch.tuples[i];
        sorted_.iterations[d] = batch.iterations[i];
    }

    for (unsigned m = 0; m < nmod; ++m) {
        const std::uint32_t begin = cnt_[static_cast<std::size_t>(m)
                                         << g];
        const std::uint32_t end =
            cnt_[static_cast<std::size_t>(m + 1) << g];
        if (begin == end)
            continue;
        applySlice(static_cast<CosmosPredictor &>(*predictors_[m]),
                   (m & 1u) != 0, sorted_.blocks.data() + begin,
                   sorted_.tuples.data() + begin,
                   sorted_.iterations.data() + begin, end - begin, bc);
    }
}

void
PredictorBank::observeChunk(const trace::TraceRecord *recs,
                            std::size_t n, std::int32_t max_iteration,
                            const BatchConfig &bc)
{
    if (cosmosDepth_ == 0) {
        // Heterogeneous banks pay a virtual call per observe anyway;
        // the scalar loop is the whole story for them.
        for (std::size_t i = 0; i < n; ++i)
            if (recs[i].iteration <= max_iteration)
                observe(recs[i]);
        return;
    }
    const std::size_t window = bc.window > 0 ? bc.window : 1;
    stage_.ensure(std::min(n, window));
    for (std::size_t i = 0; i < n;) {
        stage_.clear();
        const std::size_t end = std::min(n, i + window);
        for (; i < end; ++i) {
            const trace::TraceRecord &r = recs[i];
            if (r.iteration > max_iteration)
                continue;
            cosmos_assert(r.receiver < numNodes_, "bad node ",
                          r.receiver);
            stage_.push(r);
        }
        applyStaged(stage_, bc);
    }
}

void
PredictorBank::replayBatched(const trace::Trace &t,
                             std::int32_t max_iteration,
                             const BatchConfig &bc)
{
    observeChunk(t.records.data(), t.records.size(), max_iteration,
                 bc);
}

void
PredictorBank::reserveFromCensus(
    const std::vector<std::uint32_t> &census)
{
    const std::size_t m =
        std::min(census.size(), predictors_.size());
    if (cosmosDepth_ != 0) {
        for (std::size_t i = 0; i < m; ++i)
            static_cast<CosmosPredictor &>(*predictors_[i])
                .reserveBlocks(census[i]);
        return;
    }
    // Heterogeneous predictors manage their own tables; the bank can
    // still pre-size its shared last-type table.
    std::size_t total = 0;
    for (std::size_t i = 0; i < m; ++i)
        total += census[i];
    lastType_.reserve(total);
}

const ArcStats &
PredictorBank::arcs(proto::Role role) const
{
    return role == proto::Role::cache ? cacheArcs_ : dirArcs_;
}

void
PredictorBank::publishMetrics(obs::Registry &reg,
                              const std::string &prefix) const
{
    const MemoryStats m = memoryStats();
    reg.counter(prefix + ".mhr_entries").add(m.mhrEntries);
    reg.counter(prefix + ".pht_entries").add(m.phtEntries);

    auto &load = reg.summary(prefix + ".block_table.load_factor",
                             obs::Stability::volatile_);
    auto &probes = reg.histogram(
        prefix + ".probe_length",
        Histogram::linear(1.0, 16.0, 15), obs::Stability::volatile_);
    auto &arena_used = reg.counter(prefix + ".arena_bytes_used",
                                   obs::Stability::volatile_);
    auto &arena_reserved = reg.counter(
        prefix + ".arena_bytes_reserved", obs::Stability::volatile_);
    for (const auto &p : predictors_) {
        const auto *c = dynamic_cast<const CosmosPredictor *>(p.get());
        cosmos_assert(c, "non-Cosmos predictor in Cosmos bank");
        const CosmosTableStats ts = c->tableStats();
        if (ts.blockCapacity != 0)
            load.sample(ts.blockLoadFactor);
        arena_used.add(ts.arenaBytesUsed);
        arena_reserved.add(ts.arenaBytesReserved);
        c->forEachProbeLength(
            [&probes](unsigned d) { probes.record(d); });
    }
}

MemoryStats
PredictorBank::memoryStats() const
{
    cosmos_assert(cosmosDepth_ != 0,
                  "memoryStats() requires a Cosmos bank");
    MemoryStats m;
    m.depth = cosmosDepth_;
    for (const auto &p : predictors_) {
        auto *c = dynamic_cast<const CosmosPredictor *>(p.get());
        cosmos_assert(c, "non-Cosmos predictor in Cosmos bank");
        m.merge(c->footprint());
    }
    return m;
}

} // namespace cosmos::pred
