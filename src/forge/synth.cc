#include "forge/synth.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <sstream>

#include "common/log.hh"

namespace cosmos::forge
{

namespace
{

constexpr std::uint64_t label_stream = 0x1abe15ULL;
constexpr std::uint64_t order_stream = 0x02de2ULL;

/** Stable per-block processor base: decorrelates neighboring blocks
 *  so one node is not the producer of a whole address range. */
NodeId
baseProc(unsigned block, NodeId num_procs)
{
    const std::uint64_t h =
        (static_cast<std::uint64_t>(block) + 1) *
        0x9e3779b97f4a7c15ULL;
    return static_cast<NodeId>((h >> 33) % num_procs);
}

} // namespace

const char *
toString(BlockClass c)
{
    switch (c) {
      case BlockClass::private_block:     return "private";
      case BlockClass::read_only:         return "read-only";
      case BlockClass::migratory:         return "migratory";
      case BlockClass::producer_consumer: return "producer-consumer";
      case BlockClass::false_sharing:     return "false-sharing";
    }
    return "?";
}

trace::SharingPattern
expectedPattern(BlockClass c)
{
    switch (c) {
      case BlockClass::private_block:
        // A private block's only remote traffic is its first fetch:
        // too few directory messages to classify.
        return trace::SharingPattern::rarely_touched;
      case BlockClass::read_only:
        return trace::SharingPattern::read_only;
      case BlockClass::migratory:
        return trace::SharingPattern::migratory;
      case BlockClass::producer_consumer:
        return trace::SharingPattern::producer_consumer;
      case BlockClass::false_sharing:
        return trace::SharingPattern::multi_writer;
    }
    return trace::SharingPattern::rarely_touched;
}

double
ForgeParams::producerConsumer() const
{
    return 1.0 - migratory - falseSharing - privateFrac - readOnly;
}

void
ForgeParams::validate() const
{
    cosmos_assert(numProcs >= 2, "forge needs >= 2 processors");
    cosmos_assert(blocks >= 1, "forge needs >= 1 block");
    cosmos_assert(fanout >= 1 && fanout < numProcs,
                  "fanout must be in [1, procs); got ", fanout);
    cosmos_assert(blockBytes >= 2 && pageBytes >= blockBytes,
                  "bad block/page geometry");
    for (double f : {migratory, falseSharing, privateFrac, readOnly})
        cosmos_assert(f >= 0.0 && f <= 1.0,
                      "class fractions must be within [0, 1]");
    cosmos_assert(producerConsumer() >= -1e-9,
                  "class fractions sum past 1.0");
}

std::string
ForgeParams::summary() const
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "procs=%u blocks=%u migratory=%.2f false=%.2f "
                  "private=%.2f readonly=%.2f pc=%.2f fanout=%u "
                  "phase=%u seed=0x%llx",
                  static_cast<unsigned>(numProcs), blocks, migratory,
                  falseSharing, privateFrac, readOnly,
                  producerConsumer() < 0 ? 0.0 : producerConsumer(),
                  fanout, phase,
                  static_cast<unsigned long long>(seed));
    return buf;
}

bool
ForgeParams::parse(const std::string &spec, ForgeParams &out,
                   std::string *err)
{
    auto bad = [&](const std::string &msg) {
        if (err != nullptr)
            *err = msg;
        return false;
    };
    std::istringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        const auto eq = item.find('=');
        if (eq == std::string::npos)
            return bad("forge spec item '" + item +
                       "' is not key=value");
        const std::string key = item.substr(0, eq);
        const std::string val = item.substr(eq + 1);
        char *end = nullptr;
        const double d = std::strtod(val.c_str(), &end);
        const bool numeric = end != nullptr && *end == '\0' &&
                             end != val.c_str();
        if (!numeric)
            return bad("forge value for '" + key +
                       "' is not a number: '" + val + "'");
        if (key == "migratory") {
            out.migratory = d;
        } else if (key == "false") {
            out.falseSharing = d;
        } else if (key == "private") {
            out.privateFrac = d;
        } else if (key == "readonly") {
            out.readOnly = d;
        } else if (key == "fanout") {
            out.fanout = static_cast<unsigned>(d);
        } else if (key == "phase") {
            out.phase = static_cast<unsigned>(d);
        } else if (key == "blocks") {
            out.blocks = static_cast<unsigned>(d);
        } else if (key == "procs") {
            out.numProcs = static_cast<NodeId>(d);
        } else if (key == "seed") {
            out.seed = std::strtoull(val.c_str(), nullptr, 0);
        } else {
            return bad("unknown forge key '" + key +
                       "' (valid: migratory, false, private, "
                       "readonly, fanout, phase, blocks, procs, "
                       "seed)");
        }
    }
    return true;
}

SynthSource::SynthSource(const ForgeParams &params)
    : params_(params), rng_(params.seed ^ order_stream)
{
    params_.validate();

    // Partition the block population into classes by the requested
    // fractions (producer-consumer takes the remainder), then
    // scatter the assignment so classes interleave in address space.
    const unsigned n = params_.blocks;
    auto count = [&](double f) {
        return static_cast<unsigned>(f * n + 0.5);
    };
    labels_.clear();
    labels_.insert(labels_.end(), count(params_.migratory),
                   BlockClass::migratory);
    labels_.insert(labels_.end(), count(params_.falseSharing),
                   BlockClass::false_sharing);
    labels_.insert(labels_.end(), count(params_.privateFrac),
                   BlockClass::private_block);
    labels_.insert(labels_.end(), count(params_.readOnly),
                   BlockClass::read_only);
    if (labels_.size() > n)
        labels_.resize(n);
    labels_.insert(labels_.end(), n - labels_.size(),
                   BlockClass::producer_consumer);
    Rng lrng(params_.seed ^ label_stream);
    lrng.shuffle(labels_);

    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0u);
}

BlockClass
SynthSource::label(unsigned index) const
{
    cosmos_assert(index < labels_.size(), "bad block index ", index);
    return labels_[index];
}

Addr
SynthSource::blockAddr(unsigned index) const
{
    // One block per page: page homes spread round-robin across the
    // nodes, mirroring how the kernels' allocator lays out hot data.
    return static_cast<Addr>(index) * params_.pageBytes;
}

BlockClass
SynthSource::labelOfAddr(Addr a) const
{
    const std::uint64_t index = a / params_.pageBytes;
    cosmos_assert(index < labels_.size(),
                  "address 0x", a, " is not a forge block");
    return labels_[static_cast<std::size_t>(index)];
}

void
SynthSource::emitBlock(unsigned index, unsigned phase_shift)
{
    const Addr addr = blockAddr(index);
    const NodeId procs = params_.numProcs;
    const NodeId base = baseProc(index, procs);
    auto emit = [&](NodeId p, bool w, Addr a) {
        pending_.push_back({p, w, a});
    };

    switch (labels_[index]) {
      case BlockClass::private_block: {
        // One fixed owner, unaffected by phase: private data must
        // never migrate or it stops being private.
        emit(base, false, addr);
        emit(base, true, addr);
        break;
      }
      case BlockClass::read_only: {
        // Every processor reads; after the first round these are
        // cache hits, exactly like real read-only tables.
        for (NodeId k = 0; k < procs; ++k)
            emit(static_cast<NodeId>((base + k) % procs), false,
                 addr);
        break;
      }
      case BlockClass::migratory: {
        // The current owner read-modify-writes, then ownership
        // rotates: the directory sees get_ro then upgrade from one
        // node per round, the classic migratory hand-off.
        const NodeId owner = static_cast<NodeId>(
            (base + round_ + phase_shift) % procs);
        emit(owner, false, addr);
        emit(owner, true, addr);
        break;
      }
      case BlockClass::producer_consumer: {
        const NodeId producer =
            static_cast<NodeId>((base + phase_shift) % procs);
        emit(producer, true, addr);
        for (unsigned k = 1; k <= params_.fanout; ++k)
            emit(static_cast<NodeId>((producer + k) % procs), false,
                 addr);
        break;
      }
      case BlockClass::false_sharing: {
        // Two writers hammer disjoint halves of the same block with
        // pure writes -- no read-modify-write discipline, so the
        // census must call it multi-writer, not migratory.
        const NodeId wa =
            static_cast<NodeId>((base + phase_shift) % procs);
        const NodeId wb = static_cast<NodeId>((wa + 1) % procs);
        emit(wa, true, addr);
        emit(wb, true, addr + params_.blockBytes / 2);
        break;
      }
    }
}

void
SynthSource::emitRound()
{
    const unsigned phase_shift =
        params_.phase > 0
            ? (round_ / params_.phase) % params_.numProcs
            : 0;
    rng_.shuffle(order_);
    for (unsigned index : order_)
        emitBlock(index, phase_shift);
    ++round_;
}

std::size_t
SynthSource::next(std::vector<Access> &out, std::size_t max)
{
    out.clear();
    while (out.size() < max) {
        if (cursor_ == pending_.size()) {
            pending_.clear();
            cursor_ = 0;
            emitRound();
        }
        while (cursor_ < pending_.size() && out.size() < max)
            out.push_back(pending_[cursor_++]);
    }
    return out.size();
}

} // namespace cosmos::forge
