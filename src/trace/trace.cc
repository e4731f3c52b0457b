#include "trace/trace.hh"

#include <unordered_set>

#include "common/flat_map.hh"

namespace cosmos::trace
{

std::size_t
Trace::cacheRecords() const
{
    std::size_t n = 0;
    for (const auto &r : records)
        if (r.role == proto::Role::cache)
            ++n;
    return n;
}

std::size_t
Trace::directoryRecords() const
{
    return records.size() - cacheRecords();
}

std::size_t
Trace::distinctBlocks() const
{
    std::unordered_set<Addr> blocks;
    for (const auto &r : records)
        blocks.insert(r.block);
    return blocks.size();
}

std::vector<std::uint32_t>
moduleBlockCensus(const Trace &t)
{
    std::vector<std::uint32_t> census(2u * t.numNodes, 0);
    // One flat set over (node, role, block): the same key layout the
    // non-Cosmos bank uses for its last-type table.
    FlatMap<std::uint64_t, bool> seen;
    seen.reserve(t.records.size() / 8 + 8);
    for (const auto &r : t.records) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(r.receiver) << 48) |
            (static_cast<std::uint64_t>(
                 r.role == proto::Role::directory ? 1 : 0)
             << 40) |
            r.block;
        if (seen.find(key) == nullptr) {
            seen.insert(key, true);
            ++census[2u * r.receiver +
                     (r.role == proto::Role::directory ? 1 : 0)];
        }
    }
    return census;
}

TraceRecorder::TraceRecorder(Trace &out, std::int32_t warmup_iterations)
    : out_(out), warmup_(warmup_iterations)
{
}

void
TraceRecorder::onMessage(const proto::Msg &m, proto::Role role,
                         int iteration, Tick when)
{
    if (iteration < warmup_) {
        ++dropped_;
        return;
    }
    TraceRecord r;
    r.block = m.block;
    r.when = when;
    r.receiver = m.dst;
    r.sender = m.src;
    r.type = m.type;
    r.role = role;
    r.iteration = iteration;
    out_.records.push_back(r);
}

} // namespace cosmos::trace
