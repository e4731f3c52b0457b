#include "proto/invariants.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace cosmos::proto
{

void
BlockView::addLine(NodeId node, LineState st)
{
    switch (st) {
      case LineState::invalid:
        break;
      case LineState::read_only:
        readers |= std::uint64_t{1} << node;
        break;
      case LineState::read_write:
        writers |= std::uint64_t{1} << node;
        break;
      default:
        missOutstanding = true;
        break;
    }
}

std::vector<NodeId>
nodesOf(std::uint64_t mask)
{
    std::vector<NodeId> nodes;
    for (NodeId n = 0; mask != 0; ++n, mask >>= 1)
        if (mask & 1)
            nodes.push_back(n);
    return nodes;
}

std::vector<Breach>
brokenRules(const BlockView &v)
{
    const std::uint64_t ro = v.readers;
    const std::uint64_t rw = v.writers;
    std::vector<Breach> breaches;
    if (std::popcount(rw) > 1) {
        breaches.push_back(
            {CoherenceRule::multiple_writers, nodesOf(rw),
             "more than one cache holds the block read_write"});
    }
    if (rw != 0 && ro != 0) {
        const int readers = std::popcount(ro);
        breaches.push_back(
            {CoherenceRule::writer_and_readers, nodesOf(rw | ro),
             detail::concat("writer node ", std::countr_zero(rw),
                            " coexists with ", readers, " read_only cop",
                            readers == 1 ? "y" : "ies")});
    }
    if (v.missOutstanding || v.homeBusy)
        return breaches;

    std::uint64_t culprits = 0;
    std::string what;
    switch (v.homeState) {
      case DirState::idle:
        if (ro != 0 || rw != 0) {
            culprits = ro | rw;
            what = "directory says idle but the block is cached";
        }
        break;
      case DirState::shared:
        if (rw != 0) {
            culprits = rw;
            what = "directory says shared but a cache holds the block "
                   "read_write";
        } else if (v.silentDrops ? (ro & ~v.sharers) != 0
                                 : ro != v.sharers) {
            // Under silent drops only a holder the list misses is at
            // fault; otherwise the list must be exact.
            culprits = v.silentDrops ? ro & ~v.sharers : ro ^ v.sharers;
            what = detail::concat("sharer bits 0x", std::hex, v.sharers,
                                  " disagree with read_only holders 0x",
                                  ro);
        }
        break;
      case DirState::exclusive: {
        // An owner no node mask can hold names no node: an ownerless
        // exclusive entry blames only the caches.
        const std::uint64_t ownerBit =
            v.owner < 64 ? std::uint64_t{1} << v.owner : 0;
        if (ownerBit == 0 || rw != ownerBit) {
            culprits = rw | ownerBit;
            what = detail::concat("directory owner is node ", v.owner,
                                  " but read_write holders are 0x",
                                  std::hex, rw);
        } else if (ro != 0) {
            culprits = ro;
            what = "directory says exclusive but read_only copies exist";
        }
        break;
      }
    }
    if (!what.empty())
        breaches.push_back({CoherenceRule::directory_mismatch,
                            nodesOf(culprits), std::move(what)});
    return breaches;
}

BlockView
blockView(const Machine &machine, Addr block)
{
    BlockView v;
    for (NodeId c = 0; c < machine.numNodes(); ++c)
        v.addLine(c, machine.cache(c).state(block));
    if (v.missOutstanding)
        return v; // the rule does not read the home
    const DirectoryController &dir =
        machine.directory(machine.addrMap().home(block));
    if (const DirEntry *home = dir.findEntry(block)) {
        v.homeBusy = home->busy;
        v.homeState = home->state;
        v.sharers = home->sharers;
        v.owner = home->owner;
    }
    v.silentDrops = machine.config().cacheCapacityBlocks != 0;
    return v;
}

std::vector<Addr>
knownBlocks(const Machine &machine)
{
    std::vector<Addr> blocks;
    for (NodeId n = 0; n < machine.numNodes(); ++n) {
        machine.cache(n).forEachLine(
            [&](Addr b, LineState) { blocks.push_back(b); });
        machine.directory(n).forEachEntry(
            [&](Addr b, const DirEntry &) { blocks.push_back(b); });
    }
    std::sort(blocks.begin(), blocks.end());
    blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
    return blocks;
}

std::vector<std::string>
checkCoherence(const Machine &machine)
{
    std::vector<std::string> violations;
    for (const Addr block : knownBlocks(machine))
        for (const Breach &b : brokenRules(blockView(machine, block)))
            violations.push_back(
                detail::concat("block 0x", std::hex, block, ": ", b.detail));
    return violations;
}

} // namespace cosmos::proto
