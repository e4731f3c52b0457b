#include "proto/invariants.hh"

#include <map>
#include <sstream>

namespace cosmos::proto
{

namespace
{

struct BlockView
{
    std::uint64_t roHolders = 0;
    std::uint64_t rwHolders = 0;
    bool transient = false;
};

std::string
hexBlock(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

} // namespace

std::vector<std::string>
checkCoherence(const Machine &machine)
{
    std::vector<std::string> violations;
    const NodeId n = machine.numNodes();

    // Gather every cache's view of every block.
    std::map<Addr, BlockView> views;
    for (NodeId c = 0; c < n; ++c) {
        machine.cache(c).forEachLine([&](Addr block, LineState st) {
            BlockView &v = views[block];
            switch (st) {
              case LineState::invalid:
                break;
              case LineState::read_only:
                v.roHolders |= std::uint64_t{1} << c;
                break;
              case LineState::read_write:
                v.rwHolders |= std::uint64_t{1} << c;
                break;
              default:
                v.transient = true;
                break;
            }
        });
    }

    // Single-writer / multiple-reader.
    for (const auto &[block, v] : views) {
        if (v.transient)
            continue;
        if (std::popcount(v.rwHolders) > 1)
            violations.push_back("block " + hexBlock(block) +
                                 " has multiple writers");
        if (v.rwHolders != 0 && v.roHolders != 0)
            violations.push_back("block " + hexBlock(block) +
                                 " has a writer and readers");
    }

    // Every valid cached block must be known to its home directory:
    // an absent entry reads as idle, so one lookup per block decides.
    for (const auto &[block, v] : views) {
        if (v.transient || (v.roHolders == 0 && v.rwHolders == 0))
            continue;
        const NodeId home = machine.addrMap().home(block);
        if (machine.directory(home).state(block) == DirState::idle)
            violations.push_back("block " + hexBlock(block) +
                                 " is cached but unknown to its home "
                                 "directory");
    }

    // Directory bookkeeping must match cache states.
    for (NodeId d = 0; d < n; ++d) {
        machine.directory(d).forEachEntry(
            [&](Addr block, DirState st, std::uint64_t sharers,
                NodeId owner) {
                if (machine.directory(d).busy(block))
                    return; // mid-transaction: skip
                auto it = views.find(block);
                const BlockView v =
                    it == views.end() ? BlockView{} : it->second;
                if (v.transient)
                    return;
                switch (st) {
                  case DirState::idle:
                    if (v.roHolders || v.rwHolders)
                        violations.push_back(
                            "dir says idle but block " + hexBlock(block) +
                            " is cached");
                    break;
                  case DirState::shared:
                    if (v.rwHolders)
                        violations.push_back(
                            "dir says shared but block " +
                            hexBlock(block) + " has a writer");
                    if (machine.config().cacheCapacityBlocks != 0) {
                        // Silent drops make the directory's sharer
                        // list a superset of the real holders.
                        if ((v.roHolders & ~sharers) != 0)
                            violations.push_back(
                                "dir sharer set misses a holder of "
                                "block " +
                                hexBlock(block));
                    } else if (v.roHolders != sharers) {
                        violations.push_back(
                            "dir sharer set mismatch for block " +
                            hexBlock(block));
                    }
                    break;
                  case DirState::exclusive:
                    if (v.rwHolders != (std::uint64_t{1} << owner))
                        violations.push_back(
                            "dir owner mismatch for block " +
                            hexBlock(block));
                    if (v.roHolders)
                        violations.push_back(
                            "dir says exclusive but block " +
                            hexBlock(block) + " has readers");
                    break;
                }
            });
    }

    return violations;
}

} // namespace cosmos::proto
