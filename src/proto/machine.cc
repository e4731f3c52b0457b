#include "proto/machine.hh"

#include "common/log.hh"

namespace cosmos::proto
{

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), amap_(cfg.blockBytes, cfg.pageBytes, cfg.numNodes),
      table_(ProtocolTable::build(cfg)),
      network_(eq_, cfg.numNodes, cfg.networkLatency,
               cfg.networkInterfaceLatency)
{
    cfg_.validate();
    // Each node keeps a handful of events in flight (network hops,
    // controller occupancy, processor steps); pre-sizing the heap
    // keeps the first iterations from growing it repeatedly.
    eq_.reserve(std::size_t{64} * cfg_.numNodes);
    auto send = [this](const Msg &m) {
        network_.send(m.src, m.dst, m);
    };
    caches_.reserve(cfg_.numNodes);
    directories_.reserve(cfg_.numNodes);
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        caches_.push_back(std::make_unique<CacheController>(
            n, amap_, cfg_, table_, eq_, send));
        directories_.push_back(std::make_unique<DirectoryController>(
            n, amap_, cfg_, table_, eq_, send));
        network_.attach(n, [this](const Msg &m, bool local) {
            deliver(m, local);
        });
    }
}

CacheController &
Machine::cache(NodeId n)
{
    cosmos_assert(n < caches_.size(), "bad node ", n);
    return *caches_[n];
}

const CacheController &
Machine::cache(NodeId n) const
{
    cosmos_assert(n < caches_.size(), "bad node ", n);
    return *caches_[n];
}

DirectoryController &
Machine::directory(NodeId n)
{
    cosmos_assert(n < directories_.size(), "bad node ", n);
    return *directories_[n];
}

const DirectoryController &
Machine::directory(NodeId n) const
{
    cosmos_assert(n < directories_.size(), "bad node ", n);
    return *directories_[n];
}

void
Machine::addObserver(MsgObserver *obs)
{
    observers_.push_back(obs);
}

void
Machine::deliver(const Msg &m, bool local)
{
    const Role role = receiverRole(m.type);
    ++deliveredByType_[static_cast<std::size_t>(m.type)];
    if (!local) {
        for (auto *obs : observers_)
            obs->onMessage(m, role, iteration_, eq_.now());
    }
    if (role == Role::cache)
        caches_[m.dst]->handleMessage(m);
    else
        directories_[m.dst]->handleMessage(m);
    if (probe_)
        probe_(m, local, eq_.now());
}

void
Machine::publishMetrics(obs::Registry &reg) const
{
    eq_.publishMetrics(reg, "sim");
    network_.publishMetrics(reg, "net");

    for (unsigned t = 0; t < num_msg_types; ++t) {
        if (deliveredByType_[t] == 0)
            continue;
        reg.counter(std::string("proto.delivered.") +
                    toString(static_cast<MsgType>(t)))
            .add(deliveredByType_[t]);
    }

    CacheStats c{};
    DirectoryStats d{};
    for (NodeId n = 0; n < numNodes(); ++n) {
        const CacheStats &cs = caches_[n]->stats();
        c.loads += cs.loads;
        c.stores += cs.stores;
        c.loadHits += cs.loadHits;
        c.storeHits += cs.storeHits;
        c.readMisses += cs.readMisses;
        c.writeMisses += cs.writeMisses;
        c.upgrades += cs.upgrades;
        c.invalsReceived += cs.invalsReceived;
        c.downgradesReceived += cs.downgradesReceived;
        c.evictions += cs.evictions;
        c.staleInvals += cs.staleInvals;
        for (std::size_t s = 0; s < c.stateEntries.size(); ++s)
            c.stateEntries[s] += cs.stateEntries[s];
        const DirectoryStats &ds = directories_[n]->stats();
        d.requests += ds.requests;
        d.queued += ds.queued;
        d.invalsSent += ds.invalsSent;
        d.downgradesSent += ds.downgradesSent;
        d.upgradePromotions += ds.upgradePromotions;
        d.exclusiveGrants += ds.exclusiveGrants;
        d.recalls += ds.recalls;
        for (std::size_t s = 0; s < d.stateEntries.size(); ++s)
            d.stateEntries[s] += ds.stateEntries[s];
    }

    reg.counter("proto.cache.loads").add(c.loads);
    reg.counter("proto.cache.stores").add(c.stores);
    reg.counter("proto.cache.load_hits").add(c.loadHits);
    reg.counter("proto.cache.store_hits").add(c.storeHits);
    reg.counter("proto.cache.read_misses").add(c.readMisses);
    reg.counter("proto.cache.write_misses").add(c.writeMisses);
    reg.counter("proto.cache.upgrades").add(c.upgrades);
    reg.counter("proto.cache.invals_received").add(c.invalsReceived);
    reg.counter("proto.cache.downgrades_received")
        .add(c.downgradesReceived);
    reg.counter("proto.cache.evictions").add(c.evictions);
    reg.counter("proto.cache.stale_invals").add(c.staleInvals);
    for (std::size_t s = 0; s < c.stateEntries.size(); ++s) {
        reg.counter(std::string("proto.cache.transitions_to.") +
                    toString(static_cast<LineState>(s)))
            .add(c.stateEntries[s]);
    }

    reg.counter("proto.dir.requests").add(d.requests);
    reg.counter("proto.dir.queued_retries").add(d.queued);
    reg.counter("proto.dir.invals_sent").add(d.invalsSent);
    reg.counter("proto.dir.downgrades_sent").add(d.downgradesSent);
    reg.counter("proto.dir.upgrade_promotions")
        .add(d.upgradePromotions);
    reg.counter("proto.dir.exclusive_grants").add(d.exclusiveGrants);
    reg.counter("proto.dir.recalls").add(d.recalls);
    for (std::size_t s = 0; s < d.stateEntries.size(); ++s) {
        reg.counter(std::string("proto.dir.transitions_to.") +
                    toString(static_cast<DirState>(s)))
            .add(d.stateEntries[s]);
    }
}

} // namespace cosmos::proto
