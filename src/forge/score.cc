#include "forge/score.hh"

#include <cstdio>

#include "common/table.hh"
#include "trace/pattern_census.hh"

namespace cosmos::forge
{

std::string
ForgeScore::formatTable() const
{
    TextTable table("accuracy by ground-truth sharing class (depth " +
                    std::to_string(config.depth) + ", filter " +
                    std::to_string(config.filterMax) + ")");
    table.setHeader({"Class", "Blocks", "Msgs", "C%", "D%", "O%",
                     "Census"});
    for (const ClassScore &c : classes) {
        if (c.blocks == 0)
            continue;
        table.addRow(
            {toString(c.cls), TextTable::num(c.blocks),
             TextTable::num(c.records),
             TextTable::num(c.accuracy.cacheSide().percent(), 1),
             TextTable::num(c.accuracy.directorySide().percent(), 1),
             TextTable::num(c.accuracy.overall().percent(), 1),
             TextTable::num(c.censusAgree) + "/" +
                 TextTable::num(c.censusSeen)});
    }
    std::uint64_t all_blocks = 0;
    std::uint64_t all_records = 0;
    for (const ClassScore &c : classes) {
        all_blocks += c.blocks;
        all_records += c.records;
    }
    table.addSeparator();
    table.addRow({"all", TextTable::num(all_blocks),
                  TextTable::num(all_records),
                  TextTable::num(total.cacheSide().percent(), 1),
                  TextTable::num(total.directorySide().percent(), 1),
                  TextTable::num(total.overall().percent(), 1), ""});
    return table.render();
}

ForgeScore
scoreByClass(const trace::Trace &t, const SynthSource &src,
             const pred::CosmosConfig &cfg)
{
    ForgeScore score;
    score.config = cfg;
    score.classes.resize(num_block_classes);
    for (unsigned i = 0; i < num_block_classes; ++i)
        score.classes[i].cls = static_cast<BlockClass>(i);
    for (BlockClass c : src.labels())
        ++score.classes[static_cast<unsigned>(c)].blocks;

    // Partition the records by their block's ground-truth label.
    // Prediction state is per block, so replaying each class's slice
    // through its own bank gives exact per-class accuracy, and the
    // slices' counters sum to a serial replay of the whole trace.
    std::vector<std::vector<trace::TraceRecord>> slices(
        num_block_classes);
    for (const auto &r : t.records)
        slices[static_cast<unsigned>(src.labelOfAddr(r.block))]
            .push_back(r);

    for (unsigned i = 0; i < num_block_classes; ++i) {
        ClassScore &c = score.classes[i];
        c.records = slices[i].size();
        if (slices[i].empty())
            continue;
        pred::PredictorBank bank(t.numNodes, cfg);
        bank.observeChunk(slices[i].data(), slices[i].size());
        c.accuracy.merge(bank.accuracy());
        score.total.merge(bank.accuracy());
    }

    // Census validation: classify the trace with no ground truth and
    // count how often it recovers each class's expected pattern.
    for (const auto &[block, pattern] : trace::classifyBlocks(t)) {
        ClassScore &c = score.classes[static_cast<unsigned>(
            src.labelOfAddr(block))];
        ++c.censusSeen;
        if (pattern == expectedPattern(c.cls))
            ++c.censusAgree;
    }
    return score;
}

bool
writeForgeReport(const std::string &path, const SynthSource &src,
                 const trace::Trace &t, const ForgeScore &score)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const ForgeParams &p = src.params();
    std::fprintf(f, "{\n  \"format\": \"cosmos-forge-v1\",\n");
    std::fprintf(f,
                 "  \"params\": {\"procs\": %u, \"blocks\": %u, "
                 "\"migratory\": %.4f, \"false\": %.4f, "
                 "\"private\": %.4f, \"readonly\": %.4f, "
                 "\"producer_consumer\": %.4f, \"fanout\": %u, "
                 "\"phase\": %u, \"seed\": %llu},\n",
                 static_cast<unsigned>(p.numProcs), p.blocks,
                 p.migratory, p.falseSharing, p.privateFrac,
                 p.readOnly,
                 p.producerConsumer() < 0 ? 0.0
                                          : p.producerConsumer(),
                 p.fanout, p.phase,
                 static_cast<unsigned long long>(p.seed));
    std::fprintf(f, "  \"depth\": %u,\n  \"filter\": %u,\n",
                 score.config.depth, score.config.filterMax);
    std::fprintf(f, "  \"nodes\": %u,\n  \"iterations\": %d,\n",
                 static_cast<unsigned>(t.numNodes), t.iterations);
    std::fprintf(f, "  \"messages\": %zu,\n", t.records.size());
    std::fprintf(f, "  \"overall_pct\": %.2f,\n",
                 score.total.overall().percent());
    std::fprintf(f, "  \"classes\": [\n");
    bool first = true;
    for (const ClassScore &c : score.classes) {
        if (!first)
            std::fprintf(f, ",\n");
        first = false;
        std::fprintf(
            f,
            "    {\"class\": \"%s\", \"blocks\": %llu, "
            "\"records\": %llu, \"cache_pct\": %.2f, "
            "\"directory_pct\": %.2f, \"overall_pct\": %.2f, "
            "\"census_seen\": %llu, \"census_agree\": %llu}",
            toString(c.cls),
            static_cast<unsigned long long>(c.blocks),
            static_cast<unsigned long long>(c.records),
            c.accuracy.cacheSide().percent(),
            c.accuracy.directorySide().percent(),
            c.accuracy.overall().percent(),
            static_cast<unsigned long long>(c.censusSeen),
            static_cast<unsigned long long>(c.censusAgree));
    }
    std::fprintf(f, "\n  ]\n}\n");
    return std::fclose(f) == 0;
}

} // namespace cosmos::forge
