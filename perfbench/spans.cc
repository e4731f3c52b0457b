#include "spans.hh"

#include <cstdio>

namespace perfbench
{

namespace
{

std::string
layerOf(const char *name)
{
    const std::string n(name);
    return n.substr(0, n.find('.'));
}

} // namespace

Spans::Spans() : origin_(Clock::now()) {}

Spans &
Spans::instance()
{
    static Spans spans;
    return spans;
}

std::int32_t
Spans::open(const char *name)
{
    const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - origin_)
                         .count();
    records_.push_back({name, now, now, current_});
    current_ = static_cast<std::int32_t>(records_.size() - 1);
    return current_;
}

void
Spans::close(std::int32_t index)
{
    SpanRecord &r = records_[static_cast<std::size_t>(index)];
    r.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - origin_)
                  .count();
    current_ = r.parent;
}

SpanTotals
Spans::totals() const
{
    std::vector<std::int64_t> childNs(records_.size(), 0);
    for (const SpanRecord &r : records_) {
        if (r.parent >= 0)
            childNs[static_cast<std::size_t>(r.parent)] += r.endNs - r.startNs;
    }
    SpanTotals t;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const SpanRecord &r = records_[i];
        const double dur = static_cast<double>(r.endNs - r.startNs) * 1e-9;
        t.inclusive[r.name] += dur;
        t.self[layerOf(r.name)] +=
            dur - static_cast<double>(childNs[i]) * 1e-9;
    }
    return t;
}

bool
Spans::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const SpanRecord &r = records_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                     r.name, layerOf(r.name).c_str(),
                     static_cast<double>(r.startNs) * 1e-3,
                     static_cast<double>(r.endNs - r.startNs) * 1e-3, i,
                     r.parent, i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
