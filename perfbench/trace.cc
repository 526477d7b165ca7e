#include "trace.h"

#include <fstream>
#include <iomanip>

#include "common.h"

namespace perfbench {

size_t
Tracer::begin(const std::string &name, uint64_t id)
{
    Span span;
    span.name = name;
    span.id = id;
    span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    span.start = now();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::end(size_t index)
{
    spans_[index].end = now();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

void
Tracer::arg(size_t index, const std::string &key, double value)
{
    spans_[index].args.emplace_back(key, value);
}

double
Tracer::selfTime(const std::string &name) const
{
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childTime[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    double self = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name)
            self += spans_[i].end - spans_[i].start - childTime[i];
    }
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    out << std::setprecision(15) << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << (s.start - origin) * 1e6
            << ",\"dur\":" << (s.end - s.start) * 1e6
            << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
            << ",\"id\":" << s.id;
        for (const auto &[key, value] : s.args)
            out << ",\"" << key << "\":" << value;
        out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
