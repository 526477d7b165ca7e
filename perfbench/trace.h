/**
 * @file
 * In-memory wall-clock span recorder for the traced pass.
 *
 * Each span carries a name, start, end, parent span and an epoch or
 * request id; program-reported durations ride along as args. Spans are
 * kept in memory while the workload runs and written out once, at the
 * end, as a Chrome trace-event JSON file (chrome://tracing, Perfetto).
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span; -1 at top level. */
    int64_t parent = -1;
    uint64_t id = 0;
    std::vector<std::pair<std::string, double>> args;
};

class Tracer
{
  public:
    /** Open a span nested in the innermost open one; returns its index. */
    size_t begin(const std::string &name, uint64_t id);
    void end(size_t index);
    void arg(size_t index, const std::string &key, double value);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of the spans named @p name: each one's duration minus
     * the part of its interval its direct children cover, summed.
     */
    double selfTime(const std::string &name) const;

    /** Write the spans as Chrome trace-event JSON; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<size_t> open_;
};

/** RAII span; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *tracer, const std::string &name, uint64_t id)
        : tracer_(tracer)
    {
        if (tracer_)
            index_ = tracer_->begin(name, id);
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->end(index_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void
    arg(const std::string &key, double value)
    {
        if (tracer_)
            tracer_->arg(index_, key, value);
    }

  private:
    Tracer *tracer_;
    size_t index_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
