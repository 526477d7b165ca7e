/**
 * @file
 * Shared pieces of the perfbench binary: wall clock, order statistics,
 * the metric report every workload fills, decision digests, and the
 * timing/checking decorator around core::ResilienceScheme::apply.
 *
 * Everything here measures the phoenix libraries from outside, through
 * their public functions; nothing under src/ knows it is benchmarked.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adaptlab/environment.h"
#include "core/controller.h"
#include "core/schemes.h"
#include "sim/cluster.h"

namespace perfbench {

class Tracer;

/** Monotonic wall clock in seconds. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Input size: the benchmark's own scale, or the reduced scale the
 * tests and the invariant-sweep check pass use. */
enum class Size { Full, Tiny };

/** Command-line options one workload sees. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    Size size = Size::Full;
    /** Wrap every scheme in the corrupting decorator (tests only). */
    bool corrupt = false;
    /** Where the traced pass writes its spans (empty: nowhere). */
    std::string traceFile;
};

/**
 * The Alibaba-style AdaptLab environment of bench_fig8b's 100k cell,
 * scaled to @p nodeCount 16-CPU nodes: 18 apps, ~16 replica pods per
 * node. @p salt keeps each workload's environment seed its own.
 */
phoenix::adaptlab::EnvironmentConfig environmentConfig(size_t nodeCount,
                                                       uint64_t seed,
                                                       uint64_t salt);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Sum and arithmetic mean (0 when empty). */
double sum(const std::vector<double> &v);
double mean(const std::vector<double> &v);

/**
 * Tail of @p v: the highest nearest-rank percentile (in whole percent)
 * that still has at least @p beyond samples strictly above its rank.
 * Sets @p pct to that percentile; returns the median and pct 50 when
 * there are too few samples for any tail.
 */
double tail(std::vector<double> v, size_t beyond, int &pct);

/** FNV-1a accumulator for decision digests. */
struct Digest
{
    uint64_t h = 1469598103934665603ull;

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    void mixDouble(double d);
};

/** 16 hex digits, for digests in the report. */
std::string hex(uint64_t v);

/** Digest of one scheme decision: ranked plan + packed assignment. */
uint64_t decisionDigest(const phoenix::core::SchemeResult &result);

/** Peak resident set size of this process, in MiB. */
double peakRssMiB();

/** A metric of the result line: name and unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics every untraced run reports, and the
 * per-layer metrics every traced run reports (BENCHMARK.json lists the
 * same names; run.py checks they agree). */
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/** Ordered metric report with units; printed as text and JSON. */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    /** Free-form context line printed with the report (not a metric). */
    void note(const std::string &line) { notes_.push_back(line); }
    /** Record a failed correctness check. */
    void fail(const std::string &why);

    bool correct() const { return failures_.empty(); }
    const std::vector<std::string> &failures() const { return failures_; }

    size_t attempted = 0;
    size_t failed = 0;

    /** Human-readable block, one "name value unit" per line. */
    void printText(const std::string &title) const;
    /**
     * The single JSON result line over @p specs, in their order. A
     * per-layer metric the workload does not exercise reads 0; a
     * missing end-to-end metric (@p required) fails the report.
     */
    std::string json(const std::vector<MetricSpec> &specs, bool required);

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    std::vector<std::string> failures_;
};

/** What the decorator saw on one apply() call. */
struct ApplyRecord
{
    double wallSeconds = 0.0;
    double planSeconds = 0.0;
    double packSeconds = 0.0;
    double reconcileSeconds = 0.0;
    size_t actions = 0;
    size_t ranked = 0;
    size_t placed = 0;
    uint64_t heapPushes = 0;
    uint64_t bestFitProbes = 0;
    uint64_t kvOps = 0;
    uint64_t digest = 0;
    /** Graded critical availability and revenue of the planned state. */
    double critAvail = 0.0;
    double revenue = 0.0;
    /** Input capacity had dropped since the previous apply. */
    bool capacityLoss = false;
};

/**
 * Decorator around a ResilienceScheme: times every apply(), records the
 * program-reported plan/pack/reconcile seconds and op counters, digests
 * the decision, and checks that the packed state is legal against the
 * input (every node within capacity, no pod on a failed node, node
 * health unchanged). The digest and check run after the timer stops;
 * their cost is kept in bookkeepingSeconds so callers timing an
 * enclosing call can subtract it.
 */
class TimedScheme : public phoenix::core::ResilienceScheme
{
  public:
    /** @p score computes critAvail/revenue per apply (loop and serve;
     * adapt takes them from adaptlab::TrialMetrics instead). */
    TimedScheme(std::unique_ptr<phoenix::core::ResilienceScheme> inner,
                Tracer *tracer, bool corrupt, bool score);

    std::string name() const override { return inner_->name(); }
    phoenix::core::SchemeResult
    apply(const std::vector<phoenix::sim::Application> &apps,
          const phoenix::sim::ClusterState &current) override;
    void noteDirtyNodes(
        const std::vector<phoenix::sim::NodeId> &nodes) override
    {
        inner_->noteDirtyNodes(nodes);
    }

    const std::vector<ApplyRecord> &records() const { return records_; }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }
    double bookkeepingSeconds() const { return bookkeeping_; }
    /** Span id the next apply() span is tagged with. */
    void setEpoch(uint64_t epoch) { epoch_ = epoch; }

  private:
    std::unique_ptr<phoenix::core::ResilienceScheme> inner_;
    Tracer *tracer_;
    bool corrupt_;
    bool score_;
    uint64_t epoch_ = 0;
    double lastCapacity_ = -1.0;
    double baseAvail_ = -1.0;
    double baseRevenue_ = -1.0;
    std::vector<ApplyRecord> records_;
    std::vector<std::string> violations_;
    double bookkeeping_ = 0.0;
};

/** Sum of a field over apply records. */
template <typename F>
double
sumOver(const std::vector<ApplyRecord> &records, F field)
{
    double total = 0.0;
    for (const ApplyRecord &r : records)
        total += static_cast<double>(field(r));
    return total;
}

/** Median of a field over apply records. */
template <typename F>
double
medianOver(const std::vector<ApplyRecord> &records, F field)
{
    std::vector<double> v;
    v.reserve(records.size());
    for (const ApplyRecord &r : records)
        v.push_back(static_cast<double>(field(r)));
    return median(std::move(v));
}

/**
 * Host seconds the controller spent observing kube in (@p first, @p end],
 * estimated from the per-call costs probed at poll instants: every poll
 * reads the ready capacity and fingerprint, every replan takes an
 * observedState snapshot, and every poll that finds a replan still
 * waiting for its pods walks the running set.
 */
double observeEstimate(const std::vector<phoenix::core::ReplanRecord> &history,
                       double first, double end, double fingerprintSeconds,
                       double observeSeconds, double runningPodsSeconds);

/** Add the ctl.* counts over @p history. */
void addControllerCounts(
    Report &report, const std::vector<phoenix::core::ReplanRecord> &history);

/** Add the core.* per-layer metrics computed from apply records. */
void addCoreMetrics(Report &report,
                    const std::vector<ApplyRecord> &records,
                    double estimatorSeconds, double globalRankSeconds);

/** Workload entry points; each returns the process exit code. */
int runAdapt(const Options &options);
int runLoop(const Options &options);
int runServe(const Options &options);

/** Print the report and the JSON line; returns the exit code. */
int finish(Report &report, const Options &options);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
