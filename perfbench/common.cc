#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>

#include "core/controller.h"
#include "sim/metrics.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

using phoenix::core::SchemeResult;
using phoenix::sim::ClusterState;
using phoenix::sim::NodeId;

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"epoch_p50_s", "s"},
    {"trial_p50_s", "s"},
    {"crit_avail", "fraction"},
    {"revenue", "fraction"},
};

const std::vector<MetricSpec> kPerLayer = {
    // core: planner + packer behind ResilienceScheme::apply.
    {"core.apply_s", "s"},
    {"core.plan_s", "s"},
    {"core.estimator_s", "s"},
    {"core.global_rank_s", "s"},
    {"core.pack_s", "s"},
    {"core.pack_reconcile_s", "s"},
    {"core.actions", "count"},
    {"core.heap_pushes", "count"},
    {"core.best_fit_probes", "count"},
    {"core.kv_ops", "count"},
    {"core.placed_frac", "fraction"},
    // sim + adaptlab: the batch trial around the scheme.
    {"sim.cluster_copy_s", "s"},
    {"sim.inject_s", "s"},
    {"sim.score_s", "s"},
    {"adaptlab.trial_unattributed_s", "s"},
    // kube + controller: the closed loop.
    {"loop.steady_s_per_sim_h", "s/h"},
    {"loop.fault_s_per_sim_h", "s/h"},
    {"kube.observe_state_s", "s"},
    {"kube.fingerprint_s", "s"},
    {"kube.running_pods_s", "s"},
    {"ctl.replans", "count"},
    {"ctl.deletes", "count"},
    {"ctl.migrations", "count"},
    {"ctl.restarts", "count"},
    {"loop.stalled_replans", "count"},
    {"loop.check_stalled_replans", "count"},
    {"loop.unattributed_s", "s"},
    // sim event queue, shared by the loop and serving.
    {"sim.events", "count"},
    {"sim.us_per_event", "us"},
    // serve front end.
    {"serve.us_per_request", "us"},
    {"serve.shed_frac", "fraction"},
    {"serve.replans", "count"},
    {"serve.steady_s_per_sim_h", "s/h"},
    {"serve.fault_s_per_sim_h", "s/h"},
    // span accounting of the traced pass.
    {"self.adaptlab_s", "s"},
    {"self.core_s", "s"},
    {"self.sim_s", "s"},
    {"trace.unattributed_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
    {"trace.spans", "count"},
    // workload-specific end-to-end figures, from the untraced pass of
    // the same invocation.
    {"loop_s_per_sim_h", "s/h"},
    {"replan_p50_s", "s"},
    {"replan_tail_s", "s"},
    {"replan_n", "count"},
    {"recovery_sim_s", "s"},
    {"serve_kreq_per_s", "kreq/s"},
    {"crit_slo_violation_s", "s"},
    {"crit_goodput", "fraction"},
    {"failed_frac", "fraction"},
};

phoenix::adaptlab::EnvironmentConfig
environmentConfig(size_t nodeCount, uint64_t seed, uint64_t salt)
{
    phoenix::adaptlab::EnvironmentConfig config;
    config.nodeCount = nodeCount;
    config.alibaba.appCount = 18;
    config.alibaba.sizeScale = static_cast<double>(nodeCount) / 100000.0;
    config.nodeCapacity = 16.0;
    config.resources.minCpu = 0.5;
    config.resources.maxCpu = 8.0;
    config.resources.model =
        phoenix::workloads::ResourceModel::CallsPerMinute;
    config.demandFraction = 0.8;
    config.tagging.scheme = phoenix::workloads::TaggingScheme::ServiceLevel;
    config.tagging.percentile = 0.9;
    config.seed = phoenix::util::cellSeed(seed, salt);
    return config;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double total = 0.0;
    for (double x : v)
        total += x;
    return total;
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double
tail(std::vector<double> v, size_t beyond, int &pct)
{
    pct = 50;
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    for (int p = 99; p > 50; --p) {
        // Nearest rank (1-based) of the p-th percentile.
        const size_t rank = static_cast<size_t>(
            std::ceil(static_cast<double>(p) * static_cast<double>(n) /
                      100.0));
        if (rank >= 1 && n - rank >= beyond) {
            pct = p;
            return v[rank - 1];
        }
    }
    return median(std::move(v));
}

void
Digest::mixDouble(double d)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

uint64_t
decisionDigest(const SchemeResult &result)
{
    Digest d;
    d.mix(result.plan.size());
    for (const auto &pod : result.plan) {
        d.mix(pod.app);
        d.mix(pod.ms);
        d.mix(pod.replica);
    }
    d.mix(result.pack.state.assignment().size());
    for (const auto &[pod, node] : result.pack.state.assignment()) {
        d.mix(pod.app);
        d.mix(pod.ms);
        d.mix(pod.replica);
        d.mix(node);
    }
    d.mix(result.pack.actions.size());
    return d.h;
}

double
peakRssMiB()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    if (!std::isfinite(value))
        fail("metric " + name + " is not finite");
    metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0,
                              unit});
}

void
Report::fail(const std::string &why)
{
    failures_.push_back(why);
}

void
Report::printText(const std::string &title) const
{
    std::cout << "== " << title << "\n";
    for (const std::string &line : notes_)
        std::cout << "   " << line << "\n";
    char buf[64];
    for (const Metric &m : metrics_) {
        std::snprintf(buf, sizeof(buf), "%.6g", m.value);
        std::cout << "   " << m.name << " = " << buf << " " << m.unit
                  << "\n";
    }
    for (const std::string &why : failures_)
        std::cout << "   CHECK FAILED: " << why << "\n";
}

std::string
Report::json(const std::vector<MetricSpec> &specs, bool required)
{
    std::ostringstream os;
    std::vector<std::string> parts;
    char buf[64];
    for (const MetricSpec &spec : specs) {
        const Metric *found = nullptr;
        for (const Metric &m : metrics_) {
            if (m.name == spec.name)
                found = &m;
        }
        if (found && found->unit != spec.unit)
            fail(std::string("metric ") + spec.name + " has unit " +
                 found->unit + ", expected " + spec.unit);
        if (!found && required)
            fail(std::string("metric ") + spec.name + " was not measured");
        std::snprintf(buf, sizeof(buf), "%.17g", found ? found->value : 0.0);
        parts.push_back(std::string("\"") + spec.name +
                        "\": {\"value\": " + buf + ", \"unit\": \"" +
                        spec.unit + "\"}");
    }
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < parts.size(); ++i)
        os << (i ? ", " : "") << parts[i];
    os << "}}";
    return os.str();
}

TimedScheme::TimedScheme(
    std::unique_ptr<phoenix::core::ResilienceScheme> inner, Tracer *tracer,
    bool corrupt, bool score)
    : inner_(std::move(inner)), tracer_(tracer), corrupt_(corrupt),
      score_(score)
{
}

namespace {

/**
 * Test-only sabotage: bring one node that is failed in the input back
 * in the planned state and move a placed pod onto it. The legality
 * check below must catch it.
 */
void
corruptResult(const ClusterState &input, SchemeResult &result)
{
    ClusterState &state = result.pack.state;
    if (state.assignment().empty())
        return;
    for (NodeId n = 0; n < input.nodeCount(); ++n) {
        if (input.isHealthy(n))
            continue;
        const auto [pod, from] = *state.assignment().begin();
        const double cpu = state.podCpu(pod);
        state.restoreNode(n);
        state.evict(pod);
        if (!state.place(pod, n, cpu))
            state.place(pod, from, cpu);
        return;
    }
}

/** Legality of a planned state against the input it was planned on. */
void
checkLegal(const ClusterState &input, const ClusterState &planned,
           std::vector<std::string> &violations)
{
    // At most a few lines per decision: one is enough to fail it.
    size_t reported = 0;
    const auto violate = [&](const std::string &why) {
        if (reported++ < 4)
            violations.push_back(why);
    };
    if (planned.nodeCount() != input.nodeCount()) {
        violate("planned state has a different node set");
        return;
    }
    for (NodeId n = 0; n < input.nodeCount(); ++n) {
        if (planned.isHealthy(n) != input.isHealthy(n))
            violate("node " + std::to_string(n) + " changed health");
        if (planned.node(n).capacity != input.node(n).capacity)
            violate("node " + std::to_string(n) + " changed capacity");
        if (planned.used(n) > planned.node(n).capacity + 1e-6)
            violate("node " + std::to_string(n) + " over capacity");
        if (!input.isHealthy(n) && !planned.podsOn(n).empty())
            violate("pod placed on failed node " + std::to_string(n));
    }
}

} // namespace

SchemeResult
TimedScheme::apply(const std::vector<phoenix::sim::Application> &apps,
                   const ClusterState &current)
{
    ApplyRecord rec;
    SchemeResult result;
    {
        Scope span(tracer_, "core.apply", epoch_);
        const double t0 = now();
        result = inner_->apply(apps, current);
        rec.wallSeconds = now() - t0;
        span.arg("plan_s", result.planSeconds);
        span.arg("pack_s", result.packSeconds);
        span.arg("reconcile_s", result.pack.reconcileSeconds);
        span.arg("actions", static_cast<double>(result.pack.actions.size()));
    }

    const double b0 = now();
    const double capacity = current.healthyCapacity();
    rec.planSeconds = result.planSeconds;
    rec.packSeconds = result.packSeconds;
    rec.reconcileSeconds = result.pack.reconcileSeconds;
    rec.actions = result.pack.actions.size();
    rec.ranked = result.plan.size();
    rec.placed = result.pack.placed;
    rec.heapPushes = result.planOps.heapPushes + result.pack.ops.heapPushes;
    rec.bestFitProbes =
        result.planOps.bestFitProbes + result.pack.ops.bestFitProbes;
    rec.kvOps = result.planOps.kvOps + result.pack.ops.kvOps;
    if (corrupt_)
        corruptResult(current, result);
    checkLegal(current, result.pack.state, violations_);
    rec.digest = decisionDigest(result);
    if (score_) {
        const auto active = result.activeSet(apps);
        const double avail =
            phoenix::sim::criticalFractionAvailability(apps, active);
        const double revenue = phoenix::sim::revenue(apps, active);
        if (baseAvail_ < 0.0) {
            baseAvail_ = avail;
            baseRevenue_ = revenue;
        }
        rec.critAvail = baseAvail_ > 0.0 ? avail / baseAvail_ : 0.0;
        rec.revenue = baseRevenue_ > 0.0 ? revenue / baseRevenue_ : 0.0;
    }
    rec.capacityLoss = lastCapacity_ >= 0.0 && capacity < lastCapacity_ - 1e-9;
    lastCapacity_ = capacity;
    records_.push_back(rec);
    bookkeeping_ += now() - b0;
    return result;
}

double
observeEstimate(const std::vector<phoenix::core::ReplanRecord> &history,
                double first, double end, double fingerprintSeconds,
                double observeSeconds, double runningPodsSeconds)
{
    const double poll = phoenix::core::ControllerConfig().pollPeriod;
    double replans = 0.0, walks = 0.0;
    for (size_t i = 0; i < history.size(); ++i) {
        const phoenix::core::ReplanRecord &r = history[i];
        if (r.detectedAt <= first || r.detectedAt > end)
            continue;
        replans += 1.0;
        // Polls after the replan up to its recovery (or the next replan,
        // which takes over the wait) each walk the running set.
        double until = r.recoveredAt >= 0.0 ? r.recoveredAt : end;
        if (i + 1 < history.size())
            until = std::min(until, history[i + 1].detectedAt);
        walks += std::floor((until - r.detectedAt) / poll + 1e-9);
    }
    return std::floor((end - first) / poll) * fingerprintSeconds +
           replans * observeSeconds + walks * runningPodsSeconds;
}

void
addControllerCounts(Report &report,
                    const std::vector<phoenix::core::ReplanRecord> &history)
{
    double deletes = 0, migrations = 0, restarts = 0;
    for (const phoenix::core::ReplanRecord &r : history) {
        deletes += static_cast<double>(r.deletes);
        migrations += static_cast<double>(r.migrations);
        restarts += static_cast<double>(r.restarts);
    }
    report.add("ctl.replans", static_cast<double>(history.size()), "count");
    report.add("ctl.deletes", deletes, "count");
    report.add("ctl.migrations", migrations, "count");
    report.add("ctl.restarts", restarts, "count");
}

void
addCoreMetrics(Report &report, const std::vector<ApplyRecord> &records,
               double estimatorSeconds, double globalRankSeconds)
{
    const auto field = [&](auto f) { return medianOver(records, f); };
    report.add("core.apply_s",
               field([](const ApplyRecord &r) { return r.wallSeconds; }),
               "s");
    report.add("core.plan_s",
               field([](const ApplyRecord &r) { return r.planSeconds; }),
               "s");
    report.add("core.estimator_s", estimatorSeconds, "s");
    report.add("core.global_rank_s", globalRankSeconds, "s");
    report.add("core.pack_s",
               field([](const ApplyRecord &r) { return r.packSeconds; }),
               "s");
    report.add(
        "core.pack_reconcile_s",
        field([](const ApplyRecord &r) { return r.reconcileSeconds; }),
        "s");
    report.add("core.actions",
               field([](const ApplyRecord &r) { return r.actions; }),
               "count");
    report.add("core.heap_pushes",
               field([](const ApplyRecord &r) { return r.heapPushes; }),
               "count");
    report.add("core.best_fit_probes",
               field([](const ApplyRecord &r) { return r.bestFitProbes; }),
               "count");
    report.add("core.kv_ops",
               field([](const ApplyRecord &r) { return r.kvOps; }),
               "count");
    const double ranked =
        sumOver(records, [](const ApplyRecord &r) { return r.ranked; });
    const double placed =
        sumOver(records, [](const ApplyRecord &r) { return r.placed; });
    report.add("core.placed_frac", ranked > 0.0 ? placed / ranked : 0.0,
               "fraction");
}

int
finish(Report &report, const Options &options)
{
    report.printText(options.workload + (options.trace ? " (traced)"
                                                       : " (untraced)"));
    const std::string line = options.trace
                                 ? report.json(kPerLayer, false)
                                 : report.json(kEndToEnd, true);
    for (const std::string &why : report.failures())
        std::cerr << "perfbench: check failed: " << why << "\n";
    std::cout << line << std::endl;
    return report.correct() ? 0 : 1;
}

} // namespace perfbench
