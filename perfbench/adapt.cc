/**
 * @file
 * adapt-100k: paper-scale AdaptLab failure trials (the Fig 8b
 * headline). A fixed cycle of independent capacity-fraction failure
 * trials runs through adaptlab::runFailureTrial on two long-lived
 * schemes, PhoenixCost and PhoenixFair, alternating, at failure rates
 * 0.5 and 0.45. Each trial gets its own environment of 100,000 16-CPU
 * nodes running 18 Alibaba-style applications (~2.36M pods), built
 * from the seed and the trial's index.
 */

#include <cstdio>
#include <iterator>
#include <memory>

#include "adaptlab/environment.h"
#include "adaptlab/runner.h"
#include "common.h"
#include "core/planner.h"
#include "sim/failure.h"
#include "sim/metrics.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

using namespace phoenix;

namespace {

/**
 * One cycle: the two schemes alternate over two failure rates, the
 * headline 0.5 and 0.45. The rates are close so the per-trial costs form
 * one cluster and the median does not straddle a gap.
 */
struct Cell
{
    core::Objective objective;
    double rate;
};
constexpr Cell kCycle[] = {
    {core::Objective::Cost, 0.5},
    {core::Objective::Fair, 0.5},
    {core::Objective::Cost, 0.45},
    {core::Objective::Fair, 0.45},
};
/** Host seconds of one cycle at full size, its four environment builds
 * included, on the reference machine (4-vCPU x86 VM). An untraced run
 * measures as many whole cycles as --seconds holds, at least one; each
 * pass of a traced run measures one. The work done — and every
 * deterministic output — depends only on the arguments, never on how
 * fast the host happens to be. */
constexpr double kCycleSeconds = 32.0;

/**
 * Trial k's environment, from (seed, k). One environment per trial, not
 * per run: on some environments a PhoenixCost apply runs three times
 * faster than on others with the same op counts, so a run on a single
 * environment would report that environment's speed.
 */
adaptlab::EnvironmentConfig
trialEnvironment(const Options &options, uint64_t trial)
{
    return environmentConfig(options.size == Size::Full ? 100000 : 2000,
                             util::cellSeed(options.seed, trial), 1);
}

struct Pass
{
    /** Environment build per trial: the set-up. */
    std::vector<double> setupSeconds;
    std::vector<size_t> pods;
    std::vector<double> trialSeconds;
    std::vector<double> applySeconds;
    std::vector<ApplyRecord> records;
    std::vector<adaptlab::TrialMetrics> metrics;
    std::vector<std::string> violations;
    uint64_t digest = 0;
    size_t failedTrials = 0;
    // Traced pass only: outside probes per trial.
    std::vector<double> copySeconds, injectSeconds, scoreSeconds;
    std::vector<double> estimatorSeconds, globalRankSeconds;
    std::vector<double> unattributed;
};

/**
 * Time the pieces of runFailureTrial that sit outside the scheme by
 * calling the same public functions on the same inputs: the cluster
 * copy, the failure injection, the scoring, and the two planner stages.
 * Scoring is probed on the post-failure state (the packed state is the
 * scheme's and stays inside the trial); it scores a cluster of the same
 * size with the same functions.
 */
void
probeTrial(const adaptlab::Environment &env, const Cell &cell,
           uint64_t seed, uint64_t id, Tracer &tracer, Pass &pass)
{
    sim::ClusterState cluster;
    {
        Scope span(&tracer, "probe.sim.cluster_copy", id);
        const double t0 = now();
        cluster = env.cluster;
        pass.copySeconds.push_back(now() - t0);
    }
    {
        Scope span(&tracer, "probe.sim.inject", id);
        const double t0 = now();
        sim::FailureInjector injector{util::Rng(seed)};
        injector.failCapacityFraction(cluster, cell.rate);
        pass.injectSeconds.push_back(now() - t0);
    }
    {
        Scope span(&tracer, "probe.sim.score", id);
        const double t0 = now();
        const auto before = sim::activeSetFromCluster(env.apps, env.cluster);
        double sink = sim::criticalFractionAvailability(env.apps, before) +
                      sim::criticalServiceAvailability(env.apps, before) +
                      sim::revenue(env.apps, before);
        const auto after = sim::activeSetFromCluster(env.apps, cluster);
        sink += sim::criticalFractionAvailability(env.apps, after) +
                sim::criticalServiceAvailability(env.apps, after) +
                sim::revenue(env.apps, after);
        const auto deviation =
            sim::fairShareDeviationPlaced(env.apps, cluster);
        sink += deviation.positive + cluster.utilization() +
                env.requestsServed(after);
        pass.scoreSeconds.push_back(now() - t0);
        span.arg("sink", sink);
    }
    core::Planner planner;
    core::AppRank appRank;
    {
        Scope span(&tracer, "probe.core.estimator", id);
        const double t0 = now();
        planner.priorityEstimatorInto(env.apps, appRank);
        pass.estimatorSeconds.push_back(now() - t0);
    }
    {
        std::unique_ptr<core::OperatorObjective> objective;
        if (cell.objective == core::Objective::Fair)
            objective = std::make_unique<core::FairObjective>();
        else
            objective = std::make_unique<core::CostObjective>();
        core::GlobalRank rank;
        Scope span(&tracer, "probe.core.global_rank", id);
        const double t0 = now();
        planner.globalRankInto(env.apps, appRank, *objective,
                               cluster.healthyCapacity(), rank);
        pass.globalRankSeconds.push_back(now() - t0);
    }
}

Pass
runPass(const Options &options, Tracer *tracer)
{
    Pass pass;
    TimedScheme cost(std::make_unique<core::PhoenixScheme>(
                         core::Objective::Cost),
                     tracer, options.corrupt, false);
    TimedScheme fair(std::make_unique<core::PhoenixScheme>(
                         core::Objective::Fair),
                     tracer, options.corrupt, false);
    const int cycles =
        options.size == Size::Tiny || options.trace
            ? 1
            : std::max(1, static_cast<int>(options.seconds / kCycleSeconds));
    const uint64_t trialBase = util::cellSeed(options.seed, 2);
    Digest digest;
    uint64_t id = 0;
    adaptlab::Environment env;
    for (int c = 0; c < cycles; ++c) {
        for (const Cell &cell : kCycle) {
            // Free the previous environment before building the next.
            env = adaptlab::Environment();
            {
                Scope span(tracer, "adaptlab.build_environment", id);
                const double t0 = now();
                env = adaptlab::buildEnvironment(
                    trialEnvironment(options, id));
                pass.setupSeconds.push_back(now() - t0);
            }
            pass.pods.push_back(env.cluster.assignment().size());
            TimedScheme &scheme =
                cell.objective == core::Objective::Cost ? cost : fair;
            const uint64_t seed = adaptlab::trialSeed(
                trialBase, cell.rate, static_cast<int>(id));
            scheme.setEpoch(id);
            const double kept = scheme.bookkeepingSeconds();
            const size_t applies = scheme.records().size();
            const size_t violations = scheme.violations().size();
            double wall = 0.0;
            adaptlab::TrialMetrics m;
            {
                Scope span(tracer, "adaptlab.trial", id);
                const double t0 = now();
                m = adaptlab::runFailureTrial(env, scheme, cell.rate, seed);
                wall = now() - t0;
                span.arg("rate", cell.rate);
            }
            // The decorator's digest + legality check ran inside the
            // trial; they are the benchmark's, not the trial's.
            wall -= scheme.bookkeepingSeconds() - kept;
            pass.trialSeconds.push_back(wall);
            if (scheme.records().size() != applies + 1) {
                pass.violations.push_back("trial did not call apply once");
                ++pass.failedTrials;
                continue;
            }
            const ApplyRecord &rec = scheme.records().back();
            pass.records.push_back(rec);
            pass.applySeconds.push_back(rec.wallSeconds);
            pass.metrics.push_back(m);
            const bool inRange =
                m.availability >= 0.0 && m.availability <= 1.0 + 1e-9 &&
                m.revenue >= 0.0 && m.revenue <= 1.0 + 1e-9;
            if (!inRange) {
                pass.violations.push_back(
                    "trial " + std::to_string(id) +
                    ": availability or revenue outside [0, 1]");
            }
            if (m.schemeFailed || !inRange ||
                scheme.violations().size() != violations)
                ++pass.failedTrials;
            digest.mix(rec.digest);
            digest.mixDouble(m.availability);
            digest.mixDouble(m.revenue);
            if (tracer) {
                probeTrial(env, cell, seed, id, *tracer, pass);
                pass.unattributed.push_back(
                    wall - rec.wallSeconds - pass.copySeconds.back() -
                    pass.injectSeconds.back() - pass.scoreSeconds.back());
            }
            ++id;
        }
    }
    for (const TimedScheme *scheme : {&cost, &fair}) {
        for (const std::string &v : scheme->violations())
            pass.violations.push_back(scheme->name() + ": " + v);
    }
    pass.digest = digest.h;
    return pass;
}

} // namespace

int
runAdapt(const Options &options)
{
    Report report;
    const Pass plain = runPass(options, nullptr);
    const adaptlab::EnvironmentConfig config = trialEnvironment(options, 0);
    report.note("one environment per trial: " +
                std::to_string(config.nodeCount) + " nodes, " +
                std::to_string(config.alibaba.appCount) + " apps");
    report.attempted = plain.trialSeconds.size();
    report.failed = plain.failedTrials;
    for (const std::string &v : plain.violations)
        report.fail(v);

    std::vector<double> avail, revenue;
    for (const auto &m : plain.metrics) {
        avail.push_back(m.availability);
        revenue.push_back(m.revenue);
    }
    const double failedFrac =
        static_cast<double>(report.failed) /
        static_cast<double>(std::max<size_t>(1, report.attempted));
    report.note("trials: " + std::to_string(plain.trialSeconds.size()) +
                ", decision digest " + hex(plain.digest));
    for (size_t i = 0; i < plain.records.size(); ++i) {
        const Cell &cell = kCycle[i % std::size(kCycle)];
        char line[160];
        std::snprintf(line, sizeof(line),
                      "trial %zu %s@%.2f: %zu pods, apply %.3f s, "
                      "trial %.3f s, probes %llu, actions %zu",
                      i,
                      cell.objective == core::Objective::Cost ? "Cost"
                                                              : "Fair",
                      cell.rate, plain.pods[i], plain.records[i].wallSeconds,
                      plain.trialSeconds[i],
                      static_cast<unsigned long long>(
                          plain.records[i].bestFitProbes),
                      plain.records[i].actions);
        report.note(line);
    }

    report.add("setup_s", median(plain.setupSeconds), "s");
    report.add("peak_rss_mib", peakRssMiB(), "MiB");
    report.add("epoch_p50_s", median(plain.applySeconds), "s");
    report.add("trial_p50_s", median(plain.trialSeconds), "s");
    report.add("crit_avail", mean(avail), "fraction");
    report.add("revenue", mean(revenue), "fraction");
    report.add("failed_frac", failedFrac, "fraction");
    if (!options.trace)
        return finish(report, options);

    Tracer tracer;
    const Pass traced = runPass(options, &tracer);
    if (traced.digest != plain.digest)
        report.fail("decision digest differs between traced and untraced "
                    "passes");
    for (const std::string &v : traced.violations)
        report.fail("traced: " + v);

    addCoreMetrics(report, traced.records, median(traced.estimatorSeconds),
                   median(traced.globalRankSeconds));
    report.add("sim.cluster_copy_s", median(traced.copySeconds), "s");
    report.add("sim.inject_s", median(traced.injectSeconds), "s");
    report.add("sim.score_s", median(traced.scoreSeconds), "s");
    report.add("adaptlab.trial_unattributed_s", median(traced.unattributed),
               "s");
    report.add("self.adaptlab_s", tracer.selfTime("adaptlab.trial"), "s");
    report.add("self.core_s", tracer.selfTime("core.apply"), "s");
    const double tracedTotal = sum(traced.trialSeconds);
    report.add("trace.unattributed_frac",
               tracedTotal > 0.0 ? sum(traced.unattributed) / tracedTotal : 0.0,
               "fraction");
    const double plainTotal = sum(plain.trialSeconds);
    report.add("trace.overhead_frac",
               plainTotal > 0.0 ? tracedTotal / plainTotal - 1.0 : 0.0, "fraction");
    report.add("trace.spans", static_cast<double>(tracer.spans().size()),
               "count");
    if (!options.traceFile.empty() && !tracer.write(options.traceFile))
        report.fail("cannot write " + options.traceFile);
    return finish(report, options);
}

} // namespace perfbench
