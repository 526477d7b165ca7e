/**
 * @file
 * serve-cloudlab: the stock 25-node, 5-zone CloudLab testbed under
 * PhoenixCost with admission on, serving open-loop Poisson arrivals per
 * request class at 4x the nominal rates over a diurnal curve, while a
 * repeating timeline alternates a zone kill and a 50%-capacity crunch,
 * each followed by staggered recovery. Kube and packing are tiny at 25
 * nodes, so this is the control case for kube or packing changes; the
 * front end's dispatch, SLO tracking and admission do the host work.
 *
 * Each trial composes serve::runServe's pieces (event queue, kube,
 * controller, scenario runner, front end) so the scheme can be wrapped
 * in the timing decorator and the queue stepped in windows; trial 0 is
 * also run through serve::runServe itself and must match it exactly.
 */

#include <algorithm>
#include <memory>

#include "apps/cloudlab.h"
#include "common.h"
#include "core/controller.h"
#include "kube/kube.h"
#include "serve/frontend.h"
#include "serve/harness.h"
#include "sim/scenario.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

using namespace phoenix;

namespace {

constexpr size_t kZones = 5;
constexpr double kWarmupSec = 300.0;
constexpr double kFirstFault = 600.0;
/** One fault cycle: zone kill, recovery, crunch, recovery. */
constexpr double kCycleSec = 1200.0;
constexpr double kStaggerSec = 15.0;
/** Host seconds of one full-size trial and of the serve::runServe
 * reference trial on the reference machine (4-vCPU x86 VM); an untraced
 * run holds as many trials as --seconds leaves after the reference, at
 * least one. */
constexpr double kTrialHostSeconds = 2.8;
constexpr double kReferenceHostSeconds = 3.5;

struct FaultWindow
{
    double begin;
    double end;
};

struct TrialSpec
{
    serve::ServeConfig config;
    std::vector<FaultWindow> faults;
};

TrialSpec
trialSpec(const Options &options, uint64_t trial)
{
    TrialSpec spec;
    serve::ServeConfig &c = spec.config;
    const bool full = options.size == Size::Full;
    c.scheme = serve::ServeScheme::PhoenixCost;
    c.warmupSec = kWarmupSec;
    c.endTime = full ? 3000.0 : 1500.0;
    c.scenarioOptions.seed = util::cellSeed(options.seed, 22, trial);
    c.scenarioOptions.zoneCount = kZones;
    // Trial k kills zone k first, so every run covers the zones alike;
    // the seed draws the traffic and the crunch's nodes.
    size_t zone = static_cast<size_t>(trial % kZones);
    const size_t nodes = c.testbed.nodeCount;
    for (double t = kFirstFault; t + kCycleSec / 2 < c.endTime;
         t += kCycleSec) {
        // Zone kill, then the zone's nodes back one per stagger step.
        const double zoneBack = t + 300.0;
        c.scenario.failZone(t, zone).recoverAll(zoneBack, kStaggerSec);
        spec.faults.push_back(
            {t, zoneBack + kStaggerSec * static_cast<double>(nodes / kZones) +
                    60.0});
        // Capacity crunch to 50%: plan-aware shedding fires.
        const double crunch = t + kCycleSec / 2;
        const double crunchBack = crunch + 300.0;
        c.scenario.failCapacityFraction(crunch, 0.5)
            .recoverAll(crunchBack, kStaggerSec);
        spec.faults.push_back(
            {crunch, crunchBack + kStaggerSec * static_cast<double>(nodes) +
                         60.0});
        zone = (zone + 1) % kZones;
    }
    const apps::RateCurve day =
        apps::RateCurve::diurnal(c.endTime - kWarmupSec, 0.6, 1.5);
    for (const auto &[t, v] : day.points())
        c.frontend.curve.point(t + kWarmupSec, v);
    c.frontend.rpsScale = full ? 4.0 : 1.0;
    c.frontend.windowSec = 5.0;
    c.frontend.admission.enabled = true;
    c.frontend.seed = util::cellSeed(options.seed, 21, trial);
    return spec;
}

/** Counters a serving run is judged on; equal iff runs agree. */
struct Counters
{
    size_t offered = 0, served = 0, shed = 0, failed = 0;
    size_t criticalOffered = 0, criticalServed = 0;
    double criticalViolation = 0.0, nonCriticalViolation = 0.0;
    size_t replans = 0;
    size_t invariantViolations = 0;

    bool
    operator==(const Counters &o) const
    {
        return offered == o.offered && served == o.served &&
               shed == o.shed && failed == o.failed &&
               criticalViolation == o.criticalViolation &&
               nonCriticalViolation == o.nonCriticalViolation &&
               replans == o.replans &&
               invariantViolations == o.invariantViolations;
    }
};

Counters
fromReports(const std::vector<serve::ClassReport> &classes)
{
    Counters c;
    for (const serve::ClassReport &rep : classes) {
        if (rep.meta.criticality == sim::kC1) {
            c.criticalOffered += rep.offered;
            c.criticalServed += rep.served;
            c.criticalViolation += rep.sloViolationSeconds;
        } else {
            c.nonCriticalViolation += rep.sloViolationSeconds;
        }
    }
    return c;
}

struct Trial
{
    Counters counters;
    /** Assembly plus warm-up, up to the front end's start. */
    double setupSeconds = 0.0;
    /** The rest of the run, from the front end's start. */
    double runSeconds = 0.0;
    double steadySeconds = 0.0, steadySim = 0.0;
    double faultSeconds = 0.0, faultSim = 0.0;
    size_t events = 0;
    std::vector<ApplyRecord> records;
    /** Leading records that set-up made. */
    size_t setupApplies = 0;
    std::vector<core::ReplanRecord> history;
    std::vector<std::string> violations;
    uint64_t digest = 0;
    std::vector<double> observeSeconds, fingerprintSeconds, runningSeconds;
};

bool
inFault(const std::vector<FaultWindow> &faults, double t)
{
    for (const FaultWindow &f : faults) {
        if (t > f.begin && t <= f.end)
            return true;
    }
    return false;
}

/** serve::runServe's pieces, assembled the same way with the scheme
 * wrapped in the decorator. Members reference each other, so it lives
 * behind a pointer and never moves. */
struct System
{
    sim::EventQueue events;
    std::unique_ptr<kube::KubeCluster> cluster;
    TimedScheme *scheme = nullptr;
    std::unique_ptr<core::PhoenixController> controller;
    std::unique_ptr<sim::ScenarioRunner> runner;
    std::unique_ptr<serve::ServeFrontend> frontend;
};

std::unique_ptr<System>
buildSystem(const serve::ServeConfig &config, const Options &options,
            Tracer *tracer)
{
    auto sys = std::make_unique<System>();
    kube::KubeConfig kubeConfig = config.kube;
    // runServe forces the invariant sweep on; the composition matches.
    kubeConfig.validateInvariants = true;
    sys->cluster = std::make_unique<kube::KubeCluster>(sys->events,
                                                       kubeConfig);
    const apps::CloudLabTestbed testbed =
        apps::makeCloudLabTestbed(config.testbed);
    for (size_t n = 0; n < testbed.config.nodeCount; ++n)
        sys->cluster->addNode(testbed.config.cpusPerNode);
    for (const auto &sapp : testbed.serviceApps)
        sys->cluster->addApplication(sapp.app);
    auto scheme = std::make_unique<TimedScheme>(
        std::make_unique<core::PhoenixScheme>(core::Objective::Cost),
        tracer, options.corrupt, true);
    sys->scheme = scheme.get();
    sys->controller = std::make_unique<core::PhoenixController>(
        sys->events, *sys->cluster, std::move(scheme));
    sys->runner = std::make_unique<sim::ScenarioRunner>(
        sys->events, *sys->cluster, config.scenario,
        config.scenarioOptions);
    serve::FrontendConfig frontendConfig = config.frontend;
    frontendConfig.startAt = config.warmupSec;
    frontendConfig.endAt = config.endTime;
    sys->frontend = std::make_unique<serve::ServeFrontend>(
        sys->events, *sys->cluster, testbed.serviceApps, frontendConfig,
        sys->controller.get(), nullptr);
    return sys;
}

/** One trial on a fresh system: set-up (assembly and warm-up), then the
 * serving run. When traced, the serving run steps the queue in poll-sized
 * windows and kube observation is probed after each. */
Trial
runTrial(const TrialSpec &spec, const Options &options, uint64_t trialId,
         Tracer *tracer)
{
    const serve::ServeConfig &config = spec.config;
    Trial trial;
    // Set-up: assemble the system and run the warm-up (initial
    // scheduling, the first plan, pods starting) up to the front end's
    // start. The decorator's bookkeeping is the benchmark's; it is taken
    // out of both phases.
    const double s0 = now();
    std::unique_ptr<System> sys = buildSystem(config, options, tracer);
    sys->scheme->setEpoch(trialId * 1000000);
    {
        Scope span(tracer, "serve.setup", trialId * 1000000);
        sys->events.runUntil(config.warmupSec);
    }
    const double kept = sys->scheme->bookkeepingSeconds();
    trial.setupSeconds = now() - s0 - kept;
    trial.setupApplies = sys->scheme->records().size();
    sim::EventQueue &events = sys->events;
    const kube::KubeCluster &cluster = *sys->cluster;
    const TimedScheme *scheme = sys->scheme;
    const core::PhoenixController &controller = *sys->controller;
    const serve::ServeFrontend &frontend = *sys->frontend;

    const double poll = core::ControllerConfig().pollPeriod;
    if (tracer) {
        uint64_t id = 1;
        for (double t = config.warmupSec; t < config.endTime - 1e-9; ++id) {
            const double until = std::min(t + poll, config.endTime);
            sys->scheme->setEpoch(trialId * 1000000 + id);
            const double t0 = now();
            {
                Scope span(tracer, "sim.window", trialId * 1000000 + id);
                while (!events.empty() && events.nextEventAt() <= until) {
                    events.step();
                    ++trial.events;
                }
                events.runUntil(until);
            }
            const double dt = now() - t0;
            trial.runSeconds += dt;
            const double sim = until - t;
            if (inFault(spec.faults, until)) {
                trial.faultSeconds += dt;
                trial.faultSim += sim;
            } else {
                trial.steadySeconds += dt;
                trial.steadySim += sim;
            }
            {
                Scope span(tracer, "probe.kube.observe",
                           trialId * 1000000 + id);
                double t1 = now();
                const sim::ClusterState state = cluster.observedState();
                trial.observeSeconds.push_back(now() - t1);
                t1 = now();
                const uint64_t fp = cluster.observedReadyFingerprint() +
                                    static_cast<uint64_t>(
                                        cluster.observedReadyCapacity());
                trial.fingerprintSeconds.push_back(now() - t1);
                t1 = now();
                const auto running = cluster.runningPods();
                trial.runningSeconds.push_back(now() - t1);
                span.arg("sink", static_cast<double>(
                                     state.nodeCount() + running.size() +
                                     (fp & 1u)));
            }
            t = until;
        }
    } else {
        const double t0 = now();
        events.runUntil(config.endTime);
        trial.runSeconds = now() - t0;
    }
    trial.runSeconds -= scheme->bookkeepingSeconds() - kept;

    trial.counters = fromReports(frontend.report());
    trial.counters.offered = frontend.totalOffered();
    trial.counters.served = frontend.totalServed();
    trial.counters.shed = frontend.totalShed();
    trial.counters.failed = frontend.totalFailed();
    trial.counters.replans = controller.history().size();
    trial.counters.invariantViolations = cluster.invariantViolations();
    trial.records = scheme->records();
    trial.history = controller.history();
    trial.violations = scheme->violations();
    const Counters &c = trial.counters;
    if (c.offered != c.served + c.shed + c.failed)
        trial.violations.push_back("offered != served + shed + failed");
    if (c.invariantViolations)
        trial.violations.push_back(std::to_string(c.invariantViolations) +
                                   " kube invariant violations");
    Digest d;
    for (size_t v : {c.offered, c.served, c.shed, c.failed, c.replans,
                     c.criticalOffered, c.criticalServed})
        d.mix(v);
    d.mixDouble(c.criticalViolation);
    d.mixDouble(c.nonCriticalViolation);
    for (const ApplyRecord &r : trial.records)
        d.mix(r.digest);
    trial.digest = d.h;
    return trial;
}

struct Pass
{
    std::vector<Trial> trials;
    uint64_t digest = 0;
};

Pass
runPass(const std::vector<TrialSpec> &specs, const Options &options,
        Tracer *tracer)
{
    Pass pass;
    Digest d;
    for (uint64_t k = 0; k < specs.size(); ++k) {
        pass.trials.push_back(runTrial(specs[k], options, k, tracer));
        d.mix(pass.trials.back().digest);
    }
    pass.digest = d.h;
    return pass;
}

} // namespace

int
runServe(const Options &options)
{
    Report report;
    const size_t trials =
        options.size == Size::Tiny
            ? 1
            : static_cast<size_t>(std::max(
                  1.0, (options.seconds - kReferenceHostSeconds) /
                           kTrialHostSeconds));
    std::vector<TrialSpec> specs;
    for (uint64_t k = 0; k < trials; ++k)
        specs.push_back(trialSpec(options, k));

    const Pass plain = runPass(specs, options, nullptr);

    // The composition must be serve::runServe, decision for decision.
    const double r0 = now();
    const serve::ServeResult reference = serve::runServe(specs[0].config);
    const double runServeSeconds = now() - r0;
    Counters ref = fromReports(reference.classes);
    ref.offered = reference.offered;
    ref.served = reference.served;
    ref.shed = reference.shed;
    ref.failed = reference.failed;
    ref.replans = reference.replans;
    ref.invariantViolations = reference.invariantViolations;
    if (!(ref == plain.trials[0].counters))
        report.fail("composition counters differ from serve::runServe");

    Counters total;
    std::vector<double> setups, runs, applies, avail, revenue;
    double violation = 0.0;
    for (const Trial &t : plain.trials) {
        for (const std::string &v : t.violations)
            report.fail(v);
        total.offered += t.counters.offered;
        total.served += t.counters.served;
        total.shed += t.counters.shed;
        total.failed += t.counters.failed;
        total.criticalOffered += t.counters.criticalOffered;
        total.criticalServed += t.counters.criticalServed;
        violation += t.counters.criticalViolation;
        setups.push_back(t.setupSeconds);
        runs.push_back(t.runSeconds);
        for (const ApplyRecord &r : t.records) {
            applies.push_back(r.wallSeconds);
            if (r.capacityLoss) {
                avail.push_back(r.critAvail);
                revenue.push_back(r.revenue);
            }
        }
    }
    // The benchmark's operations are the trials; a trial fails when a
    // check does. Shed and failed requests are the modelled system's
    // degradation under the injected faults, reported as failed_frac.
    report.attempted = trials;
    for (const Trial &t : plain.trials)
        report.failed += t.violations.empty() ? 0 : 1;
    const double runTotal = sum(runs);
    const double failedFrac =
        static_cast<double>(total.failed + total.shed) /
        static_cast<double>(std::max<size_t>(1, total.offered));
    const double critGoodput =
        total.criticalOffered
            ? static_cast<double>(total.criticalServed) /
                  static_cast<double>(total.criticalOffered)
            : 1.0;
    report.note("trials: " + std::to_string(trials) + ", requests " +
                std::to_string(total.offered) + ", replans " +
                std::to_string(applies.size()) + ", decision digest " +
                hex(plain.digest));
    report.note("serve::runServe on trial 0: " +
                std::to_string(runServeSeconds) + " s");

    report.add("setup_s", median(setups), "s");
    report.add("peak_rss_mib", peakRssMiB(), "MiB");
    report.add("epoch_p50_s", median(applies), "s");
    report.add("trial_p50_s", median(runs), "s");
    report.add("crit_avail", mean(avail), "fraction");
    report.add("revenue", mean(revenue), "fraction");
    report.add("serve_kreq_per_s",
               static_cast<double>(total.offered) / runTotal / 1e3, "kreq/s");
    report.add("crit_slo_violation_s",
               violation / static_cast<double>(trials), "s");
    report.add("crit_goodput", critGoodput, "fraction");
    report.add("failed_frac", failedFrac, "fraction");
    if (!options.trace)
        return finish(report, options);

    Tracer tracer;
    const Pass traced = runPass(specs, options, &tracer);
    if (traced.digest != plain.digest)
        report.fail("decision digest differs between traced and untraced "
                    "passes");
    std::vector<ApplyRecord> records;
    std::vector<core::ReplanRecord> history;
    std::vector<double> observe, fingerprint, running;
    double steady = 0, steadySim = 0, fault = 0, faultSim = 0, window = 0;
    size_t events = 0;
    for (const Trial &t : traced.trials) {
        for (const std::string &v : t.violations)
            report.fail("traced: " + v);
        records.insert(records.end(), t.records.begin(), t.records.end());
        history.insert(history.end(), t.history.begin(), t.history.end());
        observe.insert(observe.end(), t.observeSeconds.begin(),
                       t.observeSeconds.end());
        fingerprint.insert(fingerprint.end(), t.fingerprintSeconds.begin(),
                           t.fingerprintSeconds.end());
        running.insert(running.end(), t.runningSeconds.begin(),
                       t.runningSeconds.end());
        steady += t.steadySeconds;
        steadySim += t.steadySim;
        fault += t.faultSeconds;
        faultSim += t.faultSim;
        window += t.runSeconds;
        events += t.events;
    }
    addCoreMetrics(report, records, 0.0, 0.0);
    report.add("kube.observe_state_s", median(observe), "s");
    report.add("kube.fingerprint_s", median(fingerprint), "s");
    report.add("kube.running_pods_s", median(running), "s");
    addControllerCounts(report, history);
    report.add("sim.events", static_cast<double>(events), "count");
    report.add("sim.us_per_event",
               events ? window * 1e6 / static_cast<double>(events) : 0.0,
               "us");
    report.add("serve.us_per_request",
               (steady + fault) * 1e6 /
                   static_cast<double>(std::max<size_t>(1, total.offered)),
               "us");
    report.add("serve.shed_frac",
               static_cast<double>(total.shed) /
                   static_cast<double>(std::max<size_t>(1, total.offered)),
               "fraction");
    report.add("serve.replans",
               static_cast<double>(history.size()) /
                   static_cast<double>(trials),
               "count");
    report.add("serve.steady_s_per_sim_h",
               steadySim > 0 ? steady / (steadySim / 3600.0) : 0.0, "s/h");
    report.add("serve.fault_s_per_sim_h",
               faultSim > 0 ? fault / (faultSim / 3600.0) : 0.0, "s/h");
    report.add("self.core_s", tracer.selfTime("core.apply"), "s");
    report.add("self.sim_s", tracer.selfTime("sim.window"), "s");
    // Unattributed: window time neither apply nor the estimated
    // observation calls cover. From outside, the front end's dispatch,
    // SLO tracking and admission all land here.
    double unattributed = window;
    for (size_t k = 0; k < traced.trials.size(); ++k) {
        const Trial &t = traced.trials[k];
        for (size_t i = t.setupApplies; i < t.records.size(); ++i)
            unattributed -= t.records[i].wallSeconds;
        unattributed -= observeEstimate(
            t.history, specs[k].config.warmupSec, specs[k].config.endTime,
            median(fingerprint), median(observe), median(running));
    }
    report.add("trace.unattributed_frac",
               window > 0 ? unattributed / window : 0.0, "fraction");
    report.add("trace.overhead_frac",
               runTotal > 0 ? window / runTotal - 1.0 : 0.0, "fraction");
    report.add("trace.spans", static_cast<double>(tracer.spans().size()),
               "count");
    if (!options.traceFile.empty() && !tracer.write(options.traceFile))
        report.fail("cannot write " + options.traceFile);
    return finish(report, options);
}

} // namespace perfbench
