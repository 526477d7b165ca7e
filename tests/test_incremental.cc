/**
 * @file
 * Delta-bookkeeping tests for warm replanning: a long-lived
 * PhoenixScheme, fed by KubeCluster's dirty-node tracking across
 * realistic failure histories, must produce output bit-identical to a
 * from-scratch scheme applied to the same observed state at every
 * epoch.
 *
 * Four histories exercise the reconcile paths:
 *  - a kubelet flap inside the grace period (observed state never
 *    changes — the carried-over index must survive a no-op epoch);
 *  - a zone failing, partially recovering, then failing again
 *    (erase -> insert -> erase churn on the same nodes);
 *  - recovery of a node whose pods were re-homed elsewhere in the
 *    meantime (the node returns empty; its old index entries are
 *    stale on both key and membership);
 *  - the cluster growing between epochs (the node count changes, so
 *    the carried-over index must be rebuilt cold, then reconciled
 *    warm again on the next epoch).
 *
 * A closed-loop case checks that production takes the warm path: the
 * scheme a PhoenixController owns reuses its caches after a node
 * failure, with outputs equal to a fresh scheme's.
 */

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/schemes.h"
#include "kube/kube.h"
#include "obs/registry.h"

using namespace phoenix;
using namespace phoenix::core;
using namespace phoenix::kube;

namespace {

sim::Application
makeApp(const std::string &name, size_t services, double cpu,
        double price)
{
    sim::Application app;
    app.name = name;
    app.pricePerUnit = price;
    app.services.resize(services);
    for (sim::MsId m = 0; m < services; ++m) {
        app.services[m].id = m;
        app.services[m].cpu = cpu;
        app.services[m].criticality =
            1 + static_cast<int>(m % 5); // C1..C5 spread
    }
    return app;
}

/** A 12-node cluster with three apps of mixed size and price. */
struct Fixture
{
    sim::EventQueue events;
    KubeCluster cluster;

    Fixture() : cluster(events)
    {
        for (int n = 0; n < 12; ++n)
            cluster.addNode(16.0);
        cluster.addApplication(makeApp("a", 8, 2.0, 3.0));
        cluster.addApplication(makeApp("b", 6, 3.0, 1.0));
        cluster.addApplication(makeApp("c", 10, 1.5, 5.0));
        // Let the default scheduler place everything.
        events.runUntil(120.0);
    }
};

void
expectSameActions(const std::vector<Action> &got,
                  const std::vector<Action> &want, const char *when)
{
    ASSERT_EQ(got.size(), want.size()) << when;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << when << " action " << i;
        EXPECT_EQ(got[i].pod, want[i].pod) << when << " action " << i;
        EXPECT_EQ(got[i].from, want[i].from) << when << " action " << i;
        EXPECT_EQ(got[i].to, want[i].to) << when << " action " << i;
    }
}

/** Bit-identity of a long-lived scheme's outputs with a fresh one's
 * (op counters and timings may differ). */
void
expectSameOutputs(const SchemeResult &inc, const SchemeResult &ref,
                  const char *when)
{
    ASSERT_EQ(inc.plan, ref.plan) << when;
    expectSameActions(inc.pack.actions, ref.pack.actions, when);
    EXPECT_EQ(inc.pack.state.assignment(), ref.pack.state.assignment())
        << when;
    EXPECT_EQ(inc.pack.placed, ref.pack.placed) << when;
    EXPECT_EQ(inc.pack.complete, ref.pack.complete) << when;
}

/**
 * One controller epoch: drain the cluster's dirty-node hints into the
 * long-lived scheme, apply it to the observed state, and assert its
 * outputs are bit-identical to a cold from-scratch scheme on the same
 * state.
 */
void
epochIdentity(PhoenixScheme &warm, KubeCluster &cluster,
              Objective objective, const char *when)
{
    warm.noteDirtyNodes(cluster.drainDirtyNodes());
    const sim::ClusterState state = cluster.observedState();
    const auto &apps = cluster.apps();

    const SchemeResult inc = warm.apply(apps, state);
    PhoenixScheme fresh(objective);
    expectSameOutputs(inc, fresh.apply(apps, state), when);
}

/**
 * The scheme a controller owns in the closed-loop test: a long-lived
 * PhoenixScheme(Cost) that records, per epoch, whether the apply
 * reused the planner's caches (its core.replans_incremental delta),
 * its result, and a fresh scheme's result on the same observed state.
 */
class EpochRecorder : public ResilienceScheme
{
  public:
    struct Epoch
    {
        bool reused = false;
        SchemeResult result;
        SchemeResult fresh;
    };

    std::string name() const override { return inner_.name(); }

    void
    noteDirtyNodes(const std::vector<sim::NodeId> &nodes) override
    {
        inner_.noteDirtyNodes(nodes);
    }

    SchemeResult
    apply(const std::vector<sim::Application> &apps,
          const sim::ClusterState &current) override
    {
        Epoch epoch;
        const obs::ThreadMetricDelta delta;
        epoch.result = inner_.apply(apps, current);
        for (const auto &[name, value] : delta.finish())
            epoch.reused |= name == "core.replans_incremental" && value > 0;
        PhoenixScheme fresh(Objective::Cost);
        epoch.fresh = fresh.apply(apps, current);
        epochs.push_back(epoch);
        return epoch.result;
    }

    std::vector<Epoch> epochs;

  private:
    PhoenixScheme inner_{Objective::Cost};
};

/** Metrics on for one test (they default off), restored on exit. */
struct MetricsScope
{
    MetricsScope() { obs::setMetricsEnabled(true); }
    ~MetricsScope() { obs::setMetricsEnabled(false); }
};

} // namespace

TEST(Incremental, NodeFlapInsideGracePeriod)
{
    Fixture f;
    PhoenixScheme warm(Objective::Fair);
    epochIdentity(warm, f.cluster, Objective::Fair, "baseline");

    // Kubelet flaps but recovers before the 100 s grace period: the
    // node never goes NotReady and no pod moves, so the observed state
    // at the next epoch is unchanged — the pure cache-reuse path.
    f.cluster.stopKubelet(3);
    f.events.runUntil(f.events.now() + 40.0);
    f.cluster.startKubelet(3);
    f.events.runUntil(f.events.now() + 40.0);
    EXPECT_EQ(f.cluster.evictionEpisodes(3), 0u);
    epochIdentity(warm, f.cluster, Objective::Fair, "after flap");

    // And a genuine failure afterwards still reconciles correctly.
    f.cluster.stopKubelet(3);
    f.events.runUntil(f.events.now() + 150.0);
    epochIdentity(warm, f.cluster, Objective::Fair, "after real fail");
}

TEST(Incremental, ZoneFailPartialRecoverRefail)
{
    Fixture f;
    PhoenixScheme warm(Objective::Cost);
    epochIdentity(warm, f.cluster, Objective::Cost, "baseline");

    // "Zone" = nodes 0..3. Fail the whole zone.
    for (sim::NodeId n = 0; n <= 3; ++n)
        f.cluster.stopKubelet(n);
    f.events.runUntil(f.events.now() + 150.0);
    epochIdentity(warm, f.cluster, Objective::Cost, "zone down");

    // Partial recovery: half the zone comes back.
    f.cluster.startKubelet(0);
    f.cluster.startKubelet(1);
    f.events.runUntil(f.events.now() + 60.0);
    epochIdentity(warm, f.cluster, Objective::Cost, "partial recover");

    // Refail one of the recovered nodes.
    f.cluster.stopKubelet(1);
    f.events.runUntil(f.events.now() + 150.0);
    epochIdentity(warm, f.cluster, Objective::Cost, "refail");
}

TEST(Incremental, ConstrainedZoneFailRecoverDoesNotDrift)
{
    // Explicit zones + placement policies: a full zone failing and
    // recovering must not drift constrained placements between the
    // long-lived scheme and a cold one — the vacancy allocator
    // rebuilds per epoch, but the capacity index it filters is the
    // carried-over one.
    sim::EventQueue events;
    KubeCluster cluster(events);
    for (int n = 0; n < 12; ++n)
        cluster.addNode(16.0, static_cast<uint32_t>(n % 3));

    auto spread = makeApp("spread", 6, 2.0, 3.0);
    for (auto &ms : spread.services) {
        ms.replicas = 3;
        ms.quorum = 2;
        ms.minZoneSpread = 2;
        ms.pdbMaxUnavailable = 1;
    }
    cluster.addApplication(spread);

    auto grouped = makeApp("grouped", 4, 1.5, 1.5);
    sim::PlacementGroup group;
    group.id = 0;
    group.maxPerNode = 1;
    grouped.placementGroups.push_back(group);
    for (auto &ms : grouped.services)
        ms.antiAffinityGroup = 0;
    cluster.addApplication(grouped);

    cluster.addApplication(makeApp("free", 6, 1.0, 2.0));
    events.runUntil(120.0);

    PhoenixScheme warm(Objective::Cost);
    epochIdentity(warm, cluster, Objective::Cost, "baseline");

    // Zone 0 = nodes 0,3,6,9. Fail the whole failure domain.
    for (sim::NodeId n = 0; n < 12; n += 3)
        cluster.stopKubelet(n);
    events.runUntil(events.now() + 150.0);
    epochIdentity(warm, cluster, Objective::Cost, "zone down");

    // Let re-homing settle, then recover the zone.
    events.runUntil(events.now() + 120.0);
    epochIdentity(warm, cluster, Objective::Cost, "re-homed");
    for (sim::NodeId n = 0; n < 12; n += 3)
        cluster.startKubelet(n);
    events.runUntil(events.now() + 60.0);
    epochIdentity(warm, cluster, Objective::Cost, "zone recovered");
}

TEST(Incremental, RecoveryAfterPodsRehomed)
{
    Fixture f;
    PhoenixScheme warm(Objective::Fair);
    epochIdentity(warm, f.cluster, Objective::Fair, "baseline");

    // Fail a node and give the default scheduler time to re-home its
    // evicted pods onto the survivors.
    f.cluster.stopKubelet(5);
    f.events.runUntil(f.events.now() + 150.0);
    epochIdentity(warm, f.cluster, Objective::Fair, "node down");
    f.events.runUntil(f.events.now() + 120.0);
    epochIdentity(warm, f.cluster, Objective::Fair, "pods re-homed");

    // The node recovers empty: its remaining capacity is full again
    // while the re-homed pods keep their new homes.
    f.cluster.startKubelet(5);
    f.events.runUntil(f.events.now() + 60.0);
    epochIdentity(warm, f.cluster, Objective::Fair, "recovered empty");
}

TEST(Incremental, NodeCountChangeRebuildsIndex)
{
    Fixture f;
    PhoenixScheme warm(Objective::Cost);
    epochIdentity(warm, f.cluster, Objective::Cost, "baseline");

    // Knock a node out so the grown cluster has pods to re-place.
    f.cluster.stopKubelet(2);
    f.events.runUntil(f.events.now() + 150.0);
    epochIdentity(warm, f.cluster, Objective::Cost, "node down");

    // New nodes join: the node count no longer matches the carried-over
    // index, which must fall back to a cold rebuild.
    for (int n = 0; n < 4; ++n)
        f.cluster.addNode(8.0);
    f.events.runUntil(f.events.now() + 30.0);
    epochIdentity(warm, f.cluster, Objective::Cost, "grown");

    // The next epoch at the new size reconciles warm again.
    f.cluster.stopKubelet(13);
    f.events.runUntil(f.events.now() + 150.0);
    epochIdentity(warm, f.cluster, Objective::Cost, "refail after grow");
}

TEST(Incremental, ControllerReplansWarmAfterNodeFailure)
{
    const MetricsScope metrics;
    Fixture f;
    auto owned = std::make_unique<EpochRecorder>();
    EpochRecorder &recorder = *owned;
    PhoenixController controller(f.events, f.cluster, std::move(owned));

    // The first poll plans cold: nothing is cached yet.
    f.events.runUntil(f.events.now() + 30.0);
    ASSERT_EQ(recorder.epochs.size(), 1u);
    EXPECT_FALSE(recorder.epochs[0].reused);

    // A node fails; the survivors still hold every container, so the
    // next epoch replays the cached grant sequence against the lower
    // capacity instead of re-ranking.
    f.cluster.stopKubelet(3);
    f.events.runUntil(f.events.now() + 150.0);
    ASSERT_GE(recorder.epochs.size(), 2u);
    EXPECT_TRUE(recorder.epochs[1].reused);

    // And again when the node comes back.
    const size_t before_recovery = recorder.epochs.size();
    f.cluster.startKubelet(3);
    f.events.runUntil(f.events.now() + 60.0);
    ASSERT_GT(recorder.epochs.size(), before_recovery);
    EXPECT_TRUE(recorder.epochs[before_recovery].reused);

    EXPECT_EQ(controller.history().size(), recorder.epochs.size());
    for (size_t i = 0; i < recorder.epochs.size(); ++i) {
        const std::string when = "epoch " + std::to_string(i);
        expectSameOutputs(recorder.epochs[i].result,
                          recorder.epochs[i].fresh, when.c_str());
    }
}
