/**
 * @file
 * Tests for the cluster substrate: state bookkeeping, failure
 * injection, operator metrics, and the discrete-event engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/failure.h"
#include "sim/metrics.h"
#include "util/rng.h"

using namespace phoenix;
using namespace phoenix::sim;

namespace {

Application
taggedApp(AppId id, const std::vector<int> &tags,
          const std::vector<double> &cpus = {})
{
    Application app;
    app.id = id;
    app.services.resize(tags.size());
    for (MsId m = 0; m < tags.size(); ++m) {
        app.services[m].id = m;
        app.services[m].criticality = tags[m];
        app.services[m].cpu = m < cpus.size() ? cpus[m] : 1.0;
    }
    return app;
}

} // namespace

TEST(ClusterState, PlacementBookkeeping)
{
    ClusterState cluster;
    const NodeId n0 = cluster.addNode(10.0);
    const NodeId n1 = cluster.addNode(5.0);

    EXPECT_TRUE(cluster.place(PodRef{0, 0}, n0, 4.0));
    EXPECT_TRUE(cluster.place(PodRef{0, 1}, n0, 6.0));
    EXPECT_FALSE(cluster.place(PodRef{0, 2}, n0, 0.5)); // full
    EXPECT_FALSE(cluster.place(PodRef{0, 0}, n1, 1.0)); // already placed

    EXPECT_NEAR(cluster.used(n0), 10.0, 1e-9);
    EXPECT_NEAR(cluster.remaining(n0), 0.0, 1e-9);
    EXPECT_EQ(cluster.nodeOf(PodRef{0, 1}), n0);
    EXPECT_NEAR(cluster.podCpu(PodRef{0, 1}), 6.0, 1e-9);

    EXPECT_TRUE(cluster.evict(PodRef{0, 0}));
    EXPECT_FALSE(cluster.evict(PodRef{0, 0}));
    EXPECT_NEAR(cluster.remaining(n0), 4.0, 1e-9);
}

TEST(ClusterState, FailAndRestore)
{
    ClusterState cluster;
    const NodeId n0 = cluster.addNode(10.0);
    cluster.addNode(10.0);
    cluster.place(PodRef{0, 0}, n0, 3.0);
    cluster.place(PodRef{0, 1}, n0, 2.0);

    const auto evicted = cluster.failNode(n0);
    EXPECT_EQ(evicted.size(), 2u);
    EXPECT_FALSE(cluster.isHealthy(n0));
    EXPECT_FALSE(cluster.isActive(PodRef{0, 0}));
    EXPECT_NEAR(cluster.remaining(n0), 0.0, 1e-9);
    EXPECT_NEAR(cluster.healthyCapacity(), 10.0, 1e-9);
    EXPECT_FALSE(cluster.place(PodRef{0, 0}, n0, 1.0));

    cluster.restoreNode(n0);
    EXPECT_TRUE(cluster.isHealthy(n0));
    EXPECT_TRUE(cluster.place(PodRef{0, 0}, n0, 1.0));
    // Double-fail is a no-op.
    cluster.failNode(n0);
    EXPECT_TRUE(cluster.failNode(n0).empty());
}

TEST(ClusterState, UtilizationExcludesFailedNodes)
{
    ClusterState cluster;
    cluster.addNode(10.0);
    cluster.addNode(10.0);
    cluster.place(PodRef{0, 0}, 0, 5.0);
    EXPECT_NEAR(cluster.utilization(), 0.25, 1e-9);
    cluster.failNode(1);
    EXPECT_NEAR(cluster.utilization(), 0.5, 1e-9);
}

namespace {

/**
 * Reference model of ClusterState's contract on ordered maps: the
 * pod->node index and per-node pod lists iterate by PodRef, usage is
 * accumulated with the same += / -= sequence.
 */
struct MapModel
{
    std::vector<double> capacity;
    std::vector<bool> healthy;
    std::vector<double> used;
    std::vector<std::map<PodRef, double>> podsOn;
    std::map<PodRef, NodeId> assignment;

    void
    addNode(double cap)
    {
        capacity.push_back(cap);
        healthy.push_back(true);
        used.push_back(0.0);
        podsOn.emplace_back();
    }

    bool
    place(const PodRef &pod, NodeId node, double cpu)
    {
        if (node >= capacity.size() || !healthy[node] ||
            used[node] + cpu > capacity[node] + 1e-9 ||
            assignment.count(pod))
            return false;
        assignment[pod] = node;
        podsOn[node][pod] = cpu;
        used[node] += cpu;
        return true;
    }

    bool
    evict(const PodRef &pod)
    {
        auto it = assignment.find(pod);
        if (it == assignment.end())
            return false;
        const NodeId node = it->second;
        used[node] -= podsOn[node].at(pod);
        if (used[node] < 0.0)
            used[node] = 0.0;
        podsOn[node].erase(pod);
        assignment.erase(it);
        return true;
    }

    std::vector<PodRef>
    failNode(NodeId node)
    {
        std::vector<PodRef> evicted;
        if (!healthy[node])
            return evicted;
        healthy[node] = false;
        for (const auto &[pod, cpu] : podsOn[node]) {
            evicted.push_back(pod);
            assignment.erase(pod);
        }
        podsOn[node].clear();
        used[node] = 0.0;
        return evicted;
    }
};

void
expectMatches(const ClusterState &state, const MapModel &model,
              const std::vector<PodRef> &universe)
{
    const std::vector<std::pair<PodRef, NodeId>> want(
        model.assignment.begin(), model.assignment.end());
    std::vector<std::pair<PodRef, NodeId>> got;
    for (const auto &[pod, node] : state.assignment())
        got.emplace_back(pod, node);
    ASSERT_EQ(got, want);
    ASSERT_EQ(state.assignment().size(), want.size());
    ASSERT_EQ(state.assignment().empty(), want.empty());
    if (!want.empty()) {
        ASSERT_EQ(*state.assignment().begin(), want.front());
    }

    ASSERT_EQ(state.nodeCount(), model.capacity.size());
    for (NodeId n = 0; n < model.capacity.size(); ++n) {
        using PodCpu = std::vector<std::pair<PodRef, double>>;
        PodCpu on;
        for (const auto &[pod, cpu] : state.podsOn(n))
            on.emplace_back(pod, cpu);
        const PodCpu want_on(model.podsOn[n].begin(), model.podsOn[n].end());
        ASSERT_EQ(on, want_on) << "node " << n;
        // Bit-equal: the same += / -= sequence reaches used_.
        ASSERT_EQ(state.used(n), model.used[n]) << "node " << n;
        ASSERT_EQ(state.isHealthy(n), model.healthy[n]);
        const double remaining =
            model.healthy[n] ? model.capacity[n] - model.used[n] : 0.0;
        ASSERT_EQ(state.remaining(n), remaining) << "node " << n;
    }
    for (const PodRef &pod : universe) {
        auto it = model.assignment.find(pod);
        const bool placed = it != model.assignment.end();
        ASSERT_EQ(state.isActive(pod), placed);
        ASSERT_EQ(state.nodeOf(pod),
                  placed ? std::optional<NodeId>(it->second)
                         : std::nullopt);
        ASSERT_EQ(state.podCpu(pod),
                  placed ? model.podsOn[it->second].at(pod) : 0.0);
    }
}

} // namespace

TEST(ClusterStateModel, RandomizedOpsMatchMapModel)
{
    // Sparse app ids (up to 1 << 30) and non-contiguous ms / replica
    // ids: storage must not scale with id size, and every lookup must
    // land on the right slot.
    const std::vector<AppId> app_ids = {0, 3, 17, 1u << 30};
    const std::vector<MsId> ms_ids = {0, 2, 7, 1000};
    const std::vector<uint32_t> replica_ids = {0, 1, 5, 9, 40};
    std::vector<PodRef> universe;
    for (AppId a : app_ids) {
        for (MsId m : ms_ids) {
            for (uint32_t r : replica_ids)
                universe.push_back(PodRef{a, m, r});
        }
    }

    for (uint64_t seed = 1; seed <= 6; ++seed) {
        util::Rng rng(seed);
        ClusterState state;
        MapModel model;
        const int nodes = 6;
        for (int n = 0; n < nodes; ++n) {
            const double cap = rng.uniform(6.0, 14.0);
            state.addNode(cap);
            model.addNode(cap);
        }
        // Snapshots taken along the way; each must stay equal to its
        // own model after the live state moves on.
        std::vector<std::pair<ClusterState, MapModel>> snapshots;
        ClusterState reassigned;
        reassigned.addNode(1.0);
        reassigned.place(PodRef{9, 9, 9}, 0, 0.5);

        for (int step = 0; step < 1500; ++step) {
            const int op = static_cast<int>(rng.uniformInt(0, 99));
            const PodRef pod = universe[static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(universe.size()) - 1))];
            const NodeId node =
                static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
            if (op < 50) {
                const double cpu = rng.uniform(0.1, 2.5);
                ASSERT_EQ(state.place(pod, node, cpu),
                          model.place(pod, node, cpu))
                    << "seed " << seed << " step " << step;
            } else if (op < 80) {
                ASSERT_EQ(state.evict(pod), model.evict(pod));
            } else if (op < 84) {
                ASSERT_EQ(state.failNode(node), model.failNode(node));
            } else if (op < 90) {
                state.restoreNode(node);
                model.healthy[node] = true;
            } else if (op < 94) {
                const double cap = rng.uniform(2.0, 16.0);
                state.setNodeCapacity(node, cap);
                model.capacity[node] = std::max(cap, model.used[node]);
            } else if (op < 97) {
                snapshots.emplace_back(state, model);
            } else {
                // Copy-assign over a state with other content.
                reassigned = state;
                expectMatches(reassigned, model, universe);
                ASSERT_TRUE(reassigned.assignment() == state.assignment());
            }
            expectMatches(state, model, universe);
        }

        for (const auto &[snap, snap_model] : snapshots) {
            expectMatches(snap, snap_model, universe);
            // == is equality of the (pod, node) pairs, whatever the
            // slot tables' history.
            EXPECT_EQ(snap.assignment() == state.assignment(),
                      snap_model.assignment == model.assignment);
            EXPECT_EQ(snap.assignment() != state.assignment(),
                      snap_model.assignment != model.assignment);
        }

        // A state rebuilt in reverse order from the model's pairs is
        // equal to the live one although its tables grew differently.
        ClusterState rebuilt;
        for (int n = 0; n < nodes; ++n)
            rebuilt.addNode(1e9);
        for (auto it = model.assignment.rbegin();
             it != model.assignment.rend(); ++it)
            ASSERT_TRUE(rebuilt.place(it->first, it->second, 1.0));
        EXPECT_TRUE(rebuilt.assignment() == state.assignment());
        if (!model.assignment.empty()) {
            rebuilt.evict(model.assignment.begin()->first);
            EXPECT_TRUE(rebuilt.assignment() != state.assignment());
        }
    }
}

TEST(ClusterStateModel, FailNodeEvictsInPodRefOrder)
{
    ClusterState state;
    const NodeId n = state.addNode(100.0);
    const std::vector<PodRef> pods = {{1u << 30, 0, 3}, {2, 5, 0},
                                      {2, 0, 7},        {0, 9, 1},
                                      {2, 0, 2},        {1u << 30, 0, 0}};
    for (const PodRef &pod : pods)
        ASSERT_TRUE(state.place(pod, n, 1.0));
    std::vector<PodRef> sorted = pods;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(state.failNode(n), sorted);
    EXPECT_TRUE(state.assignment().empty());
    EXPECT_TRUE(state.podsOn(n).empty());
}

TEST(FailureInjector, HitsCapacityTarget)
{
    ClusterState cluster;
    for (int n = 0; n < 100; ++n)
        cluster.addNode(10.0);
    FailureInjector injector{util::Rng(3)};
    const auto event = injector.failCapacityFraction(cluster, 0.4);
    EXPECT_GE(event.failedCapacity, 0.4 * 1000.0 - 1e-9);
    // At 10 units per node, no more than one node of overshoot.
    EXPECT_LE(event.failedCapacity, 0.4 * 1000.0 + 10.0 + 1e-9);
    EXPECT_NEAR(cluster.healthyCapacity(),
                1000.0 - event.failedCapacity, 1e-9);

    const auto restored = injector.restoreAll(cluster);
    EXPECT_EQ(restored.size(), event.failedNodes.size());
    EXPECT_NEAR(cluster.healthyCapacity(), 1000.0, 1e-9);
}

TEST(FailureInjector, NodeCountVariant)
{
    ClusterState cluster;
    for (int n = 0; n < 10; ++n)
        cluster.addNode(5.0);
    FailureInjector injector{util::Rng(4)};
    const auto event = injector.failNodeCount(cluster, 3);
    EXPECT_EQ(event.failedNodes.size(), 3u);
    EXPECT_EQ(cluster.healthyNodes().size(), 7u);
    // Requesting more than available fails everything.
    const auto rest = injector.failNodeCount(cluster, 100);
    EXPECT_EQ(rest.failedNodes.size(), 7u);
}

TEST(Metrics, CriticalAvailabilityAllOrNothing)
{
    auto apps = std::vector<Application>{taggedApp(0, {1, 1, 2}),
                                         taggedApp(1, {1, 3})};
    ActiveSet active = emptyActiveSet(apps);
    EXPECT_NEAR(criticalServiceAvailability(apps, active), 0.0, 1e-9);

    active[0][0] = true;
    active[0][1] = true; // both C1 of app0 up
    active[1][0] = true; // app1's single C1 up
    EXPECT_NEAR(criticalServiceAvailability(apps, active), 1.0, 1e-9);

    active[0][1] = false; // one C1 down -> app0 unavailable
    EXPECT_NEAR(criticalServiceAvailability(apps, active), 0.5, 1e-9);
}

TEST(Metrics, RevenueNormalization)
{
    auto app0 = taggedApp(0, {1, 2}, {2.0, 2.0});
    auto app1 = taggedApp(1, {1}, {4.0});
    app0.pricePerUnit = 2.0; // full revenue 8
    app1.pricePerUnit = 1.0; // full revenue 4
    auto apps = std::vector<Application>{app0, app1};

    ActiveSet active = emptyActiveSet(apps);
    active[0][0] = true;
    active[1][0] = true;
    EXPECT_NEAR(revenue(apps, active), 8.0, 1e-9);
    EXPECT_NEAR(revenueNormalized(apps, active), 8.0 / 12.0, 1e-9);
}

TEST(Metrics, FairShareDeviationSplitsSign)
{
    auto apps = std::vector<Application>{
        taggedApp(0, {1, 1}, {5.0, 5.0}), taggedApp(1, {1}, {10.0})};
    // Capacity 10: water-fill share 5 each.
    ActiveSet active = emptyActiveSet(apps);
    active[0][0] = true;
    active[0][1] = true; // app0 uses 10 (5 above share)
    const auto dev = fairShareDeviation(apps, active, 10.0);
    EXPECT_NEAR(dev.positive, 0.5, 1e-9); // +5 normalized by 10
    EXPECT_NEAR(dev.negative, 0.5, 1e-9); // app1 5 below share
}

TEST(Metrics, DependencyCheck)
{
    Application app = taggedApp(0, {1, 2, 2});
    app.hasDependencyGraph = true;
    app.dag = graph::DiGraph(3);
    app.dag.addEdge(0, 1);
    app.dag.addEdge(1, 2);
    auto apps = std::vector<Application>{app};

    ActiveSet active = emptyActiveSet(apps);
    active[0][2] = true; // active with no active predecessor
    EXPECT_FALSE(respectsDependencies(apps, active));
    active[0][1] = true;
    EXPECT_FALSE(respectsDependencies(apps, active)); // 1 lacks pred
    active[0][0] = true;
    EXPECT_TRUE(respectsDependencies(apps, active));
}

TEST(AppFingerprint, CoversEveryPlannerVisibleField)
{
    // Warm planners and forecast-staged plans are reused only while
    // this fingerprint is unchanged, so a change to any field planning,
    // packing or forecasting reads must move it.
    std::vector<Application> base = {taggedApp(0, {1, 2, 3}),
                                      taggedApp(1, {2, 2})};
    base[0].dag = graph::DiGraph(3);
    base[0].dag.addEdge(0, 1);
    base[0].hasDependencyGraph = true;
    const uint64_t fp = fingerprintApps(base);
    EXPECT_EQ(fp, fingerprintApps(base));

    using Edit = void (*)(std::vector<Application> &);
    const std::vector<std::pair<const char *, Edit>> edits = {
        {"app id", [](auto &a) { a[1].id = 7; }},
        {"subscription", [](auto &a) { a[0].phoenixEnabled = false; }},
        {"price", [](auto &a) { a[0].pricePerUnit = 2.0; }},
        {"dag flag", [](auto &a) { a[0].hasDependencyGraph = false; }},
        {"dag edge", [](auto &a) { a[0].dag.addEdge(1, 2); }},
        {"service count", [](auto &a) { a[1].services.pop_back(); }},
        {"ms id", [](auto &a) { a[0].services[2].id = 9; }},
        {"cpu", [](auto &a) { a[0].services[0].cpu = 1.5; }},
        {"criticality", [](auto &a) { a[0].services[1].criticality = 4; }},
        {"replicas", [](auto &a) { a[0].services[1].replicas = 3; }},
        {"quorum", [](auto &a) { a[0].services[1].quorum = 1; }},
        {"group", [](auto &a) { a[0].services[1].antiAffinityGroup = 0; }},
        {"max per node", [](auto &a) { a[0].services[1].maxPerNode = 1; }},
        {"max per zone", [](auto &a) { a[0].services[1].maxPerZone = 1; }},
        {"zone spread", [](auto &a) { a[0].services[1].minZoneSpread = 2; }},
        {"pdb", [](auto &a) { a[0].services[1].pdbMaxUnavailable = 1; }},
        {"placement group",
         [](auto &a) { a[0].placementGroups.push_back({0, 1, 0}); }},
        {"app order", [](auto &a) { std::swap(a[0], a[1]); }},
    };
    for (const auto &[what, edit] : edits) {
        std::vector<Application> changed = base;
        edit(changed);
        EXPECT_NE(fingerprintApps(changed), fp) << what;
    }

    std::vector<Application> grouped = base;
    grouped[0].placementGroups.push_back({0, 1, 0});
    for (auto edit : {+[](PlacementGroup &g) { g.id = 1; },
                      +[](PlacementGroup &g) { g.maxPerNode = 2; },
                      +[](PlacementGroup &g) { g.maxPerZone = 1; }}) {
        std::vector<Application> changed = grouped;
        edit(changed[0].placementGroups[0]);
        EXPECT_NE(fingerprintApps(changed), fingerprintApps(grouped));
    }
}

TEST(EventQueue, OrderingAndTime)
{
    EventQueue queue;
    std::vector<int> fired;
    queue.schedule(5.0, [&] { fired.push_back(2); });
    queue.schedule(1.0, [&] { fired.push_back(1); });
    queue.schedule(5.0, [&] { fired.push_back(3); }); // FIFO tie-break
    queue.runAll();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_NEAR(queue.now(), 5.0, 1e-9);
}

TEST(EventQueue, HandlersScheduleMoreEvents)
{
    EventQueue queue;
    int count = 0;
    std::function<void()> tick = [&] {
        if (++count < 5)
            queue.scheduleAfter(10.0, tick);
    };
    queue.scheduleAfter(10.0, tick);
    queue.runUntil(35.0);
    EXPECT_EQ(count, 3);
    EXPECT_NEAR(queue.now(), 35.0, 1e-9);
    queue.runUntil(100.0);
    EXPECT_EQ(count, 5);
}

TEST(EventQueue, PastEventsClampToNow)
{
    EventQueue queue;
    queue.schedule(10.0, [] {});
    queue.runAll();
    bool fired = false;
    queue.schedule(1.0, [&] { fired = true; }); // in the past
    queue.runAll();
    EXPECT_TRUE(fired);
    EXPECT_NEAR(queue.now(), 10.0, 1e-9);
}

TEST(EventQueue, SameTimestampFifo)
{
    // Events scheduled for the same instant fire in schedule order —
    // the contract src/serve leans on: the capacity refresh is armed
    // before the arrival streams, so a request arriving at a refresh
    // instant sees that instant's ready state.
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        queue.schedule(5.0, [&order, i] { order.push_back(i); });
    queue.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, HandlerScheduledSameInstantRunsAfterExisting)
{
    // A handler scheduling another event *at the current instant*
    // runs it after everything already queued for that instant, and
    // still within the same runUntil call.
    EventQueue queue;
    std::vector<std::string> order;
    queue.schedule(5.0, [&] {
        order.push_back("first");
        queue.schedule(5.0, [&] { order.push_back("nested"); });
    });
    queue.schedule(5.0, [&] { order.push_back("second"); });
    queue.runUntil(5.0);
    EXPECT_EQ(order, (std::vector<std::string>{"first", "second",
                                               "nested"}));
    EXPECT_LT(queue.nextEventAt(), 0.0);
}
