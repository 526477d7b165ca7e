/**
 * @file
 * Tests for the Phoenix packing scheduler (Algorithm 2): best-fit,
 * repacking/migration, deletion of lower-ranked containers, and the
 * capacity/consistency invariants of the produced plans.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/packing.h"
#include "core/planner.h"
#include "util/rng.h"

using namespace phoenix;
using namespace phoenix::core;
using sim::Application;
using sim::ClusterState;
using sim::MsId;
using sim::NodeId;
using sim::PodRef;

namespace {

Application
makeApp(sim::AppId id, const std::vector<double> &cpus)
{
    Application app;
    app.id = id;
    app.services.resize(cpus.size());
    for (MsId m = 0; m < cpus.size(); ++m) {
        app.services[m].id = m;
        app.services[m].cpu = cpus[m];
        app.services[m].criticality = 1;
    }
    return app;
}

/** Validate plan/state consistency: capacities honoured, actions sane. */
void
checkInvariants(const std::vector<Application> &apps,
                const ClusterState &before, const PackResult &result)
{
    (void)apps;
    // No node over capacity; placements only on healthy nodes.
    for (size_t n = 0; n < result.state.nodeCount(); ++n) {
        const auto id = static_cast<NodeId>(n);
        EXPECT_LE(result.state.used(id),
                  result.state.node(id).capacity + 1e-6);
        if (!result.state.isHealthy(id)) {
            EXPECT_TRUE(result.state.podsOn(id).empty());
        }
    }
    // Replaying the action log on `before` reproduces the final state.
    ClusterState replay = before;
    for (const Action &action : result.actions) {
        switch (action.kind) {
          case ActionKind::Delete:
            EXPECT_TRUE(replay.evict(action.pod));
            break;
          case ActionKind::Migrate: {
            const double cpu = replay.podCpu(action.pod);
            EXPECT_TRUE(replay.evict(action.pod));
            EXPECT_TRUE(replay.place(action.pod, action.to, cpu));
            break;
          }
          case ActionKind::Restart:
            EXPECT_TRUE(replay.place(
                action.pod, action.to,
                apps[action.pod.app].services[action.pod.ms].totalCpu()));
            break;
        }
    }
    EXPECT_EQ(replay.assignment(), result.state.assignment());
}

} // namespace

TEST(Packing, BestFitPrefersTightestNode)
{
    auto apps = std::vector<Application>{makeApp(0, {3.0})};
    ClusterState cluster;
    cluster.addNode(10.0);
    cluster.addNode(4.0); // tightest node that fits
    cluster.addNode(8.0);

    PackingScheduler packer;
    const GlobalRank ranked{PodRef{0, 0}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.state.nodeOf(PodRef{0, 0}), NodeId{1});
    checkInvariants(apps, cluster, result);
}

TEST(Packing, KeepsAlreadyRunningContainers)
{
    auto apps = std::vector<Application>{makeApp(0, {3.0, 2.0})};
    ClusterState cluster;
    cluster.addNode(10.0);
    cluster.place(PodRef{0, 0}, 0, 3.0);

    PackingScheduler packer;
    const GlobalRank ranked{PodRef{0, 0}, PodRef{0, 1}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.placed, 2u);
    EXPECT_EQ(result.state.nodeOf(PodRef{0, 0}), NodeId{0});
    // No action should touch the already-running pod.
    for (const Action &action : result.actions)
        EXPECT_FALSE(action.pod == (PodRef{0, 0}));
    checkInvariants(apps, cluster, result);
}

TEST(Packing, MigrationFreesFragmentedCapacity)
{
    // Node 0 (cap 6) holds pods 2+2; node 1 (cap 7) holds a 3.
    // Incoming container of size 5 fits nowhere by best-fit (free
    // space is 2 and 4) but fits on node 0 after migrating its two
    // 2-unit pods onto node 1.
    auto apps = std::vector<Application>{makeApp(0, {2.0, 2.0, 3.0, 5.0})};
    ClusterState cluster;
    cluster.addNode(6.0);
    cluster.addNode(7.0);
    cluster.place(PodRef{0, 0}, 0, 2.0);
    cluster.place(PodRef{0, 1}, 0, 2.0);
    cluster.place(PodRef{0, 2}, 1, 3.0);

    PackingScheduler packer;
    const GlobalRank ranked{PodRef{0, 3}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    ASSERT_TRUE(result.complete);
    EXPECT_TRUE(result.state.isActive(PodRef{0, 3}));
    // All previously running pods must still be active (migrated, not
    // deleted).
    EXPECT_TRUE(result.state.isActive(PodRef{0, 0}));
    EXPECT_TRUE(result.state.isActive(PodRef{0, 1}));
    EXPECT_TRUE(result.state.isActive(PodRef{0, 2}));
    bool saw_migration = false;
    for (const Action &action : result.actions)
        saw_migration |= action.kind == ActionKind::Migrate;
    EXPECT_TRUE(saw_migration);
    checkInvariants(apps, cluster, result);
}

TEST(Packing, MigrationDisabledFallsBackToDeletion)
{
    auto apps = std::vector<Application>{makeApp(0, {2.0, 2.0, 3.0, 5.0})};
    ClusterState cluster;
    cluster.addNode(6.0);
    cluster.addNode(6.0);
    cluster.place(PodRef{0, 0}, 0, 2.0);
    cluster.place(PodRef{0, 1}, 0, 2.0);
    cluster.place(PodRef{0, 2}, 1, 3.0);

    PackingOptions options;
    options.allowMigrations = false;
    PackingScheduler packer(options);
    // Rank the incoming pod above the small ones so deletion targets
    // the unranked/lower-ranked pods.
    const GlobalRank ranked{PodRef{0, 3}, PodRef{0, 0}, PodRef{0, 1},
                            PodRef{0, 2}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    EXPECT_TRUE(result.state.isActive(PodRef{0, 3}));
    bool saw_delete = false;
    for (const Action &action : result.actions)
        saw_delete |= action.kind == ActionKind::Delete;
    EXPECT_TRUE(saw_delete);
    checkInvariants(apps, cluster, result);
}

TEST(Packing, DeletesLowestRankedFirst)
{
    // Node of size 10 holds ranked pods A(4, rank1), B(4, rank2) and
    // unranked U(2). Incoming I(4, rank0) must evict U then B, not A.
    auto apps = std::vector<Application>{
        makeApp(0, {4.0, 4.0, 2.0, 4.0})};
    ClusterState cluster;
    cluster.addNode(10.0);
    cluster.place(PodRef{0, 0}, 0, 4.0); // A
    cluster.place(PodRef{0, 1}, 0, 4.0); // B
    cluster.place(PodRef{0, 2}, 0, 2.0); // U (unranked)

    PackingScheduler packer;
    const GlobalRank ranked{PodRef{0, 3}, PodRef{0, 0}, PodRef{0, 1}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    EXPECT_TRUE(result.state.isActive(PodRef{0, 3}));
    EXPECT_TRUE(result.state.isActive(PodRef{0, 0}));
    EXPECT_FALSE(result.state.isActive(PodRef{0, 2})); // U deleted first
    EXPECT_FALSE(result.state.isActive(PodRef{0, 1})); // then B
    checkInvariants(apps, cluster, result);
}

TEST(Packing, NeverDeletesHigherRankedForLower)
{
    // Capacity for one pod only; rank order must win.
    auto apps = std::vector<Application>{makeApp(0, {4.0, 4.0})};
    ClusterState cluster;
    cluster.addNode(4.0);
    cluster.place(PodRef{0, 0}, 0, 4.0);

    PackingScheduler packer;
    const GlobalRank ranked{PodRef{0, 0}, PodRef{0, 1}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    EXPECT_TRUE(result.state.isActive(PodRef{0, 0}));
    EXPECT_FALSE(result.state.isActive(PodRef{0, 1}));
    EXPECT_FALSE(result.complete);
    checkInvariants(apps, cluster, result);
}

TEST(Packing, IncompleteWhenTrulyOverCapacity)
{
    auto apps = std::vector<Application>{makeApp(0, {4.0, 4.0, 4.0})};
    ClusterState cluster;
    cluster.addNode(9.0);

    PackingScheduler packer;
    const GlobalRank ranked{PodRef{0, 0}, PodRef{0, 1}, PodRef{0, 2}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    EXPECT_FALSE(result.complete);
    EXPECT_EQ(result.placed, 2u);
    checkInvariants(apps, cluster, result);
}

TEST(Packing, EmptyRankIsNoop)
{
    auto apps = std::vector<Application>{makeApp(0, {1.0})};
    ClusterState cluster;
    cluster.addNode(4.0);
    cluster.place(PodRef{0, 0}, 0, 1.0);

    PackingScheduler packer;
    const PackResult result = packer.pack(apps, cluster, {});
    EXPECT_TRUE(result.complete);
    EXPECT_TRUE(result.actions.empty());
    EXPECT_TRUE(result.state.isActive(PodRef{0, 0}));
}

class PackingRandomized : public ::testing::TestWithParam<int>
{
};

TEST_P(PackingRandomized, InvariantsHoldUnderRandomFailures)
{
    util::Rng rng(GetParam() * 2654435761u + 3);

    // Random apps.
    const int app_count = static_cast<int>(rng.uniformInt(1, 4));
    std::vector<Application> apps;
    for (int a = 0; a < app_count; ++a) {
        const int services = static_cast<int>(rng.uniformInt(2, 12));
        std::vector<double> cpus;
        for (int m = 0; m < services; ++m)
            cpus.push_back(rng.uniform(0.5, 4.0));
        apps.push_back(makeApp(static_cast<sim::AppId>(a), cpus));
        for (auto &ms : apps.back().services) {
            ms.criticality =
                static_cast<int>(rng.uniformInt(1, 5));
        }
    }

    // Random cluster, initial placement of everything via a planner
    // pass, then random node failures.
    ClusterState cluster;
    const int nodes = static_cast<int>(rng.uniformInt(3, 12));
    for (int n = 0; n < nodes; ++n)
        cluster.addNode(rng.uniform(4.0, 12.0));

    Planner planner;
    FairObjective fair;
    const GlobalRank initial =
        planner.plan(apps, fair, cluster.healthyCapacity());
    PackingScheduler packer;
    PackResult placed = packer.pack(apps, cluster, initial);

    ClusterState failed = placed.state;
    const int kill = static_cast<int>(rng.uniformInt(0, nodes - 1));
    std::vector<NodeId> ids = failed.healthyNodes();
    rng.shuffle(ids);
    for (int k = 0; k < kill; ++k)
        failed.failNode(ids[k]);

    // Replan on the degraded cluster.
    const GlobalRank replan =
        planner.plan(apps, fair, failed.healthyCapacity());
    const PackResult result = packer.pack(apps, failed, replan);

    checkInvariants(apps, failed, result);
    // placed counts ranked pods only and never exceeds the rank size.
    EXPECT_LE(result.placed, replan.size());
    // Every pod the plan kept or placed is on a healthy node.
    for (const auto &[pod, node] : result.state.assignment()) {
        (void)pod;
        EXPECT_TRUE(result.state.isHealthy(node));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingRandomized,
                         ::testing::Range(0, 40));

TEST(Packing, ZeroVictimCandidateWithinSlackWinsDeletion)
{
    // Node 0 holds only the committed pod A and is 5e-10 short of B.
    // Within the 1e-9 placement slack it already fits, so the deletion
    // stage must pick it with zero victims even though it holds no
    // pod it could delete.
    const double short_by = 5e-10;
    auto apps = std::vector<Application>{makeApp(0, {0.5, 0.5 + short_by})};
    ClusterState cluster;
    cluster.addNode(1.0);
    cluster.place(PodRef{0, 0}, 0, 0.5);
    ASSERT_LT(cluster.remaining(0), apps[0].services[1].cpu);

    PackingOptions options;
    options.allowMigrations = false; // repack would take it first
    for (const bool reference : {false, true}) {
        options.referenceImpl = reference;
        PackingScheduler packer(options);
        const GlobalRank ranked{PodRef{0, 0}, PodRef{0, 1}};
        const PackResult result = packer.pack(apps, cluster, ranked);
        EXPECT_TRUE(result.complete) << "reference=" << reference;
        EXPECT_EQ(result.state.nodeOf(PodRef{0, 1}), NodeId{0})
            << "reference=" << reference;
        EXPECT_TRUE(result.state.isActive(PodRef{0, 0}));
        for (const Action &action : result.actions)
            EXPECT_NE(action.kind, ActionKind::Delete);
        checkInvariants(apps, cluster, result);
    }
}

TEST(Packing, RepackMovesPodAsLargeAsTheLargestFreeSpace)
{
    // Node 0 (cap 7) holds P(4): 3 free. Node 1 (cap 10) holds X(6):
    // 4 free, the index's largest key. Incoming I(7) fits nowhere, but
    // moving P — exactly as large as node 1's free space — clears
    // node 0. Repack must find that move instead of deleting X or P.
    auto apps = std::vector<Application>{makeApp(0, {7.0, 4.0, 6.0})};
    ClusterState cluster;
    cluster.addNode(7.0);
    cluster.addNode(10.0);
    cluster.place(PodRef{0, 1}, 0, 4.0); // P
    cluster.place(PodRef{0, 2}, 1, 6.0); // X

    PackingOptions options;
    for (const bool reference : {false, true}) {
        options.referenceImpl = reference;
        PackingScheduler packer(options);
        const GlobalRank ranked{PodRef{0, 0}};
        const PackResult result = packer.pack(apps, cluster, ranked);
        ASSERT_TRUE(result.complete) << "reference=" << reference;
        EXPECT_EQ(result.state.nodeOf(PodRef{0, 0}), NodeId{0});
        EXPECT_EQ(result.state.nodeOf(PodRef{0, 1}), NodeId{1});
        EXPECT_EQ(result.state.nodeOf(PodRef{0, 2}), NodeId{1});
        for (const Action &action : result.actions)
            EXPECT_NE(action.kind, ActionKind::Delete);
        checkInvariants(apps, cluster, result);
    }
}

namespace {

/** One tight packing input for the flat-vs-reference stress test. */
struct PressureCase
{
    std::vector<Application> apps;
    ClusterState state;
    GlobalRank ranked;
    PackingOptions options;
};

/**
 * Random inputs that keep pass 1 on its failure path: demand well
 * above capacity, survivors of ranked and unranked services scattered
 * over every node (so pass 1 commits some and leaves the rest
 * deletable), multi-replica services with quorums below and at their
 * replica count (so attempts roll back), and apps with per-node,
 * per-zone, spread and PDB constraints next to unconstrained ones.
 * Some cases also hold a pod outside the apps' replica range.
 */
PressureCase
makePressureCase(uint64_t seed)
{
    util::Rng rng(seed);
    PressureCase c;
    const double sizes[] = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0};
    const double capacities[] = {4.0, 6.0, 8.0, 12.0};
    const int zones = static_cast<int>(rng.uniformInt(1, 3));
    const int nodes = static_cast<int>(rng.uniformInt(3, 16));
    for (int n = 0; n < nodes; ++n) {
        c.state.addNode(capacities[rng.uniformInt(0, 3)],
                        static_cast<uint32_t>(n % zones));
    }

    const int app_count = static_cast<int>(rng.uniformInt(2, 6));
    for (int a = 0; a < app_count; ++a) {
        Application app;
        app.id = static_cast<sim::AppId>(a);
        const bool constrained = rng.bernoulli(0.4);
        if (constrained && rng.bernoulli(0.5))
            app.placementGroups.push_back(sim::PlacementGroup{0, 2, 0});
        const int services = static_cast<int>(rng.uniformInt(1, 6));
        for (int m = 0; m < services; ++m) {
            sim::Microservice ms;
            ms.id = static_cast<MsId>(m);
            ms.cpu = sizes[rng.uniformInt(0, 6)];
            ms.criticality = static_cast<int>(rng.uniformInt(1, 5));
            ms.replicas = static_cast<int>(rng.uniformInt(1, 4));
            ms.quorum = static_cast<int>(rng.uniformInt(0, ms.replicas));
            if (constrained) {
                switch (rng.uniformInt(0, 4)) {
                  case 0: ms.maxPerNode = 1; break;
                  case 1: ms.maxPerZone = 1; break;
                  case 2: ms.minZoneSpread = 2; break;
                  case 3:
                    ms.pdbMaxUnavailable =
                        static_cast<int>(rng.uniformInt(0, 1));
                    break;
                  default:
                    if (!app.placementGroups.empty())
                        ms.antiAffinityGroup = 0;
                    break;
                }
            }
            app.services.push_back(ms);
        }
        c.apps.push_back(std::move(app));
    }

    // Survivors: place most pods wherever they happen to fit.
    const double place_p = rng.uniform(0.4, 0.95);
    for (const Application &app : c.apps) {
        for (const auto &ms : app.services) {
            for (int r = 0; r < ms.replicas; ++r) {
                if (!rng.bernoulli(place_p))
                    continue;
                const auto node =
                    static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
                c.state.place(PodRef{app.id, ms.id,
                                     static_cast<uint32_t>(r)},
                              node, ms.cpu);
            }
        }
    }
    if (rng.bernoulli(0.25)) {
        const Application &app = c.apps[rng.uniformInt(0, app_count - 1)];
        const auto &ms = app.services.back();
        c.state.place(PodRef{app.id, ms.id,
                             static_cast<uint32_t>(ms.replicas)},
                      static_cast<NodeId>(rng.uniformInt(0, nodes - 1)),
                      ms.cpu);
    }
    const int kill = static_cast<int>(rng.uniformInt(0, nodes / 3));
    for (int k = 0; k < kill; ++k)
        c.state.failNode(static_cast<NodeId>(rng.uniformInt(0, nodes - 1)));

    // Rank a shuffled subset of the services; the rest stay unranked.
    for (const Application &app : c.apps) {
        for (const auto &ms : app.services) {
            if (rng.bernoulli(0.8))
                c.ranked.push_back(PodRef{app.id, ms.id, 0});
        }
    }
    rng.shuffle(c.ranked);

    c.options.allowMigrations = rng.bernoulli(0.85);
    c.options.allowDeletions = rng.bernoulli(0.9);
    c.options.abortOnUnplaceable = rng.bernoulli(0.15);
    return c;
}

void
expectSamePack(const PackResult &flat, const PackResult &ref,
               const std::string &what, bool same_kv_ops)
{
    ASSERT_EQ(flat.actions.size(), ref.actions.size()) << what;
    for (size_t i = 0; i < flat.actions.size(); ++i) {
        EXPECT_EQ(flat.actions[i].kind, ref.actions[i].kind) << what << i;
        EXPECT_EQ(flat.actions[i].pod, ref.actions[i].pod) << what << i;
        EXPECT_EQ(flat.actions[i].from, ref.actions[i].from) << what << i;
        EXPECT_EQ(flat.actions[i].to, ref.actions[i].to) << what << i;
    }
    EXPECT_EQ(flat.state.assignment(), ref.state.assignment()) << what;
    EXPECT_EQ(flat.placed, ref.placed) << what;
    EXPECT_EQ(flat.complete, ref.complete) << what;
    EXPECT_EQ(flat.ops.heapPushes, ref.ops.heapPushes) << what;
    EXPECT_EQ(flat.ops.heapPops, ref.ops.heapPops) << what;
    EXPECT_EQ(flat.ops.childSortElems, ref.ops.childSortElems) << what;
    EXPECT_EQ(flat.ops.bestFitProbes, ref.ops.bestFitProbes) << what;
    if (same_kv_ops) {
        EXPECT_EQ(flat.ops.kvOps, ref.ops.kvOps) << what;
    }
}

} // namespace

TEST(Packing, PodOutsideTheAppsIsADeletionCandidate)
{
    // Replica 1 of a one-replica service is outside the flat book's
    // dense pod index. It is the only pod on the only node, and
    // deleting it is the one way to fit the ranked service, so the
    // targeted deletion stage must find it under both bookkeepings —
    // same actions, same probe count.
    auto apps = std::vector<Application>{makeApp(0, {4.0, 4.0})};
    ClusterState cluster;
    cluster.addNode(4.0);
    const PodRef stray{0, 1, 1};
    cluster.place(stray, 0, 4.0);

    const GlobalRank ranked{PodRef{0, 0}};
    PackingOptions ref_options;
    ref_options.referenceImpl = true;
    const PackResult ref =
        PackingScheduler(ref_options).pack(apps, cluster, ranked);
    const PackResult flat = PackingScheduler().pack(apps, cluster, ranked);
    EXPECT_EQ(flat.state.nodeOf(PodRef{0, 0}), NodeId{0});
    EXPECT_FALSE(flat.state.isActive(stray));
    expectSamePack(flat, ref, "stray pod ", true);
}

class PackingPressure : public ::testing::TestWithParam<int>
{
};

/**
 * The flat and reference bookkeeping must make every repack and
 * deletion decision alike when those stages run on almost every
 * service: same actions, same final state, same op counters. Each
 * case is packed three times in a row, each round failing one more
 * node of the previous plan, so later rounds start from survivors the
 * packer itself placed, migrated and left uncommitted. A long-lived
 * flat scheduler replans the same rounds warm; only its kvOps may
 * differ.
 */
TEST_P(PackingPressure, FlatMatchesReferenceOnTheFailurePath)
{
    constexpr int kCasesPerSeed = 25;
    for (int k = 0; k < kCasesPerSeed; ++k) {
        const uint64_t seed =
            static_cast<uint64_t>(GetParam()) * kCasesPerSeed + k;
        PressureCase c = makePressureCase(seed * 7919 + 13);
        PackingOptions ref_options = c.options;
        ref_options.referenceImpl = true;
        const PackingScheduler warm(c.options);
        util::Rng rng(seed + 101);
        ClusterState state = c.state;
        for (int round = 0; round < 3; ++round) {
            const std::string what = "seed " + std::to_string(seed) +
                                     " round " + std::to_string(round) +
                                     " action ";
            const PackResult ref = PackingScheduler(ref_options)
                                       .pack(c.apps, state, c.ranked);
            const PackResult flat =
                PackingScheduler(c.options).pack(c.apps, state, c.ranked);
            expectSamePack(flat, ref, what, true);
            const PackResult reused = warm.pack(c.apps, state, c.ranked);
            expectSamePack(reused, ref, what + "(warm) ", false);
            if (::testing::Test::HasFailure())
                return;
            state = ref.state;
            const auto last = static_cast<int64_t>(state.nodeCount()) - 1;
            state.failNode(static_cast<NodeId>(rng.uniformInt(0, last)));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingPressure, ::testing::Range(0, 40));
