/**
 * @file
 * Hot-path allocation tests: the PlanScratch/indexed-heap/BucketedKv
 * claim is "zero allocation in steady state", and this binary installs
 * the util/alloc_counter operator-new hook to assert it as a number.
 * Keep these in their own binary — the hook counts every allocation in
 * the process, so it must not be linked into unrelated suites.
 */

#include <gtest/gtest.h>

#include <optional>

#include "adaptlab/environment.h"
#include "core/packing.h"
#include "core/planner.h"
#include "core/schemes.h"
#include "sim/failure.h"
#include "util/alloc_counter.h"
#include "util/rng.h"

PHOENIX_INSTALL_ALLOC_COUNTER();

using namespace phoenix;
using namespace phoenix::core;

namespace {

adaptlab::Environment
mediumEnvironment()
{
    adaptlab::EnvironmentConfig config;
    config.nodeCount = 120;
    config.nodeCapacity = 32.0;
    config.demandFraction = 0.8;
    config.seed = 2024;
    config.alibaba.appCount = 8;
    config.alibaba.sizeScale = 0.05;
    config.resources.maxCpu = 16.0;
    return adaptlab::buildEnvironment(config);
}

} // namespace

TEST(HotPath, SteadyStatePlanAllocatesNothing)
{
    if (!util::allocCounterActive())
        GTEST_SKIP() << "alloc counter not installed (sanitizer build)";

    const adaptlab::Environment env = mediumEnvironment();
    const double capacity = env.cluster.healthyCapacity();

    Planner planner;
    // CostObjective::begin is stateless; FairObjective's water-fill
    // legitimately builds its share table per plan, so the zero-alloc
    // claim is asserted on the cost path.
    CostObjective cost;
    GlobalRank out;
    // Warm-up grows every scratch buffer to the workload's size.
    planner.planInto(env.apps, cost, capacity, out);

    const uint64_t steady = util::allocationsDuring(
        [&] { planner.planInto(env.apps, cost, capacity, out); });
    EXPECT_EQ(steady, 0u) << "planInto allocated on a warm scratch";
}

TEST(HotPath, FlatPackerAllocatesFarLessThanReference)
{
    if (!util::allocCounterActive())
        GTEST_SKIP() << "alloc counter not installed (sanitizer build)";

    const adaptlab::Environment env = mediumEnvironment();
    sim::ClusterState failed = env.cluster;
    sim::FailureInjector injector{util::Rng(99)};
    injector.failCapacityFraction(failed, 0.4);

    Planner planner;
    FairObjective fair;
    const GlobalRank ranked =
        planner.plan(env.apps, fair, failed.healthyCapacity());

    PackingOptions flat_options;
    PackingOptions ref_options;
    ref_options.referenceImpl = true;
    const PackingScheduler flat(flat_options);
    const PackingScheduler reference(ref_options);

    // Warm both scratch arenas, then compare steady-state passes.
    (void)flat.pack(env.apps, failed, ranked);
    (void)reference.pack(env.apps, failed, ranked);

    PackResult flat_result;
    PackResult ref_result;
    const uint64_t flat_allocs = util::allocationsDuring(
        [&] { flat_result = flat.pack(env.apps, failed, ranked); });
    const uint64_t ref_allocs = util::allocationsDuring([&] {
        ref_result = reference.pack(env.apps, failed, ranked);
    });
    // Both implementations pay the same unavoidable output cost: the
    // scratch ClusterState copy that becomes result.state (plus the
    // action vector). Subtract it so the comparison isolates the
    // bookkeeping allocations the flat packer is supposed to remove.
    const uint64_t copy_cost = util::allocationsDuring([&] {
        sim::ClusterState scratch = failed;
        (void)scratch;
    });

    // Identical packing decisions...
    EXPECT_EQ(flat_result.placed, ref_result.placed);
    EXPECT_EQ(flat_result.state.assignment(),
              ref_result.state.assignment());
    // ...but beyond the shared result copy the flat bookkeeping keeps
    // its indexes in the recycled scratch arena, while the reference
    // books rebuild map/set/multiset nodes every pass — so its
    // bookkeeping allocations must exceed the flat ones by a wide
    // margin.
    ASSERT_GE(flat_allocs, copy_cost);
    ASSERT_GE(ref_allocs, copy_cost);
    const uint64_t flat_book = flat_allocs - copy_cost;
    const uint64_t ref_book = ref_allocs - copy_cost;
    EXPECT_LT(flat_book * 2, ref_book)
        << "flat=" << flat_allocs << " reference=" << ref_allocs
        << " shared-copy=" << copy_cost;
}

TEST(HotPath, LongLivedSchemeReachesAllocationFloor)
{
    if (!util::allocCounterActive())
        GTEST_SKIP() << "alloc counter not installed (sanitizer build)";

    const adaptlab::Environment env = mediumEnvironment();
    sim::ClusterState failed = env.cluster;
    sim::FailureInjector injector{util::Rng(7)};
    injector.failCapacityFraction(failed, 0.3);

    // One controller epoch after another on the same scheme instance:
    // after the first apply, allocations per epoch must settle to a
    // constant (the unavoidable result/state copies), i.e. epoch 3
    // costs no more than epoch 2 — the scratch arenas stopped growing.
    PhoenixScheme scheme(Objective::Fair);
    (void)scheme.apply(env.apps, failed);
    const uint64_t second = util::allocationsDuring(
        [&] { (void)scheme.apply(env.apps, failed); });
    const uint64_t third = util::allocationsDuring(
        [&] { (void)scheme.apply(env.apps, failed); });
    EXPECT_LE(third, second);
    EXPECT_GT(second, 0u); // the result copies are real allocations
}

TEST(HotPath, ClusterStateCopyAllocatesPerNodeAndServiceNotPerPod)
{
    if (!util::allocCounterActive())
        GTEST_SKIP() << "alloc counter not installed (sanitizer build)";

    // A copy is one block per node pod list and per service slot table
    // plus the fixed top-level vectors; the pod count must not show.
    constexpr uint64_t kFixedBlocks = 5;
    constexpr uint32_t kNodes = 64;
    constexpr uint32_t kApps = 6;
    constexpr uint32_t kMsPerApp = 5;
    std::optional<uint64_t> previous;
    for (const uint32_t replicas : {4u, 16u, 64u}) {
        sim::ClusterState state;
        for (uint32_t n = 0; n < kNodes; ++n)
            state.addNode(1e6);
        sim::NodeId next = 0;
        for (uint32_t a = 0; a < kApps; ++a) {
            for (uint32_t m = 0; m < kMsPerApp; ++m) {
                for (uint32_t r = 0; r < replicas; ++r) {
                    ASSERT_TRUE(state.place(sim::PodRef{a * 7, m * 3, r},
                                            next, 1.0));
                    next = (next + 1) % kNodes;
                }
            }
        }
        const uint64_t services = kApps * kMsPerApp;
        const uint64_t copy = util::allocationsDuring([&] {
            sim::ClusterState scratch = state;
            (void)scratch;
        });
        EXPECT_LE(copy, kNodes + services + kFixedBlocks)
            << replicas << " replicas per service, "
            << state.assignment().size() << " pods";
        // Every node holds pods in each run: 16x the pods, same blocks.
        if (previous) {
            EXPECT_EQ(copy, *previous) << replicas << " replicas";
        }
        previous = copy;
    }
}
