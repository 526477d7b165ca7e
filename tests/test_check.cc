/**
 * @file
 * Unit tests for the src/check subsystem itself: case serialization,
 * generator determinism and bounds, the oracle's fixed points, the
 * fault-injection knob, and the shrinker (the acceptance bar: an
 * injected fault shrinks to a repro of at most 8 nodes and 3
 * services).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "check/case.h"
#include "check/fuzzer.h"
#include "check/generator.h"
#include "check/oracle.h"
#include "check/shrink.h"
#include "util/rng.h"

using namespace phoenix;
using check::CaseStep;
using check::CheckCase;
using check::FuzzOptions;
using check::GeneratorOptions;
using check::OracleOptions;
using check::ShrinkOptions;

namespace {

/** A handmade case that keeps every node completely full. */
CheckCase
fullClusterCase(int nodes)
{
    CheckCase c;
    c.name = "handmade-full";
    c.nodeCapacities.assign(nodes, 4.0);
    for (int a = 0; a < nodes; ++a) {
        sim::Application app;
        app.id = a;
        app.name = "app" + std::to_string(a);
        app.pricePerUnit = 1.0;
        app.services.resize(2);
        for (sim::MsId m = 0; m < 2; ++m) {
            app.services[m].id = m;
            app.services[m].criticality = 1 + static_cast<int>(m);
            app.services[m].cpu = 2.0;
        }
        c.apps.push_back(app);
    }
    return c;
}

} // namespace

// --- Case serialization ------------------------------------------------

TEST(CaseJson, RoundTripsGeneratedCases)
{
    for (uint64_t seed : {1ull, 17ull, 923ull}) {
        const CheckCase original = check::generateCase(seed);
        std::string error;
        const auto parsed =
            CheckCase::fromJson(original.toJson(), &error);
        ASSERT_TRUE(parsed.has_value()) << error;

        EXPECT_EQ(parsed->name, original.name);
        EXPECT_EQ(parsed->seed, original.seed);
        EXPECT_EQ(parsed->lifecycle, original.lifecycle);
        EXPECT_EQ(parsed->nodeCapacities, original.nodeCapacities);
        ASSERT_EQ(parsed->apps.size(), original.apps.size());
        for (size_t a = 0; a < original.apps.size(); ++a) {
            const auto &pa = parsed->apps[a];
            const auto &oa = original.apps[a];
            EXPECT_EQ(pa.id, oa.id);
            EXPECT_EQ(pa.phoenixEnabled, oa.phoenixEnabled);
            EXPECT_DOUBLE_EQ(pa.pricePerUnit, oa.pricePerUnit);
            ASSERT_EQ(pa.services.size(), oa.services.size());
            for (size_t m = 0; m < oa.services.size(); ++m) {
                EXPECT_DOUBLE_EQ(pa.services[m].cpu,
                                 oa.services[m].cpu);
                EXPECT_EQ(pa.services[m].criticality,
                          oa.services[m].criticality);
                EXPECT_EQ(pa.services[m].replicas,
                          oa.services[m].replicas);
                EXPECT_EQ(pa.services[m].quorum,
                          oa.services[m].quorum);
            }
            EXPECT_EQ(pa.hasDependencyGraph, oa.hasDependencyGraph);
            if (oa.hasDependencyGraph) {
                ASSERT_EQ(pa.dag.nodeCount(), oa.dag.nodeCount());
                for (size_t u = 0; u < oa.dag.nodeCount(); ++u) {
                    for (size_t v = 0; v < oa.dag.nodeCount(); ++v) {
                        EXPECT_EQ(pa.dag.hasEdge(u, v),
                                  oa.dag.hasEdge(u, v));
                    }
                }
            }
        }
        ASSERT_EQ(parsed->steps.size(), original.steps.size());
        for (size_t s = 0; s < original.steps.size(); ++s) {
            EXPECT_EQ(parsed->steps[s].kind, original.steps[s].kind);
            EXPECT_DOUBLE_EQ(parsed->steps[s].at,
                             original.steps[s].at);
            EXPECT_EQ(parsed->steps[s].nodes,
                      original.steps[s].nodes);
            EXPECT_DOUBLE_EQ(parsed->steps[s].downtime,
                             original.steps[s].downtime);
        }

        // Serialization is a fixed point: toJson(fromJson(x)) == x.
        EXPECT_EQ(parsed->toJson(), original.toJson());
    }
}

TEST(CaseJson, RejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(CheckCase::fromJson("{", &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(CheckCase::fromJson("[1,2]", &error).has_value());
    EXPECT_FALSE(CheckCase::fromJson("", &error).has_value());
}

TEST(CaseJson, RejectsNonIntegralAndOutOfRangeIntegerFields)
{
    // One node, one app with one service; @p service_fields and
    // @p app_fields splice extra members in.
    const auto make = [](const std::string &service_fields,
                         const std::string &app_fields = "",
                         const std::string &tail = "") {
        return "{\"name\": \"t\", \"nodes\": [8], " + tail +
               "\"apps\": [{\"services\": [{\"cpu\": 1" +
               service_fields + "}]" + app_fields + "}], \"steps\": []}";
    };
    std::string error;
    ASSERT_TRUE(CheckCase::fromJson(make(""), &error).has_value()) << error;
    ASSERT_TRUE(
        CheckCase::fromJson(make(", \"replicas\": 1024, \"quorum\": 3"),
                            &error)
            .has_value())
        << error;

    const std::vector<std::string> fields = {
        "criticality", "replicas",        "quorum",
        "group",       "max_per_node",    "max_per_zone",
        "min_zone_spread", "pdb_max_unavailable"};
    for (const std::string &field : fields) {
        for (const char *bad : {"1.5", "1e300", "-1e300", "-2", "2147483648",
                                "\"3\""}) {
            const std::string text =
                make(", \"" + field + "\": " + std::string(bad));
            error.clear();
            EXPECT_FALSE(CheckCase::fromJson(text, &error).has_value())
                << field << " = " << bad;
            EXPECT_NE(error.find(field), std::string::npos) << error;
        }
    }
    // Documented bounds: criticality in [1, 10], replicas in [1, 1024].
    for (const char *bad : {", \"criticality\": 0", ", \"criticality\": 11",
                            ", \"replicas\": 0", ", \"replicas\": 1025",
                            ", \"replicas\": 2147483647",
                            ", \"quorum\": 1025"}) {
        EXPECT_FALSE(CheckCase::fromJson(make(bad), &error).has_value())
            << bad;
    }

    // Placement-group id and caps, the app id, edges, zones and step
    // nodes are checked the same way.
    for (const char *group : {"{\"id\": 0.5}", "{\"id\": -1}",
                              "{\"max_per_node\": 1e12}",
                              "{\"max_per_zone\": -3}"}) {
        EXPECT_FALSE(CheckCase::fromJson(
                         make("", ", \"groups\": [" + std::string(group) +
                                      "]"),
                         &error)
                         .has_value())
            << group;
    }
    EXPECT_FALSE(
        CheckCase::fromJson(make("", ", \"id\": 4294967296"), &error)
            .has_value());
    EXPECT_FALSE(
        CheckCase::fromJson(make("", ", \"id\": 2.5"), &error).has_value());
    EXPECT_FALSE(CheckCase::fromJson(make("", ", \"edges\": [[0, 0.5]]"),
                                     &error)
                     .has_value());
    EXPECT_FALSE(CheckCase::fromJson(make("", "", "\"zones\": [1.5], "),
                                     &error)
                     .has_value());
    const std::string step_case =
        "{\"nodes\": [8], \"apps\": [], \"steps\": [{\"kind\": "
        "\"fail\", \"nodes\": [";
    EXPECT_TRUE(CheckCase::fromJson(step_case + "0]}]}", &error).has_value())
        << error;
    for (const char *bad : {"0.5", "-1", "1e300", "4294967296"}) {
        EXPECT_FALSE(CheckCase::fromJson(step_case + bad + "]}]}", &error)
                         .has_value())
            << bad;
    }
}

// --- Generator ---------------------------------------------------------

TEST(Generator, IsDeterministic)
{
    for (uint64_t seed : {2ull, 77ull, 4096ull}) {
        const CheckCase a = check::generateCase(seed);
        const CheckCase b = check::generateCase(seed);
        EXPECT_EQ(a.toJson(), b.toJson());
    }
    EXPECT_NE(check::generateCase(2).toJson(),
              check::generateCase(3).toJson());
}

TEST(Generator, RespectsBoundsAndGrids)
{
    GeneratorOptions options;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        const CheckCase c = check::generateCase(seed, options);
        ASSERT_GE(c.nodeCapacities.size(),
                  static_cast<size_t>(options.minNodes));
        ASSERT_LE(c.nodeCapacities.size(),
                  static_cast<size_t>(options.maxNodes));
        ASSERT_GE(c.apps.size(), static_cast<size_t>(options.minApps));
        ASSERT_LE(c.apps.size(), static_cast<size_t>(options.maxApps));
        for (double capacity : c.nodeCapacities) {
            EXPECT_LE(capacity, options.maxNodeCapacity);
            // 1.0 grid keeps the scale-by-2 metamorphic check exact.
            EXPECT_DOUBLE_EQ(capacity, std::round(capacity));
        }
        for (const auto &app : c.apps) {
            EXPECT_LE(app.services.size(),
                      static_cast<size_t>(options.maxServicesPerApp));
            for (const auto &ms : app.services) {
                EXPECT_GT(ms.cpu, 0.0);
                EXPECT_LE(ms.cpu, options.maxServiceCpu);
                // 0.25 grid.
                EXPECT_DOUBLE_EQ(ms.cpu * 4.0,
                                 std::round(ms.cpu * 4.0));
            }
        }
        for (const auto &step : c.steps) {
            for (sim::NodeId n : step.nodes)
                EXPECT_LT(n, c.nodeCapacities.size());
        }
    }
}

// --- Oracle ------------------------------------------------------------

TEST(Oracle, PostFailureStateFollowsTheScript)
{
    CheckCase c = fullClusterCase(3);
    c.steps.push_back({10.0, CaseStep::Kind::Fail, {0}, 0.0});

    sim::ClusterState post = check::postFailureState(c);
    EXPECT_FALSE(post.isHealthy(0));
    EXPECT_TRUE(post.isHealthy(1));

    // A recover step nets the node back out.
    c.steps.push_back({20.0, CaseStep::Kind::Recover, {0}, 0.0});
    post = check::postFailureState(c);
    EXPECT_TRUE(post.isHealthy(0));

    // A flap whose downtime has passed also ends healthy.
    c.steps.clear();
    c.steps.push_back({10.0, CaseStep::Kind::Flap, {1}, 30.0});
    post = check::postFailureState(c);
    EXPECT_TRUE(post.isHealthy(1));
}

TEST(Oracle, GeneratedCasesPassWithoutLp)
{
    OracleOptions options;
    options.runLp = false;
    options.lifecycle = false;
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        const CheckCase c = check::generateCase(seed);
        const auto result = check::checkCase(c, options);
        for (const auto &violation : result.violations) {
            ADD_FAILURE() << "seed " << seed << ": "
                          << violation.property << " ["
                          << violation.scheme << "] "
                          << violation.detail;
        }
    }
}

TEST(Oracle, InjectedFaultFires)
{
    // Every node of the handmade case packs full, so asserting
    // used <= 0.5 * capacity must fail — this is the deliberately
    // wrong invariant the shrinker demo runs against.
    CheckCase c = fullClusterCase(4);
    OracleOptions options;
    options.runLp = false;
    options.metamorphic = false;
    options.lifecycle = false;
    EXPECT_TRUE(check::checkCase(c, options).ok());

    options.injectTightCapacityFraction = 0.5;
    const auto result = check::checkCase(c, options);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.hasProperty("injected-tight-capacity"));
}

// --- Shrinker ----------------------------------------------------------

TEST(Shrinker, ShrinksInjectedFaultToATinyRepro)
{
    // Start from a deliberately bloated failing case and require the
    // shrinker to land inside the acceptance envelope: <= 8 nodes and
    // <= 3 services, still violating the same property.
    CheckCase c = fullClusterCase(8);
    c.steps.push_back({10.0, CaseStep::Kind::Fail, {7}, 0.0});

    OracleOptions oracle_options;
    oracle_options.runLp = false;
    oracle_options.metamorphic = false;
    oracle_options.lifecycle = false;
    oracle_options.injectTightCapacityFraction = 0.5;
    ASSERT_FALSE(check::checkCase(c, oracle_options).ok());

    const auto outcome = check::shrinkCase(c, oracle_options);
    EXPECT_GT(outcome.stepsApplied, 0u);
    EXPECT_LE(outcome.shrunk.nodeCapacities.size(), 8u);
    EXPECT_LE(outcome.shrunk.serviceCount(), 3u);
    ASSERT_FALSE(outcome.properties.empty());
    EXPECT_EQ(outcome.properties.front(), "injected-tight-capacity");

    // The shrunk case is a self-contained repro: it survives a JSON
    // round trip and still violates.
    std::string error;
    const auto parsed =
        CheckCase::fromJson(outcome.shrunk.toJson(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const auto replay = check::checkCase(*parsed, oracle_options);
    EXPECT_TRUE(replay.hasProperty("injected-tight-capacity"));
}

// --- Fuzzer loop -------------------------------------------------------

TEST(Fuzzer, RunIsDeterministicAndClean)
{
    FuzzOptions options;
    options.seed = 5;
    options.cases = 40;
    options.oracle.runLp = false;
    options.oracle.lifecycle = false;

    std::ostringstream log_a;
    std::ostringstream log_b;
    const auto a = check::runFuzz(options, log_a);
    const auto b = check::runFuzz(options, log_b);
    EXPECT_EQ(a.casesRun, 40u);
    EXPECT_EQ(a.failures, 0u);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.lpCostRuns, b.lpCostRuns);
    EXPECT_EQ(log_a.str(), log_b.str());
}

TEST(Fuzzer, InjectedFaultIsCaughtAndShrunk)
{
    FuzzOptions options;
    options.seed = 5;
    options.cases = 30;
    options.oracle.runLp = false;
    options.oracle.metamorphic = false;
    options.oracle.lifecycle = false;
    options.oracle.injectTightCapacityFraction = 0.05;

    std::ostringstream log;
    const auto stats = check::runFuzz(options, log);
    ASSERT_GT(stats.failures, 0u);
    const auto &failure = stats.failureList.front();
    EXPECT_EQ(failure.firstViolation.property,
              "injected-tight-capacity");
    EXPECT_FALSE(failure.shrunk.apps.empty());
    EXPECT_LE(failure.shrunk.serviceCount(),
              check::generateCase(failure.caseSeed).serviceCount());
    // cellSeed derivation makes the failing index re-runnable alone.
    EXPECT_EQ(failure.caseSeed,
              util::cellSeed(options.seed, failure.caseIndex));
}
