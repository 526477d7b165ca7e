/**
 * @file
 * Tests for the persistence store (core/store.h), the manifest loader
 * (kube/manifest.h), the RTO tracker (core/rto.h) and the §5 partial
 * tagging / subscription semantics.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "apps/overleaf.h"
#include "core/planner.h"
#include "core/rto.h"
#include "core/schemes.h"
#include "core/store.h"
#include "kube/manifest.h"

using namespace phoenix;
using namespace phoenix::core;
using sim::Application;
using sim::MsId;

namespace {

std::vector<Application>
sampleApps()
{
    apps::ServiceApp overleaf = apps::makeOverleaf(1);
    apps::assignCpuByTraffic(overleaf, 25.0, 0.5);
    overleaf.app.id = 0;
    overleaf.app.pricePerUnit = 1.75;

    Application plain;
    plain.id = 1;
    plain.name = "legacy app"; // space exercises escaping
    plain.phoenixEnabled = false;
    plain.services.resize(2);
    for (MsId m = 0; m < 2; ++m) {
        plain.services[m].id = m;
        plain.services[m].name = "svc" + std::to_string(m);
        plain.services[m].cpu = 1.5 + m;
        plain.services[m].criticality = 3;
        plain.services[m].replicas = 2 + static_cast<int>(m);
        plain.services[m].quorum = 1;
    }
    return {overleaf.app, plain};
}

} // namespace

TEST(Store, RoundTripPreservesEverything)
{
    const auto apps = sampleApps();
    const std::string text = serializeApps(apps);
    std::string error;
    const auto loaded = deserializeApps(text, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    ASSERT_EQ(loaded->size(), apps.size());

    for (size_t a = 0; a < apps.size(); ++a) {
        const auto &in = apps[a];
        const auto &out = (*loaded)[a];
        EXPECT_EQ(out.name, in.name);
        EXPECT_NEAR(out.pricePerUnit, in.pricePerUnit, 1e-9);
        EXPECT_EQ(out.phoenixEnabled, in.phoenixEnabled);
        EXPECT_EQ(out.hasDependencyGraph, in.hasDependencyGraph);
        ASSERT_EQ(out.services.size(), in.services.size());
        for (MsId m = 0; m < in.services.size(); ++m) {
            EXPECT_EQ(out.services[m].name, in.services[m].name);
            EXPECT_NEAR(out.services[m].cpu, in.services[m].cpu, 1e-9);
            EXPECT_EQ(out.services[m].criticality,
                      in.services[m].criticality);
            EXPECT_EQ(out.services[m].replicas,
                      in.services[m].replicas);
            EXPECT_EQ(out.services[m].quorum, in.services[m].quorum);
        }
        if (in.hasDependencyGraph) {
            EXPECT_EQ(out.dag.edgeCount(), in.dag.edgeCount());
            for (MsId u = 0; u < in.dag.nodeCount(); ++u) {
                for (MsId v : in.dag.successors(u))
                    EXPECT_TRUE(out.dag.hasEdge(u, v));
            }
        }
    }
}

TEST(Store, RejectsMalformedDocuments)
{
    std::string error;
    EXPECT_FALSE(deserializeApps("", &error).has_value());
    EXPECT_FALSE(deserializeApps("not-a-store\n", &error).has_value());
    EXPECT_FALSE(
        deserializeApps("phoenix-store v1\nms 0 x 1 1 1 0\n", &error)
            .has_value()); // ms outside app
    EXPECT_FALSE(deserializeApps(
                     "phoenix-store v1\napp 0 a 1 1 0\n", &error)
                     .has_value()); // unterminated
    EXPECT_FALSE(deserializeApps("phoenix-store v1\n"
                                 "app 0 a 1 1 0\nms 1 x 1 1 1 0\nend\n",
                                 &error)
                     .has_value()); // non-contiguous ids
}

TEST(Store, FileRoundTrip)
{
    const auto apps = sampleApps();
    const std::string path = "/tmp/phoenix_store_test.txt";
    ASSERT_TRUE(saveAppsToFile(apps, path));
    std::string error;
    const auto loaded = loadAppsFromFile(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->size(), apps.size());
    std::remove(path.c_str());
    EXPECT_FALSE(loadAppsFromFile(path).has_value());
}

TEST(Manifest, ParsesApplications)
{
    const std::string text = R"(# sample manifest
application: shop
price: 2.5
phoenix: enabled
services:
  - name: front
    cpu: 2.0
    criticality: 1
    replicas: 2
  - name: api
    cpu: 1.5
    criticality: 2
    upstream: [front]
  - name: recs
    cpu: 0.5
    criticality: 5
    upstream: [api]
---
application: legacy
phoenix: disabled
services:
  - name: monolith
    cpu: 4.0
)";
    std::string error;
    const auto apps = kube::parseManifest(text, &error);
    ASSERT_TRUE(apps.has_value()) << error;
    ASSERT_EQ(apps->size(), 2u);

    const auto &shop = (*apps)[0];
    EXPECT_EQ(shop.name, "shop");
    EXPECT_NEAR(shop.pricePerUnit, 2.5, 1e-9);
    EXPECT_TRUE(shop.phoenixEnabled);
    ASSERT_EQ(shop.services.size(), 3u);
    EXPECT_EQ(shop.services[0].replicas, 2);
    EXPECT_TRUE(shop.hasDependencyGraph);
    EXPECT_TRUE(shop.dag.hasEdge(0, 1));
    EXPECT_TRUE(shop.dag.hasEdge(1, 2));

    const auto &legacy = (*apps)[1];
    EXPECT_FALSE(legacy.phoenixEnabled);
    EXPECT_FALSE(legacy.hasDependencyGraph);
    // Untagged service defaults to C1.
    EXPECT_EQ(legacy.services[0].criticality, sim::kC1);
}

TEST(Manifest, RejectsBrokenInput)
{
    std::string error;
    EXPECT_FALSE(kube::parseManifest("application: x\n", &error)
                     .has_value()); // no services
    EXPECT_FALSE(
        kube::parseManifest("application: x\nservices:\n"
                            "  - name: a\n    cpu: 1\n"
                            "  - name: a\n    cpu: 1\n",
                            &error)
            .has_value()); // duplicate name
    EXPECT_FALSE(
        kube::parseManifest("application: x\nservices:\n"
                            "  - name: a\n    cpu: 1\n"
                            "    upstream: [ghost]\n",
                            &error)
            .has_value()); // unknown upstream
    EXPECT_FALSE(
        kube::parseManifest("application: x\nservices:\n"
                            "  - name: a\n",
                            &error)
            .has_value()); // missing cpu
}

TEST(PartialTagging, UnsubscribedAppsAreNeverDegradedFirst)
{
    // App 0 subscribed with a C5 service; app 1 unsubscribed with a
    // (nominally) C5 service. Capacity for three containers: the
    // subscribed app's C5 must be the one left out.
    Application subscribed;
    subscribed.id = 0;
    subscribed.services = {{0, "front", 2.0, 1, 1, 0},
                           {1, "extras", 2.0, 5, 1, 0}};
    Application legacy = subscribed;
    legacy.id = 1;
    legacy.phoenixEnabled = false;

    std::vector<Application> apps{subscribed, legacy};
    sim::ClusterState cluster;
    cluster.addNode(6.0);

    PhoenixScheme phoenix(Objective::Cost);
    const auto active = phoenix.apply(apps, cluster).activeSet(apps);
    EXPECT_TRUE(active[0][0]);
    EXPECT_FALSE(active[0][1]); // subscribed C5 degraded
    EXPECT_TRUE(active[1][0]);
    EXPECT_TRUE(active[1][1]); // unsubscribed treated as critical
}

TEST(Rto, TracksPerLevelRecovery)
{
    Application app;
    app.id = 0;
    app.services = {{0, "a", 1.0, 1, 1, 0},
                    {1, "b", 1.0, 2, 1, 0},
                    {2, "c", 1.0, 5, 1, 0}};
    std::vector<Application> apps{app};
    RtoTracker tracker(apps);

    auto snapshot = [&](bool a, bool b, bool c) {
        sim::ActiveSet active = sim::emptyActiveSet(apps);
        active[0][0] = a;
        active[0][1] = b;
        active[0][2] = c;
        return active;
    };

    tracker.record(0.0, snapshot(true, true, true));
    // Failure at t=100; C1 back at 160, C2 at 220, C5 never.
    tracker.record(120.0, snapshot(false, false, false));
    tracker.record(160.0, snapshot(true, false, false));
    tracker.record(220.0, snapshot(true, true, false));
    tracker.record(400.0, snapshot(true, true, false));

    EXPECT_NEAR(tracker.recoveryTime(0, 1, 100.0), 60.0, 1e-9);
    EXPECT_NEAR(tracker.recoveryTime(0, 2, 100.0), 120.0, 1e-9);
    EXPECT_LT(tracker.recoveryTime(0, 5, 100.0), 0.0);

    std::map<sim::AppId, RtoPolicy> policies;
    policies[0].maxSeconds = {{1, 90.0}, {2, 100.0}, {5, 600.0}};
    const auto outcomes = tracker.evaluate(policies, 100.0);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_FALSE(outcomes[0].violated); // C1: 60 <= 90
    EXPECT_TRUE(outcomes[1].violated);  // C2: 120 > 100
    EXPECT_TRUE(outcomes[2].violated);  // C5: never recovered
}

TEST(Manifest, StructuredErrorsCarryLineAndField)
{
    // Three documents: a good one, one with a bad numeric cpu, and a
    // duplicate of the first. The structured parser keeps the good
    // app and reports both errors with their line and field.
    const std::string text = "application: good\n"   // line 1
                             "services:\n"           // line 2
                             "  - name: web\n"       // line 3
                             "    cpu: 2.0\n"        // line 4
                             "---\n"                 // line 5
                             "application: broken\n" // line 6
                             "services:\n"           // line 7
                             "  - name: a\n"         // line 8
                             "    cpu: nope\n"       // line 9
                             "---\n"                 // line 10
                             "application: good\n"   // line 11
                             "services:\n"           // line 12
                             "  - name: web\n"       // line 13
                             "    cpu: 1.0\n";       // line 14
    const kube::ManifestParse parsed =
        kube::parseManifestStructured(text);
    ASSERT_EQ(parsed.apps.size(), 1u);
    EXPECT_EQ(parsed.apps[0].name, "good");
    ASSERT_EQ(parsed.errors.size(), 2u);

    EXPECT_EQ(parsed.errors[0].line, 9u);
    EXPECT_EQ(parsed.errors[0].field, "cpu");
    EXPECT_NE(parsed.errors[0].message.find("nope"),
              std::string::npos);

    // The duplicate fires when the last document finalizes (EOF).
    EXPECT_EQ(parsed.errors[1].line, 14u);
    EXPECT_EQ(parsed.errors[1].field, "application");
    EXPECT_NE(parsed.errors[1].message.find("duplicate application"),
              std::string::npos);
    EXPECT_NE(parsed.errors[1].toString().find("line 14"),
              std::string::npos);
}

TEST(Manifest, StructuredRejectsMalformedServiceNumbers)
{
    // Each value below is a prefix-parse trap (2.9, 1e3, 2x), out of
    // the check-case codec's bounds, or not a finite number: each must
    // reject its document with an error naming the field and quoting
    // the value.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"replicas", "2.9"},         {"replicas", "5000000000"},
        {"replicas", "1025"},        {"replicas", "0"},
        {"criticality", "1e3"},      {"criticality", "11"},
        {"criticality", "0"},        {"quorum", "-1"},
        {"quorum", "2x"},            {"maxPerNode", "1.5"},
        {"maxPerZone", "99999"},     {"minZoneSpread", "2.0"},
        {"pdbMaxUnavailable", "1e1"}, {"group", "-1"},
        {"cpu", "nan"},              {"cpu", "inf"},
        {"cpu", "1.5x"},             {"cpu", ""},
    };
    for (const auto &[field, value] : cases) {
        const std::string text =
            "application: x\n"                            // line 1
            "services:\n"                                 // line 2
            "  - name: a\n" +                             // line 3
            std::string(field == "cpu" ? "" : "    cpu: 1\n") +
            "    " + field + ": " + value + "\n";
        const size_t line = field == "cpu" ? 4 : 5;
        const kube::ManifestParse parsed =
            kube::parseManifestStructured(text);
        const std::string what = field + ": " + value;
        EXPECT_TRUE(parsed.apps.empty()) << what;
        ASSERT_EQ(parsed.errors.size(), 1u) << what;
        EXPECT_EQ(parsed.errors[0].line, line) << what;
        EXPECT_EQ(parsed.errors[0].field, field) << what;
        EXPECT_NE(parsed.errors[0].message.find("'" + value + "'"),
                  std::string::npos)
            << what << ": " << parsed.errors[0].message;
    }
}

TEST(Manifest, StructuredRejectsMalformedGroupPriceAndNodeNumbers)
{
    struct Case
    {
        std::string text;
        size_t line;
        std::string field;
    };
    const std::string services = "services:\n  - name: a\n    cpu: 1\n";
    const std::vector<Case> cases = {
        {"application: x\ngroups:\n  - id: 1.5\n" + services, 3, "id"},
        {"application: x\ngroups:\n  - id: 1\n    maxPerNode: -2\n" +
             services,
         4, "maxPerNode"},
        {"application: x\nprice: inf\n" + services, 2, "price"},
        {"application: x\nprice: 2.5.1\n" + services, 2, "price"},
        {"topology: t\nzones: [a]\nnodes:\n  - count: 2.5\n"
         "    cpus: 8\n",
         4, "count"},
        {"topology: t\nzones: [a]\nnodes:\n  - count: 2000000\n"
         "    cpus: 8\n",
         4, "count"},
        {"topology: t\nzones: [a]\nnodes:\n  - count: 2\n"
         "    cpus: nan\n",
         5, "cpus"},
    };
    for (const Case &c : cases) {
        const kube::ManifestParse parsed =
            kube::parseManifestStructured(c.text);
        EXPECT_TRUE(parsed.apps.empty()) << c.text;
        EXPECT_TRUE(parsed.topology.nodes.empty()) << c.text;
        ASSERT_EQ(parsed.errors.size(), 1u) << c.text;
        EXPECT_EQ(parsed.errors[0].line, c.line) << c.text;
        EXPECT_EQ(parsed.errors[0].field, c.field) << c.text;
    }
}

TEST(Manifest, StructuredDuplicateServicePointsAtEntry)
{
    // The duplicate-name error blames the second declaration line,
    // not the document separator or EOF.
    const std::string text = "application: x\n" // line 1
                             "services:\n"      // line 2
                             "  - name: a\n"    // line 3
                             "    cpu: 1\n"     // line 4
                             "  - name: a\n"    // line 5
                             "    cpu: 1\n";    // line 6
    const kube::ManifestParse parsed =
        kube::parseManifestStructured(text);
    EXPECT_TRUE(parsed.apps.empty());
    ASSERT_EQ(parsed.errors.size(), 1u);
    EXPECT_EQ(parsed.errors[0].line, 5u);
    EXPECT_EQ(parsed.errors[0].field, "name");
}

TEST(Manifest, StructuredRecoversAcrossDocuments)
{
    // A malformed middle document (missing cpu) must not poison the
    // documents on either side, and the error points at the entry's
    // declaration line.
    const std::string text = "application: one\n" // line 1
                             "services:\n"        // line 2
                             "  - name: a\n"      // line 3
                             "    cpu: 1\n"       // line 4
                             "---\n"              // line 5
                             "application: two\n" // line 6
                             "services:\n"        // line 7
                             "  - name: b\n"      // line 8
                             "---\n"              // line 9
                             "application: three\n"
                             "services:\n"
                             "  - name: c\n"
                             "    cpu: 3\n";
    const kube::ManifestParse parsed =
        kube::parseManifestStructured(text);
    ASSERT_EQ(parsed.apps.size(), 2u);
    EXPECT_EQ(parsed.apps[0].name, "one");
    EXPECT_EQ(parsed.apps[1].name, "three");
    // Ids are contiguous over the accepted apps.
    EXPECT_EQ(parsed.apps[0].id, 0u);
    EXPECT_EQ(parsed.apps[1].id, 1u);
    ASSERT_EQ(parsed.errors.size(), 1u);
    EXPECT_EQ(parsed.errors[0].line, 8u);
    EXPECT_EQ(parsed.errors[0].field, "cpu");
}
