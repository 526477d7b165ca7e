/**
 * @file
 * Core domain types shared across Phoenix and AdaptLab: microservices,
 * applications with criticality tags and dependency graphs, and pod
 * references.
 */

#ifndef PHOENIX_SIM_TYPES_H
#define PHOENIX_SIM_TYPES_H

#include <compare>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/digraph.h"

namespace phoenix::sim {

using AppId = uint32_t;
using MsId = uint32_t;
using NodeId = uint32_t;

/**
 * Criticality tag: C1 (=1) is the most critical; larger numbers are
 * progressively more degradable (§3). Untagged microservices default to
 * C1, the highest level, per §5 "Partial Tagging".
 */
using Criticality = int;
constexpr Criticality kC1 = 1;
constexpr Criticality kDefaultCriticality = kC1;
constexpr Criticality kLowestCriticality = 10;

/**
 * Largest replica count a spec codec (kube manifests, check cases)
 * accepts for one service: it keeps a hostile spec from asking the
 * replica slot tables or the packer's per-replica loop for billions of
 * entries. Per-service counts that measure replicas (quorum, caps,
 * spread, PDB) share the bound.
 */
constexpr int kMaxReplicas = 1024;
/** Largest anti-affinity group id or group cap a spec codec accepts:
 * ids are matched by value and caps are counts, so neither indexes
 * anything and both may span the whole non-negative int. */
constexpr int kMaxGroupField = std::numeric_limits<int>::max();

/** One containerized microservice of an application. */
struct Microservice
{
    MsId id = 0;
    std::string name;
    /** Resource demand in normalized units (CPU millicores). */
    double cpu = 0.0;
    Criticality criticality = kDefaultCriticality;
    /** Replica count (Appendix D extension; 1 in the base system). */
    int replicas = 1;
    /**
     * Minimum replicas that must run for the microservice to count as
     * active. 0 (default) means all replicas — the Appendix D rule.
     * Stateless services behind a load balancer typically stay up at
     * reduced throughput with a quorum of replicas; AdaptLab uses
     * ceil(replicas/2).
     */
    int quorum = 0;

    // ---- Topology placement policy (all off by default) ----

    /** Anti-affinity group id within the application, or -1 for none.
     * Replicas of every service sharing a group id count against that
     * group's caps (see Application::placementGroups). */
    int antiAffinityGroup = -1;
    /** Max replicas of this service per node; 0 = unlimited. */
    int maxPerNode = 0;
    /** Max replicas of this service per zone; 0 = unlimited. */
    int maxPerZone = 0;
    /**
     * Minimum number of distinct zones the replica set must span
     * (0/1 = no spread requirement). Enforced as the implied per-zone
     * cap replicas - minZoneSpread + 1: any placement honoring the cap
     * that places >= minZoneSpread replicas necessarily spans
     * >= minZoneSpread zones, and under degradation the cap gracefully
     * limits how many survivors one zone may hold.
     */
    int minZoneSpread = 0;
    /**
     * PodDisruptionBudget: max replicas Phoenix's own preemption may
     * delete in one planning epoch; -1 = unlimited. A below-quorum
     * self-cleanup (the service ends fully down) is exempt — a
     * sub-quorum remnant serves nothing.
     */
    int pdbMaxUnavailable = -1;

    /** True when any placement constraint is set. */
    bool
    constrained() const
    {
        return antiAffinityGroup >= 0 || maxPerNode > 0 ||
               maxPerZone > 0 || minZoneSpread > 1 ||
               pdbMaxUnavailable >= 0;
    }

    /** Effective per-zone cap combining maxPerZone with the
     * minZoneSpread-implied cap; 0 = unlimited. */
    int
    effectiveZoneCap() const
    {
        int cap = maxPerZone;
        if (minZoneSpread > 1) {
            const int all = replicas > 1 ? replicas : 1;
            const int implied = all - minZoneSpread + 1;
            const int spread_cap = implied > 1 ? implied : 1;
            cap = cap > 0 ? (spread_cap < cap ? spread_cap : cap)
                          : spread_cap;
        }
        return cap;
    }

    /** Total demand across replicas. */
    double totalCpu() const { return cpu * replicas; }

    /** Effective activation quorum. */
    int
    quorumCount() const
    {
        const int all = replicas > 1 ? replicas : 1;
        if (quorum <= 0 || quorum > all)
            return all;
        return quorum;
    }

    /** Demand of the minimum viable (quorum) allocation. */
    double quorumCpu() const { return cpu * quorumCount(); }
};

/**
 * An anti-affinity group declared by an application: replicas of every
 * member service (Microservice::antiAffinityGroup == id) jointly count
 * against the group's per-node / per-zone caps. The YTsaurus cluster
 * model calls these vacancies.
 */
struct PlacementGroup
{
    int id = 0;
    /** Max member pods per node; 0 = unlimited. */
    int maxPerNode = 0;
    /** Max member pods per zone; 0 = unlimited. */
    int maxPerZone = 0;
};

/**
 * A tenant application: a set of microservices, optionally a dependency
 * graph over them (node ids == microservice ids), criticality tags, and
 * the operator-facing price it pays per unit of resource.
 */
struct Application
{
    AppId id = 0;
    std::string name;
    std::vector<Microservice> services;
    /** Anti-affinity groups services may join via antiAffinityGroup. */
    std::vector<PlacementGroup> placementGroups;
    /** Dependency graph; meaningful only when hasDependencyGraph. */
    graph::DiGraph dag;
    bool hasDependencyGraph = false;
    /** Revenue per activated unit of resource (LPCost's C_i). */
    double pricePerUnit = 1.0;
    /**
     * Namespace label "phoenix=enabled" (§5 Partial Tagging): only
     * subscribed applications take part in diagonal scaling. For
     * unsubscribed applications every container is treated as highest
     * criticality — Phoenix never degrades them below their peers.
     */
    bool phoenixEnabled = true;

    /** True when any service or group declares a placement policy. */
    bool
    topologyConstrained() const
    {
        if (!placementGroups.empty())
            return true;
        for (const auto &ms : services) {
            if (ms.constrained())
                return true;
        }
        return false;
    }

    /** Total resource demand of the application. */
    double
    totalDemand() const
    {
        double total = 0.0;
        for (const auto &ms : services)
            total += ms.totalCpu();
        return total;
    }

    /** Demand of the C1 (most critical) microservices only. */
    double
    criticalDemand() const
    {
        double total = 0.0;
        for (const auto &ms : services) {
            if (ms.criticality == kC1)
                total += ms.totalCpu();
        }
        return total;
    }
};

/**
 * Fingerprint of everything in an application set that planning,
 * packing or forecasting can observe: ids, prices, subscription,
 * every per-service size, tag, replica/quorum count and placement
 * policy, the placement groups, and the dependency edges. A
 * long-lived planner or forecaster reuses work computed for an app set
 * only while this value is unchanged.
 */
uint64_t fingerprintApps(const std::vector<Application> &apps);

/**
 * Identifies one replica pod of one microservice cluster-wide. The
 * base system runs one replica per microservice (replica == 0);
 * Appendix D's multi-replica extension indexes them.
 */
struct PodRef
{
    AppId app = 0;
    MsId ms = 0;
    uint32_t replica = 0;

    auto operator<=>(const PodRef &) const = default;
};

} // namespace phoenix::sim

#endif // PHOENIX_SIM_TYPES_H
