#include "types.h"

#include "util/fnv.h"

namespace phoenix::sim {

uint64_t
fingerprintApps(const std::vector<Application> &apps)
{
    util::Fnv1a fnv;
    fnv.mix(apps.size());
    for (const Application &app : apps) {
        fnv.mix(app.id);
        fnv.mix(app.phoenixEnabled ? 1 : 0);
        fnv.mixDouble(app.pricePerUnit);
        fnv.mix(app.hasDependencyGraph ? 1 : 0);
        fnv.mix(app.services.size());
        for (const Microservice &ms : app.services) {
            fnv.mix(ms.id);
            fnv.mixDouble(ms.cpu);
            fnv.mix(static_cast<uint64_t>(ms.criticality));
            fnv.mix(static_cast<uint64_t>(ms.replicas));
            fnv.mix(static_cast<uint64_t>(ms.quorum));
            fnv.mix(static_cast<uint64_t>(
                static_cast<int64_t>(ms.antiAffinityGroup)));
            fnv.mix(static_cast<uint64_t>(ms.maxPerNode));
            fnv.mix(static_cast<uint64_t>(ms.maxPerZone));
            fnv.mix(static_cast<uint64_t>(ms.minZoneSpread));
            fnv.mix(static_cast<uint64_t>(
                static_cast<int64_t>(ms.pdbMaxUnavailable)));
        }
        fnv.mix(app.placementGroups.size());
        for (const PlacementGroup &group : app.placementGroups) {
            fnv.mix(static_cast<uint64_t>(static_cast<int64_t>(group.id)));
            fnv.mix(static_cast<uint64_t>(group.maxPerNode));
            fnv.mix(static_cast<uint64_t>(group.maxPerZone));
        }
        if (app.hasDependencyGraph) {
            fnv.mix(app.dag.nodeCount());
            for (size_t u = 0; u < app.dag.nodeCount(); ++u) {
                const auto &succ =
                    app.dag.successors(static_cast<graph::NodeId>(u));
                fnv.mix(succ.size());
                for (auto v : succ)
                    fnv.mix(static_cast<uint64_t>(v));
            }
        }
    }
    return fnv.hash;
}

} // namespace phoenix::sim
