/**
 * @file
 * Cluster state: nodes with capacities and health, and the assignment of
 * microservice pods to nodes. This is the substrate both the Phoenix
 * scheduler (which plans on a copy) and the mini-Kubernetes layer (which
 * holds the live state) operate on.
 */

#ifndef PHOENIX_SIM_CLUSTER_H
#define PHOENIX_SIM_CLUSTER_H

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "sim/types.h"

namespace phoenix::sim {

/** A server. */
struct Node
{
    NodeId id = 0;
    double capacity = 0.0;
    bool healthy = true;
    /** Failure-domain label (availability zone); static for the
     * node's lifetime. Zone 0 when the deployment has no topology. */
    uint32_t zone = 0;
};

/**
 * Mutable cluster state. Placement is capacity-checked; the class keeps
 * per-node used counters and a pod->node index consistent at all times.
 * Copying a ClusterState yields an independent scratch copy (used by the
 * packing module, which plans on a copy and defers execution to the
 * agent, §4.2).
 */
class ClusterState
{
  public:
    /** Add a node with the given capacity; returns its id. */
    NodeId addNode(double capacity, uint32_t zone = 0);

    size_t nodeCount() const { return nodes_.size(); }
    const Node &node(NodeId id) const { return nodes_.at(id); }
    uint32_t zoneOf(NodeId id) const { return nodes_.at(id).zone; }
    /** Number of distinct failure domains: max zone label + 1. */
    size_t zoneCount() const;

    /** Mark a node failed and evict everything on it.
     *  @return the pods that were evicted. */
    std::vector<PodRef> failNode(NodeId id);

    /** Bring a failed node back (empty). */
    void restoreNode(NodeId id);

    /**
     * Resize a node's capacity in place (degraded-node modeling: a
     * slow-not-dead node offers capacity * factor). The new capacity
     * is clamped up to the node's current usage so existing
     * placements stay valid — degradation never evicts.
     */
    void setNodeCapacity(NodeId id, double capacity);

    bool isHealthy(NodeId id) const { return nodes_.at(id).healthy; }

    /**
     * Place a pod consuming @p cpu on a node. Fails (returns false)
     * when the node is unhealthy, capacity would be exceeded, or the
     * pod is already placed somewhere.
     */
    bool place(const PodRef &pod, NodeId node, double cpu);

    /**
     * place() for a pod ordered after every pod already placed: the
     * same checks and the same usage accumulation, but the index
     * inserts land at the end in O(1) amortized. Snapshot builders
     * that walk pods in PodRef order use it; an out-of-order pod
     * falls back to place().
     */
    bool placeInOrder(const PodRef &pod, NodeId node, double cpu);

    /** Remove a pod; returns false when it was not placed. */
    bool evict(const PodRef &pod);

    /** Node currently hosting the pod, if any. */
    std::optional<NodeId> nodeOf(const PodRef &pod) const;

    bool isActive(const PodRef &pod) const
    {
        return assignment_.count(pod) > 0;
    }

    double used(NodeId id) const { return used_.at(id); }
    double
    remaining(NodeId id) const
    {
        const Node &n = nodes_.at(id);
        return n.healthy ? n.capacity - used_.at(id) : 0.0;
    }

    /** Pods on a node with their sizes. */
    const std::map<PodRef, double> &podsOn(NodeId id) const
    {
        return podsOn_.at(id);
    }

    /** All placed pods with their node. */
    const std::map<PodRef, NodeId> &assignment() const
    {
        return assignment_;
    }

    /** CPU size recorded for a placed pod. */
    double podCpu(const PodRef &pod) const;

    std::vector<NodeId> healthyNodes() const;

    double totalCapacity() const;
    double healthyCapacity() const;
    double usedCapacity() const;

    /** Fraction of healthy capacity in use (operator utilization). */
    double utilization() const;

  private:
    /** Node exists, is healthy and has room for @p cpu. */
    bool fits(NodeId node, double cpu) const;

    std::vector<Node> nodes_;
    std::vector<double> used_;
    std::vector<std::map<PodRef, double>> podsOn_;
    std::map<PodRef, NodeId> assignment_;
};

} // namespace phoenix::sim

#endif // PHOENIX_SIM_CLUSTER_H
