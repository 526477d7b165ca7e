/**
 * @file
 * Cluster state: nodes with capacities and health, and the assignment of
 * microservice pods to nodes. This is the substrate both the Phoenix
 * scheduler (which plans on a copy) and the mini-Kubernetes layer (which
 * holds the live state) operate on.
 */

#ifndef PHOENIX_SIM_CLUSTER_H
#define PHOENIX_SIM_CLUSTER_H

#include <cstddef>
#include <iterator>
#include <optional>
#include <span>
#include <utility>
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

/** One placed pod in a node's pod list, with its CPU size. */
struct NodePod
{
    PodRef pod;
    double cpu = 0.0;
};

class ClusterState;

/**
 * Read-only view of every placed pod and its node, iterated in
 * ascending PodRef order. Supports range-for with `[pod, node]`
 * (the iterator yields std::pair<PodRef, NodeId> by value), size(),
 * empty() and ==: two views are equal when they hold the same
 * (pod, node) pairs.
 */
class AssignmentView
{
  public:
    class iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using iterator_concept = std::forward_iterator_tag;
        using value_type = std::pair<PodRef, NodeId>;
        using difference_type = std::ptrdiff_t;
        using reference = value_type;
        using pointer = void;

        iterator() = default;

        value_type operator*() const;
        iterator &operator++();
        iterator
        operator++(int)
        {
            iterator old = *this;
            ++*this;
            return old;
        }
        bool operator==(const iterator &other) const = default;

      private:
        friend class AssignmentView;
        iterator(const ClusterState *state, size_t service, size_t replica);
        /** Move forward to the first occupied slot at or after here. */
        void settle();

        const ClusterState *state_ = nullptr;
        size_t service_ = 0;
        size_t replica_ = 0;
    };
    using const_iterator = iterator;

    explicit AssignmentView(const ClusterState &state) : state_(&state) {}

    iterator begin() const;
    iterator end() const;
    size_t size() const;
    bool empty() const { return size() == 0; }

    friend bool operator==(const AssignmentView &a, const AssignmentView &b);

  private:
    const ClusterState *state_;
};

/**
 * Mutable cluster state. Placement is capacity-checked; the class keeps
 * per-node used counters and a pod->node index consistent at all times.
 * Copying a ClusterState yields an independent scratch copy (used by the
 * packing module, which plans on a copy and defers execution to the
 * agent, §4.2).
 *
 * Storage is flat: one replica-slot vector {node, cpu} per service
 * (app, ms), found through a sorted vector of service keys, and one
 * PodRef-sorted (pod, cpu) vector per node. A copy is a handful of
 * contiguous vector copies (one block per node and per service), and
 * place/evict are a short binary search plus a small vector edit.
 * Memory is O(nodes + services + highest placed replica per service),
 * independent of how large the app ids are.
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
     *  @return the pods that were evicted, in ascending PodRef order. */
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
     * pod is already placed somewhere. Placing pods in ascending
     * PodRef order appends at the end of every table.
     */
    bool place(const PodRef &pod, NodeId node, double cpu);

    /** Remove a pod; returns false when it was not placed. */
    bool evict(const PodRef &pod);

    /** Node currently hosting the pod, if any. */
    std::optional<NodeId> nodeOf(const PodRef &pod) const;

    bool
    isActive(const PodRef &pod) const
    {
        return placedService(pod) != kNotPlaced;
    }

    double used(NodeId id) const { return used_.at(id); }
    double
    remaining(NodeId id) const
    {
        const Node &n = nodes_.at(id);
        return n.healthy ? n.capacity - used_.at(id) : 0.0;
    }

    /** Pods on a node with their sizes, in ascending PodRef order. */
    std::span<const NodePod> podsOn(NodeId id) const
    {
        return podsOn_.at(id);
    }

    /** All placed pods with their node, in ascending PodRef order. */
    AssignmentView assignment() const { return AssignmentView(*this); }

    /** CPU size recorded for a placed pod; 0 when it is not placed. */
    double podCpu(const PodRef &pod) const;

    std::vector<NodeId> healthyNodes() const;

    double totalCapacity() const;
    double healthyCapacity() const;
    double usedCapacity() const;

    /** Fraction of healthy capacity in use (operator utilization). */
    double utilization() const;

  private:
    friend class AssignmentView;

    /** A service's identity: the (app, ms) prefix of its PodRefs. */
    struct ServiceKey
    {
        AppId app = 0;
        MsId ms = 0;
        auto operator<=>(const ServiceKey &) const = default;
    };

    /** One replica slot; node == kNoNode when the replica is not placed. */
    struct Slot
    {
        NodeId node = kNoNode;
        double cpu = 0.0;
    };
    static constexpr NodeId kNoNode = ~NodeId{0};

    /** Node exists, is healthy and has room for @p cpu. */
    bool fits(NodeId node, double cpu) const;
    /** Position of @p key in services_, or where it would go. */
    size_t serviceLowerBound(const ServiceKey &key) const;
    /** services_ index of a placed pod's service, or kNotPlaced. */
    size_t placedService(const PodRef &pod) const;
    static constexpr size_t kNotPlaced = ~size_t{0};
    /** Empty the pod's slot and drop trailing empty slots. */
    void clearSlot(size_t service, uint32_t replica);

    std::vector<Node> nodes_;
    std::vector<double> used_;
    /** Per node, its pods sorted by PodRef. */
    std::vector<std::vector<NodePod>> podsOn_;
    /** Sorted service keys; slots_[i] belongs to services_[i]. */
    std::vector<ServiceKey> services_;
    /** Per service, replica-indexed slots; never ends in an empty one. */
    std::vector<std::vector<Slot>> slots_;
    /** Number of placed pods. */
    size_t placed_ = 0;
};

} // namespace phoenix::sim

#endif // PHOENIX_SIM_CLUSTER_H
