#include "cluster.h"

#include <algorithm>
#include <cassert>

namespace phoenix::sim {

namespace {
constexpr double kCapacityEps = 1e-9;
} // namespace

NodeId
ClusterState::addNode(double capacity, uint32_t zone)
{
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Node{id, capacity, true, zone});
    used_.push_back(0.0);
    podsOn_.emplace_back();
    return id;
}

size_t
ClusterState::zoneCount() const
{
    uint32_t max_zone = 0;
    for (const auto &n : nodes_)
        max_zone = std::max(max_zone, n.zone);
    return nodes_.empty() ? 0 : static_cast<size_t>(max_zone) + 1;
}

std::vector<PodRef>
ClusterState::failNode(NodeId id)
{
    std::vector<PodRef> evicted;
    Node &n = nodes_.at(id);
    if (!n.healthy)
        return evicted;
    n.healthy = false;
    for (const auto &[pod, cpu] : podsOn_[id]) {
        (void)cpu;
        evicted.push_back(pod);
        assignment_.erase(pod);
    }
    podsOn_[id].clear();
    used_[id] = 0.0;
    return evicted;
}

void
ClusterState::restoreNode(NodeId id)
{
    nodes_.at(id).healthy = true;
}

void
ClusterState::setNodeCapacity(NodeId id, double capacity)
{
    Node &n = nodes_.at(id);
    n.capacity = std::max(capacity, used_.at(id));
}

bool
ClusterState::fits(NodeId node, double cpu) const
{
    if (node >= nodes_.size())
        return false;
    const Node &n = nodes_[node];
    return n.healthy && !(used_[node] + cpu > n.capacity + kCapacityEps);
}

bool
ClusterState::place(const PodRef &pod, NodeId node, double cpu)
{
    if (!fits(node, cpu) || assignment_.count(pod))
        return false;
    assignment_[pod] = node;
    podsOn_[node][pod] = cpu;
    used_[node] += cpu;
    return true;
}

bool
ClusterState::placeInOrder(const PodRef &pod, NodeId node, double cpu)
{
    if (!assignment_.empty() && !(assignment_.rbegin()->first < pod))
        return place(pod, node, cpu);
    if (!fits(node, cpu))
        return false;
    // Ascending globally means ascending on every node too.
    assignment_.emplace_hint(assignment_.end(), pod, node);
    podsOn_[node].emplace_hint(podsOn_[node].end(), pod, cpu);
    used_[node] += cpu;
    return true;
}

bool
ClusterState::evict(const PodRef &pod)
{
    auto it = assignment_.find(pod);
    if (it == assignment_.end())
        return false;
    const NodeId node = it->second;
    auto pit = podsOn_[node].find(pod);
    assert(pit != podsOn_[node].end());
    used_[node] -= pit->second;
    if (used_[node] < 0.0)
        used_[node] = 0.0;
    podsOn_[node].erase(pit);
    assignment_.erase(it);
    return true;
}

std::optional<NodeId>
ClusterState::nodeOf(const PodRef &pod) const
{
    auto it = assignment_.find(pod);
    if (it == assignment_.end())
        return std::nullopt;
    return it->second;
}

double
ClusterState::podCpu(const PodRef &pod) const
{
    auto it = assignment_.find(pod);
    if (it == assignment_.end())
        return 0.0;
    return podsOn_[it->second].at(pod);
}

std::vector<NodeId>
ClusterState::healthyNodes() const
{
    std::vector<NodeId> out;
    for (const auto &n : nodes_) {
        if (n.healthy)
            out.push_back(n.id);
    }
    return out;
}

double
ClusterState::totalCapacity() const
{
    double total = 0.0;
    for (const auto &n : nodes_)
        total += n.capacity;
    return total;
}

double
ClusterState::healthyCapacity() const
{
    double total = 0.0;
    for (const auto &n : nodes_) {
        if (n.healthy)
            total += n.capacity;
    }
    return total;
}

double
ClusterState::usedCapacity() const
{
    double total = 0.0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].healthy)
            total += used_[i];
    }
    return total;
}

double
ClusterState::utilization() const
{
    const double healthy = healthyCapacity();
    if (healthy <= 0.0)
        return 0.0;
    return usedCapacity() / healthy;
}

} // namespace phoenix::sim
