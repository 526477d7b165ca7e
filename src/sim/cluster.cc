#include "cluster.h"

#include <algorithm>
#include <cassert>

namespace phoenix::sim {

namespace {
constexpr double kCapacityEps = 1e-9;

/** Orders a node's pod list by PodRef, for lower_bound. */
bool
podBefore(const NodePod &entry, const PodRef &pod)
{
    return entry.pod < pod;
}
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
    evicted.reserve(podsOn_[id].size());
    for (const NodePod &entry : podsOn_[id]) {
        evicted.push_back(entry.pod);
        const ServiceKey key{entry.pod.app, entry.pod.ms};
        clearSlot(serviceLowerBound(key), entry.pod.replica);
    }
    placed_ -= podsOn_[id].size();
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

size_t
ClusterState::serviceLowerBound(const ServiceKey &key) const
{
    // In-order builders append: answer that case without a search.
    if (services_.empty() || services_.back() < key)
        return services_.size();
    return static_cast<size_t>(
        std::lower_bound(services_.begin(), services_.end(), key) -
        services_.begin());
}

size_t
ClusterState::placedService(const PodRef &pod) const
{
    const ServiceKey key{pod.app, pod.ms};
    const size_t i = serviceLowerBound(key);
    if (i == services_.size() || services_[i] != key ||
        pod.replica >= slots_[i].size() ||
        slots_[i][pod.replica].node == kNoNode)
        return kNotPlaced;
    return i;
}

void
ClusterState::clearSlot(size_t service, uint32_t replica)
{
    std::vector<Slot> &slots = slots_[service];
    slots[replica] = Slot{};
    while (!slots.empty() && slots.back().node == kNoNode)
        slots.pop_back();
}

bool
ClusterState::place(const PodRef &pod, NodeId node, double cpu)
{
    if (!fits(node, cpu))
        return false;
    const ServiceKey key{pod.app, pod.ms};
    const size_t i = serviceLowerBound(key);
    if (i == services_.size() || services_[i] != key) {
        services_.insert(services_.begin() + static_cast<ptrdiff_t>(i),
                         key);
        slots_.emplace(slots_.begin() + static_cast<ptrdiff_t>(i));
    }
    std::vector<Slot> &slots = slots_[i];
    if (pod.replica < slots.size()) {
        if (slots[pod.replica].node != kNoNode)
            return false;
    } else {
        slots.resize(static_cast<size_t>(pod.replica) + 1);
    }
    slots[pod.replica] = Slot{node, cpu};

    std::vector<NodePod> &on = podsOn_[node];
    if (on.empty() || on.back().pod < pod) {
        on.push_back(NodePod{pod, cpu});
    } else {
        on.insert(std::lower_bound(on.begin(), on.end(), pod, podBefore),
                  NodePod{pod, cpu});
    }
    used_[node] += cpu;
    ++placed_;
    return true;
}

bool
ClusterState::evict(const PodRef &pod)
{
    const size_t i = placedService(pod);
    if (i == kNotPlaced)
        return false;
    const NodeId node = slots_[i][pod.replica].node;
    std::vector<NodePod> &on = podsOn_[node];
    const auto at = std::lower_bound(on.begin(), on.end(), pod, podBefore);
    assert(at != on.end() && at->pod == pod);
    used_[node] -= at->cpu;
    if (used_[node] < 0.0)
        used_[node] = 0.0;
    on.erase(at);
    clearSlot(i, pod.replica);
    --placed_;
    return true;
}

std::optional<NodeId>
ClusterState::nodeOf(const PodRef &pod) const
{
    const size_t i = placedService(pod);
    if (i == kNotPlaced)
        return std::nullopt;
    return slots_[i][pod.replica].node;
}

double
ClusterState::podCpu(const PodRef &pod) const
{
    const size_t i = placedService(pod);
    return i == kNotPlaced ? 0.0 : slots_[i][pod.replica].cpu;
}

AssignmentView::iterator::iterator(const ClusterState *state,
                                   size_t service, size_t replica)
    : state_(state), service_(service), replica_(replica)
{
    settle();
}

void
AssignmentView::iterator::settle()
{
    const auto &slots = state_->slots_;
    while (service_ < slots.size()) {
        const auto &row = slots[service_];
        while (replica_ < row.size() &&
               row[replica_].node == ClusterState::kNoNode)
            ++replica_;
        if (replica_ < row.size())
            return;
        ++service_;
        replica_ = 0;
    }
}

AssignmentView::iterator::value_type
AssignmentView::iterator::operator*() const
{
    const ClusterState::ServiceKey &key = state_->services_[service_];
    return {PodRef{key.app, key.ms, static_cast<uint32_t>(replica_)},
            state_->slots_[service_][replica_].node};
}

AssignmentView::iterator &
AssignmentView::iterator::operator++()
{
    ++replica_;
    settle();
    return *this;
}

AssignmentView::iterator
AssignmentView::begin() const
{
    return iterator(state_, 0, 0);
}

AssignmentView::iterator
AssignmentView::end() const
{
    return iterator(state_, state_->slots_.size(), 0);
}

size_t
AssignmentView::size() const
{
    return state_->placed_;
}

bool
operator==(const AssignmentView &a, const AssignmentView &b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), b.end());
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
