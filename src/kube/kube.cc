#include "kube.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/fnv.h"
#include "util/log.h"

namespace phoenix::kube {

using sim::ClusterState;
using sim::NodeId;
using sim::PodRef;

namespace {

/** Slack for capacity comparisons (same as the scheduler's). */
constexpr double kCapacityEps = 1e-9;
/** Slack for incremental-vs-scan usage equality (fp accumulation). */
constexpr double kUsageEps = 1e-6;

const char *
phaseName(PodPhase phase)
{
    switch (phase) {
    case PodPhase::Pending: return "Pending";
    case PodPhase::Starting: return "Starting";
    case PodPhase::Running: return "Running";
    case PodPhase::Terminating: return "Terminating";
    }
    return "?";
}

/** Static trace-event names per transition target (the tracer stores
 * the pointers). */
const char *
transitionEventName(PodPhase to)
{
    switch (to) {
    case PodPhase::Pending: return "pod->Pending";
    case PodPhase::Starting: return "pod->Starting";
    case PodPhase::Running: return "pod->Running";
    case PodPhase::Terminating: return "pod->Terminating";
    }
    return "pod->?";
}

} // namespace

KubeCluster::KubeCluster(sim::EventQueue &events, KubeConfig config)
    : events_(events), config_(config), rng_(config.seed)
{
    obs::Registry &registry = obs::Registry::global();
    obs_.transitions[0] =
        &registry.counter("kube.pod_transitions", "to", "Pending");
    obs_.transitions[1] =
        &registry.counter("kube.pod_transitions", "to", "Starting");
    obs_.transitions[2] =
        &registry.counter("kube.pod_transitions", "to", "Running");
    obs_.transitions[3] =
        &registry.counter("kube.pod_transitions", "to", "Terminating");
    obs_.binds = &registry.counter("kube.scheduler.binds");
    obs_.evictedPods = &registry.counter("kube.evictions.pods");
    obs_.evictionEpisodes =
        &registry.counter("kube.evictions.episodes");
    obs_.invariantViolations =
        &registry.counter("kube.invariant_violations");
    obs_.migrationsRejected =
        &registry.counter("kube.migrations.rejected");
    obs_.nodeNotReady = &registry.counter("kube.node.not_ready");
    obs_.nodeReady = &registry.counter("kube.node.ready");

    // Control-plane loops. These chains reschedule themselves forever;
    // drive the simulation with runUntil(), not runAll().
    events_.scheduleAfter(config_.heartbeatPeriod,
                          [this] { nodeControllerTick(); });
    events_.scheduleAfter(config_.schedulerPeriod,
                          [this] { schedulerTick(); });
}

NodeId
KubeCluster::addNode(double capacity, uint32_t zone)
{
    const NodeId id = static_cast<NodeId>(nodes_.size());
    NodeRec rec;
    rec.id = id;
    rec.capacity = capacity;
    rec.zone = zone;
    rec.lastHeartbeat = events_.now();
    if (zone != 0)
        hasExplicitZones_ = true;
    nodes_.push_back(rec);
    nodeUsed_.push_back(0.0);
    nodeEvictionEpisodes_.push_back(0);
    nodePods_.emplace_back();
    freeSlot_.push_back(freeIndex_.end());
    refreshFree(id);
    markDirty(id);
    scheduleHeartbeat(id);
    return id;
}

void
KubeCluster::addApplication(const sim::Application &app)
{
    apps_.push_back(app);
    const sim::AppId app_id = static_cast<sim::AppId>(apps_.size() - 1);
    apps_.back().id = app_id;
    if (apps_.back().topologyConstrained())
        anyConstrained_ = true;
    std::vector<Pod> fresh;
    for (const auto &ms : apps_.back().services) {
        const int replicas = std::max(ms.replicas, 1);
        for (int r = 0; r < replicas; ++r) {
            Pod pod;
            pod.ref = PodRef{app_id, ms.id, static_cast<uint32_t>(r)};
            pod.cpu = ms.cpu;
            fresh.push_back(pod);
        }
    }
    // PodRef order, and a service id declared twice keeps one pod per
    // replica, the later declaration winning (keyed-insert semantics).
    std::stable_sort(fresh.begin(), fresh.end(),
                     [](const Pod &a, const Pod &b) { return a.ref < b.ref; });
    // App ids only grow, so the run appends to the table in order.
    AppSlice slice;
    slice.first = static_cast<PodIndex>(pods_.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
        if (i + 1 < fresh.size() && fresh[i + 1].ref == fresh[i].ref)
            continue;
        const PodIndex index = static_cast<PodIndex>(pods_.size());
        if (slice.services.empty() ||
            slice.services.back().ms != fresh[i].ref.ms)
            slice.services.push_back(ServiceSlice{fresh[i].ref.ms, index, 0});
        ++slice.services.back().count;
        pods_.push_back(fresh[i]);
        podEpoch_.push_back(0);
        podNodePos_.push_back(kNoSlot);
        pending_.insert(pending_.end(), index);
    }
    slice.count = static_cast<uint32_t>(pods_.size() - slice.first);
    appSlices_.push_back(std::move(slice));
}

KubeCluster::PodIndex
KubeCluster::indexOf(const PodRef &ref) const
{
    if (ref.app >= appSlices_.size())
        return kNoSlot;
    const std::vector<ServiceSlice> &services =
        appSlices_[ref.app].services;
    // Dense service ids (the usual case) index directly; sparse ones
    // binary-search the id-sorted slices.
    const ServiceSlice *slice = nullptr;
    if (ref.ms < services.size() && services[ref.ms].ms == ref.ms) {
        slice = &services[ref.ms];
    } else {
        const auto it = std::lower_bound(
            services.begin(), services.end(), ref.ms,
            [](const ServiceSlice &s, sim::MsId ms) { return s.ms < ms; });
        if (it != services.end() && it->ms == ref.ms)
            slice = &*it;
    }
    if (!slice || ref.replica >= slice->count)
        return kNoSlot;
    return slice->first + ref.replica;
}

void
KubeCluster::scheduleHeartbeat(NodeId node)
{
    events_.scheduleAfter(config_.heartbeatPeriod, [this, node] {
        NodeRec &rec = nodes_[node];
        if (!rec.kubeletRunning)
            return; // chain dies; startKubelet starts a new one
        // A partitioned kubelet keeps beating, but the updates never
        // reach the node controller; a skewed clock stamps the status
        // with its own (wrong) time.
        if (!rec.partitioned)
            rec.lastHeartbeat = events_.now() + rec.clockSkew;
        scheduleHeartbeat(node);
    });
}

void
KubeCluster::stopKubelet(NodeId node)
{
    nodes_[node].kubeletRunning = false;
    markDirty(node);
}

void
KubeCluster::startKubelet(NodeId node)
{
    NodeRec &rec = nodes_[node];
    if (rec.kubeletRunning)
        return;
    rec.kubeletRunning = true;
    if (!rec.partitioned)
        rec.lastHeartbeat = events_.now() + rec.clockSkew;
    markDirty(node);
    scheduleHeartbeat(node);
}

void
KubeCluster::partitionNode(NodeId node)
{
    NodeRec &rec = nodes_[node];
    if (rec.partitioned)
        return;
    rec.partitioned = true;
    markDirty(node);
}

void
KubeCluster::healPartition(NodeId node)
{
    NodeRec &rec = nodes_[node];
    if (!rec.partitioned)
        return;
    rec.partitioned = false;
    // No lastHeartbeat bump here: the next in-flight heartbeat (within
    // heartbeatPeriod) is the first status the controller sees again.
    markDirty(node);
}

void
KubeCluster::degradeNode(NodeId node, double factor)
{
    NodeRec &rec = nodes_[node];
    factor = std::clamp(factor, sim::kMinDegradeFactor, 1.0);
    if (rec.degradeFactor == factor)
        return;
    rec.degradeFactor = factor;
    refreshFree(node);
    markDirty(node);
}

void
KubeCluster::setClockSkew(NodeId node, double skewSeconds)
{
    nodes_[node].clockSkew = skewSeconds;
}

void
KubeCluster::beginApiOutage()
{
    if (apiOutage_)
        return;
    // Order matters: capture the surface before raising the flag so
    // the frozen values are the live ones at freeze time.
    frozenState_ = buildState();
    frozenReadyCapacity_ = readyCapacity();
    frozenFingerprint_ = readyFingerprint();
    apiOutage_ = true;
}

void
KubeCluster::endApiOutage()
{
    apiOutage_ = false;
}

std::vector<NodeId>
KubeCluster::drainDirtyNodes()
{
    std::vector<NodeId> drained = std::move(dirtyNodes_);
    dirtyNodes_.clear();
    std::sort(drained.begin(), drained.end());
    drained.erase(std::unique(drained.begin(), drained.end()),
                  drained.end());
    return drained;
}

void
KubeCluster::nodeControllerTick()
{
    for (NodeRec &rec : nodes_) {
        // The NotReady boundary is pinned: a heartbeat whose age is
        // *exactly* nodeGracePeriod is still fresh (<=, not <). Clock
        // skew puts real runs precisely on this edge — with a
        // heartbeat period of 10, a grace of 100, and a skew of -100,
        // every age the controller computes is an exact multiple of
        // 10 — so the comparison must have one defined outcome.
        // test_kube pins it with a regression test.
        const bool fresh =
            events_.now() - rec.lastHeartbeat <= config_.nodeGracePeriod;
        if (rec.ready && !fresh) {
            rec.ready = false;
            refreshFree(rec.id);
            markDirty(rec.id);
            PHOENIX_INFO("node " << rec.id << " NotReady at t="
                                 << events_.now());
            PHOENIX_COUNT(*obs_.nodeNotReady, 1);
            PHOENIX_TRACE_INSTANT(
                "kube", "node NotReady", events_.now(),
                (obs::TraceArg{"node", static_cast<double>(rec.id)}));
            evictPodsOn(rec.id);
        } else if (!rec.ready && fresh && rec.kubeletRunning) {
            rec.ready = true;
            refreshFree(rec.id);
            markDirty(rec.id);
            PHOENIX_INFO("node " << rec.id << " Ready at t="
                                 << events_.now());
            PHOENIX_COUNT(*obs_.nodeReady, 1);
            PHOENIX_TRACE_INSTANT(
                "kube", "node Ready", events_.now(),
                (obs::TraceArg{"node", static_cast<double>(rec.id)}));
        }
    }
    validateAfterEvent();
    events_.scheduleAfter(config_.heartbeatPeriod,
                          [this] { nodeControllerTick(); });
}

bool
KubeCluster::occupiesNode(PodPhase phase)
{
    return phase == PodPhase::Starting || phase == PodPhase::Running ||
           phase == PodPhase::Terminating;
}

bool
KubeCluster::legalTransition(PodPhase from, PodPhase to)
{
    switch (from) {
    case PodPhase::Pending:
        return to == PodPhase::Starting;
    case PodPhase::Starting:
        // Starting -> Starting is a migration rebind (new node, new
        // startup clock).
        return to == PodPhase::Starting || to == PodPhase::Running ||
               to == PodPhase::Pending || to == PodPhase::Terminating;
    case PodPhase::Running:
        // Running -> Running is a live migration (node change only).
        return to == PodPhase::Running || to == PodPhase::Pending ||
               to == PodPhase::Terminating;
    case PodPhase::Terminating:
        // A drain only ever completes back into Pending.
        return to == PodPhase::Pending;
    }
    return false;
}

void
KubeCluster::transition(PodIndex index, PodPhase to, NodeId node)
{
    Pod &pod = pods_[index];
    if (!legalTransition(pod.phase, to)) {
        recordViolation(std::string("illegal pod transition ") +
                        phaseName(pod.phase) + " -> " + phaseName(to));
    }
    const bool was_on = occupiesNode(pod.phase);
    const bool is_on = occupiesNode(to);
    const NodeId from = pod.node;
    if (was_on) {
        nodeUsed_[from] -= pod.cpu;
        markDirty(from);
    }
    if (pod.phase == PodPhase::Running)
        --runningCount_;
    pod.phase = to;
    pod.node = node;
    if (is_on) {
        nodeUsed_[node] += pod.cpu;
        markDirty(node);
    }
    if (to == PodPhase::Running)
        ++runningCount_;

    const bool moved = was_on != is_on || from != node;
    if (was_on && moved) {
        // Swap-remove from the old node's list.
        std::vector<PodIndex> &list = nodePods_[from];
        const uint32_t pos = podNodePos_[index];
        list[pos] = list.back();
        podNodePos_[list[pos]] = pos;
        list.pop_back();
        podNodePos_[index] = kNoSlot;
    }
    if (is_on && moved) {
        podNodePos_[index] = static_cast<uint32_t>(nodePods_[node].size());
        nodePods_[node].push_back(index);
    }
    // Re-key even when the pod stays put: -= then += need not restore
    // the usage bit for bit.
    if (was_on)
        refreshFree(from);
    if (is_on && (!was_on || node != from))
        refreshFree(node);
    refreshPending(index);

    PHOENIX_COUNT(*obs_.transitions[static_cast<size_t>(to)], 1);
    PHOENIX_TRACE_INSTANT(
        "kube", transitionEventName(to), events_.now(),
        (obs::TraceArg{"app", static_cast<double>(pod.ref.app)}),
        (obs::TraceArg{"ms", static_cast<double>(pod.ref.ms)}),
        (obs::TraceArg{"node", static_cast<double>(node)}));
}

void
KubeCluster::setScaledDown(PodIndex index, bool scaledDown)
{
    pods_[index].scaledDown = scaledDown;
    refreshPending(index);
}

void
KubeCluster::refreshPending(PodIndex index)
{
    const Pod &pod = pods_[index];
    if (pod.phase == PodPhase::Pending && !pod.scaledDown)
        pending_.insert(index);
    else
        pending_.erase(index);
}

void
KubeCluster::refreshFree(NodeId node)
{
    FreeIndex::iterator &slot = freeSlot_[node];
    const bool ready = nodes_[node].ready;
    if (slot != freeIndex_.end()) {
        if (ready && slot->free == freeKey(node))
            return; // key unchanged: nothing to move
        freeIndex_.erase(slot);
        slot = freeIndex_.end();
    }
    if (ready)
        slot = freeIndex_.insert(FreeEntry{freeKey(node), node}).first;
}

double
KubeCluster::freeKey(NodeId node) const
{
    const NodeRec &rec = nodes_[node];
    return rec.capacity * rec.degradeFactor - usedOn(node);
}

double
KubeCluster::usedOn(NodeId node) const
{
    return nodeUsed_[node];
}

bool
KubeCluster::hasPlacementVacancy(const Pod &pod, NodeId node) const
{
    if (!anyConstrained_)
        return true;
    if (pod.ref.app >= apps_.size())
        return true;
    const auto &app = apps_[pod.ref.app];
    if (pod.ref.ms >= app.services.size())
        return true;
    const auto &ms = app.services[pod.ref.ms];
    const int ms_node_cap = ms.maxPerNode;
    const int ms_zone_cap = ms.effectiveZoneCap();
    const sim::PlacementGroup *group = nullptr;
    if (ms.antiAffinityGroup >= 0) {
        for (const auto &g : app.placementGroups) {
            if (g.id == ms.antiAffinityGroup &&
                (g.maxPerNode > 0 || g.maxPerZone > 0)) {
                group = &g;
                break;
            }
        }
    }
    if (ms_node_cap <= 0 && ms_zone_cap <= 0 && !group)
        return true;

    const uint32_t zone = nodes_[node].zone;
    int ms_on_node = 0;
    int ms_in_zone = 0;
    int group_on_node = 0;
    int group_in_zone = 0;
    // Only the app's own contiguous run of the table can count.
    const AppSlice &slice = appSlices_[pod.ref.app];
    for (PodIndex i = slice.first; i < slice.first + slice.count; ++i) {
        const Pod &other = pods_[i];
        const PodRef &ref = other.ref;
        if (ref == pod.ref || !occupiesNode(other.phase))
            continue;
        const bool same_node = other.node == node;
        const bool same_zone = nodes_[other.node].zone == zone;
        if (ref.ms == pod.ref.ms) {
            ms_on_node += same_node ? 1 : 0;
            ms_in_zone += same_zone ? 1 : 0;
        }
        if (group &&
            app.services[ref.ms].antiAffinityGroup ==
                ms.antiAffinityGroup) {
            group_on_node += same_node ? 1 : 0;
            group_in_zone += same_zone ? 1 : 0;
        }
    }
    if (ms_node_cap > 0 && ms_on_node >= ms_node_cap)
        return false;
    if (ms_zone_cap > 0 && ms_in_zone >= ms_zone_cap)
        return false;
    if (group) {
        if (group->maxPerNode > 0 && group_on_node >= group->maxPerNode)
            return false;
        if (group->maxPerZone > 0 && group_in_zone >= group->maxPerZone)
            return false;
    }
    return true;
}

void
KubeCluster::recordViolation(const std::string &what)
{
    ++invariantViolations_;
    PHOENIX_COUNT(*obs_.invariantViolations, 1);
    PHOENIX_ERROR("kube invariant violated at t=" << events_.now()
                                                  << ": " << what);
    assert(false && "kube invariant violated");
}

void
KubeCluster::validateAfterEvent()
{
    if (!config_.validateInvariants)
        return;
    const auto podName = [this](PodIndex i) {
        const PodRef &ref = pods_[i].ref;
        return "pod " + std::to_string(ref.app) + "/" +
               std::to_string(ref.ms) + "/" + std::to_string(ref.replica);
    };
    // One pass over the table rescans everything transition()
    // maintains incrementally: per-node usage and occupants, the
    // pending set (walked alongside, both ascend) and the running
    // count.
    validateScratch_.assign(nodes_.size(), 0.0);
    validateCounts_.assign(nodes_.size(), 0);
    size_t running = 0;
    auto pending = pending_.begin();
    for (PodIndex i = 0; i < pods_.size(); ++i) {
        const Pod &pod = pods_[i];
        const bool want_pending =
            pod.phase == PodPhase::Pending && !pod.scaledDown;
        const bool in_pending = pending != pending_.end() && *pending == i;
        if (in_pending)
            ++pending;
        if (want_pending != in_pending) {
            recordViolation(podName(i) +
                            (in_pending ? " in the pending set"
                                        : " missing from the pending set"));
        }
        if (pod.phase == PodPhase::Running)
            ++running;
        if (!occupiesNode(pod.phase)) {
            if (podNodePos_[i] != kNoSlot)
                recordViolation(podName(i) +
                                " listed on a node it does not occupy");
            continue;
        }
        if (pod.node >= nodes_.size()) {
            recordViolation(podName(i) + " placed on nonexistent node");
            continue;
        }
        validateScratch_[pod.node] += pod.cpu;
        ++validateCounts_[pod.node];
        const std::vector<PodIndex> &list = nodePods_[pod.node];
        const uint32_t pos = podNodePos_[i];
        if (pos >= list.size() || list[pos] != i) {
            recordViolation(podName(i) + " missing from node " +
                            std::to_string(pod.node) + "'s pod list");
        }
    }
    if (pending != pending_.end())
        recordViolation("pending set holds a pod outside the table");
    if (running != runningCount_) {
        recordViolation("running count " + std::to_string(runningCount_) +
                        " != scanned " + std::to_string(running));
    }

    size_t ready = 0;
    for (size_t n = 0; n < nodes_.size(); ++n) {
        const double scan = validateScratch_[n];
        if (std::abs(scan - nodeUsed_[n]) > kUsageEps) {
            recordViolation("node " + std::to_string(n) +
                            " incremental usage " +
                            std::to_string(nodeUsed_[n]) +
                            " != scanned " + std::to_string(scan));
        }
        if (scan > nodes_[n].capacity + kUsageEps) {
            recordViolation("node " + std::to_string(n) +
                            " overcommitted: used " +
                            std::to_string(scan) + " > capacity " +
                            std::to_string(nodes_[n].capacity));
        }
        if (nodePods_[n].size() != validateCounts_[n]) {
            recordViolation("node " + std::to_string(n) + " pod list holds " +
                            std::to_string(nodePods_[n].size()) +
                            " pods, scanned " +
                            std::to_string(validateCounts_[n]));
        }
        const bool indexed = freeSlot_[n] != freeIndex_.end();
        if (indexed != nodes_[n].ready ||
            (indexed && freeSlot_[n]->node != n)) {
            recordViolation("node " + std::to_string(n) +
                            " free-index slot disagrees with readiness");
        }
        ready += nodes_[n].ready ? 1 : 0;
    }

    // Free-capacity index: exactly the Ready nodes, each keyed by its
    // current free capacity, in (free desc, id asc) order.
    if (freeIndex_.size() != ready) {
        recordViolation("free-capacity index holds " +
                        std::to_string(freeIndex_.size()) +
                        " nodes, " + std::to_string(ready) + " are Ready");
    }
    validateSeen_.assign(nodes_.size(), 0);
    const FreeEntry *prev = nullptr;
    for (const FreeEntry &entry : freeIndex_) {
        const auto name = [&entry] {
            return "node " + std::to_string(entry.node);
        };
        if (entry.node >= nodes_.size() || !nodes_[entry.node].ready ||
            validateSeen_[entry.node]) {
            recordViolation(name() + " in the free-capacity index is "
                                     "missing, NotReady or duplicated");
            continue;
        }
        validateSeen_[entry.node] = 1;
        if (entry.free != freeKey(entry.node)) {
            recordViolation(name() + " free-capacity key " +
                            std::to_string(entry.free) + " is stale");
        }
        if (prev && !MostFreeFirst()(*prev, entry))
            recordViolation(name() +
                            " out of order in the free-capacity index");
        prev = &entry;
    }
}

void
KubeCluster::bindPod(PodIndex index, NodeId node)
{
    PHOENIX_COUNT(*obs_.binds, 1);
    transition(index, PodPhase::Starting, node);
    // Bumping the epoch cancels any armed start-completion timer, so a
    // rebind (migrate-while-Starting) restarts the startup clock.
    const uint64_t epoch = ++podEpoch_[index];
    // Draw first, then scale: a degraded (slow) node stretches the
    // startup delay by 1/factor without perturbing the rng sequence.
    double delay =
        rng_.uniform(config_.podStartupMin, config_.podStartupMax);
    if (nodes_[node].degradeFactor < 1.0)
        delay /= nodes_[node].degradeFactor;
    events_.scheduleAfter(delay, [this, index, epoch] {
        if (podEpoch_[index] != epoch)
            return;
        if (pods_[index].phase == PodPhase::Starting) {
            transition(index, PodPhase::Running, pods_[index].node);
            validateAfterEvent();
        }
    });
}

void
KubeCluster::evictPodsOn(NodeId node)
{
    ++nodeEvictionEpisodes_[node];
    PHOENIX_COUNT(*obs_.evictionEpisodes, 1);
    // The node's own occupants, in PodRef order (table order).
    evictScratch_ = nodePods_[node];
    std::sort(evictScratch_.begin(), evictScratch_.end());
    for (const PodIndex index : evictScratch_) {
        // Documented semantics: Terminating pods keep their graceful
        // drain (the drain timer lands them in Pending; a scaled-down
        // pod parks there and never reschedules).
        if (pods_[index].phase == PodPhase::Terminating)
            continue;
        ++podEpoch_[index];
        transition(index, PodPhase::Pending, node);
        ++evictedPods_;
        PHOENIX_COUNT(*obs_.evictedPods, 1);
    }
}

size_t
KubeCluster::evictionEpisodes(NodeId node) const
{
    return nodeEvictionEpisodes_.at(node);
}

bool
KubeCluster::pickSpreadNode(const Pod &pod, NodeId &out) const
{
    // Index order is the spread preference (most free, lowest id on
    // ties), so the first entry that fits and has vacancy is the pick.
    // Nothing at or below -1 qualifies, and a negative best never binds.
    for (const FreeEntry &entry : freeIndex_) {
        if (entry.free < pod.cpu - kCapacityEps || entry.free <= -1.0)
            return false;
        if (hasPlacementVacancy(pod, entry.node)) {
            out = entry.node;
            return entry.free >= 0.0;
        }
    }
    return false;
}

void
KubeCluster::schedulerTick()
{
    // Deterministic PodRef order over the pending set, spread
    // (least-allocated) scoring. A bind only ever removes the pod it
    // binds, so advancing before the bind keeps the iterator valid.
    for (auto it = pending_.begin(); it != pending_.end();) {
        const PodIndex index = *it++;
        const Pod &pod = pods_[index];

        if (pod.pinnedNode) {
            const NodeId target = *pod.pinnedNode;
            if (nodes_[target].ready &&
                usedOn(target) + pod.cpu <=
                    effectiveCapacity(target) + kCapacityEps &&
                hasPlacementVacancy(pod, target)) {
                bindPod(index, target);
            }
            continue;
        }

        if (!config_.enableDefaultScheduler)
            continue;

        NodeId best = 0;
        if (pickSpreadNode(pod, best))
            bindPod(index, best);
    }
    validateAfterEvent();
    events_.scheduleAfter(config_.schedulerPeriod,
                          [this] { schedulerTick(); });
}

void
KubeCluster::deletePod(const PodRef &ref)
{
    const PodIndex index = indexOf(ref);
    if (index == kNoSlot)
        return;
    pods_[index].pinnedNode.reset();
    setScaledDown(index, true);
    const PodPhase phase = pods_[index].phase;
    if (phase == PodPhase::Pending || phase == PodPhase::Terminating)
        return;
    // Graceful drain: endpoints removed, SIGTERM, then gone.
    transition(index, PodPhase::Terminating, pods_[index].node);
    const uint64_t epoch = ++podEpoch_[index];
    events_.scheduleAfter(config_.podTerminationSeconds,
                          [this, index, epoch] {
                              if (podEpoch_[index] != epoch)
                                  return;
                              if (pods_[index].phase ==
                                  PodPhase::Terminating) {
                                  transition(index, PodPhase::Pending,
                                             pods_[index].node);
                                  validateAfterEvent();
                              }
                          });
    validateAfterEvent();
}

void
KubeCluster::startPod(const PodRef &ref,
                      std::optional<NodeId> pinned)
{
    const PodIndex index = indexOf(ref);
    if (index == kNoSlot)
        return;
    Pod &pod = pods_[index];
    pod.pinnedNode = pinned;
    setScaledDown(index, false);

    if (pod.phase == PodPhase::Running ||
        pod.phase == PodPhase::Starting) {
        if (pinned && pod.node != *pinned)
            migratePod(ref, *pinned);
        return;
    }
    if (pod.phase == PodPhase::Terminating) {
        // Deletion raced with a restart: bring it back after the
        // drain completes (scheduler will pick it up as Pending).
        return;
    }
    // Pending: the scheduler tick will bind it (possibly pinned).
}

void
KubeCluster::migratePod(const PodRef &ref, NodeId to)
{
    const PodIndex index = indexOf(ref);
    if (index == kNoSlot || to >= nodes_.size())
        return;
    Pod &pod = pods_[index];
    pod.pinnedNode = to;
    setScaledDown(index, false);
    if (pod.phase == PodPhase::Pending) {
        return; // plain (re)start on the target
    }
    if (pod.phase == PodPhase::Terminating) {
        // Finish the drain; the pin re-places the pod afterwards.
        return;
    }
    if (pod.node == to)
        return;

    // Validate the target exactly like the scheduler would: rebinding
    // onto a NotReady or full node silently overcommits it. Keep the
    // pin — the next replan resolves the conflict.
    const NodeRec &target = nodes_[to];
    if (!target.ready ||
        usedOn(to) + pod.cpu >
            target.capacity * target.degradeFactor + kCapacityEps ||
        !hasPlacementVacancy(pod, to)) {
        PHOENIX_WARN("migrate " << ref.app << "/" << ref.ms
                                << " -> node " << to << " rejected: "
                                << (!target.ready ? "NotReady"
                                                  : "full/no vacancy"));
        PHOENIX_COUNT(*obs_.migrationsRejected, 1);
        return;
    }

    if (pod.phase == PodPhase::Starting) {
        // The replica never finished starting: moving it restarts the
        // startup clock on the target (bindPod bumps the epoch, which
        // cancels the old start-completion timer — no free cross-node
        // "migration").
        bindPod(index, to);
        validateAfterEvent();
        return;
    }
    // Running: the two-stage migration collapses to an immediate
    // rebind in the model — capacity moves to the target now and the
    // service stays live (requests reroute to the new instance as it
    // starts; see Appendix E).
    transition(index, PodPhase::Running, to);
    validateAfterEvent();
}

bool
KubeCluster::isReady(NodeId node) const
{
    return nodes_.at(node).ready;
}

bool
KubeCluster::kubeletRunning(NodeId node) const
{
    return nodes_.at(node).kubeletRunning;
}

bool
KubeCluster::isPartitioned(NodeId node) const
{
    return nodes_.at(node).partitioned;
}

double
KubeCluster::degradeFactor(NodeId node) const
{
    return nodes_.at(node).degradeFactor;
}

double
KubeCluster::clockSkew(NodeId node) const
{
    return nodes_.at(node).clockSkew;
}

double
KubeCluster::effectiveCapacity(NodeId node) const
{
    const NodeRec &rec = nodes_.at(node);
    return rec.capacity * rec.degradeFactor;
}

double
KubeCluster::nodeCapacity(NodeId node) const
{
    return nodes_.at(node).capacity;
}

int
KubeCluster::nodeZone(NodeId node) const
{
    if (!hasExplicitZones_)
        return -1;
    return static_cast<int>(nodes_.at(node).zone);
}

double
KubeCluster::readyCapacity() const
{
    double total = 0.0;
    for (const NodeRec &rec : nodes_) {
        if (rec.ready)
            total += rec.capacity * rec.degradeFactor;
    }
    return total;
}

double
KubeCluster::totalCapacity() const
{
    double total = 0.0;
    for (const NodeRec &rec : nodes_)
        total += rec.capacity;
    return total;
}

ClusterState
KubeCluster::buildState() const
{
    ClusterState state;
    for (const NodeRec &rec : nodes_) {
        double observed = rec.capacity;
        if (rec.degradeFactor < 1.0) {
            // Report the degraded capacity, but never below current
            // usage: pods placed before the degrade keep running
            // (slow-not-dead never evicts) and must stay
            // representable in the snapshot.
            observed = std::max(rec.capacity * rec.degradeFactor,
                                usedOn(rec.id));
        }
        state.addNode(observed, rec.zone);
        if (!rec.ready)
            state.failNode(rec.id);
    }
    // Table order is PodRef order, so every place() appends.
    for (const Pod &pod : pods_) {
        if (occupiesNode(pod.phase))
            state.place(pod.ref, pod.node, pod.cpu);
    }
    return state;
}

ClusterState
KubeCluster::observedState() const
{
    return apiOutage_ ? frozenState_ : buildState();
}

ClusterState
KubeCluster::liveState() const
{
    return buildState();
}

double
KubeCluster::observedReadyCapacity() const
{
    return apiOutage_ ? frozenReadyCapacity_ : readyCapacity();
}

uint64_t
KubeCluster::readyFingerprint() const
{
    util::Fnv1a fnv;
    for (const NodeRec &rec : nodes_) {
        fnv.mix(rec.ready ? 0x9e3779b97f4a7c15ull : 0x2545f4914f6cdd1dull);
        fnv.mixDouble(rec.capacity * rec.degradeFactor);
    }
    return fnv.hash;
}

uint64_t
KubeCluster::observedReadyFingerprint() const
{
    return apiOutage_ ? frozenFingerprint_ : readyFingerprint();
}

size_t
KubeCluster::forecastZoneCount(size_t fallbackZoneCount) const
{
    if (hasExplicitZones_) {
        uint32_t max_zone = 0;
        for (const NodeRec &rec : nodes_)
            max_zone = std::max(max_zone, rec.zone);
        return static_cast<size_t>(max_zone) + 1;
    }
    const size_t fallback = std::max<size_t>(fallbackZoneCount, 1);
    return std::min(fallback, std::max<size_t>(nodes_.size(), 1));
}

size_t
KubeCluster::forecastZoneOf(NodeId node, size_t fallbackZoneCount) const
{
    if (hasExplicitZones_)
        return nodes_.at(node).zone;
    return static_cast<size_t>(node) %
           std::max<size_t>(fallbackZoneCount, 1);
}

std::vector<KubeCluster::ZoneCapacity>
KubeCluster::observedZoneCapacities(size_t fallbackZoneCount) const
{
    std::vector<ZoneCapacity> zones(forecastZoneCount(fallbackZoneCount));
    // Static side: nameplate capacities (never frozen — labels and
    // nameplates are deployment facts, not observations). Ready side:
    // the observation surface, so outages freeze it.
    const sim::ClusterState observed = observedState();
    for (const NodeRec &rec : nodes_) {
        const size_t z = forecastZoneOf(rec.id, fallbackZoneCount);
        if (z >= zones.size())
            continue;
        zones[z].staticCapacity += rec.capacity;
        if (rec.id < observed.nodeCount() &&
            observed.isHealthy(rec.id))
            zones[z].readyCapacity += observed.node(rec.id).capacity;
    }
    return zones;
}

sim::ClusterState
KubeCluster::projectedZoneLossState(size_t zone,
                                    size_t fallbackZoneCount) const
{
    sim::ClusterState state = observedState();
    for (const NodeRec &rec : nodes_) {
        if (forecastZoneOf(rec.id, fallbackZoneCount) != zone)
            continue;
        if (rec.id < state.nodeCount() && state.isHealthy(rec.id))
            state.failNode(rec.id);
    }
    return state;
}

sim::ClusterState
KubeCluster::projectedDecayState() const
{
    sim::ClusterState state = observedState();
    for (const NodeRec &rec : nodes_) {
        if (rec.id >= state.nodeCount() || !state.isHealthy(rec.id))
            continue;
        // Observed below nameplate == degraded in the snapshot
        // (buildState reports max(capacity * factor, usage)).
        if (state.node(rec.id).capacity <
            rec.capacity * (1.0 - 1e-12))
            state.failNode(rec.id);
    }
    return state;
}

std::set<PodRef>
KubeCluster::runningPods() const
{
    std::set<PodRef> running;
    for (const Pod &pod : pods_) {
        if (pod.phase == PodPhase::Running)
            running.emplace_hint(running.end(), pod.ref);
    }
    return running;
}

const Pod *
KubeCluster::pod(const PodRef &ref) const
{
    const PodIndex index = indexOf(ref);
    return index == kNoSlot ? nullptr : &pods_[index];
}

} // namespace phoenix::kube
