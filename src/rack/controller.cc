#include "rack/controller.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace kona {

Controller::Controller(std::size_t slabSize, MetricScope scope,
                       const std::string &placementPolicy)
    : slabSize_(slabSize), scope_(std::move(scope)),
      placement_(makePlacementPolicy(placementPolicy)),
      slabsAllocated_(scope_.counter("slabs_allocated")),
      nodesFailed_(scope_.counter("nodes_failed")),
      slabsRebuilt_(scope_.counter("slabs_rebuilt")),
      slabsLost_(scope_.counter("slabs_lost")),
      bytesCopied_(scope_.counter("bytes_copied")),
      nodesSuspected_(scope_.counter("nodes_suspected")),
      nodesQuarantined_(scope_.counter("nodes_quarantined")),
      nodesReadmitted_(scope_.counter("nodes_readmitted")),
      nodesJoined_(scope_.counter("nodes_joined")),
      epochGauge_(scope_.gauge("membership_epoch"))
{
    epochGauge_.set(static_cast<double>(membershipEpoch_));
    KONA_ASSERT(slabSize >= pageSize && slabSize % pageSize == 0,
                "slab size must be a positive multiple of the page size");
}

void
Controller::registerNode(MemoryNode &node)
{
    KONA_ASSERT(nodes_.count(node.id()) == 0, "node ", node.id(),
                " already registered");
    nodes_[node.id()] = &node;
}

void
Controller::removeNode(NodeId node)
{
    KONA_ASSERT(nodes_.erase(node) == 1, "unknown node ", node);
    health_.erase(node);
    consecFailures_.erase(node);
    scores_.erase(node);
    ++membershipEpoch_;
    epochGauge_.set(static_cast<double>(membershipEpoch_));
    if (journal_ != nullptr)
        journal_->record(JournalKind::NodeRemoved, node, 0, 0,
                         membershipEpoch_);
}

SlabGrant
Controller::grantFrom(MemoryNode *node)
{
    auto offset = node->allocateSlab(slabSize_);
    KONA_ASSERT(offset.has_value(), "node free-space accounting broke");
    SlabGrant grant;
    grant.slab = nextSlab_++;
    grant.where = {node->id(), *offset};
    grant.size = slabSize_;
    grant.regionKey = node->slabRegion().key;
    slabsAllocated_.add();
    return grant;
}

std::optional<SlabGrant>
Controller::allocateSlab(const PlacementRequest &req)
{
    MemoryNode *chosen = nullptr;
    if (req.pinTo.has_value()) {
        // Pinned placement (rebalance target): bypasses the policy
        // and the health filter — a Joining node must be able to
        // receive slabs before it takes traffic.
        auto it = nodes_.find(*req.pinTo);
        KONA_ASSERT(it != nodes_.end(), "unknown node ", *req.pinTo);
        if (it->second->bytesFree() >= slabSize_)
            chosen = it->second;
    } else {
        candidates_.clear();
        candidateNodes_.clear();
        for (auto &[id, node] : nodes_) {
            if (!takesPlacements(id))
                continue;
            if (std::find(req.avoid.begin(), req.avoid.end(), id) !=
                req.avoid.end())
                continue;
            if (node->bytesFree() < slabSize_)
                continue;
            auto sit = scores_.find(id);
            candidates_.push_back(
                {id, node->bytesFree(),
                 sit == scores_.end() ? 0.0 : scoreOf(sit->second),
                 health(id) == NodeHealth::Readmitted});
            candidateNodes_.push_back(node);
        }
        if (!candidates_.empty()) {
            std::size_t picked = placement_->choose(
                candidates_.data(), candidates_.size(), req);
            KONA_ASSERT(picked < candidates_.size(),
                        "placement policy picked out of range");
            chosen = candidateNodes_[picked];
        }
    }
    if (chosen == nullptr) {
        if (req.required)
            fatal("rack out of disaggregated memory (", nodes_.size(),
                  " nodes, need ", slabSize_, " bytes)");
        return std::nullopt;
    }
    return grantFrom(chosen);
}

void
Controller::setPlacementPolicy(const std::string &spec)
{
    placement_ = makePlacementPolicy(spec);
}

void
Controller::freeSlab(const SlabGrant &grant)
{
    // A failed node took its slabs' backing with it; there is nothing
    // left to return to the pool.
    if (health(grant.where.node) == NodeHealth::Failed)
        return;
    auto it = nodes_.find(grant.where.node);
    KONA_ASSERT(it != nodes_.end(), "slab frees to unknown node ",
                grant.where.node);
    it->second->freeSlab(grant.where.offset);
}

MemoryNode &
Controller::node(NodeId id) const
{
    auto it = nodes_.find(id);
    if (it == nodes_.end())
        fatal("unknown memory node ", id);
    return *it->second;
}

std::size_t
Controller::minLogSlotBytes(std::size_t slots) const
{
    std::size_t least = std::numeric_limits<std::size_t>::max();
    for (const auto &[id, node] : nodes_)
        least = std::min(least, node->logSlotBytes(slots));
    return least;
}

std::size_t
Controller::healthyNodeCount() const
{
    std::size_t n = 0;
    for (const auto &[id, node] : nodes_)
        n += takesPlacements(id) ? 1 : 0;
    return n;
}

std::size_t
Controller::totalFree() const
{
    std::size_t total = 0;
    for (const auto &[id, node] : nodes_) {
        if (health(id) != NodeHealth::Failed)
            total += node->bytesFree();
    }
    return total;
}

void
Controller::reportOpFailure(NodeId node)
{
    if (health(node) == NodeHealth::Failed)
        return;
    if (++consecFailures_[node] >= failureThreshold_) {
        markFailed(node);
        return;
    }
    recordSample(node, 1.0, std::nullopt);
}

void
Controller::reportOpSuccess(NodeId node)
{
    consecFailures_[node] = 0;
    recordSample(node, 0.0, std::nullopt);
}

void
Controller::observeFetch(NodeId node, Tick latencyNs)
{
    recordSample(node, 0.0, latencyNs);
}

void
Controller::observeNak(NodeId node)
{
    // A NAK is softer evidence than a timeout: the node answered, the
    // payload just failed its end-to-end check.
    recordSample(node, 0.75, std::nullopt);
}

void
Controller::observeTimeout(NodeId node)
{
    recordSample(node, 1.0, std::nullopt);
}

double
Controller::scoreOf(const HealthScore &s) const
{
    const HealthPolicy &p = healthPolicy_;
    double latencyScore = 0.0;
    double budget = static_cast<double>(p.latencyBudgetNs);
    if (budget > 0.0 && s.latencyNs > budget && p.latencySlack > 1.0) {
        latencyScore = std::min(
            1.0, (s.latencyNs / budget - 1.0) / (p.latencySlack - 1.0));
    }
    return std::max(s.badness, latencyScore);
}

double
Controller::healthScore(NodeId node) const
{
    auto it = scores_.find(node);
    return it == scores_.end() ? 0.0 : scoreOf(it->second);
}

void
Controller::recordSample(NodeId node, double badness,
                         std::optional<Tick> latencyNs)
{
    NodeHealth h = health(node);
    if (h == NodeHealth::Failed)
        return;

    const HealthPolicy &p = healthPolicy_;
    HealthScore &s = scores_[node];
    s.badness += p.ewmaAlpha * (badness - s.badness);
    if (latencyNs.has_value()) {
        s.latencyNs += p.ewmaAlpha *
                       (static_cast<double>(*latencyNs) - s.latencyNs);
    }
    ++s.samples;
    if (s.samples < p.minSamples)
        return;

    double score = scoreOf(s);
    switch (h) {
    case NodeHealth::Healthy:
        if (score >= p.suspectThreshold) {
            nodesSuspected_.add();
            transition(node, NodeHealth::Suspect, "score degraded");
        }
        break;
    case NodeHealth::Suspect:
        if (score >= p.quarantineThreshold) {
            nodesQuarantined_.add();
            transition(node, NodeHealth::Quarantined,
                       "score collapsed");
        } else if (score <= p.recoverThreshold) {
            transition(node, NodeHealth::Healthy, "score recovered");
        }
        break;
    case NodeHealth::Quarantined:
        if (score <= p.recoverThreshold) {
            s.probation = p.readmitProbation;
            nodesReadmitted_.add();
            transition(node, NodeHealth::Readmitted,
                       "score recovered; on probation");
        }
        break;
    case NodeHealth::Readmitted:
        if (badness >= 1.0) {
            nodesSuspected_.add();
            transition(node, NodeHealth::Suspect,
                       "failed while on probation");
        } else if (s.probation > 0 && --s.probation == 0) {
            transition(node, NodeHealth::Healthy, "probation served");
        }
        break;
    case NodeHealth::Joining:
    case NodeHealth::Draining:
    case NodeHealth::Failed:
        break; // planned/terminal states: not score-driven
    }
}

void
Controller::transition(NodeId node, NodeHealth to, const char *reason)
{
    const NodeHealth from = health(node);
    health_[node] = to;
    ++membershipEpoch_;
    epochGauge_.set(static_cast<double>(membershipEpoch_));
    if (journal_ != nullptr) {
        journal_->record(JournalKind::HealthTransition, node,
                         static_cast<std::uint64_t>(from),
                         static_cast<std::uint64_t>(to),
                         membershipEpoch_);
    }
    static const char *names[] = {"healthy",     "suspect",
                                  "quarantined", "readmitted",
                                  "joining",     "draining",
                                  "failed"};
    inform("controller: node ", node, " -> ",
           names[static_cast<std::size_t>(to)], " (", reason,
           "), epoch ", membershipEpoch_);
}

void
Controller::markFailed(NodeId node)
{
    if (health(node) == NodeHealth::Failed)
        return;
    consecFailures_[node] = 0;
    scores_.erase(node);
    newlyFailed_.push_back(node);
    newlyFailedFlag_.store(true, std::memory_order_release);
    nodesFailed_.add();
    transition(node, NodeHealth::Failed, "declared dead");
    warn("controller: memory node ", node, " declared failed");
}

void
Controller::drainNode(NodeId node)
{
    KONA_ASSERT(nodes_.count(node) == 1, "unknown node ", node);
    KONA_ASSERT(health(node) != NodeHealth::Failed,
                "cannot drain an already-failed node");
    transition(node, NodeHealth::Draining, "operator drain");
    if (journal_ != nullptr)
        journal_->record(JournalKind::DrainStart, node, 0, 0,
                         membershipEpoch_);
    inform("controller: draining memory node ", node);
}

void
Controller::joinNode(MemoryNode &node)
{
    registerNode(node);
    nodesJoined_.add();
    transition(node.id(), NodeHealth::Joining, "hot-add");
    if (journal_ != nullptr)
        journal_->record(JournalKind::JoinStart, node.id(), 0, 0,
                         membershipEpoch_);
}

void
Controller::completeJoin(NodeId node)
{
    KONA_ASSERT(health(node) == NodeHealth::Joining,
                "completeJoin on a node that is not joining");
    scores_[node] = {};
    transition(node, NodeHealth::Healthy, "warm-up complete");
    if (journal_ != nullptr)
        journal_->record(JournalKind::JoinComplete, node, 0, 0,
                         membershipEpoch_);
}

NodeHealth
Controller::health(NodeId node) const
{
    auto it = health_.find(node);
    return it == health_.end() ? NodeHealth::Healthy : it->second;
}

std::vector<NodeId>
Controller::takeNewlyFailed()
{
    newlyFailedFlag_.store(false, std::memory_order_release);
    return std::exchange(newlyFailed_, {});
}

RebuildReport
Controller::rebuildReplicas(NodeId lost,
                            std::vector<PlacementRef> &placements)
{
    markFailed(lost);
    RebuildReport report = migrate(lost, /*sourceAlive=*/false,
                                   placements);
    inform("controller: rebuild after node ", lost, " loss: ",
           report.slabsRebuilt, " rebuilt, ", report.primariesPromoted,
           " promoted, ", report.slabsLost, " lost, ",
           report.slabsUnrebuilt, " unrebuilt");
    return report;
}

RebuildReport
Controller::evacuateNode(NodeId node,
                         std::vector<PlacementRef> &placements)
{
    if (health(node) == NodeHealth::Healthy)
        drainNode(node);
    KONA_ASSERT(health(node) == NodeHealth::Draining,
                "evacuating a node that is not draining");
    RebuildReport report = migrate(node, /*sourceAlive=*/true,
                                   placements);
    inform("controller: evacuated node ", node, ": ",
           report.slabsRebuilt, " slabs migrated, ",
           report.slabsUnrebuilt, " stuck");
    return report;
}

RebuildReport
Controller::migrate(NodeId from, bool sourceAlive,
                    std::vector<PlacementRef> &placements)
{
    RebuildReport report;
    for (PlacementRef &p : placements) {
        KONA_ASSERT(p.primary != nullptr && p.replicas != nullptr,
                    "placement ref without grants");
        std::vector<SlabGrant *> copies;
        copies.push_back(p.primary);
        for (SlabGrant &r : *p.replicas)
            copies.push_back(&r);

        auto onFrom = [from](const SlabGrant *g) {
            return g->where.node == from;
        };
        if (std::none_of(copies.begin(), copies.end(), onFrom))
            continue;

        // If the primary died with the node, a surviving replica takes
        // over as primary before anything is copied.
        if (onFrom(p.primary) && !sourceAlive) {
            SlabGrant *survivor = nullptr;
            for (SlabGrant &r : *p.replicas) {
                if (r.where.node != from &&
                    health(r.where.node) != NodeHealth::Failed) {
                    survivor = &r;
                    break;
                }
            }
            if (survivor == nullptr) {
                // Every copy died with the node: the data is gone.
                report.slabsScanned += 1;
                report.slabsLost += 1;
                slabsLost_.add();
                warn("slab ", p.primary->slab,
                     " lost with node ", from, ": no surviving copy");
                continue;
            }
            std::swap(*p.primary, *survivor);
            report.primariesPromoted += 1;
        }

        for (SlabGrant *g : copies) {
            if (!onFrom(g))
                continue;
            report.slabsScanned += 1;

            // Source of truth for the new copy: the grant itself when
            // the node is merely draining, else any surviving copy.
            const SlabGrant *source = nullptr;
            if (sourceAlive) {
                source = g;
            } else {
                for (SlabGrant *s : copies) {
                    if (s != g && s->where.node != from &&
                        health(s->where.node) != NodeHealth::Failed) {
                        source = s;
                        break;
                    }
                }
            }
            if (source == nullptr) {
                report.slabsLost += 1;
                slabsLost_.add();
                continue;
            }

            // Never co-locate two copies of the same slab.
            std::vector<NodeId> occupied{from};
            for (SlabGrant *s : copies) {
                if (s != g)
                    occupied.push_back(s->where.node);
            }
            rehomeCopy(*g, *source, sourceAlive, occupied, report);
        }
    }
    return report;
}

RebuildReport
Controller::rebalanceOnto(NodeId target,
                          std::vector<PlacementRef> &placements)
{
    KONA_ASSERT(nodes_.count(target) == 1, "unknown node ", target);
    RebuildReport report;

    // Flatten every copy, tallying the per-node load (copies are
    // uniform slabs, so a count is a byte load).
    std::vector<SlabGrant *> copies;
    std::vector<const PlacementRef *> owner;
    std::unordered_map<NodeId, std::size_t> load;
    for (const PlacementRef &p : placements) {
        KONA_ASSERT(p.primary != nullptr && p.replicas != nullptr,
                    "placement ref without grants");
        copies.push_back(p.primary);
        owner.push_back(&p);
        for (SlabGrant &r : *p.replicas) {
            copies.push_back(&r);
            owner.push_back(&p);
        }
    }
    for (SlabGrant *g : copies)
        ++load[g->where.node];

    std::size_t liveNodes = 0;
    for (const auto &[id, node] : nodes_)
        liveNodes += health(id) != NodeHealth::Failed ? 1 : 0;
    std::size_t fairShare =
        liveNodes == 0 ? 0 : copies.size() / liveNodes;

    // Repeatedly move one copy from the most-loaded donor until the
    // target carries its fair share (or no donor can give one up).
    while (load[target] < fairShare) {
        NodeId donor = target;
        std::size_t donorLoad = 0;
        for (const auto &[id, n] : load) {
            if (id != target && n > donorLoad &&
                health(id) != NodeHealth::Failed) {
                donor = id;
                donorLoad = n;
            }
        }
        if (donor == target || donorLoad <= load[target] + 1)
            break;   // nothing left worth moving

        // Pick a donor copy whose siblings avoid the target (never
        // co-locate two copies of the same slab).
        SlabGrant *pick = nullptr;
        for (std::size_t i = 0; i < copies.size(); ++i) {
            if (copies[i]->where.node != donor)
                continue;
            bool siblingOnTarget =
                owner[i]->primary->where.node == target;
            for (const SlabGrant &r : *owner[i]->replicas)
                siblingOnTarget |= r.where.node == target;
            if (!siblingOnTarget) {
                pick = copies[i];
                break;
            }
        }
        if (pick == nullptr) {
            // Every copy on this donor has a sibling on the target;
            // a second donor cannot fix that, stop here.
            break;
        }

        auto replacement = allocateSlab({.pinTo = target});
        if (!replacement.has_value()) {
            report.slabsUnrebuilt += 1;
            break;   // target is full: the rebalance is as far as it goes
        }
        report.slabsScanned += 1;
        std::vector<std::uint8_t> bytes(pick->size);
        node(pick->where.node)
            .store()
            .read(pick->where.offset, bytes.data(), bytes.size());
        node(target).store().write(replacement->where.offset,
                                   bytes.data(), bytes.size());
        node(pick->where.node).freeSlab(pick->where.offset);
        replacement->slab = pick->slab;   // identity follows the data
        replacement->size = pick->size;
        *pick = *replacement;
        --load[donor];
        ++load[target];
        report.slabsRebuilt += 1;
        report.bytesCopied += bytes.size();
        slabsRebuilt_.add();
        bytesCopied_.add(bytes.size());
    }
    inform("controller: rebalanced ", report.slabsRebuilt,
           " slab(s) onto node ", target);
    return report;
}

bool
Controller::rehomeCopy(SlabGrant &grant, const SlabGrant &source,
                       bool sourceAlive,
                       const std::vector<NodeId> &occupied,
                       RebuildReport &report)
{
    auto replacement = allocateSlab({.avoid = occupied});
    if (!replacement.has_value()) {
        report.slabsUnrebuilt += 1;
        warn("no healthy node has room to re-home slab ", grant.slab,
             "; redundancy stays degraded");
        return false;
    }

    // Control-plane copy between the nodes' stores; the simulation does
    // not charge application time for background rebuild traffic.
    std::vector<std::uint8_t> bytes(grant.size);
    node(source.where.node).store().read(source.where.offset,
                                         bytes.data(), bytes.size());
    node(replacement->where.node).store().write(replacement->where.offset,
                                                bytes.data(),
                                                bytes.size());
    if (sourceAlive)
        node(grant.where.node).freeSlab(grant.where.offset);

    replacement->slab = grant.slab;  // identity follows the data
    replacement->size = grant.size;
    grant = *replacement;
    report.slabsRebuilt += 1;
    report.bytesCopied += bytes.size();
    slabsRebuilt_.add();
    bytesCopied_.add(bytes.size());
    return true;
}

} // namespace kona
