#include "rack/replica_walker.h"

#include "common/logging.h"

namespace kona {

ReplicaWalker::ReplicaWalker(const Fabric &fabric, Controller *controller,
                             RemoteTranslation &translation,
                             const MetricScope &scope)
    : fabric_(fabric), controller_(controller), translation_(translation),
      promotions_(scope.counter("replica_promotions")),
      hedged_(scope.counter("hedged_reads")),
      staleSkips_(scope.counter("stale_home_skips"))
{}

bool
ReplicaWalker::reachable(NodeId node)
{
    // A dead node nobody posts to would otherwise accrue no evidence.
    bool down = fabric_.nodeDown(node);
    if (down && controller_ != nullptr)
        controller_->reportOpFailure(node);
    return !down;
}

bool
ReplicaWalker::avoids(NodeId node) const
{
    return controller_ != nullptr && controller_->avoidForReads(node);
}

std::uint64_t
ReplicaWalker::avoidedCopies(const CopySet &copies) const
{
    KONA_ASSERT(copies.size() <= 64, "more copies than the walk tracks");
    std::uint64_t avoided = 0;
    for (std::size_t i = 0; i < copies.size(); ++i)
        avoided |= std::uint64_t{avoids(copies[i].node)} << i;
    return avoided;
}

bool
ReplicaWalker::skipStale(Addr vpn, NodeId node)
{
    const auto *homes = staleHomesOf(vpn);
    bool stale = homes != nullptr && homes->count(node) > 0;
    if (stale)
        staleSkips_.add();
    return stale;
}

bool
ReplicaWalker::record(NodeId node, std::optional<Tick> latency)
{
    if (controller_ != nullptr && latency.has_value()) {
        controller_->reportOpSuccess(node);
        controller_->observeFetch(node, *latency);
    } else if (controller_ != nullptr) {
        controller_->reportOpFailure(node);
    }
    return latency.has_value();
}

void
ReplicaWalker::served(Addr vpn, const CopySet &copies, std::size_t i,
                      ReadIntent intent)
{
    if (intent != ReadIntent::Demand || i == 0)
        return;
    bool earlierAllDown = true;
    for (std::size_t j = 0; j < i; ++j)
        earlierAllDown &= fabric_.nodeDown(copies[j].node);
    if (earlierAllDown) {
        warn("failed over page ", vpn, " to node ", copies[i].node);
        translation_.promoteReplica(vpn * pageSize, i - 1);
        promotions_.add();
    } else if (!fabric_.nodeDown(copies[0].node) &&
               avoids(copies[0].node)) {
        // A hedge, like a transient drop, leaves the placement alone:
        // the primary gets another chance once it recovers.
        hedged_.add();
    }
}

bool
ReplicaWalker::settleCopy(Addr vpn, NodeId home, bool landed,
                          std::uint64_t lines)
{
    if (landed) {
        // The write carried every stale line of the page: fresh again.
        auto it = staleHomes_.find(vpn);
        if (it != staleHomes_.end() && it->second.erase(home) > 0 &&
            it->second.empty()) {
            staleHomes_.erase(it);
        }
        return false;
    }
    // A dead home is fine to miss: the rebuild re-copies it from a
    // survivor. A live one (retries exhausted against a gray link)
    // now holds stale bytes until a later write of the page lands.
    if (fabric_.nodeDown(home) ||
        (controller_ != nullptr &&
         controller_->health(home) == NodeHealth::Failed)) {
        return false;
    }
    markStale(vpn, home, lines);
    return true;
}

void
ReplicaWalker::markStale(Addr vpn, NodeId node, std::uint64_t mask)
{
    staleHomes_[vpn][node] |= mask;
}

std::uint64_t
ReplicaWalker::staleLines(Addr vpn) const
{
    std::uint64_t mask = 0;
    if (const auto *homes = staleHomesOf(vpn)) {
        for (const auto &[node, lines] : *homes)
            mask |= lines;
    }
    return mask;
}

} // namespace kona
