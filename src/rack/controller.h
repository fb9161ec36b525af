/**
 * @file
 * Controller: the centralized rack controller of §4.1. Memory nodes
 * register the pools they expose; compute-node Resource Managers ask
 * it for coarse-grained slabs off the application's critical path.
 *
 * The controller is also the rack's health authority (§4.5): compute
 * nodes report per-op outcomes, a run of consecutive failures marks a
 * node Failed, and rebuildReplicas() restores the configured redundancy
 * by re-replicating every slab the dead node held from its surviving
 * copies onto healthy nodes. Draining supports graceful decommission:
 * a Draining node takes no new slabs while evacuateNode() migrates its
 * existing ones away.
 */

#ifndef KONA_RACK_CONTROLLER_H
#define KONA_RACK_CONTROLLER_H

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "policy/placement_policy.h"
#include "rack/memory_node.h"
#include "telemetry/event_journal.h"
#include "telemetry/metric_registry.h"

namespace kona {

class DirectoryService;

/** A slab grant handed to a compute node. */
struct SlabGrant
{
    SlabId slab = 0;
    RemoteAddr where;           ///< node + offset of the slab base
    std::size_t size = 0;
    std::uint32_t regionKey = 0; ///< RDMA key covering the slab
};

/**
 * Controller-side view of a memory node's availability. Gray failures
 * move a node along Healthy -> Suspect -> Quarantined -> Readmitted ->
 * Healthy driven by the health score; the planned states Draining and
 * Joining support graceful decommission and hot-add; Failed is the
 * fail-stop terminal state (rebuild elsewhere).
 */
enum class NodeHealth : std::uint8_t
{
    Healthy,     ///< taking traffic and new slabs
    Suspect,     ///< degraded score: reads hedge to replicas
    Quarantined, ///< no primary reads, no new placements; writes to
                 ///< existing copies continue so data stays current
    Readmitted,  ///< recovered from quarantine, on probation
    Joining,     ///< hot-added: being warmed/rebalanced onto; no
                 ///< primary traffic until the join completes
    Draining,    ///< serving existing slabs; no new placements
    Failed,      ///< declared dead; data must be rebuilt elsewhere
};

/**
 * Tunables of the EWMA health scorer. Per-op outcomes (success,
 * failure/timeout, NAK) fold into a badness EWMA and fetch latencies
 * into a latency EWMA; the score is the worse of the two, and
 * threshold crossings drive the membership state machine. Defaults are
 * deliberately conservative (minSamples keeps a short burst from
 * tripping transitions) so the fail-stop detector's consecutive-failure
 * threshold still fires first on a truly dead node.
 */
struct HealthPolicy
{
    double ewmaAlpha = 0.15;           ///< weight of a new observation
    double suspectThreshold = 0.5;     ///< score at/above -> Suspect
    double quarantineThreshold = 0.85; ///< Suspect score -> Quarantined
    double recoverThreshold = 0.15;    ///< score at/below -> recover
    Tick latencyBudgetNs = 40'000;     ///< fetch EWMA considered healthy
    double latencySlack = 4.0;         ///< budget multiple scoring 1.0
    std::uint32_t minSamples = 16;     ///< observations before moving
    std::uint32_t readmitProbation = 32; ///< clean ops to exit probation
};

/**
 * One translation entry's placement, lent to the controller for
 * rebuild/evacuation. The pointers alias the owner's (e.g.
 * RemoteTranslation's) live grants so the controller can rewrite
 * placements in place without the rack layer knowing about the FPGA.
 */
struct PlacementRef
{
    SlabGrant *primary = nullptr;
    std::vector<SlabGrant> *replicas = nullptr;
};

/** Outcome of one rebuild or evacuation sweep. */
struct RebuildReport
{
    std::uint64_t slabsScanned = 0;   ///< copies found on the lost node
    std::uint64_t slabsRebuilt = 0;   ///< replacement copies created
    std::uint64_t slabsLost = 0;      ///< no surviving copy existed
    std::uint64_t slabsUnrebuilt = 0; ///< survivors exist, no room to copy
    std::uint64_t primariesPromoted = 0; ///< replicas taking over primary
    std::uint64_t bytesCopied = 0;
};

/** Centralized slab allocator over the registered memory nodes. */
class Controller
{
  public:
    /** Default slab granularity; the paper uses large slabs. */
    static constexpr std::size_t defaultSlabSize = 4 * MiB;

    /** Consecutive op failures before a node is declared Failed. */
    static constexpr std::uint32_t defaultFailureThreshold = 5;

    /**
     * @param scope Telemetry scope for the allocation/heal counters.
     * @param placementPolicy Slab placement policy spec (free, first,
     *        rr, health — see src/policy/placement_policy.h).
     */
    explicit Controller(std::size_t slabSize = defaultSlabSize,
                        MetricScope scope = {},
                        const std::string &placementPolicy = "free");

    /** A memory node exposes its pool to applications. */
    void registerNode(MemoryNode &node);

    /** Stop placing new slabs on @p node (decommission). */
    void removeNode(NodeId node);

    /**
     * Allocate one slab as described by @p req: among the nodes that
     * take placements, have room, and are not in req.avoid, the
     * configured PlacementPolicy picks the target. req.pinTo bypasses
     * both the policy and the health filter (rebalance targets
     * Joining nodes). Returns nullopt when nothing fits — unless
     * req.required, which makes that fatal.
     */
    std::optional<SlabGrant> allocateSlab(const PlacementRequest &req);

    /** Swap the placement policy ("policy", no argument). */
    void setPlacementPolicy(const std::string &spec);

    /** Name of the active placement policy ("free", "rr"...). */
    std::string placementPolicyName() const
    {
        return placement_->name();
    }

    /** Return a slab to its node. No-op if the node has failed. */
    void freeSlab(const SlabGrant &grant);

    /** The registered memory node @p id (fatal if unknown). */
    MemoryNode &node(NodeId id) const;

    /**
     * Smallest landing-area ring slot over every registered node (any
     * health) when each carves its log area into @p slots; SIZE_MAX
     * when no node is registered.
     */
    std::size_t minLogSlotBytes(std::size_t slots) const;

    std::size_t slabSize() const { return slabSize_; }
    std::size_t nodeCount() const { return nodes_.size(); }
    std::size_t healthyNodeCount() const;
    std::uint64_t slabsAllocated() const
    {
        return slabsAllocated_.value();
    }

    /** Total free bytes across all healthy registered nodes. */
    std::size_t totalFree() const;

    // --- failure detection ------------------------------------------

    /** A compute node saw an op against @p node fail (drop/timeout). */
    void reportOpFailure(NodeId node);

    /** A compute node saw an op against @p node succeed. */
    void reportOpSuccess(NodeId node);

    /** Declare @p node dead immediately (e.g. fabric says it's down). */
    void markFailed(NodeId node);

    /** Stop new placements on @p node ahead of decommission. */
    void drainNode(NodeId node);

    NodeHealth health(NodeId node) const;

    /** Nodes newly declared Failed since the last call (clears them). */
    std::vector<NodeId> takeNewlyFailed();

    /**
     * Whether takeNewlyFailed() would return anything. An atomic
     * mirror of the pending list: compute-node shards poll this once
     * per access without entering the gate, so the parallel engine
     * needs the read to be race-free against another shard's gated
     * markFailed()/takeNewlyFailed().
     */
    bool
    hasNewlyFailed() const
    {
        return newlyFailedFlag_.load(std::memory_order_acquire);
    }

    void setFailureThreshold(std::uint32_t n) { failureThreshold_ = n; }

    /**
     * Journal every membership event (health transitions, removals,
     * drain/join lifecycle) into @p journal. nullptr detaches.
     */
    void setJournal(EventJournal *journal) { journal_ = journal; }
    EventJournal *journal() const { return journal_; }

    /**
     * The inter-node coherence directory hosted at this controller
     * (§4.1 places rack-global metadata here). The controller does not
     * own the service; MultiRack wires it so compute nodes can find
     * the rack's directory through the controller they already hold.
     * nullptr on single-writer racks.
     */
    void hostDirectory(DirectoryService *directory)
    {
        directory_ = directory;
    }
    DirectoryService *directory() const { return directory_; }

    // --- gray-failure health scoring --------------------------------

    void setHealthPolicy(const HealthPolicy &p) { healthPolicy_ = p; }
    const HealthPolicy &healthPolicy() const { return healthPolicy_; }

    /** A demand fetch against @p node succeeded in @p latencyNs. */
    void observeFetch(NodeId node, Tick latencyNs);

    /** The receiver NAKed a payload to @p node (CRC failure). */
    void observeNak(NodeId node);

    /** An op against @p node timed out (counts like a failure). */
    void observeTimeout(NodeId node);

    /** Current [0, 1] health score of @p node (0 = pristine). */
    double healthScore(NodeId node) const;

    /**
     * Monotone epoch bumped on every membership transition. Consumers
     * (runtime, eviction, prefetch) compare epochs to notice that the
     * rack's shape changed under them.
     */
    std::uint64_t membershipEpoch() const { return membershipEpoch_; }

    /** Whether @p node may receive new slab placements. */
    bool
    takesPlacements(NodeId node) const
    {
        NodeHealth h = health(node);
        return h == NodeHealth::Healthy || h == NodeHealth::Readmitted;
    }

    /**
     * Whether reads should prefer another replica over @p node. True
     * for Suspect (hedge), Quarantined, Joining (not warmed yet) and
     * Failed nodes; Draining still serves its existing slabs.
     */
    bool
    avoidForReads(NodeId node) const
    {
        NodeHealth h = health(node);
        return h == NodeHealth::Suspect ||
               h == NodeHealth::Quarantined ||
               h == NodeHealth::Joining || h == NodeHealth::Failed;
    }

    // --- elastic membership -----------------------------------------

    /**
     * Hot-add: register @p node in the Joining state. It takes no
     * placements or primary reads until completeJoin(); warm it first
     * via rebalanceOnto().
     */
    void joinNode(MemoryNode &node);

    /** Promote a Joining node to Healthy (warm-up finished). */
    void completeJoin(NodeId node);

    /**
     * Warm a hot-added node: migrate copies from the most-loaded live
     * nodes onto @p target until it carries its fair share, copying
     * bytes control-plane and rewriting the placements in place (same
     * contract as rebuildReplicas/evacuateNode).
     */
    RebuildReport rebalanceOnto(NodeId target,
                                std::vector<PlacementRef> &placements);

    // --- self-healing -----------------------------------------------

    /**
     * Restore redundancy after @p lost failed permanently: for every
     * placement with a copy on the lost node, promote a surviving
     * replica to primary if the primary died, then create replacement
     * copies on healthy nodes (avoiding nodes that already hold a copy
     * of the same slab), copying the bytes from a survivor.
     */
    RebuildReport rebuildReplicas(NodeId lost,
                                  std::vector<PlacementRef> &placements);

    /**
     * Graceful decommission: migrate every copy held by the (live,
     * Draining) node @p node onto other healthy nodes, freeing the
     * originals, so the node can be removed without data loss.
     */
    RebuildReport evacuateNode(NodeId node,
                               std::vector<PlacementRef> &placements);

    std::uint64_t nodesFailed() const { return nodesFailed_.value(); }
    std::uint64_t slabsRebuilt() const { return slabsRebuilt_.value(); }
    std::uint64_t slabsLost() const { return slabsLost_.value(); }
    std::uint64_t bytesCopied() const { return bytesCopied_.value(); }
    std::uint64_t nodesSuspected() const
    {
        return nodesSuspected_.value();
    }
    std::uint64_t nodesQuarantined() const
    {
        return nodesQuarantined_.value();
    }
    std::uint64_t nodesReadmitted() const
    {
        return nodesReadmitted_.value();
    }

  private:
    /** EWMA state behind one node's health score. */
    struct HealthScore
    {
        double badness = 0.0;     ///< EWMA of bad-op indicators
        double latencyNs = 0.0;   ///< EWMA of demand-fetch latency
        std::uint64_t samples = 0;
        std::uint32_t probation = 0; ///< clean ops left in Readmitted
    };

    RebuildReport migrate(NodeId from, bool sourceAlive,
                          std::vector<PlacementRef> &placements);

    /** Re-home one dead/draining copy; true on success. */
    bool rehomeCopy(SlabGrant &grant, const SlabGrant &source,
                    bool sourceAlive,
                    const std::vector<NodeId> &occupied,
                    RebuildReport &report);

    /** Assemble the grant for a slab carved out of @p node. */
    SlabGrant grantFrom(MemoryNode *node);

    /** Fold one observation into @p node's score, then re-evaluate
     *  the membership state machine. */
    void recordSample(NodeId node, double badness,
                      std::optional<Tick> latencyNs);

    /** Score from the current EWMA state. */
    double scoreOf(const HealthScore &s) const;

    /** Move @p node to @p to, bumping the membership epoch. */
    void transition(NodeId node, NodeHealth to, const char *reason);

    std::size_t slabSize_;
    MetricScope scope_;
    std::unique_ptr<PlacementPolicy> placement_;
    /** Scratch for allocateSlab (parallel: candidateNodes_[i] backs
     *  candidates_[i]); members so repeated allocations reuse them. */
    std::vector<PlacementCandidate> candidates_;
    std::vector<MemoryNode *> candidateNodes_;
    std::unordered_map<NodeId, MemoryNode *> nodes_;
    std::unordered_map<NodeId, NodeHealth> health_;
    std::unordered_map<NodeId, std::uint32_t> consecFailures_;
    std::unordered_map<NodeId, HealthScore> scores_;
    std::vector<NodeId> newlyFailed_;
    std::atomic<bool> newlyFailedFlag_{false};
    std::uint32_t failureThreshold_ = defaultFailureThreshold;
    HealthPolicy healthPolicy_;
    std::uint64_t membershipEpoch_ = 1;
    SlabId nextSlab_ = 1;
    EventJournal *journal_ = nullptr;
    DirectoryService *directory_ = nullptr;
    Counter &slabsAllocated_;
    Counter &nodesFailed_;
    Counter &slabsRebuilt_;
    Counter &slabsLost_;
    Counter &bytesCopied_;
    Counter &nodesSuspected_;
    Counter &nodesQuarantined_;
    Counter &nodesReadmitted_;
    Counter &nodesJoined_;
    Gauge &epochGauge_;
};

} // namespace kona

#endif // KONA_RACK_CONTROLLER_H
