/**
 * @file
 * EvictionHandler: Kona's third remote-memory operation (§4.4, "Evicting
 * dirty data"). It monitors FMem utilization, picks victims, snoops
 * their lines out of the CPU caches, and ships only the dirty
 * cache-lines in a FaRM-style CL log that a receiver thread on the
 * memory node unpacks. Clean pages are evicted silently, and batches
 * aggregate dirty lines from many pages into one log per destination
 * node ("even from different pages", §6.4).
 *
 * Two movement modes exercise the paper's "choose the data movement
 * size between page and cache-line granularity" principle:
 *  - ClLog: dirty lines aggregated into a log (Kona proper);
 *  - FullPage: whole-page RDMA writes (what Kona-VM is forced to do),
 *    linked into one chain per destination node.
 *
 * The engine is a pipelined, request-oriented design: submit() packs a
 * batch and posts one shipment per destination node into a ring of
 * landing-area slots (pipelineDepth slots per node), then returns —
 * batch k+1 packs while k and k-1 are on the wire or being unpacked.
 * poll() reaps finished shipments without blocking; drain() blocks
 * until everything (including NAK retransmits and re-dirtied requeues)
 * has landed. evictPage()/evictBatch() remain as synchronous wrappers
 * (submit + drain), so pipelineDepth = 1 reproduces the historical
 * fully synchronous behaviour exactly. Pages stay resident and fenced
 * in the FPGA while their log is in flight; a write to a fenced page
 * re-dirties it and the engine re-queues it rather than losing lines.
 */

#ifndef KONA_CORE_EVICTION_HANDLER_H
#define KONA_CORE_EVICTION_HANDLER_H

#include <deque>
#include <list>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "fpga/coherent_fpga.h"
#include "net/retry_policy.h"
#include "rack/cl_log.h"
#include "rack/controller.h"
#include "telemetry/attribution.h"
#include "telemetry/event_journal.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace_session.h"

namespace kona {

/** Eviction data-movement granularity. */
enum class EvictionMode : std::uint8_t { ClLog, FullPage };

/**
 * Static configuration of the eviction engine. Replaces the old
 * post-construction setters (setMode/setRetryPolicy/setTraceSession);
 * embed in KonaConfig as `evict`.
 */
struct EvictionConfig
{
    /** Data-movement granularity. */
    EvictionMode mode = EvictionMode::ClLog;

    /**
     * Ring slots carved out of each memory node's log landing area =
     * in-flight shipments allowed per node. 1 reproduces the fully
     * synchronous engine; larger depths overlap packing with wire and
     * receiver-unpack time.
     */
    std::size_t pipelineDepth = 1;

    /** Accesses between background eviction pumps. */
    std::size_t pumpPeriod = 256;

    /** Free ways per FMem set the background pump maintains. */
    std::size_t freeWays = 1;

    /**
     * Retry discipline for shipping payloads (drops, NAKs). nullopt
     * inherits KonaConfig::retry when embedded there (a default-
     * constructed policy otherwise).
     */
    std::optional<RetryPolicy> retry;

    /** Span tracer for the eviction path (KonaRuntime wires its own). */
    TraceSession *trace = nullptr;

    /** Event journal for stale-home marks, retries-exhausted give-ups
     *  and ring-full stalls (KonaRuntime wires its own). */
    EventJournal *journal = nullptr;
};

/**
 * Time breakdown of the eviction path (Fig 11c). The components
 * overlap once pipelineDepth > 1 (wire/unpack of batch k run under the
 * pack of batch k+1), so totalNs() can exceed the wall-clock time the
 * sender was actually blocked; waitNs alone is the sender-side stall.
 */
struct EvictionBreakdown
{
    double bitmapNs = 0.0;   ///< scanning dirty masks
    double copyNs = 0.0;     ///< copying lines into the RDMA buffer
    double rdmaNs = 0.0;     ///< posting + wire time (sum of shipments)
    double unpackNs = 0.0;   ///< receiver-thread verify + distribute
    double waitNs = 0.0;     ///< sender blocked (ring full, drain, ack)

    double
    totalNs() const
    {
        return bitmapNs + copyNs + rdmaNs + unpackNs + waitNs;
    }
};

/** A batch of pages handed to submit(). */
struct EvictionRequest
{
    std::vector<Addr> vpns;   ///< VFMem page numbers to evict
};

/**
 * Handle to one submitted batch. submit() on an oversized request
 * chunks internally and returns the last chunk's ticket; drain() is
 * the completion barrier that covers every outstanding batch.
 */
struct BatchTicket
{
    std::uint64_t id = 0;
    bool valid() const { return id != 0; }
};

/** Kona's eviction engine. */
class EvictionHandler
{
  public:
    /** @param scope Telemetry scope for the eviction counters. */
    EvictionHandler(Fabric &fabric, CoherentFpga &fpga,
                    Controller &controller, EvictionConfig config = {},
                    MetricScope scope = {});

    // --- asynchronous request API ------------------------------------

    /**
     * Pack @p req and post one shipment per destination node, blocking
     * only while a needed ring slot is busy (counted in
     * ringFullStalls) or a requested page's previous shipment is still
     * in flight. Only scan + pack cost is charged to @p clock; wire,
     * unpack and ack time accrue on the shipments' own timelines.
     */
    BatchTicket submit(const EvictionRequest &req, SimClock &clock);

    /**
     * Reap finished shipments without blocking: finalize every batch
     * whose last shipment completed at or before @p clock's now.
     * @return Batches finalized by this call.
     */
    std::size_t poll(const SimClock &clock);

    /**
     * Block until every in-flight shipment acked (advancing @p clock
     * to each completion; the waits are charged to waitNs) and every
     * page re-dirtied while in flight has been re-submitted and
     * landed.
     */
    void drain(SimClock &clock);

    /**
     * Targeted barrier: block until no in-flight shipment targets
     * @p node. Required before evacuating/rebalancing away from a
     * live node — an in-flight CL log addressed to the old placement
     * must land before the Controller frees and rewrites it, or the
     * late write lands on reused memory. Each wait is counted in
     * evacuateDrainStalls(). Pages re-dirtied in flight stay queued
     * (they re-ship against the rewritten placement later).
     */
    void drainNode(NodeId node, SimClock &clock);

    /** Whether @p ticket's batch has been finalized. */
    bool complete(BatchTicket ticket) const;

    // --- synchronous wrappers ----------------------------------------

    /**
     * Evict VFMem page @p vpn: snoop CPU caches, write dirty lines (or
     * the full page) to every remote copy, drop the page from FMem.
     * Synchronous wrapper: submit + drain.
     */
    void evictPage(Addr vpn, SimClock &clock);

    /**
     * Evict a batch of pages together: one CL log (or one linked WR
     * chain) per destination node, one ack per node. Synchronous
     * wrapper: submit + drain.
     */
    void evictBatch(const std::vector<Addr> &vpns, SimClock &clock);

    /**
     * Background sweep: keep @p freeWays ways free in every FMem set,
     * charging the work to the background clock so it stays off the
     * application's critical path.
     */
    void pump(SimClock &backgroundClock, std::size_t freeWays = 1);

    /**
     * Targeted flush for a remote coherence invalidation: ship @p vpn's
     * dirty lines and wait until *that page* (and only that page) has
     * settled, without draining unrelated in-flight shipments the way
     * evictPage()'s drain() barrier would. If the page was clean it
     * drops silently; if every home was unreachable it stays resident.
     * @return true when the page is gone from FMem (ownership can
     *         transfer), false when the writeback could not land.
     */
    bool flushPage(Addr vpn, SimClock &clock);

    // --- configuration ------------------------------------------------

    EvictionMode mode() const { return config_.mode; }

    /**
     * Parallel engine: every public entry point (submit/poll/drain/
     * drainNode/flushPage/pump) becomes a gated cross-shard section —
     * shipments post on the fabric, land in memory-node rings and
     * report into the Controller. Sections nest (pump -> submit is a
     * depth bump). Default endpoint = sequential mode, zero overhead.
     */
    void setGateEndpoint(const GateEndpoint &ep) { gate_ = ep; }

    // --- statistics ---------------------------------------------------

    std::uint64_t pagesEvicted() const { return pagesEvicted_.value(); }
    std::uint64_t silentEvictions() const { return silent_.value(); }
    std::uint64_t dirtyLinesWritten() const { return lines_.value(); }
    std::uint64_t bytesOnWire() const { return wireBytes_.value(); }
    std::uint64_t retryBackoffs() const { return retries_.value(); }
    std::uint64_t logRetransmits() const { return retransmits_.value(); }
    std::uint64_t checksumNaks() const { return naks_.value(); }
    /** Times submit() blocked because a node's slot ring was full. */
    std::uint64_t ringFullStalls() const { return ringStalls_.value(); }
    /** Pages re-queued because they were written while in flight. */
    std::uint64_t inflightRefetches() const { return refetches_.value(); }
    /** Times submit() waited for a page's previous shipment. */
    std::uint64_t pageConflictStalls() const
    {
        return conflictStalls_.value();
    }
    /** Times drainNode() had to wait out an in-flight shipment before
     *  an evacuation/rebalance could safely rewrite placements. */
    std::uint64_t evacuateDrainStalls() const
    {
        return evacuateStalls_.value();
    }
    /** Copies marked stale because a *live* home missed the shipment
     *  (retries exhausted against a gray link). The page still drops —
     *  at least one fresh copy landed — but reads skip the stale home
     *  and the page's next eviction re-ships the missed lines. */
    std::uint64_t staleCopyMarks() const
    {
        return staleMarks_.value();
    }
    /** Shipments currently on the wire or awaiting finalize. */
    std::size_t inflightShipments() const { return shipments_.size(); }
    const EvictionBreakdown &breakdown() const { return breakdown_; }
    void resetBreakdown() { breakdown_ = {}; }

    /** Exact per-shipment latency attribution (queueing / wire /
     *  unpack / ack / retry on each shipment's own timeline, sum ==
     *  submission-to-settle) with a slowest-1% table. */
    const LatencyAttribution &shipmentAttribution() const
    {
        return shipAttr_;
    }

  private:
    /** One page's packed contribution to an in-flight batch. */
    struct PackedPage
    {
        Addr vpn;
        std::uint64_t mask;   ///< dirty mask captured (and cleared) at pack
        /** The page's homes: Batch::homes[firstHome, +homeCount). */
        std::uint32_t firstHome = 0;
        std::uint32_t homeCount = 0;
    };

    /** An in-flight batch: pages + the shipments carrying them. */
    struct Batch
    {
        std::uint64_t id = 0;
        std::vector<PackedPage> pages;
        std::vector<NodeId> homes;     ///< every packed page's homes
        std::vector<NodeId> reached;   ///< nodes whose shipment landed
        std::size_t outstanding = 0;   ///< unfinalized shipments
        bool open = true;              ///< submit() still posting
        Tick start = 0;
        Tick lastDone = 0;
        std::size_t requested = 0;     ///< pages asked (trace arg)
        std::uint32_t lane = traceAppThread;
    };

    /** One payload on the wire to one node (one ring slot). */
    struct Shipment
    {
        std::uint64_t id = 0;
        std::uint64_t batchId = 0;
        NodeId node = 0;
        std::size_t slot = 0;
        bool clLog = true;
        bool posted = false;   ///< a post awaits its CQE
        std::uint64_t wrId = 0;               ///< ClLog: the live post
        std::vector<std::uint8_t> log;        ///< ClLog payload
        std::vector<WorkRequest> chain;       ///< FullPage doorbell
        std::vector<std::unique_ptr<std::vector<std::uint8_t>>>
            pageCopies;                       ///< FullPage staging
        SimClock timeline;    ///< this shipment's logical thread
        std::optional<RetryState> retry;
        std::uint64_t sends = 0;
        Tick wireStart = 0;
        Tick attrStart = 0;   ///< timeline at submission (attribution)
        /** Per-component ns on this shipment's timeline, indexed by
         *  EvictComponent; settles into shipmentAttribution(). */
        std::array<Tick, LatencyAttribution::maxComponents> comp{};
        Tick doneAt = 0;      ///< ack time (valid once acked)
        bool acked = false;   ///< outcome decided, awaiting finalize
        bool succeeded = false;

        /** Whether the CQE of work request @p id belongs to the live
         *  post (a chain's error CQE names the WR that failed). */
        bool
        owns(std::uint64_t id) const
        {
            if (!posted)
                return false;
            if (clLog)
                return wrId == id;
            for (const WorkRequest &wr : chain) {
                if (wr.wrId == id)
                    return true;
            }
            return false;
        }
    };

    /**
     * Per memory node, reused across batches: its landing-area ring,
     * the serialization points of its link and receiver thread, and
     * the payload the batch being packed is building for it.
     */
    struct NodeSlot
    {
        std::size_t slots = 0;              ///< ring slots (0: unused)
        std::size_t slotBytes = 0;
        std::vector<std::uint64_t> owner;   ///< shipment id, 0 = free
        Tick wireFreeAt = 0;   ///< the node's link frees up
        Tick recvFreeAt = 0;   ///< the node's receiver thread frees up

        bool packing = false;  ///< the open batch has a payload here
        std::optional<ClLogWriter> writer;  ///< builds + checksums log
        std::vector<std::uint8_t> log;      ///< ClLog payload
        std::vector<WorkRequest> chain;     ///< FullPage doorbell
        std::vector<std::unique_ptr<std::vector<std::uint8_t>>>
            pageCopies;                     ///< FullPage staging
    };

    /** @p node's slot, setting up its ring on first use. */
    NodeSlot &nodeSlot(NodeId node);

    /** Pack and post @p vpns (chunked as submit() describes). */
    BatchTicket submitPages(std::span<const Addr> vpns, SimClock &clock);

    /** A fresh live batch at the end of batches_ (a recycled slot
     *  when one is spare). */
    Batch &openBatch();

    /** The live batch @p id. */
    Batch &batchById(std::uint64_t id);

    /** Move finalized batch @p id to the spares. */
    void retireBatch(std::uint64_t id);

    /** A new shipment at the end of shipments_ (a recycled slot, whose
     *  buffers keep their capacity, when one is spare), retrying with
     *  @p seed. */
    Shipment &takeShipment(std::uint64_t seed);

    /** Move finalized shipment @p it to the spares; returns the next. */
    std::list<Shipment>::iterator
    retireShipment(std::list<Shipment>::iterator it);

    /** Largest batch whose worst-case log fits every node's ring slot. */
    std::size_t batchPageLimit() const;

    /** Post (or re-post) @p s's payload on its own timeline. */
    void postShipment(Shipment &s);

    /** Consume every pending CQE, deciding shipment outcomes. */
    void reapCq();

    /** Route one CQE to its shipment (wire done / retransmit / fail). */
    void handleCompletion(const WorkCompletion &wc);

    /** Terminal outcome for @p s; finalize happens at its doneAt. */
    void settleShipment(Shipment &s, bool succeeded);

    /** Finalize every acked shipment with doneAt <= @p now. */
    std::size_t finalizeDue(Tick now);

    /** Drop/keep/requeue the pages of a fully-acked batch. */
    void finalizeBatch(Batch &batch);

    /** Earliest doneAt among in-flight shipments passing @p pred. */
    template <typename Pred>
    std::optional<Tick>
    earliestDoneAt(Pred pred) const
    {
        std::optional<Tick> best;
        for (const Shipment &s : shipments_) {
            if (!pred(s))
                continue;
            if (!best.has_value() || s.doneAt < *best)
                best = s.doneAt;
        }
        return best;
    }

    /** Advance @p clock to @p until, charging the wait to waitNs. */
    void waitUntil(SimClock &clock, Tick until);

    /** Block until no in-flight shipment still covers @p vpn. */
    void awaitPageIdle(Addr vpn, SimClock &clock);

    /** Record a manual trace event (explicit ts/dur, any lane). */
    void record(const char *name, Tick ts, Tick dur, std::uint32_t tid,
                std::vector<TraceArg> args);
    bool tracing() const { return trace_ != nullptr && trace_->enabled(); }

    Fabric &fabric_;
    CoherentFpga &fpga_;
    Controller &controller_;
    GateEndpoint gate_;
    EvictionConfig config_;
    MetricScope scope_;
    RetryPolicy retryPolicy_;

    CompletionQueue cq_;
    Poller poller_;
    QueuePairs qps_;
    /** Indexed by NodeId. A deque, so growing it for a new node keeps
     *  every slot, and the log buffer its writer points at, in place. */
    std::deque<NodeSlot> nodes_;

    /** Live shipments in post order, and finalized ones kept for
     *  reuse; a CQE finds its shipment by scanning the live ones (at
     *  most pipelineDepth per node). */
    std::list<Shipment> shipments_;
    std::list<Shipment> spareShipments_;
    /** Live batches in submit order, and finalized ones for reuse. */
    std::list<Batch> batches_;
    std::list<Batch> spareBatches_;
    /** Per FMem frame: the batch shipping its page (0: none). A fenced
     *  page keeps its frame until its batch finalizes. */
    std::vector<std::uint64_t> inflightBatch_;
    std::set<Addr> requeue_;   ///< re-dirtied while in flight

    /** pump() and drain() scratch, reused so the steady state never
     *  allocates. */
    std::vector<FMemCache::Victim> victimBuf_;
    std::vector<Addr> pumpVpns_;
    std::vector<Addr> requeueVpns_;
    /** Capacity every log buffer gets before packing: the largest log
     *  so far, rounded up to a power of two. The buffers rotate
     *  between node slots and shipments, and sharing one capacity
     *  keeps each of them from regrowing on its own. */
    std::size_t logCapacity_ = 0;

    std::uint64_t nextWrId_ = 0x10000000;
    std::uint64_t nextBatchId_ = 1;
    std::uint64_t nextShipmentId_ = 1;
    std::uint64_t retrySeed_ = 0x5eedULL;

    TraceSession *trace_ = nullptr;
    std::uint32_t traceLane_ = traceAppThread;
    Counter &pagesEvicted_;
    Counter &silent_;
    Counter &lines_;
    Counter &wireBytes_;
    Counter &retries_;
    Counter &retransmits_;
    Counter &naks_;
    Counter &ringStalls_;
    Counter &refetches_;
    Counter &conflictStalls_;
    Counter &evacuateStalls_;
    Counter &staleMarks_;
    Gauge &inflight_;
    LatencyHistogram &retryBackoffNs_;
    LatencyHistogram &batchNs_;
    EvictionBreakdown breakdown_;
    LatencyAttribution shipAttr_{EvictComponent::names,
                                 EvictComponent::Count};
};

} // namespace kona

#endif // KONA_CORE_EVICTION_HANDLER_H
