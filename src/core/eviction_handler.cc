#include "core/eviction_handler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/logging.h"

namespace kona {

namespace {

/** A run of contiguous dirty lines within a page. */
struct LineRun
{
    unsigned firstLine;
    unsigned count;
};

/** Fixed-size run scratch: 64 bits hold at most 32 distinct runs. */
using LineRuns = std::array<LineRun, linesPerPage / 2>;

/** Decompose a 64-bit dirty mask into contiguous runs (no heap). */
std::size_t
runsOf(std::uint64_t mask, LineRuns &runs)
{
    std::size_t count = 0;
    unsigned line = 0;
    while (line < linesPerPage) {
        if (((mask >> line) & 1ULL) == 0) {
            ++line;
            continue;
        }
        unsigned start = line;
        while (line < linesPerPage && ((mask >> line) & 1ULL))
            ++line;
        runs[count++] = {start, line - start};
    }
    return count;
}

} // namespace

EvictionHandler::EvictionHandler(Fabric &fabric, CoherentFpga &fpga,
                                 Controller &controller,
                                 EvictionConfig config, MetricScope scope)
    : fabric_(fabric), fpga_(fpga), controller_(controller),
      config_(config), scope_(std::move(scope)),
      retryPolicy_(config.retry.value_or(RetryPolicy{})),
      poller_(fabric.latency()), qps_(fabric, fpga.nodeId(), cq_, scope_),
      inflightBatch_(fpga.fmem().frames(), 0), trace_(config.trace),
      pagesEvicted_(scope_.counter("pages_evicted")),
      silent_(scope_.counter("silent_evictions")),
      lines_(scope_.counter("dirty_lines_written")),
      wireBytes_(scope_.counter("bytes_on_wire")),
      retries_(scope_.counter("retry_backoffs")),
      retransmits_(scope_.counter("log_retransmits")),
      naks_(scope_.counter("checksum_naks")),
      ringStalls_(scope_.counter("stall_ring_full")),
      refetches_(scope_.counter("refetch_inflight")),
      conflictStalls_(scope_.counter("stall_page_conflict")),
      evacuateStalls_(scope_.counter("stall_evacuate_drain")),
      staleMarks_(scope_.counter("evictions_stale_marked")),
      inflight_(scope_.gauge("inflight")),
      retryBackoffNs_(scope_.histogram("retry_backoff_ns")),
      batchNs_(scope_.histogram("batch_ns"))
{
    KONA_ASSERT(config_.pipelineDepth > 0,
                "pipelineDepth must be >= 1");
}

EvictionHandler::NodeSlot &
EvictionHandler::nodeSlot(NodeId node)
{
    if (node >= nodes_.size())
        nodes_.resize(static_cast<std::size_t>(node) + 1);
    NodeSlot &n = nodes_[node];
    if (n.slots == 0) {
        n.slots = std::max<std::size_t>(1, config_.pipelineDepth);
        n.slotBytes = controller_.node(node).logSlotBytes(n.slots);
        n.owner.assign(n.slots, 0);
    }
    return n;
}

EvictionHandler::Batch &
EvictionHandler::openBatch()
{
    if (spareBatches_.empty())
        batches_.emplace_back();
    else
        batches_.splice(batches_.end(), spareBatches_,
                        spareBatches_.begin());
    Batch &batch = batches_.back();
    batch.id = nextBatchId_++;
    batch.pages.clear();
    batch.homes.clear();
    batch.reached.clear();
    batch.outstanding = 0;
    batch.open = true;
    batch.lastDone = 0;
    return batch;
}

EvictionHandler::Batch &
EvictionHandler::batchById(std::uint64_t id)
{
    for (Batch &batch : batches_) {
        if (batch.id == id)
            return batch;
    }
    panic("eviction batch ", id, " is not live");
}

void
EvictionHandler::retireBatch(std::uint64_t id)
{
    auto it = std::find_if(batches_.begin(), batches_.end(),
                           [id](const Batch &b) { return b.id == id; });
    KONA_ASSERT(it != batches_.end(), "eviction batch ", id,
                " is not live");
    spareBatches_.splice(spareBatches_.begin(), batches_, it);
}

EvictionHandler::Shipment &
EvictionHandler::takeShipment(std::uint64_t seed)
{
    if (spareShipments_.empty())
        shipments_.emplace_back();
    else
        shipments_.splice(shipments_.end(), spareShipments_,
                          spareShipments_.begin());
    Shipment &s = shipments_.back();
    s.posted = false;
    s.timeline.reset();
    s.retry.emplace(retryPolicy_, seed);
    s.wrId = 0;
    s.sends = 0;
    s.wireStart = 0;
    s.attrStart = 0;
    s.comp = {};
    s.doneAt = 0;
    s.acked = false;
    s.succeeded = false;
    return s;
}

std::list<EvictionHandler::Shipment>::iterator
EvictionHandler::retireShipment(std::list<Shipment>::iterator it)
{
    auto next = std::next(it);
    // FullPage staging goes; the log buffer keeps its capacity.
    it->chain.clear();
    it->pageCopies.clear();
    spareShipments_.splice(spareShipments_.begin(), shipments_, it);
    return next;
}

std::size_t
EvictionHandler::batchPageLimit() const
{
    // Bound one shipment so a worst-case (fully dirty, maximally
    // fragmented) batch still fits one ring slot of every node's log
    // landing area. FullPage mode bypasses the landing area and keeps
    // the historical cap.
    std::size_t limit = 256;
    if (config_.mode != EvictionMode::ClLog)
        return limit;
    std::size_t depth = std::max<std::size_t>(1, config_.pipelineDepth);
    std::size_t slotBytes = controller_.minLogSlotBytes(depth);
    return std::min(limit, std::max<std::size_t>(
                               1, slotBytes / clLogWorstBytesPerPage));
}

void
EvictionHandler::record(const char *name, Tick ts, Tick dur,
                        std::uint32_t tid, std::vector<TraceArg> args)
{
    TraceEvent ev;
    ev.name = name;
    ev.cat = "evict";
    ev.ts = ts;
    ev.dur = dur;
    ev.tid = tid;
    ev.args = std::move(args);
    trace_->record(std::move(ev));
}

void
EvictionHandler::waitUntil(SimClock &clock, Tick until)
{
    if (until <= clock.now())
        return;
    breakdown_.waitNs += static_cast<double>(until - clock.now());
    clock.advanceTo(until);
}

void
EvictionHandler::awaitPageIdle(Addr vpn, SimClock &clock)
{
    while (true) {
        reapCq();
        finalizeDue(clock.now());
        auto frame = fpga_.fmem().frameOf(vpn);
        std::uint64_t batchId = frame ? inflightBatch_[*frame] : 0;
        if (batchId == 0)
            return;
        conflictStalls_.add();
        auto next = earliestDoneAt([batchId](const Shipment &s) {
            return s.batchId == batchId;
        });
        KONA_ASSERT(next.has_value(),
                    "in-flight page ", vpn, " has no live shipment");
        waitUntil(clock, *next);
    }
}

BatchTicket
EvictionHandler::submit(const EvictionRequest &req, SimClock &clock)
{
    return submitPages(req.vpns, clock);
}

BatchTicket
EvictionHandler::submitPages(std::span<const Addr> vpns, SimClock &clock)
{
    if (vpns.empty())
        return {};

    // Cross-shard section: shipments post on the fabric, occupy
    // memory-node landing rings and report into the Controller.
    ShardSection section(gate_, GateEvent::Evict);

    // Chunk so a worst-case batch fits one landing-area ring slot on
    // every node; the ticket of the last chunk is returned (drain()
    // remains the barrier covering all of them).
    std::size_t limit = batchPageLimit();
    if (vpns.size() > limit) {
        BatchTicket last;
        for (std::size_t i = 0; i < vpns.size(); i += limit)
            last = submitPages(
                vpns.subspan(i, std::min(limit, vpns.size() - i)), clock);
        return last;
    }

    const LatencyConfig &lat = fpga_.latency();

    // Fence conflicts first: a page already on the wire must land (or
    // fail) before this batch may pack a fresh snapshot of it.
    for (Addr vpn : vpns)
        awaitPageIdle(vpn, clock);

    Batch &batch = openBatch();
    const std::uint64_t batchId = batch.id;
    batch.start = clock.now();
    batch.requested = vpns.size();
    batch.lane = traceLane_;
    // Sized for the largest chunk, so a reused slot never regrows.
    batch.pages.reserve(limit);

    // Phase 1: snoop the page's lines out of the CPU caches (only the
    // lines the FPGA's snoop filter names) and read the dirty masks.
    // Clean pages drop silently; remote memory already holds them.
    {
        Span scan(trace_, clock, "bitmap_scan", "evict", traceLane_);
        for (Addr vpn : vpns) {
            if (!fpga_.pageResident(vpn))
                continue;
            fpga_.snoopPage(vpn);
            clock.advance(static_cast<Tick>(lat.bitmapScanPerPageNs));
            breakdown_.bitmapNs += lat.bitmapScanPerPageNs;
            // Stale lines ride along: a copy that missed an earlier
            // shipment is freshened by the next eviction of the page.
            std::uint64_t mask = fpga_.dirtyMask(vpn) |
                                 fpga_.replicas().staleLines(vpn);
            if (mask == 0) {
                fpga_.dropPage(vpn);
                silent_.add();
                pagesEvicted_.add();
            } else {
                batch.pages.push_back({vpn, mask});
            }
        }
        scan.arg("dirty_pages", batch.pages.size());
    }
    if (batch.pages.empty()) {
        batch.open = false;
        batch.lastDone = clock.now();
        finalizeBatch(batch);
        retireBatch(batchId);
        return {batchId};
    }

    // Phase 2: build one payload per destination node, in that node's
    // slot. The registered-buffer copy is paid once per run (or page);
    // replicas reuse the aggregated bytes. Packing captures a
    // snapshot: the dirty mask is cleared here and the page fenced, so
    // a write while the log is in flight re-dirties it and finalize
    // re-queues the page.
    const bool clLog = config_.mode == EvictionMode::ClLog;
    Span packSpan(trace_, clock, "pack", "evict", traceLane_);
    std::size_t payloadNodes = 0;
    double copyCost = 0.0;
    for (PackedPage &page : batch.pages) {
        const std::uint8_t *frame = fpga_.framePointer(page.vpn);
        LineRuns runs;
        std::size_t runCount = runsOf(page.mask, runs);

        if (clLog) {
            // Gathering a page's dirty lines costs one page lookup,
            // a little work per contiguous run, and the byte copy
            // (the hardware prefetcher streams within runs).
            std::uint64_t bytes =
                static_cast<std::uint64_t>(std::popcount(page.mask)) *
                cacheLineSize;
            copyCost += lat.copySetupNs +
                        static_cast<double>(runCount) *
                            lat.copyPerRunNs +
                        static_cast<double>(bytes) * lat.copyPerKbNs /
                            1024.0;
        } else {
            copyCost += lat.copySetupNs +
                        static_cast<double>(pageSize) *
                            lat.copyPerKbNs / 1024.0;
        }

        const CopySet copies = fpga_.replicas().copies(page.vpn);
        batch.homes.reserve(limit * copies.size());
        page.firstHome = static_cast<std::uint32_t>(batch.homes.size());
        page.homeCount = static_cast<std::uint32_t>(copies.size());
        for (std::size_t i = 0; i < copies.size(); ++i) {
            const RemoteLocation loc = copies[i];
            batch.homes.push_back(loc.node);
            NodeSlot &payload = nodeSlot(loc.node);
            if (!payload.packing) {
                payload.packing = true;
                ++payloadNodes;
                // Cap the log at one ring slot so an oversized
                // shipment is rejected at append time.
                if (clLog) {
                    payload.log.reserve(logCapacity_);
                    payload.writer.emplace(payload.log,
                                           payload.slotBytes);
                }
            }
            if (clLog) {
                for (std::size_t r = 0; r < runCount; ++r) {
                    const LineRun &run = runs[r];
                    bool fits = payload.writer->appendRun(
                        loc.addr + static_cast<Addr>(run.firstLine) *
                                       cacheLineSize,
                        frame + static_cast<std::size_t>(
                                    run.firstLine) * cacheLineSize,
                        run.count);
                    if (!fits)
                        fatal("CL log batch for node ", loc.node,
                              " exceeds its landing-area ring slot (",
                              payload.writer->maxBytes(),
                              " bytes at pipelineDepth ",
                              config_.pipelineDepth, ")");
                }
            } else {
                payload.pageCopies.push_back(
                    std::make_unique<std::vector<std::uint8_t>>(
                        frame, frame + pageSize));
                WorkRequest wr;
                wr.wrId = nextWrId_++;
                wr.opcode = RdmaOpcode::Write;
                wr.localBuf = payload.pageCopies.back()->data();
                wr.remoteKey = loc.regionKey;
                wr.remoteAddr = loc.addr;
                wr.length = pageSize;
                wr.signaled = false;
                payload.chain.push_back(wr);
            }
        }

        // Snapshot taken: further writes re-dirty the mask and the
        // fence keeps the frame out of victim selection until finalize.
        fpga_.clearDirty(page.vpn);
        fpga_.setEvictionInFlight(page.vpn, true);
        inflightBatch_[*fpga_.fmem().frameOf(page.vpn)] = batchId;
    }
    clock.advance(static_cast<Tick>(copyCost));
    breakdown_.copyNs += copyCost;
    packSpan.arg("nodes", payloadNodes);
    packSpan.end();

    // Phase 3: post one shipment per destination node into its ring
    // slot, in ascending node order. Only slot acquisition can block
    // the caller (counted); the wire, unpack and ack proceed on each
    // shipment's own timeline.
    for (NodeId nodeId = 0; nodeId < nodes_.size(); ++nodeId) {
        NodeSlot &ring = nodes_[nodeId];
        if (!ring.packing)
            continue;
        ring.packing = false;
        ring.writer.reset();
        if (!fpga_.replicas().reachable(nodeId)) {
            ring.chain.clear();
            ring.pageCopies.clear();
            continue;
        }

        auto freeSlot = [&ring]() -> int {
            for (std::size_t i = 0; i < ring.slots; ++i) {
                if (ring.owner[i] == 0)
                    return static_cast<int>(i);
            }
            return -1;
        };
        int slot = freeSlot();
        while (slot < 0) {
            // Backpressure: every slot holds an in-flight log. Fall
            // back to blocking on the oldest completion on this node.
            ringStalls_.add();
            if (config_.journal != nullptr)
                config_.journal->record(JournalKind::RingFullStall,
                                        nodeId, batchId);
            auto next = earliestDoneAt([nodeId](const Shipment &s) {
                return s.node == nodeId;
            });
            KONA_ASSERT(next.has_value(),
                        "full ring with no live shipment on node ",
                        nodeId);
            waitUntil(clock, *next);
            finalizeDue(clock.now());
            slot = freeSlot();
        }

        Shipment &s = takeShipment(retrySeed_++);
        s.id = nextShipmentId_++;
        s.batchId = batchId;
        s.node = nodeId;
        s.slot = static_cast<std::size_t>(slot);
        s.clLog = clLog;
        if (s.clLog) {
            // Swap, so the slot and the shipment both keep a buffer.
            s.log.swap(ring.log);
            logCapacity_ =
                std::max(logCapacity_, std::bit_ceil(s.log.size()));
        } else {
            if (ring.chain.empty()) {
                retireShipment(std::prev(shipments_.end()));
                continue;
            }
            ring.chain.back().signaled = true;
            s.chain.swap(ring.chain);
            s.pageCopies.swap(ring.pageCopies);
        }
        s.retry->bindTelemetry(&retries_, &retryBackoffNs_);
        ring.owner[s.slot] = s.id;
        s.timeline.advanceTo(clock.now());
        s.attrStart = s.timeline.now();
        postShipment(s);
        ++batch.outstanding;
        inflight_.set(static_cast<double>(shipments_.size()));
        reapCq();
    }

    batch.open = false;
    if (batch.outstanding == 0) {
        batch.lastDone = std::max(batch.lastDone, clock.now());
        finalizeBatch(batch);
        retireBatch(batchId);
    }
    return {batchId};
}

void
EvictionHandler::postShipment(Shipment &s)
{
    NodeSlot &ring = nodes_[s.node];
    MemoryNode &node = controller_.node(s.node);
    // One link per node: a shipment's wire time starts only when the
    // previous transfer to that node has left the NIC.
    const Tick parked = s.timeline.now();
    s.timeline.advanceTo(ring.wireFreeAt);
    s.comp[EvictComponent::Queueing] += s.timeline.now() - parked;
    s.wireStart = s.timeline.now();
    ++s.sends;
    s.posted = true;
    if (s.clLog) {
        WorkRequest wr;
        wr.wrId = s.wrId = nextWrId_++;
        wr.opcode = RdmaOpcode::Write;
        wr.localBuf = s.log.data();
        wr.remoteKey = node.logRegion().key;
        wr.remoteAddr = node.logRegion().base +
                        static_cast<Addr>(s.slot) * ring.slotBytes;
        wr.length = s.log.size();
        PostResult posted = qps_.to(s.node).post(wr, s.timeline);
        KONA_ASSERT(posted.cqesPushed == 1,
                    "eviction post must push exactly one CQE");
    } else {
        PostResult posted = qps_.to(s.node).postLinked(s.chain,
                                                    s.timeline);
        KONA_ASSERT(posted.cqesPushed == 1,
                    "eviction doorbell must push exactly one CQE");
    }
}

void
EvictionHandler::reapCq()
{
    while (!cq_.empty())
        handleCompletion(cq_.pop());
}

void
EvictionHandler::handleCompletion(const WorkCompletion &wc)
{
    auto owner = std::find_if(
        shipments_.begin(), shipments_.end(),
        [&wc](const Shipment &s) { return s.owns(wc.wrId); });
    KONA_ASSERT(owner != shipments_.end(),
                "eviction CQE for unknown work request ", wc.wrId);
    Shipment &s = *owner;
    s.posted = false;

    const LatencyConfig &lat = fpga_.latency();
    NodeSlot &ring = nodes_[s.node];
    std::uint32_t lane = batchById(s.batchId).lane;
    poller_.complete(wc, s.timeline);
    ring.wireFreeAt = std::max(ring.wireFreeAt, wc.completeAt);
    breakdown_.rdmaNs +=
        static_cast<double>(s.timeline.now() - s.wireStart);
    s.comp[EvictComponent::Wire] += s.timeline.now() - s.wireStart;

    if (wc.status != WcStatus::Success) {
        // Dropped or timed out: the payload never landed. A node the
        // health scorer already quarantined gets one attempt per batch
        // (so recovery evidence keeps flowing) but no retry storm —
        // its missed copies are stale-marked at finalize instead.
        controller_.reportOpFailure(s.node);
        if (fabric_.nodeDown(s.node) || !s.retry->shouldRetry() ||
            controller_.health(s.node) == NodeHealth::Quarantined) {
            settleShipment(s, false);
            return;
        }
        const Tick backoffStart = s.timeline.now();
        s.retry->backoff(s.timeline);
        s.comp[EvictComponent::Retry] += s.timeline.now() - backoffStart;
        postShipment(s);
        return;
    }

    // The attempt's wire time is latency evidence for the gray-failure
    // scorer: a straggler node that only ever receives evictions (its
    // slabs hold no read-hot primaries) would otherwise never attract
    // a latency sample and could not reach Suspect.
    controller_.observeFetch(s.node, wc.completeAt - s.wireStart);

    std::size_t bytes =
        s.clLog ? s.log.size() : s.chain.size() * pageSize;
    if (tracing()) {
        record("wire", s.wireStart, s.timeline.now() - s.wireStart,
               lane,
               {{"node", std::to_string(s.node), false},
                {"bytes", std::to_string(bytes), false},
                {"send", std::to_string(s.sends), false}});
    }

    if (!s.clLog) {
        wireBytes_.add(bytes);
        controller_.reportOpSuccess(s.node);
        settleShipment(s, true);
        return;
    }

    // The Cache-line Log Receiver verifies every record's CRC before
    // distributing; a NAK means the payload was corrupted past the
    // transport's checks — retransmit the slot. One receiver thread
    // per node serializes unpacks (recvFreeAt).
    MemoryNode &node = controller_.node(s.node);
    const Tick recvWaitStart = s.timeline.now();
    Tick unpackStart = std::max(s.timeline.now(), ring.recvFreeAt);
    LogReceiptStats receipt = node.receiveLog(
        static_cast<Addr>(s.slot) * ring.slotBytes, s.log.size());
    Tick unpackDur = static_cast<Tick>(receipt.unpackNs);
    ring.recvFreeAt = unpackStart + unpackDur;
    s.timeline.advanceTo(ring.recvFreeAt);
    s.comp[EvictComponent::Queueing] += unpackStart - recvWaitStart;
    s.comp[EvictComponent::Unpack] += s.timeline.now() - unpackStart;
    breakdown_.unpackNs += receipt.unpackNs;
    Tick ackStart = s.timeline.now();
    s.timeline.advance(static_cast<Tick>(lat.ackNs));
    s.comp[EvictComponent::Ack] += s.timeline.now() - ackStart;
    if (tracing()) {
        record("unpack", unpackStart, unpackDur,
               traceNodeThread(s.node),
               {{"lines", std::to_string(receipt.lines), false},
                {"runs", std::to_string(receipt.runs), false},
                {"ok", receipt.ok ? "true" : "false", true}});
        record("ack", ackStart, s.timeline.now() - ackStart, lane,
               {{"node", std::to_string(s.node), false}});
    }
    wireBytes_.add(s.log.size());
    if (!receipt.ok) {
        naks_.add();
        controller_.observeNak(s.node);
        if (!s.retry->shouldRetry()) {
            settleShipment(s, false);
            return;
        }
        const Tick backoffStart = s.timeline.now();
        s.retry->backoff(s.timeline);
        s.comp[EvictComponent::Retry] += s.timeline.now() - backoffStart;
        postShipment(s);
        return;
    }
    controller_.reportOpSuccess(s.node);
    settleShipment(s, true);
}

void
EvictionHandler::settleShipment(Shipment &s, bool succeeded)
{
    s.acked = true;
    s.succeeded = succeeded;
    s.doneAt = s.timeline.now();
    retransmits_.add(s.sends - 1);
    shipAttr_.record(s.doneAt - s.attrStart, s.comp.data(),
                     EvictComponent::Other);
    if (!succeeded && config_.journal != nullptr)
        config_.journal->record(JournalKind::RetriesExhausted, s.node,
                                s.batchId, s.sends);
}

std::size_t
EvictionHandler::finalizeDue(Tick now)
{
    std::size_t batchesFinalized = 0;
    for (auto it = shipments_.begin(); it != shipments_.end();) {
        Shipment &s = *it;
        if (!s.acked || s.doneAt > now) {
            ++it;
            continue;
        }
        NodeSlot &ring = nodes_[s.node];
        if (ring.owner[s.slot] == s.id)
            ring.owner[s.slot] = 0;
        Batch &batch = batchById(s.batchId);
        if (s.succeeded)
            batch.reached.push_back(s.node);
        batch.lastDone = std::max(batch.lastDone, s.doneAt);
        --batch.outstanding;
        bool batchDone = batch.outstanding == 0 && !batch.open;
        it = retireShipment(it);
        inflight_.set(static_cast<double>(shipments_.size()));
        if (batchDone) {
            finalizeBatch(batch);
            retireBatch(batch.id);
            ++batchesFinalized;
        }
    }
    return batchesFinalized;
}

void
EvictionHandler::finalizeBatch(Batch &batch)
{
    // Drop every page whose data reached at least one copy; restore
    // the packed mask of pages that reached none (their lines must
    // ship again later); re-queue pages written while in flight.
    for (const PackedPage &page : batch.pages) {
        auto frame = fpga_.fmem().frameOf(page.vpn);
        KONA_ASSERT(frame.has_value(), "fenced page ", page.vpn,
                    " left FMem before its batch finalized");
        inflightBatch_[*frame] = 0;
        fpga_.setEvictionInFlight(page.vpn, false);
        bool safe = fpga_.replicas().settle(
            page.vpn,
            std::span<const NodeId>(batch.homes)
                .subspan(page.firstHome, page.homeCount),
            batch.reached, page.mask,
            [&](NodeId home) {
                staleMarks_.add();
                if (config_.journal != nullptr)
                    config_.journal->record(JournalKind::StaleHomeMark,
                                            home, page.vpn, page.mask);
            });
        if (!safe) {
            warn("eviction of page ", page.vpn,
                 " failed: all replicas down; keeping it resident");
            fpga_.orDirtyMask(page.vpn, page.mask);
            continue;
        }
        if (fpga_.dirtyMask(page.vpn) != 0) {
            // Fenced write landed while the log was on the wire: the
            // shipped snapshot is stale for those lines. Keep the page
            // resident and re-queue it instead of losing the write.
            refetches_.add();
            requeue_.insert(page.vpn);
            continue;
        }
        // Lines read while the log was on the wire sit clean in the CPU
        // caches; dropPage snoops them out before the frame goes.
        lines_.add(std::popcount(page.mask));
        fpga_.dropPage(page.vpn);
        pagesEvicted_.add();
    }
    Tick end = std::max(batch.lastDone, batch.start);
    batchNs_.record(static_cast<double>(end - batch.start));
    if (tracing()) {
        record("evict_batch", batch.start, end - batch.start,
               batch.lane,
               {{"pages", std::to_string(batch.requested), false},
                {"dirty_pages", std::to_string(batch.pages.size()),
                 false}});
    }
}

std::size_t
EvictionHandler::poll(const SimClock &clock)
{
    // Gated: reaping can retransmit (fabric post) and finalizing can
    // drop governed pages (directory release via the FPGA drop hook).
    ShardSection section(gate_, GateEvent::Evict);
    reapCq();
    return finalizeDue(clock.now());
}

void
EvictionHandler::drain(SimClock &clock)
{
    ShardSection section(gate_, GateEvent::Evict);
    while (true) {
        reapCq();
        finalizeDue(clock.now());
        if (shipments_.empty()) {
            if (requeue_.empty())
                return;
            // Pages re-dirtied while in flight go around again until
            // the engine is quiescent.
            requeueVpns_.assign(requeue_.begin(), requeue_.end());
            requeue_.clear();
            submitPages(requeueVpns_, clock);
            continue;
        }
        auto next =
            earliestDoneAt([](const Shipment &) { return true; });
        KONA_ASSERT(next.has_value(), "unreaped eviction shipment");
        waitUntil(clock, *next);
        finalizeDue(clock.now());
    }
}

void
EvictionHandler::drainNode(NodeId node, SimClock &clock)
{
    ShardSection section(gate_, GateEvent::Evict);
    while (true) {
        reapCq();
        finalizeDue(clock.now());
        auto next = earliestDoneAt([node](const Shipment &s) {
            return s.node == node;
        });
        if (!next.has_value())
            return;
        evacuateStalls_.add();
        waitUntil(clock, *next);
        finalizeDue(clock.now());
    }
}

bool
EvictionHandler::complete(BatchTicket ticket) const
{
    return ticket.valid() &&
           std::none_of(batches_.begin(), batches_.end(),
                        [&ticket](const Batch &b) {
                            return b.id == ticket.id;
                        });
}

void
EvictionHandler::evictPage(Addr vpn, SimClock &clock)
{
    submitPages({&vpn, 1}, clock);
    drain(clock);
}

void
EvictionHandler::evictBatch(const std::vector<Addr> &vpns,
                            SimClock &clock)
{
    submitPages(vpns, clock);
    drain(clock);
}

bool
EvictionHandler::flushPage(Addr vpn, SimClock &clock)
{
    ShardSection section(gate_, GateEvent::Evict);
    // Targeted barrier for coherence invalidations: ship this page and
    // wait for it alone, leaving unrelated in-flight shipments (and
    // their timelines) untouched. A few rounds bound the case where a
    // fenced write re-dirtied the page while its log was on the wire;
    // in the invalidation path the holder is stalled, so one round is
    // the norm.
    for (int round = 0; round < 4 && fpga_.pageResident(vpn); ++round) {
        submitPages({&vpn, 1}, clock);
        awaitPageIdle(vpn, clock);
        // Any re-queue entry is ours now: the next round (or the fact
        // that the page dropped) supersedes it.
        requeue_.erase(vpn);
    }
    return !fpga_.pageResident(vpn);
}

void
EvictionHandler::pump(SimClock &backgroundClock, std::size_t freeWays)
{
    // Caller-provided-buffer protocol: the common every-set-has-room
    // case costs one counting pass and no writes; when the store owes
    // more victims than the warm buffer holds, grow once and re-ask.
    std::size_t owed = fpga_.backgroundVictims(
        freeWays, victimBuf_.data(), victimBuf_.size());
    if (owed == 0)
        return;
    if (owed > victimBuf_.size()) {
        // The buffer's size steers which victims the first call
        // selects, so it grows exactly as before; its capacity goes
        // straight to the most any pump can owe, so later growth is
        // allocation-free.
        const FMemCache &fmem = fpga_.fmem();
        const std::size_t most =
            fmem.numSets() * std::min(freeWays, fmem.associativity());
        victimBuf_.reserve(std::max(most, owed));
        pumpVpns_.reserve(victimBuf_.capacity());
        victimBuf_.resize(owed);
        owed = fpga_.backgroundVictims(freeWays, victimBuf_.data(),
                                       victimBuf_.size());
    }
    pumpVpns_.clear();
    for (std::size_t i = 0; i < owed && i < victimBuf_.size(); ++i)
        pumpVpns_.push_back(victimBuf_[i].vfmemPage);
    // Background work renders on its own trace lane.
    std::uint32_t prevLane = traceLane_;
    traceLane_ = traceBackgroundThread;
    evictBatch(pumpVpns_, backgroundClock);
    traceLane_ = prevLane;
}

} // namespace kona
