#include "fpga/coherent_fpga.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "policy/tiering_engine.h"

namespace kona {

CoherentFpga::CoherentFpga(Fabric &fabric, NodeId computeNode,
                           const FpgaConfig &config, MetricScope scope,
                           Controller *controller)
    : fabric_(fabric), computeNode_(computeNode), config_(config),
      scope_(std::move(scope)),
      fmem_(config.fmemSize, config.fmemAssociativity,
            scope_.sub("fmem"), config.victimPolicy),
      fmemStore_(config.fmemSize), frameLines_(fmem_.frames()),
      replicas_(fabric, controller, translation_, scope_),
      poller_(fabric.latency()), qps_(fabric, computeNode, cq_, scope_),
      prefetcher_(makePrefetcher(config.prefetchPolicy)),
      prefetchQueue_(config.prefetchQueueCapacity),
      prefetchCredits_(config.prefetchCreditRefillNs,
                       config.prefetchCreditBurst),
      remoteFetches_(scope_.counter("remote_fetches")),
      demandFetches_(scope_.counter("demand_fetches")),
      writebacksObserved_(scope_.counter("writebacks_observed")),
      fetchFailures_(scope_.counter("fetch_failures")),
      prefetchReplicaFallback_(
          scope_.counter("prefetch.replica_fallback")),
      prefetchPredicted_(scope_.counter("prefetch.predicted")),
      prefetchIssued_(scope_.counter("prefetch.issued")),
      prefetchUseful_(scope_.counter("prefetch.useful")),
      prefetchWasted_(scope_.counter("prefetch.wasted")),
      prefetchDroppedNoCredit_(
          scope_.counter("prefetch.dropped_no_credit")),
      prefetchDroppedNodeDown_(
          scope_.counter("prefetch.dropped_node_down")),
      prefetchDroppedSetFull_(
          scope_.counter("prefetch.dropped_set_full")),
      prefetchDroppedQueueFull_(
          scope_.counter("prefetch.dropped_queue_full")),
      prefetchDroppedGoverned_(
          scope_.counter("prefetch.dropped_governed")),
      fetchNs_(scope_.histogram("fetch_ns")),
      prefetchLeadNs_(scope_.histogram("prefetch.lead_ns"))
{
    KONA_ASSERT(config.vfmemSize % pageSize == 0,
                "VFMem window must be page aligned");
    KONA_ASSERT(config.vfmemBase % pageSize == 0,
                "VFMem base must be page aligned");
    KONA_ASSERT(config.fmemSize <= config.vfmemSize,
                "FMem larger than the VFMem window is pointless");
    // Dirty-aware victim policies ask the tag store which candidates
    // carry unwritten lines; the probe is only consulted when the
    // configured policy declares wantsDirty().
    fmem_.setDirtyProbe(
        [this](Addr vpn) { return dirtyMask(vpn) != 0; });
}

ServeStatus
CoherentFpga::serveLine(Addr lineAddr, AccessType type, SimClock &clock)
{
    (void)type;
    KONA_ASSERT(inVFMem(lineAddr), "serveLine outside VFMem: ",
                lineAddr);
    Span span(trace_, clock, "serve_line", "fpga");
    span.arg("addr", lineAddr);
    const LatencyConfig &lat = fabric_.latency();
    clock.advance(static_cast<Tick>(lat.vfmemDirectoryNs));
    if (missAttr_ != nullptr)
        missAttr_->charge(MissComponent::FmemCheck,
                          static_cast<Tick>(lat.vfmemDirectoryNs));

    Addr vpn = pageNumber(lineAddr);
    const std::uint64_t lineBit = std::uint64_t{1} << lineInPage(lineAddr);
    if (tiering_ != nullptr)
        tiering_->observe(vpn, clock.now());
    if (auto frame = fmem_.lookup(vpn)) {
        frameLines_[*frame].snooped |= lineBit;
        clock.advance(static_cast<Tick>(lat.fmemNs));
        if (missAttr_ != nullptr)
            missAttr_->charge(MissComponent::FmemCheck,
                              static_cast<Tick>(lat.fmemNs));
        noteDemandTouch(vpn, clock);
        // Streaming accesses keep the prefetcher running even while
        // hitting in FMem (a fault-based runtime cannot: the
        // prefetcher never crosses a page fault, §4.4).
        maybePrefetch(vpn, /*demandMiss=*/false, clock);
        span.arg("outcome", "fmem_hit");
        return ServeStatus::FMemHit;
    }

    // Need to fetch the page; make room in the set first.
    auto victim = fmem_.victimFor(vpn);
    if (victim.has_value()) {
        KONA_ASSERT(static_cast<bool>(evictionCallback_),
                    "FMem set full and no eviction callback installed");
        const Tick evictStart = clock.now();
        evictionCallback_(*victim, clock);
        if (missAttr_ != nullptr)
            missAttr_->charge(MissComponent::Evict,
                              clock.now() - evictStart);
        if (fmem_.contains(victim->vfmemPage)) {
            // Eviction failed (all replicas unreachable); the fetch
            // cannot proceed without a frame.
            fetchFailures_.add();
            span.arg("outcome", "unavailable");
            return ServeStatus::RemoteUnavailable;
        }
    }

    Tick fetchStart = clock.now();
    if (!fetchPage(vpn, clock)) {
        fetchFailures_.add();
        span.arg("outcome", "unavailable");
        return ServeStatus::RemoteUnavailable;
    }
    fetchNs_.record(static_cast<double>(clock.now() - fetchStart));
    frameLines_[*fmem_.frameOf(vpn)].snooped |= lineBit;
    clock.advance(static_cast<Tick>(lat.fmemNs));
    if (missAttr_ != nullptr)
        missAttr_->charge(MissComponent::FmemCheck,
                          static_cast<Tick>(lat.fmemNs));
    maybePrefetch(vpn, /*demandMiss=*/true, clock);
    span.arg("outcome", "remote_fetch");
    return ServeStatus::RemoteFetch;
}

void
CoherentFpga::noteDemandTouch(Addr vpn, SimClock &clock)
{
    auto tag = fmem_.clearSpeculative(vpn);
    if (!tag.has_value())
        return;
    // Lead time from issue to first touch; the issue tick came off the
    // same demand-side clock, so the difference is well defined.
    Tick now = clock.now();
    Tick lead = now >= tag->tick ? now - tag->tick : 0;
    if (tag->origin == FillOrigin::Tier) {
        if (tiering_ != nullptr)
            tiering_->onPromotedUseful(vpn, lead);
        return;
    }
    prefetchUseful_.add();
    prefetchLeadNs_.record(static_cast<double>(lead));
    if (prefetcher_)
        prefetcher_->onPrefetchUseful(vpn);
}

bool
CoherentFpga::fetchPage(Addr vpn, SimClock &clock, FillOrigin origin,
                        Tick issueTick)
{
    // Cross-shard section: the fetch posts on the fabric, reads node
    // health/liveness, and feeds the Controller's failure detector.
    ShardSection section(gate_, GateEvent::Fetch);

    bool prefetch = origin == FillOrigin::Prefetch;
    bool speculative = origin != FillOrigin::Demand;

    // Prefetches run on the background clock; put their spans on the
    // background lane so the app-critical-path lane stays truthful.
    std::uint32_t lane = &clock == &backgroundClock_
                             ? traceBackgroundThread
                             : traceAppThread;
    Span span(trace_, clock, "fetch_page", "fpga", lane);
    span.arg("vpn", vpn);
    if (prefetch)
        span.arg("intent", "prefetch");
    else if (origin == FillOrigin::Tier)
        span.arg("intent", "tier");

    // One RDMA read of one copy straight into the frame insert() will
    // hand this page; the walker picks the copies and turns each
    // outcome into health evidence. The frame is parked in a free way
    // and holds no page until the read lands, and a read that fails
    // writes no byte (drops, timeouts and down nodes never reach the
    // store; the injector turns a corrupted read into a drop), so a
    // failed walk leaves the set as it found it.
    const std::size_t frame = fmem_.nextFrame(vpn);
    KONA_ASSERT(frameLines_[frame].dirty == 0, "frame ", frame,
                " carries a dirty mask into page ", vpn);
    std::uint8_t *page =
        fmemStore_.pagePointer(static_cast<Addr>(frame) * pageSize);
    auto readCopy = [&](const RemoteLocation &loc) -> std::optional<Tick> {
        WorkRequest wr;
        wr.wrId = nextWrId_++;
        wr.opcode = RdmaOpcode::Read;
        wr.localBuf = page;
        wr.remoteKey = loc.regionKey;
        wr.remoteAddr = loc.addr;
        wr.length = pageSize;
        Span rdma(trace_, clock, "rdma_read", "net", lane);
        rdma.arg("node", loc.node);
        rdma.arg("bytes", wr.length);
        Tick opStart = clock.now();
        PostResult posted = qps_.to(loc.node).post(wr, clock);
        const Tick postDone = clock.now();
        if (!speculative && missAttr_ != nullptr)
            missAttr_->charge(MissComponent::Queueing,
                              postDone - opStart);
        if (!posted.ok()) {
            // Consume exactly the error CQEs this doorbell pushed.
            poller_.drain(cq_, clock, posted.cqesPushed);
            if (!speculative && missAttr_ != nullptr)
                missAttr_->charge(MissComponent::Retry,
                                  clock.now() - postDone);
            return std::nullopt;
        }
        poller_.waitOne(cq_, clock);
        if (!speculative && missAttr_ != nullptr)
            missAttr_->charge(MissComponent::Wire,
                              clock.now() - postDone);
        return clock.now() - opStart;
    };
    std::optional<std::size_t> copy = replicas_.read(
        vpn, speculative ? ReadIntent::Speculative : ReadIntent::Demand,
        readCopy);
    if (!copy.has_value()) {
        if (prefetch)
            prefetchDroppedNodeDown_.add();
        return false;
    }
    if (prefetch && *copy != 0)
        prefetchReplicaFallback_.add();

    const std::size_t inserted = fmem_.insert(vpn, origin, issueTick);
    KONA_ASSERT(inserted == frame, "page ", vpn, " read into frame ",
                frame, " but installed in frame ", inserted);
    remoteFetches_.add();
    if (!speculative)
        demandFetches_.add();
    return true;
}

bool
CoherentFpga::tierPromote(Addr vpn, Tick issueTick)
{
    Addr addr = vpn * pageSize;
    if (!inVFMem(addr) || !translation_.mapped(addr))
        return false;
    if (fmem_.contains(vpn))
        return false;
    if (pageGovernor_ && pageGovernor_(vpn))
        return false;   // promoting would bypass the rights check
    if (fmem_.victimFor(vpn).has_value())
        return false;   // promotion never evicts: set is full
    return fetchPage(vpn, backgroundClock_, FillOrigin::Tier,
                     issueTick);
}

void
CoherentFpga::maybePrefetch(Addr vpn, bool demandMiss, SimClock &clock)
{
    if (!prefetcher_)
        return;
    // Whatever the budget could not cover before this access missed
    // its window; a late prefetch is worse than none.
    prefetchDroppedNoCredit_.add(prefetchQueue_.clear());

    candidateBuf_.clear();
    prefetcher_->observe(vpn, demandMiss, candidateBuf_);
    prefetchPredicted_.add(candidateBuf_.size());
    for (Addr c : candidateBuf_) {
        Addr addr = c * pageSize;
        if (!inVFMem(addr) || !translation_.mapped(addr))
            continue;
        if (fmem_.contains(c) || prefetchQueue_.contains(c))
            continue;
        if (pageGovernor_ && pageGovernor_(c)) {
            // Coherence-governed page: a speculative fetch would
            // install bytes without the directory's rights check.
            prefetchDroppedGoverned_.add();
            continue;
        }
        if (!prefetchQueue_.push(c))
            prefetchDroppedQueueFull_.add();
    }

    prefetchCredits_.advanceTo(clock.now());
    std::size_t issued = 0;
    while (!prefetchQueue_.empty()) {
        Addr c = prefetchQueue_.front();
        if (fmem_.contains(c)) {
            prefetchQueue_.pop();   // raced with an earlier issue
            continue;
        }
        if (fmem_.victimFor(c).has_value()) {
            // Speculation never evicts: the set is full, give up.
            prefetchQueue_.pop();
            prefetchDroppedSetFull_.add();
            continue;
        }
        if (!prefetchCredits_.tryConsume())
            break;   // out of budget; leftovers are dropped next time
        prefetchQueue_.pop();
        if (fetchPage(c, backgroundClock_, FillOrigin::Prefetch,
                      clock.now())) {
            ++issued;
        }
    }
    if (issued > 0) {
        prefetchIssued_.add(issued);
        prefetcher_->onPrefetchIssued(issued);
    }
}

void
CoherentFpga::onLineRequest(Addr lineAddr, AccessType type)
{
    // Requests are served through serveLine() on the runtime's explicit
    // call; the listener hook exists for trace-driven counting uses.
    (void)lineAddr;
    (void)type;
}

void
CoherentFpga::onWriteback(Addr lineAddr)
{
    if (!inVFMem(lineAddr))
        return;
    writebacksObserved_.add();
    frameLines_[dirtyFrame(pageNumber(lineAddr))].dirty |=
        std::uint64_t{1} << lineInPage(lineAddr);
}

std::size_t
CoherentFpga::dirtyFrame(Addr vpn) const
{
    auto frame = fmem_.frameOf(vpn);
    KONA_ASSERT(frame.has_value(),
                "dirty mark on non-resident VFMem page ", vpn);
    return *frame;
}

void
CoherentFpga::markDirtyRange(Addr vfmemAddr, std::size_t size)
{
    if (size == 0)
        return;
    const Addr firstLine = vfmemAddr / cacheLineSize;
    const Addr lastLine = (vfmemAddr + size - 1) / cacheLineSize;
    // One mask OR per page: lines lo..hi of each page the range spans.
    for (Addr vpn = firstLine / linesPerPage;
         vpn <= lastLine / linesPerPage; ++vpn) {
        Addr lo = vpn == firstLine / linesPerPage
                      ? firstLine % linesPerPage
                      : 0;
        Addr hi = vpn == lastLine / linesPerPage
                      ? lastLine % linesPerPage
                      : linesPerPage - 1;
        frameLines_[dirtyFrame(vpn)].dirty |=
            (~std::uint64_t{0} >> (linesPerPage - 1 - (hi - lo))) << lo;
    }
}

void
CoherentFpga::readBytes(Addr vfmemAddr, void *buf, std::size_t size)
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (size > 0) {
        Addr vpn = pageNumber(vfmemAddr);
        std::size_t offset = vfmemAddr % pageSize;
        std::size_t chunk = std::min(size, pageSize - offset);
        auto frame = fmem_.frameOf(vpn);
        KONA_ASSERT(frame.has_value(),
                    "functional read of non-resident VFMem page ", vpn);
        fmemStore_.read(static_cast<Addr>(*frame) * pageSize + offset,
                        out, chunk);
        vfmemAddr += chunk;
        out += chunk;
        size -= chunk;
    }
}

void
CoherentFpga::writeBytes(Addr vfmemAddr, const void *buf,
                         std::size_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (size > 0) {
        Addr vpn = pageNumber(vfmemAddr);
        std::size_t offset = vfmemAddr % pageSize;
        std::size_t chunk = std::min(size, pageSize - offset);
        auto frame = fmem_.frameOf(vpn);
        KONA_ASSERT(frame.has_value(),
                    "functional write of non-resident VFMem page ", vpn);
        fmemStore_.write(static_cast<Addr>(*frame) * pageSize + offset,
                         in, chunk);
        vfmemAddr += chunk;
        in += chunk;
        size -= chunk;
    }
}

void
CoherentFpga::snoopPage(Addr vpn)
{
    auto frame = fmem_.frameOf(vpn);
    if (!frame.has_value())
        return;
    std::uint64_t lines = std::exchange(frameLines_[*frame].snooped, 0);
    if (lines != 0 && cpuCaches_ != nullptr)
        cpuCaches_->snoopLines(vpn, lines);
}

void
CoherentFpga::dropPage(Addr vpn)
{
    // A line left cached past the drop would hit without reaching
    // serveLine(), so the page would never be fetched back. The snoop
    // also leaves the frame's filter clear for its next page; the
    // caller already shipped or found no dirty lines, so the frame's
    // dirty mask is clear too.
    snoopPage(vpn);
    KONA_ASSERT(dirtyMask(vpn) == 0, "page ", vpn,
                " dropped with unshipped dirty lines");
    // A page leaving FMem with its speculative tag intact was never
    // demand-touched: the fill was wasted bandwidth, attributed to
    // whichever engine issued it.
    auto origin = fmem_.speculativeOrigin(vpn);
    if (origin == FillOrigin::Prefetch) {
        prefetchWasted_.add();
        if (prefetcher_)
            prefetcher_->onPrefetchWasted(vpn);
    } else if (origin == FillOrigin::Tier && tiering_ != nullptr) {
        tiering_->onPromotedWasted(vpn);
    }
    fmem_.remove(vpn);
    if (dropHook_)
        dropHook_(vpn);
}

PrefetchStats
CoherentFpga::prefetchStats() const
{
    PrefetchStats s;
    s.predicted = prefetchPredicted_.value();
    s.issued = prefetchIssued_.value();
    s.useful = prefetchUseful_.value();
    s.wasted = prefetchWasted_.value();
    s.droppedNoCredit = prefetchDroppedNoCredit_.value();
    s.droppedNodeDown = prefetchDroppedNodeDown_.value();
    s.droppedSetFull = prefetchDroppedSetFull_.value();
    s.droppedQueueFull = prefetchDroppedQueueFull_.value();
    s.droppedGoverned = prefetchDroppedGoverned_.value();
    return s;
}

std::uint8_t *
CoherentFpga::framePointer(Addr vpn)
{
    auto frame = fmem_.frameOf(vpn);
    KONA_ASSERT(frame.has_value(), "framePointer of non-resident page ",
                vpn);
    return fmemStore_.pagePointer(static_cast<Addr>(*frame) * pageSize);
}

} // namespace kona
