#include "core/vm_runtime.h"

#include "common/logging.h"
#include "telemetry/time_series.h"

namespace kona {

VmRuntime::VmRuntime(Fabric &fabric, Controller &controller,
                     NodeId computeNode, const VmConfig &config,
                     MetricScope scope)
    : fabric_(fabric), controller_(controller),
      computeNode_(computeNode), config_(config),
      scope_(std::move(scope)),
      hierarchy_(config.hierarchy, scope_.sub("hierarchy")),
      cmem_(config.localCachePages * pageSize),
      replicas_(fabric, &controller, translation_, scope_),
      windowCursor_(config.windowBase), poller_(fabric.latency()),
      qps_(fabric, computeNode, cq_, scope_),
      reads_(scope_.counter("reads")),
      writes_(scope_.counter("writes")),
      bytesRead_(scope_.counter("bytes_read")),
      bytesWritten_(scope_.counter("bytes_written")),
      majorFaults_(scope_.counter("major_faults")),
      minorFaults_(scope_.counter("minor_faults")),
      tlbShootdowns_(scope_.counter("tlb_shootdowns")),
      pagesEvicted_(scope_.counter("pages_evicted")),
      silentEvictions_(scope_.counter("silent_evictions")),
      wireBytes_(scope_.counter("bytes_on_wire")),
      retries_(scope_.counter("fault_retries")),
      majorFaultNs_(scope_.histogram("major_fault_ns"))
{
    KONA_ASSERT(config.localCachePages > 0, "empty local cache");
    KONA_ASSERT(config.localCachePages < noFrame,
                "local cache larger than the LRU index");
    lru_.resize(config.localCachePages);
    // Hand frames out lowest first.
    freeFrames_.reserve(config.localCachePages);
    for (Addr f = config.localCachePages; f > 0; --f)
        freeFrames_.push_back(f - 1);

    const LatencyConfig &lat = fabric_.latency();
    double levels[3] = {lat.l1HitNs, lat.l2HitNs, lat.l3HitNs};
    double running = 0.0;
    std::size_t n = std::min<std::size_t>(hierarchy_.numLevels(), 3);
    for (std::size_t i = 0; i < n; ++i) {
        running += levels[i];
        levelLatencyNs_[i] = running;
    }
    levelLatencyNs_[n] = running;

    mapNewSlab();
}

std::string
VmRuntime::name() const
{
    switch (config_.personality) {
      case VmPersonality::KonaVm:
        return config_.writeProtectTracking ? "Kona-VM" : "Kona-VM-NoWP";
      case VmPersonality::LegoOs: return "LegoOS";
      case VmPersonality::Infiniswap: return "Infiniswap";
    }
    return "VM";
}

void
VmRuntime::mapNewSlab()
{
    std::size_t slabSize = controller_.slabSize();
    if (windowCursor_ + slabSize >
        config_.windowBase + config_.windowSize) {
        fatal("VM window exhausted: cannot map another slab");
    }

    SlabGrant primary =
        *controller_.allocateSlab(PlacementRequest{.required = true});
    std::vector<SlabGrant> replicas;
    for (std::size_t i = 0; i < config_.replicationFactor; ++i)
        replicas.push_back(*controller_.allocateSlab(
            PlacementRequest{.copyIndex = i + 1, .required = true}));
    translation_.addSlab(windowCursor_, primary, std::move(replicas));

    // Pages are mapped but not present: the first touch of each page
    // will raise a major fault — the defining cost of this family.
    Addr firstVpn = pageNumber(windowCursor_);
    Addr pages = slabSize / pageSize;
    for (Addr i = 0; i < pages; ++i) {
        pageTable_.map(firstVpn + i, invalidAddr, true);
        pageTable_.markNotPresent(firstVpn + i);
    }

    if (heap_ == nullptr) {
        heap_ = std::make_unique<RegionAllocator>(windowCursor_,
                                                  slabSize);
    } else {
        heap_->extend(slabSize);
    }
    windowCursor_ += slabSize;
}

void
VmRuntime::ensureHeap(std::size_t need)
{
    while (heap_->bytesFree() < need)
        mapNewSlab();
}

Addr
VmRuntime::allocate(std::size_t size, std::size_t align)
{
    KONA_ASSERT(size > 0, "zero-byte allocation");
    ensureHeap(size + align);
    auto addr = heap_->allocate(size, align);
    while (!addr.has_value()) {
        mapNewSlab();
        addr = heap_->allocate(size, align);
    }
    return *addr;
}

void
VmRuntime::deallocate(Addr addr)
{
    heap_->deallocate(addr);
}

void
VmRuntime::touchLru(Addr frame, Addr vpn)
{
    KONA_ASSERT(frame < lru_.size() && lru_[frame].vpn == vpn,
                "LRU touch of non-resident page ", vpn);
    if (frame == lruHead_)
        return;
    unlinkLru(frame);
    pushLru(frame, vpn);
}

void
VmRuntime::pushLru(Addr frame, Addr vpn)
{
    auto f = static_cast<std::uint32_t>(frame);
    lru_[f] = {vpn, noFrame, lruHead_};
    if (lruHead_ != noFrame)
        lru_[lruHead_].prev = f;
    else
        lruTail_ = f;
    lruHead_ = f;
}

void
VmRuntime::unlinkLru(Addr frame)
{
    const FrameLru &f = lru_[frame];
    if (f.prev != noFrame)
        lru_[f.prev].next = f.next;
    else
        lruHead_ = f.next;
    if (f.next != noFrame)
        lru_[f.next].prev = f.prev;
    else
        lruTail_ = f.prev;
}

void
VmRuntime::majorFault(Addr vpn)
{
    majorFaults_.add();
    Span span(&trace_, appClock_, "major_fault", "fault");
    span.arg("vpn", vpn);
    Tick faultStart = appClock_.now();
    const LatencyConfig &lat = fabric_.latency();

    // Make room first (the fault handler needs a free local frame).
    if (freeFrames_.empty())
        evictOne();

    // Fetch the page. The personality's measured fault-to-data latency
    // already includes its software stack and the RDMA transfer, so it
    // is charged as one critical-path cost; the functional transfer
    // below uses a scratch clock to avoid double charging.
    appClock_.advance(static_cast<Tick>(
        remoteFetchNs(lat, config_.personality)));

    // Each copy is read straight into the frame the page will occupy.
    // That frame stays free (it holds no page) until a read lands, and
    // a read that fails writes no byte: drops, timeouts and down nodes
    // never reach the store, and the injector turns a corrupted read
    // into a drop. A failed or retried walk leaves nothing to undo.
    // When every copy is misbehaving, back off and retry.
    const Addr frame = freeFrames_.back();
    std::uint8_t *page = cmem_.pagePointer(frame * pageSize);
    SimClock scratch;
    RetryState retry(config_.retry, retrySeed_++);
    retry.bindTelemetry(&retries_, nullptr);
    auto readCopy = [&](const RemoteLocation &loc) {
        return transferPage(RdmaOpcode::Read, loc, page, scratch);
    };
    while (!replicas_.read(vpn, ReadIntent::Demand, readCopy)) {
        if (!retry.shouldRetry()) {
            fatal("remote memory unreachable for page ", vpn,
                  ": every copy is down or failing");
        }
        retry.backoff(appClock_);
    }
    freeFrames_.pop_back();

    // Install the translation; with dirty tracking enabled the page
    // comes up write-protected so the first store minor-faults.
    pageTable_.map(vpn, frame, !config_.writeProtectTracking);
    if (config_.writeProtectTracking)
        pageTable_.writeProtect(vpn);
    appClock_.advance(static_cast<Tick>(lat.pteUpdateNs));

    pushLru(frame, vpn);
    span.arg("retries", retry.attempts());
    majorFaultNs_.record(static_cast<double>(appClock_.now() -
                                             faultStart));
}

void
VmRuntime::minorFault(Addr vpn)
{
    minorFaults_.add();
    Span span(&trace_, appClock_, "minor_fault", "fault");
    span.arg("vpn", vpn);
    const LatencyConfig &lat = fabric_.latency();
    // Kona-VM resolves write-protect faults through userfaultfd,
    // which costs a user-space round trip; the kernel-path baselines
    // service them in the kernel fault handler.
    double cost = config_.personality == VmPersonality::KonaVm
        ? lat.uffdWpFaultNs : lat.minorFaultNs;
    appClock_.advance(static_cast<Tick>(cost));
    pageTable_.enableWrite(vpn);
}

void
VmRuntime::ensureAccess(Addr vpn, AccessType type)
{
    const LatencyConfig &lat = fabric_.latency();

    if (!tlb_.lookup(vpn)) {
        appClock_.advance(static_cast<Tick>(lat.pteUpdateNs)); // walk
        tlb_.insert(vpn);
    }

    for (int spins = 0; spins < 4; ++spins) {
        switch (pageTable_.translate(vpn, type)) {
          case TranslationResult::Ok:
            touchLru(pageTable_.entry(vpn)->physPage, vpn);
            return;
          case TranslationResult::NotPresent:
            majorFault(vpn);
            break;
          case TranslationResult::WriteProtected:
            minorFault(vpn);
            break;
        }
    }
    panic("page ", vpn, " still faulting after major+minor service");
}

void
VmRuntime::ensureRange(Addr addr, std::size_t size, AccessType type)
{
    Addr firstVpn = pageNumber(addr);
    Addr lastVpn = pageNumber(addr + size - 1);
    std::size_t spanned = static_cast<std::size_t>(lastVpn - firstVpn) +
                          1;
    if (spanned > config_.localCachePages) {
        fatal("access spans ", spanned,
              " pages but the local cache holds only ",
              config_.localCachePages);
    }

    // Faulting in a later page can evict an earlier one; iterate until
    // the whole span is simultaneously present.
    for (;;) {
        bool stable = true;
        for (Addr vpn = firstVpn; vpn <= lastVpn; ++vpn) {
            const PageTableEntry *pte = pageTable_.entry(vpn);
            bool ok = pte != nullptr && pte->present &&
                      (type == AccessType::Read || pte->writable ||
                       !config_.writeProtectTracking);
            if (!ok) {
                ensureAccess(vpn, type);
                stable = false;
            } else {
                // Keep the whole span hot so LRU prefers other victims.
                if (pageTable_.translate(vpn, type) ==
                    TranslationResult::Ok) {
                    touchLru(pte->physPage, vpn);
                }
            }
        }
        if (stable)
            return;
    }
}

void
VmRuntime::evictOne()
{
    KONA_ASSERT(lruTail_ != noFrame, "eviction with empty cache");
    const Addr frame = lruTail_;
    const Addr vpn = lru_[frame].vpn;
    unlinkLru(frame);
    lru_[frame].vpn = invalidAddr;

    const LatencyConfig &lat = fabric_.latency();
    const PageTableEntry *pte = pageTable_.entry(vpn);
    KONA_ASSERT(pte != nullptr && pte->present && pte->physPage == frame,
                "LRU page not mapped to its frame");

    // Without write-protect tracking, every page must be assumed dirty.
    // A clean page with a stale home is written back too, so the copy
    // that missed an earlier writeback freshens.
    bool dirty = (config_.writeProtectTracking ? pte->dirty : true) ||
                 replicas_.staleLines(vpn) != 0;

    if (dirty) {
        SimClock &evClock = config_.backgroundEviction
            ? backgroundClock_ : appClock_;
        if (config_.personality == VmPersonality::Infiniswap) {
            // The block-device swap path adds heavy per-page costs
            // beyond the RDMA write itself (§2.1: >32us observed).
            evClock.advance(static_cast<Tick>(
                lat.infiniswapEvictionOverheadNs));
        }
        writebackPage(vpn, frame, evClock);
        pageTable_.clearDirty(vpn);
    } else {
        silentEvictions_.add();
    }

    // Unmapping requires a PTE update and a TLB shootdown; the IPIs
    // stall the application regardless of who runs the eviction.
    pageTable_.markNotPresent(vpn);
    tlb_.invalidatePage(vpn);
    tlbShootdowns_.add();
    appClock_.advance(static_cast<Tick>(lat.tlbShootdownNs +
                                        lat.pteUpdateNs));

    freeFrames_.push_back(frame);
    pagesEvicted_.add();
}

void
VmRuntime::writebackPage(Addr vpn, Addr frame, SimClock &clock)
{
    std::uint32_t lane = &clock == &backgroundClock_
                             ? traceBackgroundThread
                             : traceAppThread;
    Span span(&trace_, clock, "writeback_page", "evict", lane);
    span.arg("vpn", vpn);
    span.arg("bytes", static_cast<std::uint64_t>(pageSize));
    const LatencyConfig &lat = fabric_.latency();

    // Copy the page into the RDMA-registered buffer (the cost Fig 11's
    // idealized no-copy baselines omit). The modelled copy is charged;
    // the simulator posts straight from the frame, which no write op
    // changes (injected corruption flips bits on the remote side).
    clock.advance(static_cast<Tick>(
        lat.copySetupNs +
        static_cast<double>(pageSize) * lat.copyPerKbNs / 1024.0));
    std::uint8_t *page = cmem_.pagePointer(frame * pageSize);

    // Every copy is written in parallel on its own branch of the clock.
    // If none lands, back off and retry rather than dying on a
    // transient outage: idempotent page writes make the replay safe.
    RetryState retry(config_.retry, retrySeed_++);
    retry.bindTelemetry(&retries_, nullptr);
    Tick start = clock.now();
    Tick end = start;
    auto writeCopy = [&](const RemoteLocation &loc) {
        SimClock branch;
        branch.advanceTo(start);
        std::optional<Tick> latency =
            transferPage(RdmaOpcode::Write, loc, page, branch);
        if (latency.has_value()) {
            wireBytes_.add(pageSize);
            end = std::max(end, branch.now());
        }
        return latency;
    };
    while (!replicas_.write(vpn, ~std::uint64_t{0}, writeCopy)) {
        if (!retry.shouldRetry())
            fatal("page writeback failed: all replicas unreachable");
        retry.backoff(clock);
        start = end = clock.now();
    }
    clock.advanceTo(end);
}

std::optional<Tick>
VmRuntime::transferPage(RdmaOpcode opcode, const RemoteLocation &loc,
                        std::uint8_t *page, SimClock &clock)
{
    WorkRequest wr;
    wr.wrId = nextWrId_++;
    wr.opcode = opcode;
    wr.localBuf = page;
    wr.remoteKey = loc.regionKey;
    wr.remoteAddr = loc.addr;
    wr.length = pageSize;
    Tick start = clock.now();
    PostResult posted = qps_.to(loc.node).post(wr, clock);
    if (!posted.ok()) {
        poller_.drain(cq_, clock, posted.cqesPushed);
        return std::nullopt;
    }
    poller_.waitOne(cq_, clock);
    return clock.now() - start;
}

Addr
VmRuntime::frameAddr(Addr addr) const
{
    const PageTableEntry *pte = pageTable_.entry(pageNumber(addr));
    KONA_ASSERT(pte != nullptr && pte->present,
                "local-cache access to non-resident address ", addr);
    return pte->physPage * pageSize + addr % pageSize;
}

void
VmRuntime::read(Addr addr, void *buf, std::size_t size)
{
    if (size == 0)
        return;
    ensureRange(addr, size, AccessType::Read);

    Addr first = alignDown(addr, cacheLineSize);
    Addr last = alignDown(addr + size - 1, cacheLineSize);
    for (Addr line = first; line <= last; line += cacheLineSize) {
        int level = hierarchy_.accessOne(line, AccessType::Read);
        std::size_t idx = level >= 0 ? static_cast<std::size_t>(level)
                                     : hierarchy_.numLevels();
        appClock_.advance(static_cast<Tick>(levelLatencyNs_[idx]));
        if (level < 0) {
            appClock_.advance(static_cast<Tick>(
                fabric_.latency().cmemNs));
        }
    }

    auto *out = static_cast<std::uint8_t *>(buf);
    for (std::size_t done = 0; done < size;) {
        std::size_t chunk = std::min(size - done,
                                     pageSize - (addr + done) % pageSize);
        cmem_.read(frameAddr(addr + done), out + done, chunk);
        done += chunk;
    }
    reads_.add();
    bytesRead_.add(size);
    if (sampler_ != nullptr)
        sampler_->onTick(appClock_.now());
}

void
VmRuntime::write(Addr addr, const void *buf, std::size_t size)
{
    if (size == 0)
        return;
    ensureRange(addr, size, AccessType::Write);

    Addr first = alignDown(addr, cacheLineSize);
    Addr last = alignDown(addr + size - 1, cacheLineSize);
    for (Addr line = first; line <= last; line += cacheLineSize) {
        int level = hierarchy_.accessOne(line, AccessType::Write);
        std::size_t idx = level >= 0 ? static_cast<std::size_t>(level)
                                     : hierarchy_.numLevels();
        appClock_.advance(static_cast<Tick>(levelLatencyNs_[idx]));
        if (level < 0) {
            appClock_.advance(static_cast<Tick>(
                fabric_.latency().cmemNs));
        }
    }

    const auto *in = static_cast<const std::uint8_t *>(buf);
    for (std::size_t done = 0; done < size;) {
        std::size_t chunk = std::min(size - done,
                                     pageSize - (addr + done) % pageSize);
        cmem_.write(frameAddr(addr + done), in + done, chunk);
        done += chunk;
    }
    writes_.add();
    bytesWritten_.add(size);
    if (sampler_ != nullptr)
        sampler_->onTick(appClock_.now());
}

void
VmRuntime::writebackAll()
{
    while (lruTail_ != noFrame)
        evictOne();
}

Tick
VmRuntime::elapsed() const
{
    return std::max(appClock_.now(), backgroundClock_.now());
}

RuntimeStats
VmRuntime::stats() const
{
    RuntimeStats s;
    s.reads = reads_.value();
    s.writes = writes_.value();
    s.bytesRead = bytesRead_.value();
    s.bytesWritten = bytesWritten_.value();
    s.remoteFetches = majorFaults_.value();
    s.majorFaults = majorFaults_.value();
    s.minorFaults = minorFaults_.value();
    s.tlbShootdowns = tlbShootdowns_.value();
    s.pagesEvicted = pagesEvicted_.value();
    s.silentEvictions = silentEvictions_.value();
    s.evictionBytesOnWire = wireBytes_.value();
    s.retries = retries_.value();
    s.replicaPromotions = replicas_.promotions();
    return s;
}

} // namespace kona
