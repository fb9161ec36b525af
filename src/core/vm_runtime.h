/**
 * @file
 * VmRuntime: the virtual-memory-based remote memory baseline (§2).
 *
 * It implements the three remote-memory operations the way Infiniswap,
 * LegoOS and Kona-VM do:
 *  - fetch: first touch of a non-present page raises a major fault;
 *    the handler RDMA-reads the page into a free frame of the local
 *    DRAM cache and points the PTE's physPage at that frame. The
 *    personality's measured end-to-end fault latency (40us Infiniswap,
 *    10us LegoOS, 10.5us userfaultfd Kona-VM) is charged to the app.
 *  - track: pages are mapped read-only after fetch; the first write
 *    raises a minor (write-protect) fault that marks the page dirty.
 *  - evict: the LRU page is written back at 4KB granularity (dirty
 *    data amplification!), its PTE cleared, and the TLB shot down —
 *    the shootdown stalls the application.
 *
 * Kona-VM uses the same caching/eviction algorithms as Kona, making
 * the Kona-vs-Kona-VM comparison isolate page faults + granularity,
 * exactly as §6.1 argues.
 */

#ifndef KONA_CORE_VM_RUNTIME_H
#define KONA_CORE_VM_RUNTIME_H

#include <memory>

#include "cache/hierarchy.h"
#include "core/runtime.h"
#include "fpga/remote_translation.h"
#include "mem/backing_store.h"
#include "mem/page_table.h"
#include "mem/region_allocator.h"
#include "mem/tlb.h"
#include "net/queue_pair.h"
#include "net/retry_policy.h"
#include "rack/controller.h"
#include "rack/replica_walker.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace_session.h"

namespace kona {

/** Configuration of a virtual-memory baseline runtime. */
struct VmConfig
{
    VmPersonality personality = VmPersonality::KonaVm;

    /** Capacity of the local DRAM page cache, in pages. */
    std::size_t localCachePages = 16384;

    /** Write-protect pages to track dirty data. The NoWP variant of
     *  Fig 7 sets this false: one fault less per page, but every
     *  evicted page must be written back (tracking is impossible). */
    bool writeProtectTracking = true;

    /** Charge eviction writebacks to a background clock (kswapd-like)
     *  instead of the application. TLB shootdowns always hit the app. */
    bool backgroundEviction = true;

    HierarchyConfig hierarchy;
    std::size_t replicationFactor = 0;

    /** Shared retry discipline for the fault and writeback paths. */
    RetryPolicy retry{.initialBackoffNs = 100'000, .maxAttempts = 16};

    Addr windowBase = 0x200000000000ULL;
    std::size_t windowSize = 16 * GiB;
};

/** Page-based remote memory runtime (the baseline family). */
class VmRuntime : public RemoteMemoryRuntime
{
  public:
    /** @param scope Telemetry scope; the CPU hierarchy registers under
     *         "<scope>.hierarchy", QPs under "<scope>.qp<node>". */
    VmRuntime(Fabric &fabric, Controller &controller, NodeId computeNode,
              const VmConfig &config = {}, MetricScope scope = {});

    // MemoryInterface
    void read(Addr addr, void *buf, std::size_t size) override;
    void write(Addr addr, const void *buf, std::size_t size) override;

    // RemoteMemoryRuntime
    Addr allocate(std::size_t size, std::size_t align = 16) override;
    void deallocate(Addr addr) override;
    void writebackAll() override;
    Tick elapsed() const override;
    RuntimeStats stats() const override;
    std::string name() const override;

    const VmConfig &config() const { return config_; }
    SimClock &appClock() { return appClock_; }
    const PageTable &pageTable() const { return pageTable_; }
    const Tlb &tlb() const { return tlb_; }
    std::size_t residentPages() const
    {
        return config_.localCachePages - freeFrames_.size();
    }
    std::uint64_t faultRetries() const { return retries_.value(); }
    std::uint64_t replicaPromotions() const
    {
        return replicas_.promotions();
    }

    /** Where each slab of the window lives in the rack. */
    const RemoteTranslation &translation() const { return translation_; }

    TraceSession *traceSession() override { return &trace_; }

    /** Tick @p sampler once per read()/write() on the app clock. */
    void setTimeSeriesSampler(TimeSeriesSampler *sampler) override
    {
        sampler_ = sampler;
    }

  private:
    /** Fault/translate until the access to @p vpn is permitted. */
    void ensureAccess(Addr vpn, AccessType type);

    /** Ensure every page of [addr, addr+size) is simultaneously
     *  resident and accessible (multi-page accesses can otherwise
     *  evict each other's pages mid-flight). */
    void ensureRange(Addr addr, std::size_t size, AccessType type);

    /** Major fault: fetch @p vpn from remote into the local cache. */
    void majorFault(Addr vpn);

    /** Minor fault: drop write-protection, mark the page dirty. */
    void minorFault(Addr vpn);

    /** Evict the LRU page to make room. */
    void evictOne();

    /** Write page @p vpn, resident in @p frame, back to every remote
     *  copy. */
    void writebackPage(Addr vpn, Addr frame, SimClock &clock);

    /** Move one page between local frame bytes @p page and copy @p loc
     *  on @p clock; @return the op's latency, or nullopt when it
     *  failed. */
    std::optional<Tick> transferPage(RdmaOpcode opcode,
                                     const RemoteLocation &loc,
                                     std::uint8_t *page, SimClock &clock);

    /** Local-cache address of resident virtual address @p addr. */
    Addr frameAddr(Addr addr) const;

    /** Move @p frame, which must hold @p vpn, to the MRU position. */
    void touchLru(Addr frame, Addr vpn);
    /** Link @p frame, now holding @p vpn, in at the MRU position. */
    void pushLru(Addr frame, Addr vpn);
    void unlinkLru(Addr frame);

    void mapNewSlab();
    void ensureHeap(std::size_t need);

    Fabric &fabric_;
    Controller &controller_;
    NodeId computeNode_;
    VmConfig config_;
    MetricScope scope_;
    TraceSession trace_;

    CacheHierarchy hierarchy_;
    PageTable pageTable_;
    Tlb tlb_;
    /** Local DRAM cache: localCachePages frames, addressed by
     *  frame * pageSize (a present PTE's physPage names the frame). */
    BackingStore cmem_;
    std::vector<Addr> freeFrames_;

    /** LRU order of the occupied frames, linked through per-frame
     *  prev/next indices; vpn names the page a frame holds. */
    struct FrameLru
    {
        Addr vpn = invalidAddr;
        std::uint32_t prev = noFrame;   ///< toward MRU
        std::uint32_t next = noFrame;   ///< toward LRU
    };
    static constexpr std::uint32_t noFrame = ~std::uint32_t{0};
    std::vector<FrameLru> lru_;
    std::uint32_t lruHead_ = noFrame;   ///< most recently used
    std::uint32_t lruTail_ = noFrame;   ///< the next victim

    RemoteTranslation translation_;
    ReplicaWalker replicas_;

    std::unique_ptr<RegionAllocator> heap_;
    Addr windowCursor_;

    CompletionQueue cq_;
    Poller poller_;
    QueuePairs qps_;

    SimClock appClock_;
    SimClock backgroundClock_;
    TimeSeriesSampler *sampler_ = nullptr;
    std::array<double, 8> levelLatencyNs_{};

    Counter &reads_;
    Counter &writes_;
    Counter &bytesRead_;
    Counter &bytesWritten_;
    Counter &majorFaults_;
    Counter &minorFaults_;
    Counter &tlbShootdowns_;
    Counter &pagesEvicted_;
    Counter &silentEvictions_;
    Counter &wireBytes_;
    Counter &retries_;
    LatencyHistogram &majorFaultNs_;
    std::uint64_t nextWrId_ = 0x20000000;
    std::uint64_t retrySeed_ = 0x76edULL;
};

} // namespace kona

#endif // KONA_CORE_VM_RUNTIME_H
