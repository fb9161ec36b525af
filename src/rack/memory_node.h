/**
 * @file
 * MemoryNode: a disaggregated memory server. It owns DRAM, registers a
 * pool with the rack Controller, carves that pool into slabs on demand,
 * and runs the Cache-line Log Receiver that unpacks CL logs shipped by
 * compute nodes and distributes the lines to their home addresses.
 */

#ifndef KONA_RACK_MEMORY_NODE_H
#define KONA_RACK_MEMORY_NODE_H

#include <memory>
#include <vector>

#include "common/latency.h"
#include "common/sim_clock.h"
#include "mem/backing_store.h"
#include "mem/region_allocator.h"
#include "net/fabric.h"
#include "rack/cl_log.h"
#include "telemetry/metric_registry.h"

namespace kona {

/** Result of unpacking one CL log on the memory node. */
struct LogReceiptStats
{
    bool ok = true;         ///< false = log NAKed, no line was applied
    std::uint64_t runs = 0;
    std::uint64_t lines = 0;
    std::uint64_t corruptRecords = 0;  ///< CRC or framing failures seen
    double unpackNs = 0.0;  ///< receiver-thread time to verify+distribute
};

/** A memory server in the rack. */
class MemoryNode
{
  public:
    /**
     * @param fabric The rack network this node attaches to.
     * @param id Node identifier (must be unique on the fabric).
     * @param capacity DRAM capacity in bytes.
     * @param logArea Bytes reserved at offset 0 for incoming CL logs.
     * @param scope Telemetry scope for the receiver counters and the
     *              per-log "unpack_ns" histogram.
     */
    MemoryNode(Fabric &fabric, NodeId id, std::size_t capacity,
               std::size_t logArea = 4 * MiB, MetricScope scope = {});

    NodeId id() const { return id_; }
    std::size_t capacity() const { return store_->capacity(); }
    BackingStore &store() { return *store_; }

    /** RDMA registration of the whole slab area (one-time setup). */
    const MemoryRegion &slabRegion() const { return slabRegion_; }

    /**
     * RDMA registration of the log landing area. The pipelined
     * eviction engine carves this into a ring of equal slots (one
     * in-flight CL log per slot); a sender with depth N writes slot
     * k's log at logRegion().base + k * logSlotBytes(N) and calls
     * receiveLog with the matching offset.
     */
    const MemoryRegion &logRegion() const { return logRegion_; }

    /** Bytes of one landing-area ring slot when carved into @p slots. */
    std::size_t
    logSlotBytes(std::size_t slots) const
    {
        KONA_ASSERT(slots > 0, "log ring needs >= 1 slot");
        std::size_t bytes = logRegion_.length / slots;
        KONA_ASSERT(bytes > 0, "log landing area too small for ", slots,
                    " ring slots");
        return bytes;
    }

    /** Carve a slab of @p size bytes; nullopt when the pool is full. */
    std::optional<Addr> allocateSlab(std::size_t size);

    /** Return a slab to the pool. */
    void freeSlab(Addr addr);

    std::size_t bytesInUse() const { return slabs_.bytesInUse(); }
    std::size_t bytesFree() const { return slabs_.bytesFree(); }

    /**
     * Cache-line Log Receiver: parse the log that a compute node just
     * RDMA-wrote into [logRegion().base + logOffset, +logBytes) and
     * write every line to its home address. Models the receiver
     * thread's per-line cost.
     *
     * Integrity: every record's CRC32 is verified BEFORE any line of
     * the log is applied. A mismatch (or unparseable framing) NAKs the
     * whole log — stats.ok is false, remote memory is untouched, and
     * the sender is expected to retransmit.
     */
    LogReceiptStats receiveLog(Addr logOffset, std::size_t logBytes);

    std::uint64_t linesReceived() const { return linesReceived_.value(); }
    std::uint64_t logsRejected() const { return logsRejected_.value(); }

  private:
    Fabric &fabric_;
    NodeId id_;
    MetricScope scope_;
    std::unique_ptr<BackingStore> store_;
    RegionAllocator slabs_;
    MemoryRegion slabRegion_;
    MemoryRegion logRegion_;
    /** receiveLog()'s copy of the log, reused from log to log. Node
     *  state changes only in gated sections, one at a time, so the
     *  parallel engine never unpacks two logs on a node at once. */
    std::vector<std::uint8_t> logBuf_;
    Counter &linesReceived_;
    Counter &logsRejected_;
    LatencyHistogram &unpackNs_;
};

} // namespace kona

#endif // KONA_RACK_MEMORY_NODE_H
