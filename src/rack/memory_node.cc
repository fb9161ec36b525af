#include "rack/memory_node.h"

#include <bit>

#include "common/logging.h"

namespace kona {

MemoryNode::MemoryNode(Fabric &fabric, NodeId id, std::size_t capacity,
                       std::size_t logArea, MetricScope scope)
    : fabric_(fabric), id_(id), scope_(std::move(scope)),
      store_(std::make_unique<BackingStore>(capacity)),
      slabs_(logArea, capacity - logArea),
      linesReceived_(scope_.counter("lines_received")),
      logsRejected_(scope_.counter("logs_rejected")),
      unpackNs_(scope_.histogram("unpack_ns"))
{
    KONA_ASSERT(capacity > logArea,
                "memory node smaller than its log area");
    fabric_.attachNode(id_, store_.get());
    slabRegion_ = fabric_.registerRegion(id_, logArea,
                                         capacity - logArea);
    logRegion_ = fabric_.registerRegion(id_, 0, logArea);
}

std::optional<Addr>
MemoryNode::allocateSlab(std::size_t size)
{
    return slabs_.allocate(size, pageSize);
}

void
MemoryNode::freeSlab(Addr addr)
{
    slabs_.deallocate(addr);
}

LogReceiptStats
MemoryNode::receiveLog(Addr logOffset, std::size_t logBytes)
{
    KONA_ASSERT(logOffset + logBytes <= logRegion_.length,
                "log outside the landing area");
    LogReceiptStats stats;

    // Pull the serialized log out of the landing area, then distribute.
    // Power-of-two capacity: the buffer regrows only when a log
    // doubles the largest so far.
    if (logBuf_.size() < logBytes) {
        logBuf_.reserve(std::bit_ceil(logBytes));
        logBuf_.resize(logBytes);
    }
    const std::uint8_t *log = logBuf_.data();
    store_->read(logRegion_.base + logOffset, logBuf_.data(), logBytes);

    const LatencyConfig &lat = fabric_.latency();
    stats.unpackNs += lat.logCrcPerKbNs *
                      static_cast<double>(logBytes) / 1024.0;

    // Pass 1: verify every record before applying anything. A corrupt
    // header can also destroy the framing of everything after it, so a
    // partially-applied log is never acceptable — NAK the whole thing
    // and let the sender retransmit.
    ClLogReader verify(log, logBytes);
    while (!verify.atEnd()) {
        ClLogEntryHeader header;
        const std::uint8_t *payload = nullptr;
        if (!verify.tryNext(header, payload) ||
            clLogRecordCrc(header.remoteAddr, header.lineCount,
                           payload) != header.crc) {
            stats.ok = false;
            stats.corruptRecords += 1;
            logsRejected_.add();
            warn("memory node ", id_, ": NAK corrupt CL log (",
                 logBytes, " bytes)");
            return stats;
        }
    }

    // Pass 2: the log checks out; distribute the lines home.
    ClLogReader reader(log, logBytes);
    while (!reader.atEnd()) {
        const std::uint8_t *payload = nullptr;
        ClLogEntryHeader header = reader.next(payload);
        store_->write(header.remoteAddr, payload,
                      static_cast<std::size_t>(header.lineCount) *
                          cacheLineSize);
        stats.runs += 1;
        stats.lines += header.lineCount;
        stats.unpackNs += lat.logUnpackPerLineNs * header.lineCount;
    }
    linesReceived_.add(stats.lines);
    unpackNs_.record(stats.unpackNs);
    return stats;
}

} // namespace kona
