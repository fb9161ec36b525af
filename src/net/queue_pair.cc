#include "net/queue_pair.h"

#include <algorithm>

#include "common/logging.h"
#include "net/fault_injector.h"

namespace kona {

QueuePair &
QueuePairs::to(NodeId node)
{
    std::unique_ptr<QueuePair> &qp = qps_[node];
    if (qp == nullptr) {
        qp = std::make_unique<QueuePair>(
            fabric_, localNode_, node, cq_,
            scope_.sub("qp" + std::to_string(node)));
    }
    return *qp;
}

WorkCompletion
CompletionQueue::pop()
{
    KONA_ASSERT(depth_ != 0, "pop from empty CQ");
    WorkCompletion wc = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --depth_;
    return wc;
}

void
CompletionQueue::grow()
{
    std::vector<WorkCompletion> bigger(std::max<std::size_t>(
        16, 2 * ring_.size()));
    for (std::size_t i = 0; i < depth_; ++i)
        bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    ring_ = std::move(bigger);
    head_ = 0;
}

QueuePair::QueuePair(Fabric &fabric, NodeId localNode, NodeId remoteNode,
                     CompletionQueue &cq, MetricScope scope)
    : fabric_(fabric), localNode_(localNode), remoteNode_(remoteNode),
      cq_(cq), scope_(std::move(scope)),
      postedOps_(scope_.counter("posted_ops")),
      postedBytes_(scope_.counter("posted_bytes"))
{
    KONA_ASSERT(fabric.hasNode(remoteNode), "QP to unknown node ",
                remoteNode);
}

double
QueuePair::executeOne(const WorkRequest &wr, bool linked)
{
    KONA_ASSERT(wr.localBuf != nullptr || wr.length == 0,
                "work request without a local buffer");
    const MemoryRegion &mr = fabric_.region(wr.remoteKey);
    KONA_ASSERT(mr.node == remoteNode_,
                "region key belongs to a different node");
    if (!mr.covers(wr.remoteAddr, wr.length))
        fatal("RDMA access outside registered region: addr ",
              wr.remoteAddr, " len ", wr.length);

    BackingStore &remote = fabric_.nodeStore(remoteNode_);
    if (wr.opcode == RdmaOpcode::Read) {
        remote.read(wr.remoteAddr, wr.localBuf, wr.length);
    } else {
        // Write and Inval both land payload bytes remotely; Inval's
        // payload is a coherence control message in the mailbox region.
        remote.write(wr.remoteAddr, wr.localBuf, wr.length);
    }
    fabric_.accountTransfer(wr.length);
    postedOps_.add();
    postedBytes_.add(wr.length);

    const LatencyConfig &lat = fabric_.latency();
    double base = linked ? lat.rdmaLinkedOpNs : lat.rdmaBaseNs;
    if (wr.inlineData && wr.opcode != RdmaOpcode::Read &&
        wr.length <= lat.rdmaInlineThreshold) {
        // Inline payloads skip the DMA fetch of the local buffer but
        // still cross the wire; the paper found this unhelpful at 64B+
        // sizes, which the model reflects via a small constant saving.
        base = std::max(0.0, base - 100.0);
    }
    double wire = static_cast<double>(wr.length) *
                  lat.rdmaPipelinedPerKbNs / 1024.0;
    return base + wire + static_cast<double>(
        fabric_.nodeDelay(remoteNode_));
}

void
QueuePair::applyCorruption(const WorkRequest &wr, const FaultDecision &fd)
{
    // End-host DMA corruption: the write completed "successfully" but
    // one payload bit flipped on its way into remote memory. Only an
    // end-to-end check (the CL log's CRC) can see this.
    KONA_ASSERT(fd.corruptOffset < wr.length, "corrupt offset past end");
    BackingStore &remote = fabric_.nodeStore(remoteNode_);
    std::uint8_t byte = 0;
    Addr target = wr.remoteAddr + fd.corruptOffset;
    remote.read(target, &byte, 1);
    byte ^= fd.corruptMask;
    remote.write(target, &byte, 1);
}

PostResult
QueuePair::post(const WorkRequest &wr, SimClock &clock)
{
    if (fabric_.nodeDown(remoteNode_)) {
        cq_.push({wr.wrId, WcStatus::RemoteUnreachable, clock.now()});
        return {WcStatus::RemoteUnreachable, 1};
    }
    FaultDecision fd;
    if (FaultInjector *fi = fabric_.faultInjector())
        fd = fi->decide(localNode_, remoteNode_, wr.opcode, wr.length);
    if (fd.status != WcStatus::Success) {
        // Dropped/timed-out ops never touch remote memory; the issuer
        // eats the injected delay (e.g. a retransmission timer).
        cq_.push({wr.wrId, fd.status, clock.now() + fd.extraLatencyNs});
        return {fd.status, 1};
    }
    double cost = executeOne(wr, /*linked=*/false);
    if (fd.corruptPayload)
        applyCorruption(wr, fd);
    Tick done = clock.now() + static_cast<Tick>(cost) + fd.extraLatencyNs;
    if (wr.signaled)
        cq_.push({wr.wrId, WcStatus::Success, done});
    return {WcStatus::Success, wr.signaled ? std::size_t(1) : 0};
}

PostResult
QueuePair::postLinked(std::span<const WorkRequest> wrs, SimClock &clock)
{
    if (wrs.empty())
        return {WcStatus::Success, 0};
    if (fabric_.nodeDown(remoteNode_)) {
        cq_.push({wrs.back().wrId, WcStatus::RemoteUnreachable,
                  clock.now()});
        return {WcStatus::RemoteUnreachable, 1};
    }
    // The first WR of a chain pays the full doorbell; subsequent linked
    // WRs pay only the marginal cost. Ops within a chain pipeline, so
    // completion time accumulates their costs serially on the wire.
    FaultInjector *fi = fabric_.faultInjector();
    double total = 0.0;
    Tick extra = 0;
    bool first = true;
    for (const WorkRequest &wr : wrs) {
        FaultDecision fd;
        if (fi != nullptr)
            fd = fi->decide(localNode_, remoteNode_, wr.opcode,
                            wr.length);
        extra += fd.extraLatencyNs;
        if (fd.status != WcStatus::Success) {
            // Mid-chain failure: earlier WRs of the chain have already
            // landed; this WR and everything linked after it never
            // execute. The error CQE carries the failing WR's id so the
            // issuer can tell where the chain broke.
            cq_.push({wr.wrId, fd.status,
                      clock.now() + static_cast<Tick>(total) + extra});
            return {fd.status, 1};
        }
        total += executeOne(wr, /*linked=*/!first);
        if (fd.corruptPayload)
            applyCorruption(wr, fd);
        first = false;
    }
    Tick done = clock.now() + static_cast<Tick>(total) + extra;
    std::size_t pushed = 0;
    for (const WorkRequest &wr : wrs) {
        if (wr.signaled) {
            cq_.push({wr.wrId, WcStatus::Success, done});
            ++pushed;
        }
    }
    return {WcStatus::Success, pushed};
}

WorkCompletion
Poller::waitOne(CompletionQueue &cq, SimClock &clock)
{
    KONA_ASSERT(!cq.empty(),
                "waitOne on an empty CQ: nothing in flight");
    WorkCompletion wc = cq.pop();
    complete(wc, clock);
    return wc;
}

void
Poller::complete(const WorkCompletion &wc, SimClock &clock)
{
    clock.advanceTo(wc.completeAt);
    clock.advance(static_cast<Tick>(latency_.rdmaCompletionNs));
}

std::size_t
Poller::drain(CompletionQueue &cq, SimClock &clock, std::size_t max)
{
    std::size_t consumed = 0;
    for (; consumed < max && !cq.empty(); ++consumed)
        waitOne(cq, clock);
    return consumed;
}

} // namespace kona
