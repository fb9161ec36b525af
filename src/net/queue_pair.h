/**
 * @file
 * QueuePair and CompletionQueue: the one-sided RDMA verbs the Kona
 * runtime uses (§5.1's optimizations are all modelled):
 *
 *  - batching/linking multiple reads or writes into one chained post;
 *  - unsignaled completions (only the final WR of a batch signals);
 *  - optional inline data for tiny payloads (cheaper, no DMA fetch);
 *  - data really moves between the local host buffer and the remote
 *    node's BackingStore, so integrity is testable end-to-end.
 */

#ifndef KONA_NET_QUEUE_PAIR_H
#define KONA_NET_QUEUE_PAIR_H

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/sim_clock.h"
#include "net/fabric.h"

namespace kona {

/**
 * One-sided verb opcodes. Inval is the coherence control opcode: a
 * tiny send into the target node's registered mailbox region, used for
 * directory invalidations and acquire/release RPCs. On the wire it
 * behaves like a small write (it lands payload bytes remotely and pays
 * the same base + wire cost), so fault injection — drops, partitions,
 * degrade delays, flaps — applies to coherence traffic exactly as it
 * does to data traffic. NAK injection stays Write-only: control
 * messages carry no CL-log CRC, so a corrupted Inval is modelled as a
 * transport-level drop instead.
 */
enum class RdmaOpcode : std::uint8_t { Read, Write, Inval };

/** A work request. Local buffers are host memory (registered buffers). */
struct WorkRequest
{
    std::uint64_t wrId = 0;
    RdmaOpcode opcode = RdmaOpcode::Write;
    void *localBuf = nullptr;           ///< source (Write) or dest (Read)
    std::uint32_t remoteKey = 0;        ///< registered remote region
    Addr remoteAddr = 0;                ///< absolute address on the node
    std::size_t length = 0;
    bool signaled = true;
    bool inlineData = false;            ///< copy into the WQE (tiny only)
};

/** Completion status. */
enum class WcStatus : std::uint8_t
{
    Success,
    RemoteUnreachable, ///< node marked down; op never left the NIC
    Timeout,           ///< link unresponsive; issuer waited out a timer
    Dropped,           ///< op lost in flight (or failed the ICRC check)
};

/** A completion entry. */
struct WorkCompletion
{
    std::uint64_t wrId = 0;
    WcStatus status = WcStatus::Success;
    Tick completeAt = 0;   ///< simulated time the CQE became visible
};

/**
 * Outcome of a post/postLinked doorbell. cqesPushed tells the caller
 * exactly how many CQEs this doorbell put on the CQ (success CQEs for
 * signaled WRs, or the one error CQE of a failed post), so error paths
 * no longer have to infer how much to drain.
 */
struct PostResult
{
    WcStatus status = WcStatus::Success;
    std::size_t cqesPushed = 0;

    bool ok() const { return status == WcStatus::Success; }
    explicit operator bool() const { return ok(); }
};

/** Completion queue: CQEs in completion order, in a ring that grows
 *  (doubling) only when full, so a warmed-up queue never allocates. */
class CompletionQueue
{
  public:
    void
    push(const WorkCompletion &wc)
    {
        if (depth_ == ring_.size())
            grow();
        ring_[(head_ + depth_) & (ring_.size() - 1)] = wc;
        ++depth_;
    }

    bool empty() const { return depth_ == 0; }
    std::size_t depth() const { return depth_; }

    /** Pop the oldest CQE; caller checks empty() first. */
    WorkCompletion pop();

  private:
    void grow();

    /** Power-of-two sized; entries [head_, head_ + depth_) wrap. */
    std::vector<WorkCompletion> ring_;
    std::size_t head_ = 0;
    std::size_t depth_ = 0;
};

/**
 * A reliable-connected queue pair from a local node to a remote node.
 * Verbs execute functionally at post time; their simulated latency is
 * charged to the supplied SimClock and recorded in the CQE timestamp.
 */
class QueuePair
{
  public:
    /** @param scope Telemetry scope for "posted_ops"/"posted_bytes". */
    QueuePair(Fabric &fabric, NodeId localNode, NodeId remoteNode,
              CompletionQueue &cq, MetricScope scope = {});

    /**
     * Post a single work request.
     * @param clock The issuing thread's clock; only the posting overhead
     *              is charged synchronously, the transfer completes at
     *              the CQE timestamp.
     * @return A failed status if the op never landed (node down, drop,
     *         timeout); an error CQE is pushed and counted in
     *         cqesPushed so the caller can drain it.
     */
    PostResult post(const WorkRequest &wr, SimClock &clock);

    /**
     * Post a chain of linked work requests as one doorbell. Only WRs
     * with signaled=true produce CQEs; the paper's eviction path signals
     * only the last WR of a batch. A mid-chain failure pushes one error
     * CQE carrying the failing WR's id.
     */
    PostResult postLinked(std::span<const WorkRequest> wrs,
                          SimClock &clock);

    NodeId remoteNode() const { return remoteNode_; }

    std::uint64_t postedOps() const { return postedOps_.value(); }
    std::uint64_t postedBytes() const { return postedBytes_.value(); }

  private:
    /** Execute the data movement; returns transfer cost in ns. */
    double executeOne(const WorkRequest &wr, bool linked);

    /** Flip the injector-chosen bit of a landed write's payload. */
    void applyCorruption(const WorkRequest &wr,
                         const struct FaultDecision &fd);

    Fabric &fabric_;
    NodeId localNode_;
    NodeId remoteNode_;
    CompletionQueue &cq_;
    MetricScope scope_;
    Counter &postedOps_;
    Counter &postedBytes_;
};

/**
 * Poller: drains completion queues, charging polling overhead and
 * advancing the caller past CQE timestamps (the KLib Poller component).
 */
/** One QueuePair per remote node, created on first use; all of them
 *  complete into one CompletionQueue. */
class QueuePairs
{
  public:
    /** Each QP registers its metrics under "<scope>.qp<node>". */
    QueuePairs(Fabric &fabric, NodeId localNode, CompletionQueue &cq,
               MetricScope scope)
        : fabric_(fabric), localNode_(localNode), cq_(cq),
          scope_(std::move(scope))
    {}

    /** The queue pair to @p node. */
    QueuePair &to(NodeId node);

  private:
    Fabric &fabric_;
    NodeId localNode_;
    CompletionQueue &cq_;
    MetricScope scope_;
    std::unordered_map<NodeId, std::unique_ptr<QueuePair>> qps_;
};

class Poller
{
  public:
    explicit Poller(const LatencyConfig &latency) : latency_(latency) {}

    /**
     * Busy-poll @p cq until a CQE arrives, charge poll cost, return it.
     * The clock is advanced to at least the CQE's completion time.
     */
    WorkCompletion waitOne(CompletionQueue &cq, SimClock &clock);

    /**
     * Charge the poll cost of an already-popped CQE to @p clock (the
     * async eviction engine pops CQEs itself to route them to their
     * in-flight shipments, then charges each shipment's own timeline).
     */
    void complete(const WorkCompletion &wc, SimClock &clock);

    /** Consume up to @p max pending CQEs; @return how many. */
    std::size_t drain(CompletionQueue &cq, SimClock &clock,
                      std::size_t max = ~std::size_t(0));

  private:
    const LatencyConfig &latency_;
};

} // namespace kona

#endif // KONA_NET_QUEUE_PAIR_H
