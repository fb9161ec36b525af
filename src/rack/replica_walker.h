/**
 * @file
 * ReplicaWalker: the one path that reads or writes a replicated page
 * (§4.5: write every copy, fail over on read). Every runtime owns one
 * over its RemoteTranslation. A call site keeps only how its bytes
 * move: an attempt callback that posts one op against one copy, on the
 * site's own clock and buffer, and returns its latency if it landed.
 * The walker owns everything else: the candidate order (primary first,
 * copies the Controller says to avoid for reads moved to the back,
 * stably); skipping stale homes (no health evidence: the node is fine,
 * its bytes are not) and down nodes (failure evidence); the health
 * evidence of every synchronous op; promotion (demand reads only, and
 * only when every earlier copy's node is down); the stale-home state;
 * and the settle rule (a write is safe once one copy has landed).
 * Without a Controller it reports nothing and hedges nothing.
 */

#ifndef KONA_RACK_REPLICA_WALKER_H
#define KONA_RACK_REPLICA_WALKER_H

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>

#include "fpga/remote_translation.h"
#include "net/fabric.h"
#include "rack/controller.h"
#include "telemetry/metric_registry.h"

namespace kona {

/** Who a read is for: only demand reads promote and count hedges. */
enum class ReadIntent : std::uint8_t { Demand, Speculative };

/** Copy selection, health evidence and stale-home state of a runtime. */
class ReplicaWalker
{
  public:
    /** @param scope Registers replica_promotions, hedged_reads and
     *  stale_home_skips. */
    ReplicaWalker(const Fabric &fabric, Controller *controller,
                  RemoteTranslation &translation,
                  const MetricScope &scope);

    /**
     * Read page @p vpn from the first copy, in candidate order, that
     * @p tryCopy lands. tryCopy(const RemoteLocation &) posts one op
     * and returns its latency, or nullopt when it failed.
     * @return That copy's placement index (0 = primary), or nullopt.
     */
    template <typename TryCopy>
    std::optional<std::size_t>
    read(Addr vpn, ReadIntent intent, TryCopy &&tryCopy)
    {
        const CopySet all = copies(vpn);
        const std::uint64_t avoided = avoidedCopies(all);
        // Two passes make the stable reorder without a buffer.
        for (std::uint64_t pass = 0; pass < 2; ++pass) {
            for (std::size_t i = 0; i < all.size(); ++i) {
                const RemoteLocation loc = all[i];
                if (((avoided >> i) & 1) != pass ||
                    skipStale(vpn, loc.node) || !reachable(loc.node) ||
                    !record(loc.node, tryCopy(loc))) {
                    continue;
                }
                served(vpn, all, i, intent);
                return i;
            }
        }
        return std::nullopt;
    }

    /** Write lines @p lines of page @p vpn to every copy through
     *  @p tryCopy. @return whether the write is safe. */
    template <typename TryCopy>
    bool
    write(Addr vpn, std::uint64_t lines, TryCopy &&tryCopy)
    {
        const CopySet all = copies(vpn);
        bool safe = false;
        for (std::size_t i = 0; i < all.size(); ++i) {
            const RemoteLocation loc = all[i];
            bool landed =
                reachable(loc.node) && record(loc.node, tryCopy(loc));
            safe |= landed;
            settleCopy(vpn, loc.node, landed, lines);
        }
        return safe;
    }

    /** Every copy of page @p vpn, primary first: the targets of a
     *  write its caller posts asynchronously and settles later. */
    CopySet
    copies(Addr vpn) const
    {
        return translation_.copies(vpn * pageSize);
    }

    /** False when @p node is down; the skip is failure evidence. */
    bool reachable(NodeId node);

    /**
     * Settle an asynchronous write of @p lines of page @p vpn to
     * @p homes, of which @p reached acked. Each home marked stale is
     * passed to @p onStale. @return whether the write is safe.
     */
    template <typename OnStale>
    bool
    settle(Addr vpn, std::span<const NodeId> homes,
           std::span<const NodeId> reached, std::uint64_t lines,
           OnStale &&onStale)
    {
        bool safe = false;
        for (NodeId home : homes) {
            bool landed = std::find(reached.begin(), reached.end(),
                                    home) != reached.end();
            safe |= landed;
            if (settleCopy(vpn, home, landed, lines))
                onStale(home);
        }
        return safe;
    }

    /** Copy of @p vpn on @p node missed lines in @p mask. */
    void markStale(Addr vpn, NodeId node, std::uint64_t mask);

    /** Union of lines any home of @p vpn is missing (0 = none). */
    std::uint64_t staleLines(Addr vpn) const;

    /** Per-home missed-line masks of @p vpn in node order (nullptr:
     *  none stale). */
    const std::map<NodeId, std::uint64_t> *
    staleHomesOf(Addr vpn) const
    {
        auto it = staleHomes_.find(vpn);
        return it == staleHomes_.end() ? nullptr : &it->second;
    }

    std::uint64_t promotions() const { return promotions_.value(); }
    /** Demand reads served by a replica because the live primary's
     *  membership state said to avoid it (no promotion involved). */
    std::uint64_t hedgedReads() const { return hedged_.value(); }

  private:
    bool avoids(NodeId node) const;
    /** Bit i set: reads should avoid copy i's node. */
    std::uint64_t avoidedCopies(const CopySet &copies) const;
    /** Whether @p node's copy of @p vpn is stale (counts the skip). */
    bool skipStale(Addr vpn, NodeId node);
    /** Report an op against @p node that took @p latency (nullopt:
     *  it failed). @return whether it landed. */
    bool record(NodeId node, std::optional<Tick> latency);
    /** Promote, or count a hedge, after copy @p i served a read. */
    void served(Addr vpn, const CopySet &copies, std::size_t i,
                ReadIntent intent);
    /** One home's write outcome; @return whether it was marked stale. */
    bool settleCopy(Addr vpn, NodeId home, bool landed,
                    std::uint64_t lines);

    const Fabric &fabric_;
    Controller *controller_;
    RemoteTranslation &translation_;
    /** vpn -> (home node -> missed-line mask). Almost always empty. */
    std::unordered_map<Addr, std::map<NodeId, std::uint64_t>> staleHomes_;
    Counter &promotions_;
    Counter &hedged_;
    Counter &staleSkips_;
};

} // namespace kona

#endif // KONA_RACK_REPLICA_WALKER_H
