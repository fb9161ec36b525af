/**
 * @file
 * RemoteTranslation: the shared-memory hashmap of §4.4 recording, for
 * each VFMem slab, where its bytes live in the rack. The Resource
 * Manager populates it on allocation; the FPGA only consults it when
 * fetching or writing back. Slabs may carry replicas (§4.5); which copy
 * a read or write goes to is decided by the ReplicaWalker
 * (rack/replica_walker.h), which enumerates them through copies().
 */

#ifndef KONA_FPGA_REMOTE_TRANSLATION_H
#define KONA_FPGA_REMOTE_TRANSLATION_H

#include <functional>
#include <map>
#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "rack/controller.h"

namespace kona {

/** Where a VFMem address lives remotely. */
struct RemoteLocation
{
    NodeId node = 0;
    Addr addr = 0;              ///< absolute address on the node
    std::uint32_t regionKey = 0;
};

/** One VFMem slab's remote placement: primary plus optional replicas. */
struct MappedSlab
{
    SlabGrant primary;
    std::vector<SlabGrant> replicas;
    /**
     * True for slabs of a coherence-shared region: the placement is
     * owned by the DirectoryService's registry (identical across every
     * compute node mapping the region), so rack-level rebuild and
     * decommission must not rewrite it per-runtime.
     */
    bool shared = false;
};

/**
 * Every copy of one VFMem address, primary first, then replicas: a
 * view over the slab's placement, so enumerating it never allocates.
 * Valid until the placement changes.
 */
struct CopySet
{
    const MappedSlab *slab;
    Addr delta;   ///< offset of the address within its slab

    std::size_t size() const { return 1 + slab->replicas.size(); }

    RemoteLocation
    operator[](std::size_t i) const
    {
        const SlabGrant &g = i == 0 ? slab->primary : slab->replicas[i - 1];
        return {g.where.node, g.where.offset + delta, g.regionKey};
    }
};

/** VFMem slab base -> placement map with range lookup. */
class RemoteTranslation
{
  public:
    /** Record VFMem range [vfmemBase, +primary.size) -> placement. */
    void
    addSlab(Addr vfmemBase, const SlabGrant &primary,
            std::vector<SlabGrant> replicas = {}, bool shared = false)
    {
        KONA_ASSERT(primary.size > 0, "empty slab grant");
        for (const SlabGrant &r : replicas) {
            KONA_ASSERT(r.size == primary.size,
                        "replica size mismatch");
        }
        slabs_[vfmemBase] = {primary, std::move(replicas), shared};
    }

    /** Promote replica @p index of the slab covering @p vfmemAddr to
     *  primary (fail-over after a memory-node loss). */
    void
    promoteReplica(Addr vfmemAddr, std::size_t index)
    {
        MappedSlab &slab = slabs_[vfmemAddr - copies(vfmemAddr).delta];
        KONA_ASSERT(index < slab.replicas.size(), "no such replica");
        std::swap(slab.primary, slab.replicas[index]);
    }

    /** Translate one VFMem address to its primary location. */
    RemoteLocation
    translate(Addr vfmemAddr) const
    {
        return copies(vfmemAddr)[0];
    }

    /** Every copy of one VFMem address: primary first, then replicas. */
    CopySet
    copies(Addr vfmemAddr) const
    {
        auto it = find(vfmemAddr);
        if (it == slabs_.end())
            fatal("VFMem address ", vfmemAddr, " not backed by a slab");
        return {&it->second, vfmemAddr - it->first};
    }

    bool
    mapped(Addr vfmemAddr) const
    {
        return find(vfmemAddr) != slabs_.end();
    }

    std::size_t slabCount() const { return slabs_.size(); }
    const std::map<Addr, MappedSlab> &slabs() const { return slabs_; }

    /**
     * Visit every slab's placement mutably. The rack Controller uses
     * this (via PlacementRefs collected by the runtime) to rewrite
     * placements during rebuild and decommission without this layer
     * depending on the FPGA's address space.
     */
    void
    forEachSlab(const std::function<void(MappedSlab &)> &fn)
    {
        for (auto &[base, slab] : slabs_)
            fn(slab);
    }

  private:
    /** The slab covering @p vfmemAddr, or slabs_.end(). */
    std::map<Addr, MappedSlab>::const_iterator
    find(Addr vfmemAddr) const
    {
        auto it = slabs_.upper_bound(vfmemAddr);
        if (it == slabs_.begin())
            return slabs_.end();
        --it;
        return vfmemAddr - it->first < it->second.primary.size
                   ? it
                   : slabs_.end();
    }

    std::map<Addr, MappedSlab> slabs_;
};

} // namespace kona

#endif // KONA_FPGA_REMOTE_TRANSLATION_H
