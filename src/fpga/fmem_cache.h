/**
 * @file
 * FMemCache: tag/frame management for the FPGA-attached DRAM cache.
 *
 * Per §4.4 (Local translation), FMem is a 4-way set-associative cache
 * of VFMem with its block size equal to the page size. Frames are
 * fixed per (set, way) slot, so a page's bytes live at
 * frame * pageSize inside the FMem backing store.
 *
 * Storage is one flat array of numSets * associativity way slots
 * (same layout as SetAssocCache — see DESIGN.md "Simulator
 * performance"): set s owns slots [s*assoc, (s+1)*assoc); its
 * resident ways occupy a prefix in recency order (slot 0 = MRU). The
 * invalid tail slots double as the set's free-frame list — each
 * carries an unused frame number in its frame field — so lookup,
 * insert and remove never touch the heap.
 *
 * Victim selection is delegated to a pluggable VictimPolicy (see
 * src/policy/victim_policy.h): the tag store builds the candidate
 * view for one set — resident ways, minus fenced (eviction in
 * flight) and, when alternatives exist, coherence-governed pages —
 * and the policy picks. The default "lru" policy reproduces the old
 * hard-coded walk bit for bit.
 */

#ifndef KONA_FPGA_FMEM_CACHE_H
#define KONA_FPGA_FMEM_CACHE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "policy/victim_policy.h"
#include "telemetry/metric_registry.h"

namespace kona {

/** How a page got into FMem; speculative fills carry their origin so
 *  first-touch/eviction attribution lands in the right counters. */
enum class FillOrigin : std::uint8_t
{
    Demand,     ///< demand miss (or first touch cleared the tag)
    Prefetch,   ///< prefetch engine; attributes to fpga.prefetch.*
    Tier,       ///< tiering promotion; attributes to tier.*
};

/** Set-associative page-granularity tag store with pluggable
 *  within-set replacement. */
class FMemCache
{
  public:
    /** A page selected for eviction. */
    struct Victim
    {
        Addr vfmemPage;      ///< VFMem page number being displaced
        std::size_t frame;   ///< frame it occupies
    };

    /** Speculative-fill tag returned by clearSpeculative(). */
    struct SpecTag
    {
        Tick tick;           ///< sim time the fill was issued
        FillOrigin origin;   ///< Prefetch or Tier
    };

    /**
     * @param sizeBytes Total FMem capacity (must be a multiple of
     *                  associativity * pageSize).
     * @param associativity Ways per set (the paper uses 4), at most
     *                  maxAssociativity.
     * @param scope Telemetry scope for "hits"/"misses"/"policy.*".
     * @param victimSpec Victim policy ("policy[:arg]", default lru).
     */
    FMemCache(std::size_t sizeBytes, std::size_t associativity = 4,
              MetricScope scope = {},
              const std::string &victimSpec = "lru");

    /** Look up VFMem page @p vpn; refreshes recency on hit. */
    std::optional<std::size_t> lookup(Addr vpn);

    /** Tag probe without recency side effects. */
    bool contains(Addr vpn) const;

    /** Frame of @p vpn without recency update; nullopt if absent. */
    std::optional<std::size_t> frameOf(Addr vpn) const;

    /**
     * Insert @p vpn into its set, which must have a free way (evict
     * first if victimFor() returns a victim). Returns the frame.
     * A speculative @p origin (Prefetch/Tier) tags the frame with the
     * issuing sim time @p tick so the first demand touch can be
     * attributed to the right engine.
     */
    std::size_t insert(Addr vpn,
                       FillOrigin origin = FillOrigin::Demand,
                       Tick tick = 0);

    /** The frame insert(@p vpn) will hand out next: the one parked in
     *  the first invalid slot of its set, which must have a free way. */
    std::size_t nextFrame(Addr vpn) const;

    /**
     * First-touch attribution: if @p vpn is resident and still
     * carries a speculative-fill tag, clear the tag and return it;
     * nullopt when absent or demand-fetched.
     */
    std::optional<SpecTag> clearSpeculative(Addr vpn);

    /**
     * The speculative-fill origin of @p vpn (Prefetch/Tier) when it
     * is resident and never demand-touched; nullopt otherwise. For
     * eviction-time wasted-fill attribution.
     */
    std::optional<FillOrigin> speculativeOrigin(Addr vpn) const;

    /** Whether @p vpn is resident with its prefetch tag still set. */
    bool isPrefetched(Addr vpn) const;

    /**
     * Fence (or unfence) a resident page whose eviction shipment is in
     * flight. Fenced pages are skipped by victim selection so the
     * eviction engine never races itself; a write to a fenced page is
     * legal and simply re-dirties it. No-op when @p vpn is absent.
     */
    void setEvictionInFlight(Addr vpn, bool inFlight);

    /** Whether @p vpn is resident with an eviction shipment in flight. */
    bool evictionInFlight(Addr vpn) const;

    /**
     * Optional probe consulted by dirty-aware victim policies; maps a
     * resident vpn to "has unwritten lines". Only called when the
     * configured policy asks for it (VictimPolicy::wantsDirty()).
     */
    void setDirtyProbe(std::function<bool(Addr)> probe);

    /**
     * Optional probe marking coherence-governed pages. Governed pages
     * are deprioritized by victim selection: they are only chosen
     * when a set has no un-governed, un-fenced alternative (evicting
     * them stays legal — the drop hook releases rights — but it costs
     * directory work, so policies prefer free pages).
     */
    void setGovernedProbe(std::function<bool(Addr)> probe);

    /**
     * The victim that must leave before @p vpn can be inserted;
     * nullopt when the set has a free way. Candidates exclude ways
     * whose eviction is in flight (falling back to the plain LRU way
     * only when the whole set is fenced) and deprioritize governed
     * pages; the configured VictimPolicy picks among the rest.
     */
    std::optional<Victim> victimFor(Addr vpn) const;

    /** Remove @p vpn (after eviction writeback). */
    void remove(Addr vpn);

    /**
     * Victims to evict so every set keeps >= @p freeWays free ways,
     * in caller-provided storage: writes up to @p cap victims to
     * @p out and returns the TOTAL owed, which may exceed cap (grow
     * the buffer and call again; steady-state stays allocation-free
     * once the buffer has warmed up). @p out may be nullptr to count
     * only. Used by background eviction to stay ahead of fetches.
     */
    std::size_t overOccupiedVictims(std::size_t freeWays, Victim *out,
                                    std::size_t cap) const;

    /** All VFMem pages currently resident (for shutdown writeback). */
    std::vector<Addr> residentPages() const;

    std::size_t frames() const { return frames_; }
    std::size_t pagesResident() const { return resident_; }
    std::size_t numSets() const { return numSets_; }
    std::size_t associativity() const { return assoc_; }
    std::size_t capacityBytes() const { return frames_ * pageSize; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Name of the configured victim policy ("lru", "scan:2"...). */
    std::string victimPolicyName() const { return policy_->name(); }

    /** Tag store consistency: frames unique, prefixes well formed. */
    bool checkInvariants() const;

    /** Upper bound on associativity (sizes the stack-side candidate
     *  buffers used on the victim-selection path). */
    static constexpr std::size_t maxAssociativity = 64;

  private:
    struct Way
    {
        Addr vpn;
        std::size_t frame;
        FillOrigin origin = FillOrigin::Demand;
        Tick fillTick = 0;           ///< sim time a speculative fill
                                     ///< was issued
        std::uint32_t touches = 0;   ///< demand touches (saturating)
        bool evicting = false;       ///< eviction shipment in flight
    };

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** A mask when the set count is a power of two, else a division
     *  (FMem sized to a multiple of 4 pages can have any set count). */
    std::size_t setOf(Addr vpn) const
    {
        return static_cast<std::size_t>(
            pow2Sets_ ? vpn & (numSets_ - 1) : vpn % numSets_);
    }

    Way *setBase(std::size_t si) { return ways_.data() + si * assoc_; }
    const Way *setBase(std::size_t si) const
    {
        return ways_.data() + si * assoc_;
    }

    /** Index of @p vpn within its set's valid prefix, or npos. */
    std::size_t findWay(Addr vpn) const;

    /**
     * Fill @p buf with set @p si's victim candidates (MRU first,
     * fenced ways excluded, governed ways dropped when un-governed
     * alternatives exist). Returns the candidate count.
     */
    std::size_t buildCandidates(std::size_t si, VictimView *buf) const;

    /**
     * Count (and when @p out != nullptr, select through the policy)
     * the victims set @p si owes to keep @p freeWays ways free,
     * writing at most @p cap. Returns the owed count.
     */
    std::size_t setVictims(std::size_t si, std::size_t freeWays,
                           Victim *out, std::size_t cap) const;

    MetricScope scope_;
    std::size_t assoc_;
    std::size_t numSets_;
    bool pow2Sets_;
    std::size_t frames_;
    std::size_t resident_ = 0;
    /** numSets * assoc slots; set s's resident ways are the prefix
     *  [s*assoc, s*assoc + used_[s]) in recency order (MRU first);
     *  the tail slots each park one free frame number. */
    std::vector<Way> ways_;
    std::vector<std::uint32_t> used_;
    /** setsAtOccupancy_[k]: how many sets hold exactly k pages, so a
     *  pump with nothing owed returns without visiting a set. */
    std::vector<std::size_t> setsAtOccupancy_;
    std::unique_ptr<VictimPolicy> policy_;
    std::function<bool(Addr)> dirtyProbe_;
    std::function<bool(Addr)> governedProbe_;
    Counter &hits_;
    Counter &misses_;
    Counter &victimPicks_;
    Counter &fencedFallbacks_;
};

} // namespace kona

#endif // KONA_FPGA_FMEM_CACHE_H
