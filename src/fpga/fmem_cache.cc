#include "fpga/fmem_cache.h"

#include <bit>
#include <unordered_set>

#include "common/logging.h"

namespace kona {

FMemCache::FMemCache(std::size_t sizeBytes, std::size_t associativity,
                     MetricScope scope, const std::string &victimSpec)
    : scope_(std::move(scope)), assoc_(associativity),
      policy_(makeVictimPolicy(victimSpec)),
      hits_(scope_.counter("hits")),
      misses_(scope_.counter("misses")),
      victimPicks_(scope_.counter("policy.victim_picks")),
      fencedFallbacks_(scope_.counter("policy.fenced_fallbacks"))
{
    KONA_ASSERT(assoc_ > 0, "FMem needs >= 1 way");
    KONA_ASSERT(assoc_ <= maxAssociativity,
                "FMem associativity above the candidate-buffer bound");
    KONA_ASSERT(sizeBytes % (assoc_ * pageSize) == 0,
                "FMem size must be a multiple of assoc * pageSize");
    frames_ = sizeBytes / pageSize;
    numSets_ = frames_ / assoc_;
    KONA_ASSERT(numSets_ > 0, "FMem too small");
    pow2Sets_ = std::has_single_bit(numSets_);
    ways_.resize(frames_);
    used_.assign(numSets_, 0);
    setsAtOccupancy_.assign(assoc_ + 1, 0);
    setsAtOccupancy_[0] = numSets_;
    // Every slot starts invalid, parking one free frame. Descending
    // order preserves the historical allocation order (the list-based
    // store handed out the highest way first), so frame placement is
    // bit-identical to the old implementation.
    for (std::size_t set = 0; set < numSets_; ++set) {
        for (std::size_t way = 0; way < assoc_; ++way)
            setBase(set)[way].frame = set * assoc_ + (assoc_ - 1 - way);
    }
}

std::size_t
FMemCache::findWay(Addr vpn) const
{
    std::size_t si = setOf(vpn);
    const Way *set = setBase(si);
    std::size_t used = used_[si];
    for (std::size_t i = 0; i < used; ++i) {
        if (set[i].vpn == vpn)
            return i;
    }
    return npos;
}

std::optional<std::size_t>
FMemCache::lookup(Addr vpn)
{
    std::size_t si = setOf(vpn);
    Way *set = setBase(si);
    std::size_t used = used_[si];
    for (std::size_t i = 0; i < used; ++i) {
        if (set[i].vpn == vpn) {
            Way hit = set[i];
            if (hit.touches != ~static_cast<std::uint32_t>(0))
                ++hit.touches;
            for (std::size_t j = i; j > 0; --j)
                set[j] = set[j - 1];
            set[0] = hit;
            hits_.add();
            return hit.frame;
        }
    }
    misses_.add();
    return std::nullopt;
}

bool
FMemCache::contains(Addr vpn) const
{
    return findWay(vpn) != npos;
}

std::optional<std::size_t>
FMemCache::frameOf(Addr vpn) const
{
    std::size_t i = findWay(vpn);
    if (i == npos)
        return std::nullopt;
    return setBase(setOf(vpn))[i].frame;
}

std::size_t
FMemCache::insert(Addr vpn, FillOrigin origin, Tick tick)
{
    std::size_t si = setOf(vpn);
    Way *set = setBase(si);
    std::size_t used = used_[si];
    KONA_ASSERT(findWay(vpn) == npos, "double insert of VFMem page ",
                vpn);
    KONA_ASSERT(used < assoc_,
                "insert into a full set; evict the victim first");
    // The first invalid slot parks the frame this page will use; it is
    // about to be overwritten by the shift, so take it now.
    std::size_t frame = set[used].frame;
    for (std::size_t j = used; j > 0; --j)
        set[j] = set[j - 1];
    // A demand fill counts as its own first touch; speculative fills
    // start untouched so LFU/scan policies see them as unproven.
    std::uint32_t touches = origin == FillOrigin::Demand ? 1 : 0;
    set[0] = {vpn, frame, origin, tick, touches, false};
    used_[si] = static_cast<std::uint32_t>(used + 1);
    --setsAtOccupancy_[used];
    ++setsAtOccupancy_[used + 1];
    ++resident_;
    return frame;
}

std::size_t
FMemCache::nextFrame(Addr vpn) const
{
    std::size_t si = setOf(vpn);
    std::size_t used = used_[si];
    KONA_ASSERT(used < assoc_, "no free way for VFMem page ", vpn);
    return setBase(si)[used].frame;
}

std::optional<FMemCache::SpecTag>
FMemCache::clearSpeculative(Addr vpn)
{
    std::size_t i = findWay(vpn);
    if (i == npos)
        return std::nullopt;
    Way &way = setBase(setOf(vpn))[i];
    if (way.origin == FillOrigin::Demand)
        return std::nullopt;
    SpecTag tag{way.fillTick, way.origin};
    way.origin = FillOrigin::Demand;
    return tag;
}

std::optional<FillOrigin>
FMemCache::speculativeOrigin(Addr vpn) const
{
    std::size_t i = findWay(vpn);
    if (i == npos)
        return std::nullopt;
    const Way &way = setBase(setOf(vpn))[i];
    if (way.origin == FillOrigin::Demand)
        return std::nullopt;
    return way.origin;
}

bool
FMemCache::isPrefetched(Addr vpn) const
{
    std::size_t i = findWay(vpn);
    return i != npos &&
           setBase(setOf(vpn))[i].origin == FillOrigin::Prefetch;
}

void
FMemCache::setEvictionInFlight(Addr vpn, bool inFlight)
{
    std::size_t i = findWay(vpn);
    if (i != npos)
        setBase(setOf(vpn))[i].evicting = inFlight;
}

bool
FMemCache::evictionInFlight(Addr vpn) const
{
    std::size_t i = findWay(vpn);
    return i != npos && setBase(setOf(vpn))[i].evicting;
}

void
FMemCache::setDirtyProbe(std::function<bool(Addr)> probe)
{
    dirtyProbe_ = std::move(probe);
}

void
FMemCache::setGovernedProbe(std::function<bool(Addr)> probe)
{
    governedProbe_ = std::move(probe);
}

std::size_t
FMemCache::buildCandidates(std::size_t si, VictimView *buf) const
{
    const Way *set = setBase(si);
    std::size_t used = used_[si];
    bool wantDirty = dirtyProbe_ && policy_->wantsDirty();
    bool governed[maxAssociativity];
    std::size_t n = 0;
    bool anyUngoverned = false;
    for (std::size_t i = 0; i < used; ++i) {
        if (set[i].evicting)
            continue;
        governed[n] = governedProbe_ && governedProbe_(set[i].vpn);
        anyUngoverned = anyUngoverned || !governed[n];
        buf[n] = {set[i].vpn,
                  set[i].frame,
                  static_cast<std::uint32_t>(i),
                  set[i].touches,
                  wantDirty && dirtyProbe_(set[i].vpn),
                  set[i].origin != FillOrigin::Demand};
        ++n;
    }
    // Governed pages are last-resort victims: compact them away when
    // any un-governed candidate exists (an all-governed set still
    // evicts, so capacity pressure can never deadlock on coherence).
    if (anyUngoverned) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (governed[i])
                continue;
            buf[kept++] = buf[i];
        }
        n = kept;
    }
    return n;
}

std::optional<FMemCache::Victim>
FMemCache::victimFor(Addr vpn) const
{
    std::size_t si = setOf(vpn);
    std::size_t used = used_[si];
    if (used < assoc_)
        return std::nullopt;
    VictimView candidates[maxAssociativity];
    std::size_t n = buildCandidates(si, candidates);
    if (n == 0) {
        // Whole set fenced: hand back the plain LRU way; the eviction
        // engine then stalls on that shipment's completion.
        fencedFallbacks_.add();
        const Way &lru = setBase(si)[used - 1];
        return Victim{lru.vpn, lru.frame};
    }
    std::size_t picked = policy_->pick(candidates, n);
    KONA_ASSERT(picked < n, "victim policy picked out of range");
    victimPicks_.add();
    return Victim{candidates[picked].vpn, candidates[picked].frame};
}

void
FMemCache::remove(Addr vpn)
{
    std::size_t i = findWay(vpn);
    if (i == npos)
        panic("remove of non-resident VFMem page ", vpn);
    std::size_t si = setOf(vpn);
    Way *set = setBase(si);
    std::size_t used = used_[si];
    std::size_t frame = set[i].frame;
    for (std::size_t j = i; j + 1 < used; ++j)
        set[j] = set[j + 1];
    // The newly invalid slot parks the freed frame.
    set[used - 1].frame = frame;
    used_[si] = static_cast<std::uint32_t>(used - 1);
    --setsAtOccupancy_[used];
    ++setsAtOccupancy_[used - 1];
    --resident_;
}

std::size_t
FMemCache::setVictims(std::size_t si, std::size_t freeWays,
                      Victim *out, std::size_t cap) const
{
    std::size_t used = used_[si];
    std::size_t free = assoc_ - used;
    if (free >= freeWays)
        return 0;
    std::size_t need = freeWays - free;
    VictimView candidates[maxAssociativity];
    std::size_t n = buildCandidates(si, candidates);
    std::size_t owed = need < n ? need : n;
    if (out == nullptr)
        return owed;
    // Select iteratively through the policy, erasing each pick (the
    // stable shift keeps the MRU-first order intact), so "lru" emits
    // victims coldest first exactly like the historical walk.
    std::size_t selected = owed < cap ? owed : cap;
    for (std::size_t k = 0; k < selected; ++k) {
        std::size_t picked = policy_->pick(candidates, n);
        KONA_ASSERT(picked < n, "victim policy picked out of range");
        victimPicks_.add();
        out[k] = {candidates[picked].vpn, candidates[picked].frame};
        for (std::size_t j = picked; j + 1 < n; ++j)
            candidates[j] = candidates[j + 1];
        --n;
    }
    return owed;
}

std::size_t
FMemCache::overOccupiedVictims(std::size_t freeWays, Victim *out,
                               std::size_t cap) const
{
    // Only a set holding more than assoc - freeWays pages can owe a
    // victim; when none does (the resident steady state), return
    // before visiting a set.
    std::size_t mostWithRoom = freeWays < assoc_ ? assoc_ - freeWays : 0;
    std::size_t crowded = 0;
    for (std::size_t k = mostWithRoom + 1; k <= assoc_; ++k)
        crowded += setsAtOccupancy_[k];
    if (crowded == 0)
        return 0;
    // Count first: a pump owed nothing selects nothing.
    std::size_t total = 0;
    for (std::size_t si = 0; si < numSets_; ++si)
        total += setVictims(si, freeWays, nullptr, 0);
    if (total == 0 || out == nullptr)
        return total;
    std::size_t written = 0;
    for (std::size_t si = 0; si < numSets_ && written < cap; ++si)
        written += setVictims(si, freeWays, out + written,
                              cap - written);
    return total;
}

std::vector<Addr>
FMemCache::residentPages() const
{
    std::vector<Addr> pages;
    pages.reserve(resident_);
    for (std::size_t si = 0; si < numSets_; ++si) {
        const Way *set = setBase(si);
        std::size_t used = used_[si];
        for (std::size_t i = 0; i < used; ++i)
            pages.push_back(set[i].vpn);
    }
    return pages;
}

bool
FMemCache::checkInvariants() const
{
    std::unordered_set<std::size_t> seenFrames;
    std::size_t resident = 0;
    for (std::size_t si = 0; si < numSets_; ++si) {
        std::size_t used = used_[si];
        if (used > assoc_)
            return false;
        const Way *set = setBase(si);
        std::unordered_set<Addr> tags;
        for (std::size_t i = 0; i < assoc_; ++i) {
            // Valid or parked, every slot's frame belongs to this set
            // and appears exactly once across the whole store.
            if (!seenFrames.insert(set[i].frame).second)
                return false;
            if (set[i].frame / assoc_ != si)
                return false;
            if (i < used) {
                if (setOf(set[i].vpn) != si)
                    return false;
                if (!tags.insert(set[i].vpn).second)
                    return false;
                ++resident;
            }
        }
    }
    std::vector<std::size_t> occupancy(assoc_ + 1, 0);
    for (std::size_t si = 0; si < numSets_; ++si)
        ++occupancy[used_[si]];
    return resident == resident_ && occupancy == setsAtOccupancy_;
}

} // namespace kona
