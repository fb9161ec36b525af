#include "cache/set_assoc_cache.h"

#include <bit>
#include <unordered_set>

#include "common/logging.h"

namespace kona {

SetAssocCache::SetAssocCache(const CacheConfig &config,
                             MetricScope scope)
    : config_(config), scope_(std::move(scope)),
      hits_(scope_.counter("hits")),
      misses_(scope_.counter("misses")),
      writebacks_(scope_.counter("writebacks"))
{
    KONA_ASSERT(config.blockSize > 0 &&
                    (config.blockSize & (config.blockSize - 1)) == 0,
                "block size must be a power of two");
    KONA_ASSERT(config.associativity > 0, "associativity must be > 0");
    KONA_ASSERT(config.sizeBytes % (config.blockSize *
                                    config.associativity) == 0,
                "cache size must be a multiple of way size for ",
                config.name);
    numSets_ = config.sizeBytes / (config.blockSize *
                                   config.associativity);
    KONA_ASSERT(numSets_ > 0, "cache too small for its geometry");
    blockShift_ = static_cast<unsigned>(std::countr_zero(config.blockSize));
    pow2Sets_ = std::has_single_bit(numSets_);
    ways_.resize(numSets_ * config.associativity);
    used_.assign(numSets_, 0);
}

CacheOutcome
SetAssocCache::access(Addr addr, AccessType type,
                      CacheEviction &eviction)
{
    Addr blockNum = addr >> blockShift_;
    std::size_t s = setIndex(blockNum);
    Way *set = setBase(s);
    std::size_t used = used_[s];

    for (std::size_t i = 0; i < used; ++i) {
        if (set[i].tag == blockNum) {
            Way hit = set[i];
            if (type == AccessType::Write)
                hit.dirty = true;
            for (std::size_t j = i; j > 0; --j)
                set[j] = set[j - 1];
            set[0] = hit;
            hits_.add();
            eviction.valid = false;
            return CacheOutcome::Hit;
        }
    }

    misses_.add();
    if (used >= config_.associativity) {
        const Way &victim = set[config_.associativity - 1];
        if (victim.dirty)
            writebacks_.add();
        eviction = {victim.tag << blockShift_, victim.dirty, true};
        used = config_.associativity - 1;
    } else {
        eviction.valid = false;
        used_[s] = static_cast<std::uint32_t>(used + 1);
    }
    for (std::size_t j = used; j > 0; --j)
        set[j] = set[j - 1];
    set[0] = {blockNum, type == AccessType::Write};
    return CacheOutcome::Miss;
}

void
SetAssocCache::fillDirty(Addr addr, CacheEviction &eviction)
{
    Addr blockNum = addr >> blockShift_;
    std::size_t s = setIndex(blockNum);
    Way *set = setBase(s);
    std::size_t used = used_[s];

    for (std::size_t i = 0; i < used; ++i) {
        if (set[i].tag == blockNum) {
            for (std::size_t j = i; j > 0; --j)
                set[j] = set[j - 1];
            set[0] = {blockNum, true};
            eviction.valid = false;
            return;
        }
    }
    if (used >= config_.associativity) {
        const Way &victim = set[config_.associativity - 1];
        if (victim.dirty)
            writebacks_.add();
        eviction = {victim.tag << blockShift_, victim.dirty, true};
        used = config_.associativity - 1;
    } else {
        eviction.valid = false;
        used_[s] = static_cast<std::uint32_t>(used + 1);
    }
    for (std::size_t j = used; j > 0; --j)
        set[j] = set[j - 1];
    set[0] = {blockNum, true};
}

bool
SetAssocCache::contains(Addr addr) const
{
    Addr blockNum = addr >> blockShift_;
    std::size_t s = setIndex(blockNum);
    const Way *set = setBase(s);
    std::size_t used = used_[s];
    for (std::size_t i = 0; i < used; ++i) {
        if (set[i].tag == blockNum)
            return true;
    }
    return false;
}

std::optional<bool>
SetAssocCache::invalidateBlock(Addr addr)
{
    Addr blockNum = addr >> blockShift_;
    std::size_t s = setIndex(blockNum);
    Way *set = setBase(s);
    std::size_t used = used_[s];
    for (std::size_t i = 0; i < used; ++i) {
        if (set[i].tag == blockNum) {
            bool dirty = set[i].dirty;
            for (std::size_t j = i; j + 1 < used; ++j)
                set[j] = set[j + 1];
            used_[s] = static_cast<std::uint32_t>(used - 1);
            return dirty;
        }
    }
    return std::nullopt;
}

void
SetAssocCache::flushAll(std::vector<CacheEviction> &evictions)
{
    for (std::size_t s = 0; s < numSets_; ++s) {
        const Way *set = setBase(s);
        std::size_t used = used_[s];
        for (std::size_t i = 0; i < used; ++i) {
            if (set[i].dirty)
                writebacks_.add();
            evictions.push_back({set[i].tag << blockShift_,
                                 set[i].dirty, true});
        }
        used_[s] = 0;
    }
}

bool
SetAssocCache::checkInvariants() const
{
    for (std::size_t s = 0; s < numSets_; ++s) {
        std::size_t used = used_[s];
        if (used > config_.associativity)
            return false;
        const Way *set = setBase(s);
        std::unordered_set<Addr> tags;
        for (std::size_t i = 0; i < used; ++i) {
            if (!tags.insert(set[i].tag).second)
                return false;      // duplicate tag in a set
            if (setIndex(set[i].tag) != s)
                return false;      // tag hashed to the wrong set
        }
    }
    return true;
}

} // namespace kona
