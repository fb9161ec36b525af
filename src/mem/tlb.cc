#include "mem/tlb.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace kona {

Tlb::Tlb(std::size_t entries)
    : slots_(entries),
      index_(std::bit_ceil(2 * std::max<std::size_t>(entries, 1))),
      mask_(index_.size() - 1),
      hashShift_(64u - static_cast<unsigned>(std::countr_zero(
                           index_.size())))
{
    KONA_ASSERT(entries > 0, "TLB needs at least one entry");
    // Slot and bucket indices (up to 4x capacity) stay below none.
    KONA_ASSERT(entries <= (std::size_t{1} << 30),
                "TLB capacity beyond the 32-bit slot index");
    clear();
}

void
Tlb::clear()
{
    for (Bucket &bucket : index_)
        bucket.slot = none;
    for (std::size_t s = 0; s < slots_.size(); ++s)
        slots_[s].next = s + 1 < slots_.size()
                             ? static_cast<std::uint32_t>(s + 1)
                             : none;
    freeHead_ = 0;
    head_ = tail_ = none;
    used_ = 0;
}

std::uint32_t
Tlb::findBucket(Addr vpn) const
{
    for (std::size_t b = home(vpn);; b = (b + 1) & mask_) {
        const Bucket &bucket = index_[b];
        if (bucket.slot == none)
            return none;
        if (bucket.vpn == vpn)
            return static_cast<std::uint32_t>(b);
    }
}

void
Tlb::eraseBucket(std::size_t b)
{
    // Backward-shift deletion: pull each later member of the probe run
    // into the hole unless its home lies cyclically in (hole, member].
    std::size_t hole = b;
    for (std::size_t next = (b + 1) & mask_; index_[next].slot != none;
         next = (next + 1) & mask_) {
        std::size_t h = home(index_[next].vpn);
        if (((next - h) & mask_) >= ((next - hole) & mask_)) {
            index_[hole] = index_[next];
            hole = next;
        }
    }
    index_[hole].slot = none;
}

void
Tlb::unlink(std::uint32_t s)
{
    Slot &slot = slots_[s];
    if (slot.prev != none)
        slots_[slot.prev].next = slot.next;
    else
        head_ = slot.next;
    if (slot.next != none)
        slots_[slot.next].prev = slot.prev;
    else
        tail_ = slot.prev;
}

void
Tlb::pushFront(std::uint32_t s)
{
    Slot &slot = slots_[s];
    slot.prev = none;
    slot.next = head_;
    if (head_ != none)
        slots_[head_].prev = s;
    else
        tail_ = s;
    head_ = s;
}

void
Tlb::touch(std::uint32_t s)
{
    if (s == head_)
        return;
    unlink(s);
    pushFront(s);
}

bool
Tlb::lookup(Addr vpn)
{
    std::uint32_t b = findBucket(vpn);
    if (b == none) {
        misses_.add();
        return false;
    }
    touch(index_[b].slot);
    hits_.add();
    return true;
}

void
Tlb::insert(Addr vpn)
{
    std::uint32_t b = findBucket(vpn);
    if (b != none) {
        touch(index_[b].slot);
        return;
    }
    std::uint32_t s;
    if (used_ == slots_.size()) {
        s = tail_;
        unlink(s);
        eraseBucket(findBucket(slots_[s].vpn));
    } else {
        s = freeHead_;
        freeHead_ = slots_[s].next;
        ++used_;
    }
    slots_[s].vpn = vpn;
    pushFront(s);
    std::size_t at = home(vpn);
    while (index_[at].slot != none)
        at = (at + 1) & mask_;
    index_[at] = {vpn, s};
}

void
Tlb::invalidatePage(Addr vpn)
{
    std::uint32_t b = findBucket(vpn);
    if (b != none) {
        std::uint32_t s = index_[b].slot;
        unlink(s);
        eraseBucket(b);
        slots_[s].next = freeHead_;
        freeHead_ = s;
        --used_;
    }
    invalidations_.add();
}

void
Tlb::invalidateAll()
{
    clear();
    flushes_.add();
}

} // namespace kona
