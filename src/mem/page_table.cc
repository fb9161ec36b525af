#include "mem/page_table.h"

#include "common/logging.h"

namespace kona {

namespace {

/** Widest span the dense storage covers: 64 GiB of pages, four times
 *  the default VM window. A sparse outlier fails loudly, not by OOM. */
constexpr Addr maxSpanPages = Addr{1} << 24;

} // namespace

void
PageTable::map(Addr vpn, Addr ppn, bool writable)
{
    if (slots_.empty()) {
        base_ = vpn;
    } else if (vpn < base_) {
        KONA_ASSERT(base_ + slots_.size() - vpn <= maxSpanPages,
                    "page table span too wide at vpn ", vpn);
        slots_.insert(slots_.begin(), base_ - vpn, Slot{});
        base_ = vpn;
    }
    Addr offset = vpn - base_;
    if (offset >= slots_.size()) {
        KONA_ASSERT(offset < maxSpanPages,
                    "page table span too wide at vpn ", vpn);
        slots_.resize(offset + 1);
    }
    Slot &slot = slots_[offset];
    if (!slot.mapped) {
        slot.mapped = true;
        ++size_;
    }
    slot.pte = {ppn, /*present=*/true, writable, /*dirty=*/false,
                /*accessed=*/false};
    pteUpdates_.add();
}

void
PageTable::unmap(Addr vpn)
{
    if (mapped(vpn)) {
        slots_[vpn - base_] = Slot{};
        --size_;
    }
    pteUpdates_.add();
}

PageTableEntry &
PageTable::entryRef(Addr vpn)
{
    const Slot *slot = find(vpn);
    KONA_ASSERT(slot != nullptr, "no PTE for vpn ", vpn);
    return slots_[vpn - base_].pte;
}

void
PageTable::markNotPresent(Addr vpn)
{
    entryRef(vpn).present = false;
    pteUpdates_.add();
}

void
PageTable::markPresent(Addr vpn)
{
    entryRef(vpn).present = true;
    pteUpdates_.add();
}

void
PageTable::writeProtect(Addr vpn)
{
    entryRef(vpn).writable = false;
    pteUpdates_.add();
}

void
PageTable::enableWrite(Addr vpn)
{
    PageTableEntry &pte = entryRef(vpn);
    pte.writable = true;
    pte.dirty = true;
    pteUpdates_.add();
}

void
PageTable::clearDirty(Addr vpn)
{
    entryRef(vpn).dirty = false;
    pteUpdates_.add();
}

TranslationResult
PageTable::translate(Addr vpn, AccessType type)
{
    const Slot *slot = find(vpn);
    if (slot == nullptr || !slot->pte.present)
        return TranslationResult::NotPresent;

    PageTableEntry &pte = slots_[vpn - base_].pte;
    if (type == AccessType::Write && !pte.writable)
        return TranslationResult::WriteProtected;

    pte.accessed = true;
    if (type == AccessType::Write)
        pte.dirty = true;
    return TranslationResult::Ok;
}

} // namespace kona
