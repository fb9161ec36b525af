/**
 * @file
 * Differential oracles for the flat paging state of the VM baselines.
 *
 * Tlb and PageTable were rebuilt on fixed and dense arrays (DESIGN.md
 * §11, "VM frame arena and flat paging state"); these tests keep the
 * list+map Tlb and the hash-map PageTable alive as reference models and
 * replay seeded random op traces against both, requiring after every op
 * identical return values, counters, occupancy, size, mapped() answers
 * and entry contents.
 */

#include <gtest/gtest.h>

#include <list>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "mem/page_table.h"
#include "mem/tlb.h"

namespace kona {
namespace {

/** The VM window's base page (VmConfig::windowBase / pageSize). */
constexpr Addr windowBasePage = 0x200000000ULL;

// ---------------------------------------------------------------------
// Legacy list+map Tlb, kept verbatim as the behavioural reference.
// ---------------------------------------------------------------------

class ListTlbRef
{
  public:
    explicit ListTlbRef(std::size_t entries) : capacity_(entries) {}

    bool
    lookup(Addr vpn)
    {
        auto it = map_.find(vpn);
        if (it == map_.end()) {
            ++misses;
            return false;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        ++hits;
        return true;
    }

    void
    insert(Addr vpn)
    {
        auto it = map_.find(vpn);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        if (map_.size() >= capacity_) {
            Addr victim = lru_.back();
            lru_.pop_back();
            map_.erase(victim);
        }
        lru_.push_front(vpn);
        map_[vpn] = lru_.begin();
    }

    void
    invalidatePage(Addr vpn)
    {
        auto it = map_.find(vpn);
        if (it != map_.end()) {
            lru_.erase(it->second);
            map_.erase(it);
        }
        ++invalidations;
    }

    void
    invalidateAll()
    {
        lru_.clear();
        map_.clear();
        ++flushes;
    }

    std::size_t occupancy() const { return map_.size(); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t flushes = 0;

  private:
    std::size_t capacity_;
    std::list<Addr> lru_;   // front = most recent
    std::unordered_map<Addr, std::list<Addr>::iterator> map_;
};

// ---------------------------------------------------------------------
// Legacy hash-map PageTable, kept verbatim as the behavioural reference.
// ---------------------------------------------------------------------

class MapPageTableRef
{
  public:
    void
    map(Addr vpn, Addr ppn, bool writable)
    {
        PageTableEntry &pte = entries_[vpn];
        pte.physPage = ppn;
        pte.present = true;
        pte.writable = writable;
        pte.dirty = false;
        pte.accessed = false;
        ++pteUpdates;
    }

    void
    unmap(Addr vpn)
    {
        entries_.erase(vpn);
        ++pteUpdates;
    }

    void
    markNotPresent(Addr vpn)
    {
        entryRef(vpn).present = false;
        ++pteUpdates;
    }

    void
    markPresent(Addr vpn)
    {
        entryRef(vpn).present = true;
        ++pteUpdates;
    }

    void
    writeProtect(Addr vpn)
    {
        entryRef(vpn).writable = false;
        ++pteUpdates;
    }

    void
    enableWrite(Addr vpn)
    {
        PageTableEntry &pte = entryRef(vpn);
        pte.writable = true;
        pte.dirty = true;
        ++pteUpdates;
    }

    void
    clearDirty(Addr vpn)
    {
        entryRef(vpn).dirty = false;
        ++pteUpdates;
    }

    TranslationResult
    translate(Addr vpn, AccessType type)
    {
        auto it = entries_.find(vpn);
        if (it == entries_.end() || !it->second.present)
            return TranslationResult::NotPresent;
        PageTableEntry &pte = it->second;
        if (type == AccessType::Write && !pte.writable)
            return TranslationResult::WriteProtected;
        pte.accessed = true;
        if (type == AccessType::Write)
            pte.dirty = true;
        return TranslationResult::Ok;
    }

    const PageTableEntry *
    entry(Addr vpn) const
    {
        auto it = entries_.find(vpn);
        return it == entries_.end() ? nullptr : &it->second;
    }

    bool mapped(Addr vpn) const { return entries_.count(vpn) != 0; }
    std::size_t size() const { return entries_.size(); }

    std::uint64_t pteUpdates = 0;

  private:
    PageTableEntry &
    entryRef(Addr vpn)
    {
        auto it = entries_.find(vpn);
        KONA_ASSERT(it != entries_.end(), "no PTE for vpn ", vpn);
        return it->second;
    }

    std::unordered_map<Addr, PageTableEntry> entries_;
};

// ---------------------------------------------------------------------
// Tlb vs ListTlbRef
// ---------------------------------------------------------------------

class TlbDifferential : public ::testing::TestWithParam<std::size_t>
{
};

std::string
tlbMismatch(const Tlb &tlb, const ListTlbRef &ref)
{
    std::ostringstream out;
    if (tlb.hits() != ref.hits)
        out << " hits " << tlb.hits() << " vs " << ref.hits;
    if (tlb.misses() != ref.misses)
        out << " misses " << tlb.misses() << " vs " << ref.misses;
    if (tlb.invalidations() != ref.invalidations)
        out << " invalidations " << tlb.invalidations() << " vs "
            << ref.invalidations;
    if (tlb.flushes() != ref.flushes)
        out << " flushes " << tlb.flushes() << " vs " << ref.flushes;
    if (tlb.occupancy() != ref.occupancy())
        out << " occupancy " << tlb.occupancy() << " vs "
            << ref.occupancy();
    return out.str();
}

TEST_P(TlbDifferential, RandomTraceMatchesListReference)
{
    const std::size_t capacity = GetParam();
    Tlb tlb(capacity);
    ListTlbRef ref(capacity);
    // About twice the capacity in pages keeps the TLB full and
    // evicting. Half are consecutive pages around the VM window's
    // base page (what the runtimes use); half are scattered anywhere,
    // so their index buckets collide and probe runs grow long.
    std::vector<Addr> pages;
    const std::size_t universe = 2 * capacity + 4;
    for (std::size_t i = 0; i < universe / 2; ++i)
        pages.push_back(windowBasePage - universe / 4 + i);
    Rng rng(0x71b0 + capacity);
    while (pages.size() < universe)
        pages.push_back(rng.below(Addr{1} << 40));

    bool filled = false;
    for (int op = 0; op < 100000; ++op) {
        std::uint64_t kind = rng.below(100000);
        Addr vpn = pages[rng.below(pages.size())];
        if (kind < 50000) {
            // The runtimes' pattern: a miss is followed by an insert.
            bool hit = tlb.lookup(vpn);
            ASSERT_EQ(hit, ref.lookup(vpn)) << "op " << op;
            if (!hit) {
                tlb.insert(vpn);
                ref.insert(vpn);
            }
        } else if (kind < 75000) {
            tlb.insert(vpn);
            ref.insert(vpn);
        } else if (kind < 99995) {
            tlb.invalidatePage(vpn);
            ref.invalidatePage(vpn);
        } else {
            // Rare enough that even 1536 entries refill in between.
            tlb.invalidateAll();
            ref.invalidateAll();
        }
        ASSERT_EQ(tlbMismatch(tlb, ref), "") << "op " << op;
        filled |= tlb.occupancy() == capacity;

        if (op % 10000 == 9999) {
            // Probe every page in order: each answer (and the recency
            // it refreshes) must match.
            for (Addr v : pages)
                ASSERT_EQ(tlb.lookup(v), ref.lookup(v)) << "vpn " << v;
            ASSERT_EQ(tlbMismatch(tlb, ref), "") << "probe " << op;
        }
    }
    // The trace reached capacity, so eviction order was exercised.
    EXPECT_TRUE(filled);
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbDifferential,
                         ::testing::Values(1, 2, 16, 1536));

// ---------------------------------------------------------------------
// PageTable vs MapPageTableRef
// ---------------------------------------------------------------------

std::string
pageTableMismatch(const PageTable &pt, const MapPageTableRef &ref,
                  Addr low, Addr high)
{
    std::ostringstream out;
    if (pt.size() != ref.size())
        out << " size " << pt.size() << " vs " << ref.size();
    if (pt.pteUpdates() != ref.pteUpdates)
        out << " pteUpdates " << pt.pteUpdates() << " vs "
            << ref.pteUpdates;
    for (Addr vpn = low; vpn < high; ++vpn) {
        if (pt.mapped(vpn) != ref.mapped(vpn))
            out << " mapped(" << vpn << ")";
        const PageTableEntry *a = pt.entry(vpn);
        const PageTableEntry *b = ref.entry(vpn);
        if ((a == nullptr) != (b == nullptr)) {
            out << " entry(" << vpn << ") presence";
            continue;
        }
        if (a != nullptr &&
            (a->physPage != b->physPage || a->present != b->present ||
             a->writable != b->writable || a->dirty != b->dirty ||
             a->accessed != b->accessed)) {
            out << " entry(" << vpn << ") contents";
        }
    }
    return out.str();
}

TEST(PageTableDifferential, RandomTraceMatchesMapReference)
{
    PageTable pt;
    MapPageTableRef ref;
    // The first page mapped sits mid-universe, so later maps grow the
    // dense storage below it as well as above it.
    const Addr low = windowBasePage - 96;
    const Addr high = windowBasePage + 160;
    pt.map(windowBasePage + 32, 7, true);
    ref.map(windowBasePage + 32, 7, true);
    // Pages far outside the span: lookups there must not grow it.
    const Addr far[] = {0, windowBasePage - (Addr{1} << 20),
                        windowBasePage + (Addr{1} << 30)};
    Rng rng(0x9a6e);

    for (int op = 0; op < 20000; ++op) {
        Addr vpn = low + rng.below(high - low);
        std::uint64_t kind = rng.below(100);
        if (kind < 12) {
            Addr ppn = rng.below(4) == 0 ? invalidAddr : rng.below(512);
            bool writable = rng.below(2) == 0;
            pt.map(vpn, ppn, writable);
            ref.map(vpn, ppn, writable);
        } else if (kind < 18) {
            pt.unmap(vpn);
            ref.unmap(vpn);
        } else if (kind < 60) {
            AccessType type =
                rng.below(3) == 0 ? AccessType::Write : AccessType::Read;
            ASSERT_EQ(pt.translate(vpn, type), ref.translate(vpn, type))
                << "op " << op;
        } else if (kind < 99) {
            // Protection ops apply to mapped pages; the rare unmapped
            // target must panic in both.
            if (!ref.mapped(vpn) && rng.below(1000) != 0)
                continue;
            bool threw = false, refThrew = false;
            std::uint64_t which = rng.below(5);
            auto apply = [&](auto &table, bool &caught) {
                try {
                    switch (which) {
                      case 0: table.markNotPresent(vpn); break;
                      case 1: table.markPresent(vpn); break;
                      case 2: table.writeProtect(vpn); break;
                      case 3: table.enableWrite(vpn); break;
                      default: table.clearDirty(vpn); break;
                    }
                } catch (const PanicError &) {
                    caught = true;
                }
            };
            apply(pt, threw);
            apply(ref, refThrew);
            ASSERT_EQ(threw, refThrew) << "op " << op;
        } else {
            Addr v = far[rng.below(3)];
            AccessType type = AccessType::Write;
            ASSERT_EQ(pt.translate(v, type), ref.translate(v, type));
            ASSERT_EQ(pt.entry(v), nullptr);
            ASSERT_FALSE(pt.mapped(v));
        }
        ASSERT_EQ(pageTableMismatch(pt, ref, low, high), "")
            << "op " << op;
    }
    EXPECT_GT(pt.size(), 0u);
}

} // namespace
} // namespace kona
