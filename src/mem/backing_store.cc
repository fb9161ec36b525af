#include "mem/backing_store.h"

#include <cstring>

#include "common/logging.h"

namespace kona {

BackingStore::BackingStore(std::size_t capacity)
    : capacity_(capacity), pages_((capacity + pageSize - 1) / pageSize)
{
    KONA_ASSERT(capacity > 0, "empty backing store");
}

std::uint8_t *
BackingStore::pageFor(Addr addr)
{
    std::unique_ptr<std::uint8_t[]> &page = pages_[pageNumber(addr)];
    if (page == nullptr) {
        page = std::make_unique<std::uint8_t[]>(pageSize);   // zeroed
        ++materialized_;
    }
    return page.get();
}

void
BackingStore::read(Addr addr, void *buf, std::size_t size)
{
    KONA_ASSERT(addr + size <= capacity_,
                "read past end of backing store at ", addr);
    auto *out = static_cast<std::uint8_t *>(buf);
    while (size > 0) {
        std::size_t offset = addr % pageSize;
        std::size_t chunk = std::min(size, pageSize - offset);
        const std::uint8_t *page = pages_[pageNumber(addr)].get();
        if (page == nullptr)
            std::memset(out, 0, chunk);   // untouched pages read as zero
        else
            std::memcpy(out, page + offset, chunk);
        addr += chunk;
        out += chunk;
        size -= chunk;
    }
}

void
BackingStore::write(Addr addr, const void *buf, std::size_t size)
{
    KONA_ASSERT(addr + size <= capacity_,
                "write past end of backing store at ", addr);
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (size > 0) {
        std::size_t offset = addr % pageSize;
        std::size_t chunk = std::min(size, pageSize - offset);
        std::memcpy(pageFor(addr) + offset, in, chunk);
        addr += chunk;
        in += chunk;
        size -= chunk;
    }
}

std::uint8_t *
BackingStore::pagePointer(Addr addr)
{
    KONA_ASSERT(addr < capacity_, "pagePointer past end");
    return pageFor(addr) + (addr % pageSize);
}

} // namespace kona
