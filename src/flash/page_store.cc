#include "flash/page_store.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/random.hh"

namespace bluedbm {
namespace flash {

PageStore::PageStore(const Geometry &geo, std::uint64_t seed)
    : geo_(geo), seed_(seed)
{
}

std::uint64_t
PageStore::blockKey(const Address &addr) const
{
    return (std::uint64_t(addr.bus) * geo_.chipsPerBus + addr.chip) *
        geo_.blocksPerChip + addr.block;
}

std::uint64_t
PageStore::pageKey(const Address &addr) const
{
    return blockKey(addr) * geo_.pagesPerBlock + addr.page;
}

PageBuffer
PageStore::synthesize(std::uint64_t page_key) const
{
    sim::Rng rng(seed_ ^ (page_key * 0x2545f4914f6cdd1dull));
    PageBuffer data(geo_.pageSize);
    std::size_t i = 0;
    while (i + 8 <= data.size()) {
        std::uint64_t w = rng.next();
        std::memcpy(data.data() + i, &w, 8);
        i += 8;
    }
    for (std::uint64_t w = rng.next(); i < data.size(); ++i, w >>= 8)
        data[i] = static_cast<std::uint8_t>(w);
    return data;
}

Status
PageStore::program(const Address &addr, PageBuffer data)
{
    if (!addr.validFor(geo_))
        sim::panic("program at invalid address %s",
                   addr.toString().c_str());
    if (data.size() > geo_.pageSize)
        sim::panic("program with %zu bytes, page size is %u",
                   data.size(), geo_.pageSize);

    std::uint64_t bkey = blockKey(addr);
    if (badBlocks_.count(bkey))
        return Status::BadBlock;

    BlockState &blk = blocks_[bkey];
    if (blk.programmed.empty())
        blk.programmed.assign(geo_.pagesPerBlock, false);
    if (blk.programmed[addr.page])
        return Status::IllegalWrite;
    if (requireSequential_ && addr.page != blk.nextPage)
        return Status::IllegalWrite;

    blk.programmed[addr.page] = true;
    blk.nextPage = addr.page + 1;

    pages_[pageKey(addr)] = std::move(data);
    ++programs_;
    return Status::Ok;
}

PageBuffer
PageStore::read(const Address &addr, std::uint32_t offset,
                std::uint32_t len) const
{
    if (!addr.validFor(geo_))
        sim::panic("read at invalid address %s",
                   addr.toString().c_str());
    if (len == 0)
        len = geo_.pageSize; // the whole page, so offset must be 0
    if (std::uint64_t(offset) + len > geo_.pageSize)
        sim::panic("read range [%u, %u) beyond page size %u", offset,
                   offset + len, geo_.pageSize);
    auto it = pages_.find(pageKey(addr));
    if (it == pages_.end()) {
        if (isProgrammed(addr))
            sim::panic("read of released page %s",
                       addr.toString().c_str());
        PageBuffer page = synthesize(pageKey(addr));
        if (len == page.size())
            return page;
        return PageBuffer(page.begin() + offset,
                          page.begin() + offset + len);
    }
    const PageBuffer &stored = it->second;
    std::size_t end = std::min<std::size_t>(offset + len, stored.size());
    PageBuffer out(stored.begin() + std::min<std::size_t>(offset, end),
                   stored.begin() + end);
    out.resize(len); // past the programmed bytes the page reads as zeroes
    return out;
}

void
PageStore::release(const Address &addr)
{
    if (!addr.validFor(geo_))
        sim::panic("release at invalid address %s",
                   addr.toString().c_str());
    pages_.erase(pageKey(addr));
}

Status
PageStore::eraseBlock(const Address &addr)
{
    if (!addr.validFor(geo_))
        sim::panic("erase at invalid address %s",
                   addr.toString().c_str());
    std::uint64_t bkey = blockKey(addr);
    if (badBlocks_.count(bkey))
        return Status::BadBlock;

    BlockState &blk = blocks_[bkey];
    if (blk.programmed.empty())
        blk.programmed.assign(geo_.pagesPerBlock, false);

    ++blk.eraseCount;
    ++erases_;
    if (eraseLimit_ != 0 && blk.eraseCount >= eraseLimit_) {
        badBlocks_.insert(bkey);
        return Status::BadBlock;
    }

    Address page_addr = addr;
    for (std::uint32_t p = 0; p < geo_.pagesPerBlock; ++p) {
        page_addr.page = p;
        pages_.erase(pageKey(page_addr));
    }
    blk.programmed.assign(geo_.pagesPerBlock, false);
    blk.nextPage = 0;
    return Status::Ok;
}

bool
PageStore::isProgrammed(const Address &addr) const
{
    auto it = blocks_.find(blockKey(addr));
    if (it == blocks_.end() || it->second.programmed.empty())
        return false;
    return it->second.programmed[addr.page];
}

std::uint32_t
PageStore::eraseCount(const Address &addr) const
{
    auto it = blocks_.find(blockKey(addr));
    return it == blocks_.end() ? 0 : it->second.eraseCount;
}

PageStore::EraseStats
PageStore::eraseStats() const
{
    std::uint64_t card_blocks = std::uint64_t(geo_.buses) *
        geo_.chipsPerBus * geo_.blocksPerChip;
    std::vector<std::uint32_t> counts;
    counts.reserve(card_blocks);
    // Sparse map: blocks absent from blocks_ were never erased.
    counts.assign(card_blocks, 0);
    for (const auto &kv : blocks_)
        counts[kv.first] = kv.second.eraseCount;
    std::sort(counts.begin(), counts.end());
    EraseStats st;
    if (counts.empty())
        return st;
    st.min = counts.front();
    st.p50 = counts[counts.size() / 2];
    st.max = counts.back();
    for (std::uint32_t c : counts)
        st.total += c;
    return st;
}

void
PageStore::addWear(const Address &addr, std::uint32_t cycles)
{
    if (!addr.validFor(geo_))
        sim::panic("addWear at invalid address %s",
                   addr.toString().c_str());
    BlockState &blk = blocks_[blockKey(addr)];
    if (blk.programmed.empty())
        blk.programmed.assign(geo_.pagesPerBlock, false);
    blk.eraseCount += cycles;
}

void
PageStore::markBad(const Address &addr)
{
    badBlocks_.insert(blockKey(addr));
}

bool
PageStore::isBad(const Address &addr) const
{
    return badBlocks_.count(blockKey(addr)) != 0;
}

} // namespace flash
} // namespace bluedbm
