#include "kv/kv_cache.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace kv {

FreqSketch::FreqSketch(unsigned width)
{
    unsigned w = 16;
    while (w < width)
        w <<= 1;
    counters_.assign(std::size_t(rows) * w, 0);
    mask_ = w - 1;
    sampleLimit_ = 8 * w;
}

std::uint32_t
FreqSketch::slot(unsigned row, Key key) const
{
    // One mix per row: independent-enough hashes from splitmix64
    // with per-row salts.
    std::uint64_t h = mix64(key ^ (0x9e3779b97f4a7c15ull * (row + 1)));
    return (std::uint32_t(h) & mask_) + row * (mask_ + 1);
}

void
FreqSketch::touch(Key key)
{
    for (unsigned r = 0; r < rows; ++r) {
        std::uint8_t &c = counters_[slot(r, key)];
        if (c < 0xff)
            ++c;
    }
    if (++touches_ >= sampleLimit_) {
        // Age: halve everything so the sketch tracks the recent
        // past; a key hot an hour ago must not stay admitted.
        touches_ = 0;
        for (std::uint8_t &c : counters_)
            c = std::uint8_t(c >> 1);
    }
}

unsigned
FreqSketch::estimate(Key key) const
{
    unsigned est = 0xff;
    for (unsigned r = 0; r < rows; ++r)
        est = std::min<unsigned>(est, counters_[slot(r, key)]);
    return est;
}

KvCache::KvCache(unsigned slots) : slots_(slots), sketch_(slots * 4)
{
    if (slots_ == 0)
        sim::fatal("KvCache built with zero slots (gate on "
                   "cacheSlots before constructing)");
    map_.reserve(slots_ * 2);
}

void
KvCache::touch(Key key)
{
    sketch_.touch(key);
}

const KvCache::Entry *
KvCache::lookup(Key key)
{
    ++lookups_;
    auto it = map_.find(key);
    if (it == map_.end())
        return nullptr;
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second); // refresh recency
    return &it->second->second;
}

void
KvCache::fill(Key key, std::uint64_t stamp,
              const flash::PageBuffer &value)
{
    auto it = map_.find(key);
    if (it != map_.end()) {
        // Resident: refresh in place, no admission gate.
        it->second->second.stamp = stamp;
        it->second->second.value = value;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (sketch_.estimate(key) < admitHits) {
        ++rejectedFills_;
        return; // not hot enough to displace the resident set
    }
    if (map_.size() >= slots_) {
        ++evictions_;
        map_.erase(lru_.back().first);
        lru_.pop_back();
    }
    ++admitted_;
    lru_.emplace_front(key, Entry{stamp, value});
    map_[key] = lru_.begin();
}

void
KvCache::invalidate(Key key)
{
    auto it = map_.find(key);
    if (it == map_.end())
        return;
    ++invalidations_;
    lru_.erase(it->second);
    map_.erase(it);
}

} // namespace kv
} // namespace bluedbm
