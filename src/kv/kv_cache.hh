/**
 * @file
 * Per-node stamped hot-key read cache.
 *
 * The serving bottleneck at high skew is one shard's flash
 * interface: the rank-0 Zipfian key turns a single LogFs command
 * queue into the whole cluster's tail (ROADMAP hot-shard item).
 * This cache keeps (value, write stamp) pairs for the few genuinely
 * hot keys near the requester. It never serves a value on its own
 * authority: the router revalidates the cached stamp with a
 * header-only conditional get (KvRequest::stamp), and the owning
 * shard answers a stamp match with an O(1) index probe -- no flash
 * read, no value bytes on the wire. Every put or delete carries a
 * fresh cluster-wide stamp, so a stale cache hit self-detects at
 * the shard and the fresh value comes back instead. Coherence
 * therefore never depends on invalidation messages reaching every
 * cache. A stamp names the same write on every replica, so the
 * check holds at whichever replica answers: failover, read
 * steering and ring flips need no special case.
 *
 * Admission is gated by a tiny frequency sketch (a 4-row count-min
 * sketch with periodic halving, TinyLFU-style): a value enters the
 * cache only after its key has been requested enough times, so one
 * scan over a cold key space cannot evict the resident hot set.
 */

#ifndef BLUEDBM_KV_KV_CACHE_HH
#define BLUEDBM_KV_KV_CACHE_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kv/kv_types.hh"

namespace bluedbm {
namespace kv {

/**
 * Count-min sketch with periodic aging: approximate access
 * frequencies in a few hundred bytes, no per-key state.
 */
class FreqSketch
{
  public:
    /** @param width counters per row; rounded up to a power of 2. */
    explicit FreqSketch(unsigned width = 256);

    /** Record one access of @p key. */
    void touch(Key key);

    /** Approximate access count of @p key (an upper bound). */
    unsigned estimate(Key key) const;

  private:
    static constexpr unsigned rows = 4;

    std::uint32_t slot(unsigned row, Key key) const;

    std::vector<std::uint8_t> counters_; //!< rows x width
    std::uint32_t mask_ = 0;
    /** Halve every counter after this many touches, so estimates
     * track the recent past instead of all history. */
    std::uint32_t sampleLimit_ = 0;
    std::uint32_t touches_ = 0;
};

/**
 * Small LRU cache of (key, stamp, value), admission-gated by the
 * sketch. One instance per node; consulted by KvRouter::get before
 * any network hop to find a revalidation candidate.
 */
class KvCache
{
  public:
    struct Entry
    {
        std::uint64_t stamp = 0; //!< write stamp of value
        flash::PageBuffer value;
    };

    /** @param slots cached values (>= 1; KvParams::cacheSlots). */
    explicit KvCache(unsigned slots);

    /** Record one access of @p key in the admission sketch. */
    void touch(Key key);

    /** Cached entry for @p key (refreshes recency); null if none. */
    const Entry *lookup(Key key);

    /**
     * Install (or refresh) @p key -> (@p stamp, @p value). New
     * keys are admitted only when the sketch says they are hot;
     * an existing entry is always updated in place.
     */
    void fill(Key key, std::uint64_t stamp,
              const flash::PageBuffer &value);

    /** Drop @p key (deleted, or known stale). */
    void invalidate(Key key);

    std::size_t size() const { return map_.size(); }

    /** @name Statistics */
    ///@{
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t admitted() const { return admitted_; }
    /** Fills turned away by the admission sketch. */
    std::uint64_t rejectedFills() const { return rejectedFills_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t invalidations() const { return invalidations_; }
    ///@}

  private:
    using LruList = std::list<std::pair<Key, Entry>>;

    /** Sketch estimate required before a key may occupy a slot:
     * one request alone never displaces a resident entry. */
    static constexpr unsigned admitHits = 2;

    unsigned slots_;
    FreqSketch sketch_;
    LruList lru_; //!< front = most recent
    std::unordered_map<Key, LruList::iterator> map_;

    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t rejectedFills_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t invalidations_ = 0;
};

} // namespace kv
} // namespace bluedbm

#endif // BLUEDBM_KV_KV_CACHE_HH
