/**
 * @file
 * Per-node key-value shard: a log-structured value store over the
 * node's flash file system.
 *
 * Values are appended to one shard log file in fs::LogFs (which
 * stripes pages across the card's buses and garbage-collects
 * blocks); the shard keeps the key -> byte-range index in host
 * memory, exactly as the paper's RFS keeps file metadata in memory
 * (section 4). A small write-back memtable holds values whose log
 * append is still in flight so that reads are always
 * read-your-writes without waiting for NAND program latency --
 * the same role as the paper's host-side page buffers.
 *
 * Failure semantics: the index only ever points at durable log
 * records. While an append is in flight its value is served from
 * the memtable; if the append fails, the shard rolls the key back
 * to its last durable version (or absence when there is none), the
 * memtable entry is discarded, and the put acks KvStatus::Error.
 * A failed append is therefore never later served as Ok with bytes
 * that did not reach flash. A get issued during the doomed window
 * returns the in-flight value (ordinary read-your-writes of a
 * write that subsequently fails).
 *
 * Write identity: every write carries a router-issued cluster-wide
 * *stamp*, and the stamp is the only write identity that leaves the
 * shard. Inside, the shard also numbers writes in arrival order
 * (Entry::version): the version orders a key's in-flight appends
 * against deletes, retires memtable entries and keys read
 * coalescing, and is never compared across replicas.
 *
 * Hot-key reads: every get result carries the stamp of the write
 * whose bytes it delivers, so requesters can cache (value, stamp)
 * pairs and revalidate with getIfNewer() -- a stamp match costs one
 * O(1) index probe, no flash read, no value bytes. Duplicate
 * in-flight gets on the same key coalesce onto one LogFs read.
 *
 * Anti-entropy support: the shard keeps a hash-ordered side index
 * of (key, stamp, live/tombstone) -- mix64 is a bijection, so one
 * map entry per key -- from which it answers cheap per-range
 * digests (rangeDigest) and enumerations (rangeEntries). The repair
 * sweep compares digests between replicas and pushes the newer-
 * stamped side across with repairPut()/repairDel(), which apply only
 * when their stamp is strictly newer than everything the shard knows
 * for the key, making repair idempotent and race-tolerant.
 *
 * This is the storage half of the figure 17 scenario: every value
 * lives in flash, none are assumed cached in DRAM, and a get costs
 * at most one (queued) flash page read.
 */

#ifndef BLUEDBM_KV_KV_SHARD_HH
#define BLUEDBM_KV_KV_SHARD_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fs/log_fs.hh"
#include "kv/kv_types.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace kv {

/**
 * One node's slice of the key space.
 */
class KvShard
{
  public:
    /**
     * Delivers a get result: the value (empty unless status is Ok),
     * the status, and the stamp of the write whose bytes these are
     * (0 on a miss). A conditional get whose stamp matched delivers
     * an empty value with the unchanged stamp ("not modified").
     */
    using GetDone = std::function<void(flash::PageBuffer, KvStatus,
                                       std::uint64_t stamp)>;
    /** Acknowledges a put or delete. */
    using AckDone = std::function<void(KvStatus)>;

    /**
     * @param sim      simulation kernel
     * @param fs       the node's log-structured file system
     * @param log_name shard log file name (must be fresh); with
     *                 @p stripes > 1 the shard keeps `stripes`
     *                 independent log files ("name.0" ..) and
     *                 hashes keys across them
     * @param stripes  independent append chains. One log file means
     *                 one tail page and so one program in flight at
     *                 a time -- a per-node put ceiling of roughly
     *                 one NAND program window per group commit.
     *                 Striping multiplies that ceiling and lets
     *                 concurrent puts program different buses (or
     *                 share a coalesced program window when stripes
     *                 collide on one).
     */
    KvShard(sim::Simulator &sim, fs::LogFs &fs, std::string log_name,
            unsigned stripes = 1);

    /**
     * Safe to destroy with appends or reads still in flight: the
     * file system (whose lifetime exceeds the shard's) holds
     * continuations that capture this shard, and they check a
     * shared liveness flag before touching it. Outstanding
     * completions are simply dropped -- their callers died with
     * the shard's owner.
     */
    ~KvShard();

    /**
     * Store @p value under @p key. The index and memtable are
     * updated immediately (reads see the new version at once); the
     * ack fires when the log append is durable on flash, or with
     * KvStatus::Error after rolling the key back to its last
     * durable version when the append fails.
     *
     * @p stamp is the router's cluster-wide write stamp, recorded
     * for anti-entropy digests (see file comment). The stampless
     * overload draws from a shard-local counter -- fine for
     * single-shard use, never for replicated writes.
     *
     * @p pri is the flash traffic class of the log append: serving
     * puts are flash::Priority::Read (a client waits on the ack);
     * anti-entropy repair pushes pass Background so maintenance
     * programs are accounted as such at the NAND.
     */
    void put(Key key, flash::PageBuffer value, std::uint64_t stamp,
             AckDone done,
             flash::Priority pri = flash::Priority::Read,
             std::uint64_t trace = 0);
    void
    put(Key key, flash::PageBuffer value, AckDone done)
    {
        put(key, std::move(value), ++fallbackStamp_,
            std::move(done));
    }

    /**
     * Fetch the live version of @p key: from the memtable when the
     * append is still in flight, else one flash read of the log
     * (shared with any identical get already in flight).
     *
     * @p pri is the flash traffic class of the log read: serving
     * gets ride Priority::Read; maintenance readers (anti-entropy
     * source reads, replica rebuild) pass Background so recovery
     * never suspends serving programs. A Background get that
     * coalesces onto an in-flight serving read simply shares it.
     *
     * @p trace (on get/getIfNewer/put; sim::Tracer handle, 0 =
     * untraced) is threaded into the file system so the fs.read /
     * fs.append span (and the flash spans inside it) nest under the
     * caller's span; served-from-memory outcomes leave a mark
     * instead (shard.memtable / shard.validated / shard.coalesced).
     */
    void get(Key key, GetDone done,
             flash::Priority pri = flash::Priority::Read,
             std::uint64_t trace = 0);

    /**
     * Conditional fetch: like get(), but when the live entry's
     * stamp equals @p cached_stamp (and it is non-zero) the shard
     * skips the flash read entirely and delivers an empty value
     * with the unchanged stamp -- the requester's cached copy holds
     * the same write. 0 means unconditional.
     */
    void getIfNewer(Key key, std::uint64_t cached_stamp,
                    GetDone done,
                    flash::Priority pri = flash::Priority::Read,
                    std::uint64_t trace = 0);

    /**
     * Drop @p key. Index-only (metadata persistence is out of scope
     * for the simulation, as in LogFs); acks NotFound when absent.
     * Always records a tombstone at @p stamp so replicas of a
     * partially-failed delete converge under repair.
     */
    void del(Key key, std::uint64_t stamp, AckDone done);
    void
    del(Key key, AckDone done)
    {
        del(key, ++fallbackStamp_, std::move(done));
    }

    /**
     * @name Anti-entropy (KvRouter::repairSweep)
     */
    ///@{

    /** One key's repair-relevant state. */
    struct RangeEntry
    {
        Key key = 0;
        std::uint64_t stamp = 0;
        bool live = false; //!< false = tombstone
        /** The local durable copy is unreadable (uncorrectable
         * flash page); an equal-stamp replica copy must win. */
        bool corrupt = false;
    };

    /**
     * Order-independent digest of (key, stamp, liveness) for every
     * key with mix64(key) in [lo, hi] (inclusive; empty when
     * lo > hi). Replicas holding identical content for the range
     * produce identical digests; any single-key difference flips it
     * with overwhelming probability. Costs O(log keys + range size),
     * no flash I/O.
     */
    std::uint64_t rangeDigest(std::uint64_t lo,
                              std::uint64_t hi) const;

    /** Append the range's entries (hash order) to @p out. */
    void rangeEntries(std::uint64_t lo, std::uint64_t hi,
                      std::vector<RangeEntry> &out) const;

    /**
     * Repair push: install @p value at @p stamp unless the shard
     * already knows a state of @p key at or past that stamp (then a
     * no-op acking Ok). Idempotent; safe to race with live traffic.
     */
    void repairPut(Key key, flash::PageBuffer value,
                   std::uint64_t stamp, AckDone done);

    /** Repair push of a tombstone; same stamp rules as repairPut. */
    void repairDel(Key key, std::uint64_t stamp, AckDone done);

    /** Repair pushes that actually changed state. */
    std::uint64_t repairsApplied() const { return repairsApplied_.value(); }

    /**
     * Drop tombstones in [lo, hi] (hash bounds, inclusive) with
     * stamp < @p below. Called by the repair sweep on ranges whose
     * replicas are digest-identical, with @p below older than any
     * write still in flight: every replica then prunes the same
     * set, digests stay equal, and the repair index stops growing
     * monotonically under delete churn.
     */
    void pruneTombstones(std::uint64_t lo, std::uint64_t hi,
                         std::uint64_t below);

    /** Live keys + retained tombstones in the repair index. */
    std::size_t repairIndexSize() const { return byHash_.size(); }

    ///@}

    /** Whether a live version of @p key exists. */
    [[nodiscard]] bool contains(Key key) const { return index_.count(key) != 0; }

    /** Number of live keys. */
    std::size_t keyCount() const { return index_.size(); }

    /** Bytes of live values (excludes dead log versions). */
    std::uint64_t liveBytes() const { return liveBytes_; }

    /** @name Statistics
     *
     * Registry-backed (`kv.shard.*`, labeled by instance); the
     * accessors are thin reads kept for existing callers.
     */
    ///@{
    std::uint64_t gets() const { return gets_.value(); }
    std::uint64_t puts() const { return puts_.value(); }
    std::uint64_t deletes() const { return deletes_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    /** Gets served from the in-flight write-back memtable. */
    std::uint64_t memtableHits() const { return memtableHits_.value(); }
    /** Conditional gets answered "not modified" (no flash read). */
    std::uint64_t validatedGets() const { return validatedGets_.value(); }
    /** Gets that joined an in-flight flash read instead of issuing
     * their own. */
    std::uint64_t coalescedGets() const { return coalescedGets_.value(); }
    /** Puts whose log append failed (rolled back, acked Error). */
    std::uint64_t failedPuts() const { return failedPuts_.value(); }
    /** Puts shed with KvStatus::Pressure because the file system
     * was at its free-block red line (see kv_types.hh). */
    std::uint64_t pressuredPuts() const { return pressuredPuts_.value(); }
    /** Keys whose durable copy read back uncorrectable and are now
     * marked corrupt in the repair index (healed by replica push). */
    std::uint64_t corruptKeys() const { return corruptKeys_.value(); }
    /** Keys currently marked corrupt (drains to 0 as repair heals). */
    std::size_t corruptKeyCount() const;
    /** Bytes appended to the shard log (live + since-dead; failed
     * appends are rolled back out). */
    std::uint64_t logBytes() const { return logBytes_; }
    ///@}

  private:
    /** Per-record log header: key + value length. */
    static constexpr std::uint32_t recordHeaderBytes = 12;

    struct Entry
    {
        std::uint64_t valueOffset = 0; //!< byte offset in the log
        std::uint32_t valueLen = 0;
        /** Shard-private arrival-order version; gates memtable
         * retirement and keys read coalescing (0 = freshly
         * default-constructed). */
        std::uint64_t version = 0;
        /** Cluster-wide write stamp: the identity of the write
         * (cache validation, anti-entropy ordering). */
        std::uint64_t stamp = 0;
    };

    /**
     * Last known-durable state of a key: the rollback target when
     * a newer append fails. live=false records a tombstone (the
     * key was deleted at that version) so a failed re-put cannot
     * resurrect an older value.
     */
    struct Durable
    {
        std::uint64_t valueOffset = 0;
        std::uint32_t valueLen = 0;
        std::uint64_t version = 0;
        std::uint64_t stamp = 0;
        bool live = false;
    };

    /** Value of the hash-ordered repair index (see byHash_). */
    struct HashState
    {
        Key key = 0;
        std::uint64_t stamp = 0;
        bool live = false;
        /**
         * The key's durable flash copy came back uncorrectable: the
         * stamp still describes WHICH write the shard holds, but
         * the bytes are gone. Folded into rangeDigest (so the sweep
         * detects equal-stamp corruption) and honored by repairPut
         * (an equal-stamp push heals instead of no-oping). Cleared
         * by any successful write of the key.
         */
        bool corrupt = false;
    };

    /** Waiters coalesced onto one in-flight flash read. */
    struct ReadGroup
    {
        std::vector<GetDone> waiters;
    };

    /**
     * Account @p len bytes at @p offset of @p log as dead (their
     * record was superseded, deleted, or rolled back) and trim any
     * log page that became fully dead, releasing its physical flash
     * page to the cleaner. Called only for byte ranges whose pages
     * have already been programmed at least once (durable records,
     * or failed appends after their program completions), so the
     * trim never races an unmapped in-flight page.
     */
    void markDead(const std::string &log, std::uint64_t offset,
                  std::uint64_t len);

    /** Mark @p key's repair-index entry corrupt (durable copy read
     * back uncorrectable) so the anti-entropy machinery heals it. */
    void markCorrupt(Key key);

    /** Run completion @p fn on a fresh event (callers may rely on
     * done never firing re-entrantly), unless the shard died
     * first. */
    template <typename Fn>
    void
    defer(Fn fn)
    {
        sim_.scheduleAfter(0, [alive = alive_,
                               fn = std::move(fn)]() mutable {
            if (*alive)
                fn();
        });
    }

    /** Stamp guard of repairPut/repairDel: true, with @p done acked
     * Ok on a fresh event, when the shard already holds an intact
     * state of @p key at or past @p stamp. */
    [[nodiscard]] bool ackIfCaughtUp(Key key, std::uint64_t stamp,
                                     AckDone &done);

    /** Log file of @p key: stripes decorrelate from the routing
     * ring by using different mix64 bits. */
    const std::string &
    fileFor(Key key) const
    {
        if (logNames_.size() == 1)
            return logNames_[0];
        return logNames_[(mix64(key) >> 32) % logNames_.size()];
    }

    sim::Simulator &sim_;
    fs::LogFs &fs_;
    std::vector<std::string> logNames_;
    /** Flipped by the destructor; continuations held by fs_ / the
     * simulator check it before touching the shard or invoking
     * completion callbacks into the (equally dead) owner. */
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

    std::unordered_map<Key, Entry> index_;
    /** Values whose append has not completed yet, newest version. */
    std::unordered_map<Key, flash::PageBuffer> memtable_;
    /** Rollback targets; an entry exists only while the key has
     * appends in flight (see Durable). */
    std::unordered_map<Key, Durable> durable_;
    /** In-flight appends per key: gates durable_ lifetime. */
    std::unordered_map<Key, unsigned> inflightPuts_;
    /** In-flight flash reads, keyed by the entry version they
     * serve (shard-global versions are never reused, so a version
     * pins both the key and the byte range). */
    std::unordered_map<std::uint64_t, ReadGroup> reads_;
    /**
     * Hash-ordered repair index: mix64(key) -> (key, stamp, live).
     * Mirrors the *optimistic* state (updated with index_, including
     * in-flight writes and rollbacks) and additionally holds
     * tombstones, which index_ drops. Ordered so rangeDigest /
     * rangeEntries answer ring-segment queries in O(log n + range).
     */
    std::map<std::uint64_t, HashState> byHash_;
    std::uint64_t nextVersion_ = 0;
    /** Stamp source for the stampless put/del overloads. */
    std::uint64_t fallbackStamp_ = 0;

    std::uint64_t liveBytes_ = 0;
    std::uint64_t logBytes_ = 0;
    /**
     * Dead bytes per log page (log name -> page index -> bytes),
     * fed by markDead(). A page whose records are all dead is
     * trimmed from the file system -- without this, a shard log's
     * pages are permanently live and the cleaner can never reclaim
     * a block, so sustained overwrites would wedge an aged card.
     * Entries are dropped once their page is trimmed.
     */
    std::unordered_map<std::string,
                       std::unordered_map<std::uint64_t, std::uint32_t>>
        deadBytes_;

    /** Construction serial among shards; the "inst" label of the
     * kv.shard.* metrics below. */
    unsigned inst_;
    // Registry-backed statistics (accessors above are thin reads).
    sim::Counter &gets_;
    sim::Counter &puts_;
    sim::Counter &deletes_;
    sim::Counter &misses_;
    sim::Counter &memtableHits_;
    sim::Counter &validatedGets_;
    sim::Counter &coalescedGets_;
    sim::Counter &failedPuts_;
    sim::Counter &repairsApplied_;
    sim::Counter &pressuredPuts_;
    sim::Counter &corruptKeys_;
};

} // namespace kv
} // namespace bluedbm

#endif // BLUEDBM_KV_KV_SHARD_HH
