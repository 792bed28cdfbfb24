#include "kv/kv_shard.hh"

#include <cstring>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace kv {

using flash::PageBuffer;

namespace {

/** Registry cell labeled with this shard's instance serial. */
sim::Counter &
cell(sim::Simulator &sim, unsigned inst, const char *name)
{
    return sim.metrics().counter(name,
                                 {{"inst", std::to_string(inst)}});
}

} // namespace

KvShard::KvShard(sim::Simulator &sim, fs::LogFs &fs,
                 std::string log_name, unsigned stripes)
    : sim_(sim), fs_(fs),
      inst_(sim.metrics().nextInstance("shard")),
      gets_(cell(sim, inst_, "kv.shard.gets")),
      puts_(cell(sim, inst_, "kv.shard.puts")),
      deletes_(cell(sim, inst_, "kv.shard.deletes")),
      misses_(cell(sim, inst_, "kv.shard.misses")),
      memtableHits_(cell(sim, inst_, "kv.shard.memtable_hits")),
      validatedGets_(cell(sim, inst_, "kv.shard.validated_gets")),
      coalescedGets_(cell(sim, inst_, "kv.shard.coalesced_gets")),
      failedPuts_(cell(sim, inst_, "kv.shard.failed_puts")),
      repairsApplied_(cell(sim, inst_, "kv.shard.repairs_applied")),
      pressuredPuts_(cell(sim, inst_, "kv.shard.pressured_puts")),
      corruptKeys_(cell(sim, inst_, "kv.shard.corrupt_keys"))
{
    // Unlike most models a shard may die before the Simulator (see
    // ~KvShard), so its gauges check the liveness flag.
    sim.metrics().registerGauge(
        "kv.shard.live_bytes", {{"inst", std::to_string(inst_)}},
        [this, alive = alive_]() {
        return *alive ? static_cast<double>(liveBytes_) : 0.0;
    });
    sim.metrics().registerGauge(
        "kv.shard.log_bytes", {{"inst", std::to_string(inst_)}},
        [this, alive = alive_]() {
        return *alive ? static_cast<double>(logBytes_) : 0.0;
    });
    if (stripes == 0)
        sim::fatal("shard log needs >= 1 stripe");
    if (stripes == 1) {
        logNames_.push_back(std::move(log_name));
    } else {
        for (unsigned s = 0; s < stripes; ++s)
            logNames_.push_back(log_name + "." +
                                std::to_string(s));
    }
    for (const std::string &name : logNames_) {
        if (!fs_.create(name))
            sim::fatal("shard log '%s' already exists",
                       name.c_str());
    }
}

KvShard::~KvShard()
{
    *alive_ = false;
}

void
KvShard::put(Key key, PageBuffer value, std::uint64_t stamp,
             AckDone done, flash::Priority pri, std::uint64_t trace)
{
    puts_.inc();
    // Capacity red line: below the file system's reserved free-block
    // floor, shed the put with a retryable status instead of
    // appending. Consuming the last free blocks would leave the
    // cleaner nowhere to relocate live pages and wedge the card;
    // reads (which consume no capacity) are never shed. Background
    // (maintenance-class) appends are admitted all the way down to
    // the cleaner's own relocation reserve: repair pushes are few
    // and bounded (KvRouter throttles them at repairChunk in
    // flight), and shedding them at the ordinary red line would
    // make pressure self-sustaining -- anti-entropy could never
    // converge on a card the cleaner holds near the line, which is
    // exactly when replicas have diverged the most.
    bool shed = pri == flash::Priority::Background
                    ? fs_.exhausted()
                    : fs_.underPressure();
    if (shed) {
        pressuredPuts_.inc();
        defer([done = std::move(done)]() { done(KvStatus::Pressure); });
        return;
    }
    auto len = static_cast<std::uint32_t>(value.size());

    // Log record: [key][len][value bytes], appended at the frontier.
    std::vector<std::uint8_t> record(recordHeaderBytes + value.size());
    std::memcpy(record.data(), &key, sizeof(key));
    std::memcpy(record.data() + sizeof(key), &len, sizeof(len));
    std::memcpy(record.data() + recordHeaderBytes, value.data(),
                value.size());
    const std::string &log = fileFor(key);
    std::uint64_t value_offset = fs_.size(log) + recordHeaderBytes;
    std::uint64_t record_bytes = record.size();

    std::uint64_t hash = mix64(key);
    Entry &e = index_[key];
    // With no append in flight, the current entry (or absence) IS
    // the durable state: snapshot it as the rollback target for the
    // in-flight chain this put starts. The snapshot lives exactly
    // as long as the chain does. An absent entry may still carry a
    // tombstone stamp in the repair index; preserve it so a failed
    // re-put rolls back to the tombstone, not to oblivion.
    if (inflightPuts_[key]++ == 0) {
        Durable &d = durable_[key];
        d.valueOffset = e.valueOffset;
        d.valueLen = e.valueLen;
        d.version = e.version;
        d.stamp = e.stamp;
        d.live = e.version != 0;
        if (!d.live) {
            auto hit = byHash_.find(hash);
            if (hit != byHash_.end())
                d.stamp = hit->second.stamp; // tombstone stamp
        }
    }
    // Record the version this put supersedes: when THIS append
    // becomes durable the superseded record's bytes are dead and
    // get charged to their log pages (see markDead). Deferred to
    // the completion so a failed append's rollback never finds its
    // restore target already trimmed.
    bool prev_live = e.version != 0;
    std::uint64_t prev_offset = e.valueOffset;
    std::uint32_t prev_len = e.valueLen;
    if (e.version != 0)
        liveBytes_ -= e.valueLen; // overwrite: old version is dead
    e.valueOffset = value_offset;
    e.valueLen = len;
    e.stamp = stamp;
    // Shard-global version: a delete + re-put must never collide
    // with a still-in-flight append of the key's previous life.
    std::uint64_t version = e.version = ++nextVersion_;
    liveBytes_ += len;
    logBytes_ += record_bytes;
    byHash_[hash] = HashState{key, stamp, true};

    // Reads must see this version immediately (read-your-writes):
    // park it in the memtable until the append is durable.
    memtable_[key] = std::move(value);

    fs_.append(log, std::move(record),
               [this, alive = alive_, key, hash, version, stamp,
                value_offset, len, record_bytes, prev_live,
                prev_offset, prev_len,
                done = std::move(done)](bool ok) {
        if (!*alive)
            return; // shard (and its owner) died mid-append
        auto it = index_.find(key);
        bool current =
            it != index_.end() && it->second.version == version;
        // Last completion of the key's in-flight chain: the
        // rollback snapshot is no longer reachable after this
        // handler, so drop it (bounds durable_ by in-flight keys,
        // not every key ever written).
        auto cit = inflightPuts_.find(key);
        bool last_inflight = --cit->second == 0;
        if (last_inflight)
            inflightPuts_.erase(cit);
        if (!ok) {
            // The record never became durable: charge it off and,
            // if no newer operation superseded this one, roll the
            // key back to its last durable version so a later get
            // can never serve never-written flash bytes as Ok.
            failedPuts_.inc();
            logBytes_ -= record_bytes;
            // The failed record's byte range is garbage forever
            // (log offsets are never reused): account it as dead.
            // Only when no NEWER put is in flight, though -- a
            // newer put captured this range as ITS rollback
            // predecessor and will account it on its own
            // completion; marking twice could trim a page whose
            // dead-byte count was double-charged.
            if (current || it == index_.end())
                markDead(fileFor(key),
                         value_offset - recordHeaderBytes,
                         std::uint64_t(len) + recordHeaderBytes);
            if (current) {
                memtable_.erase(key);
                liveBytes_ -= it->second.valueLen;
                const Durable &d = durable_.at(key);
                if (d.live) {
                    it->second.valueOffset = d.valueOffset;
                    it->second.valueLen = d.valueLen;
                    it->second.version = d.version;
                    it->second.stamp = d.stamp;
                    liveBytes_ += d.valueLen;
                    byHash_[hash] = HashState{key, d.stamp, true};
                } else {
                    index_.erase(it);
                    // Roll the repair index back too: to the prior
                    // tombstone when there was one, else to absence
                    // -- so replica digests reflect the rollback.
                    if (d.stamp != 0)
                        byHash_[hash] =
                            HashState{key, d.stamp, false};
                    else
                        byHash_.erase(hash);
                }
            }
            if (last_inflight)
                durable_.erase(key);
            done(KvStatus::Error);
            return;
        }
        if (last_inflight) {
            durable_.erase(key);
        } else {
            // Durable: remember this version as the rollback target
            // for the rest of the in-flight chain. Appends to one
            // log complete in issue order, but a delete's tombstone
            // is applied instantly, so only ever advance.
            Durable &d = durable_.at(key);
            if (version > d.version) {
                d.valueOffset = value_offset;
                d.valueLen = len;
                d.version = version;
                d.stamp = stamp;
                d.live = true;
            }
        }
        // Durable, so the version it superseded is now safely dead
        // (no failure can roll back to it any more). A put whose
        // key was deleted while the append was in flight is dead on
        // arrival: its own bytes are accounted too (the delete
        // skipped them precisely because this append was pending).
        if (prev_live)
            markDead(fileFor(key),
                     prev_offset - recordHeaderBytes,
                     std::uint64_t(prev_len) + recordHeaderBytes);
        if (it == index_.end())
            markDead(fileFor(key),
                     value_offset - recordHeaderBytes,
                     std::uint64_t(len) + recordHeaderBytes);
        if (current)
            memtable_.erase(key); // no newer in-flight version
        done(KvStatus::Ok);
    },
               pri, trace);
}

void
KvShard::get(Key key, GetDone done, flash::Priority pri,
             std::uint64_t trace)
{
    getIfNewer(key, 0, std::move(done), pri, trace);
}

void
KvShard::getIfNewer(Key key, std::uint64_t cached_stamp,
                    GetDone done, flash::Priority pri,
                    std::uint64_t trace)
{
    gets_.inc();
    auto it = index_.find(key);
    if (it == index_.end()) {
        misses_.inc();
        defer([done = std::move(done)]() {
            done(PageBuffer{}, KvStatus::NotFound, 0);
        });
        return;
    }
    std::uint64_t version = it->second.version;
    std::uint64_t stamp = it->second.stamp;
    if (cached_stamp != 0 && stamp == cached_stamp) {
        // The requester's cached copy holds the live write: an O(1)
        // index probe is the whole cost -- no memtable copy, no
        // flash read, no value bytes.
        validatedGets_.inc();
        sim_.tracer().mark(trace, "shard.validated", sim_.now());
        defer([stamp, done = std::move(done)]() {
            done(PageBuffer{}, KvStatus::Ok, stamp);
        });
        return;
    }
    auto mem = memtable_.find(key);
    if (mem != memtable_.end()) {
        memtableHits_.inc();
        sim_.tracer().mark(trace, "shard.memtable", sim_.now());
        PageBuffer value = mem->second; // copy: append still owns it
        defer([stamp, value = std::move(value),
               done = std::move(done)]() mutable {
            done(std::move(value), KvStatus::Ok, stamp);
        });
        return;
    }
    // Read coalescing: duplicate gets of the same version join the
    // in-flight flash read instead of issuing their own (one version
    // is one write, so the group shares its stamp too).
    auto rit = reads_.find(version);
    if (rit != reads_.end()) {
        coalescedGets_.inc();
        sim_.tracer().mark(trace, "shard.coalesced", sim_.now());
        rit->second.waiters.push_back(std::move(done));
        return;
    }
    reads_[version].waiters.push_back(std::move(done));
    fs_.read(fileFor(key), it->second.valueOffset,
             it->second.valueLen,
             [this, alive = alive_, key, version,
              stamp](std::vector<std::uint8_t> data, bool ok) {
        if (!*alive)
            return; // shard died mid-read; waiters died with it
        auto git = reads_.find(version);
        std::vector<GetDone> waiters =
            std::move(git->second.waiters);
        reads_.erase(git); // before callbacks: they may re-enter
        KvStatus st = ok ? KvStatus::Ok : KvStatus::Error;
        if (!ok) {
            // The durable copy is gone (uncorrectable after the
            // flash server's retry ladder). If the entry we read
            // is still the live version, flag it in the repair
            // index: digests now differ from the healthy replica
            // even at equal stamps, and an equal-stamp repair push
            // is allowed through to heal it (see HashState).
            auto iit = index_.find(key);
            if (iit != index_.end() &&
                iit->second.version == version)
                markCorrupt(key);
        }
        for (std::size_t i = 0; i + 1 < waiters.size(); ++i)
            waiters[i](data, st, stamp); // copy for all but last
        waiters.back()(std::move(data), st, stamp);
    },
             pri, trace);
}

void
KvShard::del(Key key, std::uint64_t stamp, AckDone done)
{
    deletes_.inc();
    auto it = index_.find(key);
    KvStatus st = KvStatus::NotFound;
    if (it != index_.end()) {
        liveBytes_ -= it->second.valueLen;
        // Tombstone at a fresh version while appends are in
        // flight: a pending older append that completes (or fails)
        // after this delete must neither reinstate nor roll back
        // to a resurrected value. With nothing in flight there is
        // nothing to guard.
        auto d = durable_.find(key);
        if (d != durable_.end()) {
            d->second.version = ++nextVersion_;
            d->second.stamp = stamp;
            d->second.live = false;
        } else {
            // Quiescent key: its record is durable and now dead --
            // charge it to its log pages for reclamation. (With a
            // chain in flight the completions do the accounting;
            // see put().)
            markDead(fileFor(key),
                     it->second.valueOffset - recordHeaderBytes,
                     std::uint64_t(it->second.valueLen) +
                         recordHeaderBytes);
        }
        index_.erase(it);
        memtable_.erase(key);
        st = KvStatus::Ok;
    }
    // Record the tombstone even for a miss: a delete that reached
    // only some replicas of a (divergent) key must leave matching
    // repair-index state everywhere it DID arrive, or anti-entropy
    // would re-detect the difference on every sweep.
    byHash_[mix64(key)] = HashState{key, stamp, false};
    defer([st, done = std::move(done)]() { done(st); });
}

std::uint64_t
KvShard::rangeDigest(std::uint64_t lo, std::uint64_t hi) const
{
    if (lo > hi)
        return 0;
    std::uint64_t digest = 0;
    for (auto it = byHash_.lower_bound(lo);
         it != byHash_.end() && it->first <= hi; ++it) {
        const HashState &hs = it->second;
        // Order-independent fold of (key, stamp, liveness,
        // corruption). Corruption is folded in so a replica whose
        // copy rotted at the SAME stamp as its healthy peer still
        // produces a differing digest -- otherwise the sweep would
        // skip the range and the corrupt key could never heal.
        digest ^= mix64(it->first ^
                        mix64(hs.stamp * 0x9e3779b97f4a7c15ull +
                              (hs.live ? 1 : 2) +
                              (hs.corrupt ? 2 : 0)));
    }
    return digest;
}

void
KvShard::pruneTombstones(std::uint64_t lo, std::uint64_t hi,
                         std::uint64_t below)
{
    if (lo > hi)
        return;
    auto it = byHash_.lower_bound(lo);
    while (it != byHash_.end() && it->first <= hi) {
        if (!it->second.live && it->second.stamp < below)
            it = byHash_.erase(it);
        else
            ++it;
    }
}

void
KvShard::rangeEntries(std::uint64_t lo, std::uint64_t hi,
                      std::vector<RangeEntry> &out) const
{
    if (lo > hi)
        return;
    for (auto it = byHash_.lower_bound(lo);
         it != byHash_.end() && it->first <= hi; ++it)
        out.push_back(RangeEntry{it->second.key, it->second.stamp,
                                 it->second.live,
                                 it->second.corrupt});
}

bool
KvShard::ackIfCaughtUp(Key key, std::uint64_t stamp, AckDone &done)
{
    // The shard caught up on its own (a newer write landed, or an
    // earlier repair already applied): nothing to push. A CORRUPT
    // local copy never blocks the push, whatever its stamp: its
    // bytes are gone, so a replica's equal-stamp (or even older)
    // copy is strictly better than garbage.
    auto hit = byHash_.find(mix64(key));
    if (hit == byHash_.end() || hit->second.corrupt ||
        hit->second.stamp < stamp)
        return false;
    defer([done = std::move(done)]() { done(KvStatus::Ok); });
    return true;
}

void
KvShard::repairPut(Key key, PageBuffer value, std::uint64_t stamp,
                   AckDone done)
{
    if (ackIfCaughtUp(key, stamp, done))
        return;
    // Count only on success: a failed append rolls back and acks
    // Error, and the router re-marks the key for the next sweep.
    // Repair is maintenance: its log append rides the background
    // flash class and never suspends serving programs.
    put(key, std::move(value), stamp,
        [this, done = std::move(done)](KvStatus st) {
        if (st == KvStatus::Ok)
            repairsApplied_.inc();
        done(st);
    },
        flash::Priority::Background);
}

void
KvShard::repairDel(Key key, std::uint64_t stamp, AckDone done)
{
    if (ackIfCaughtUp(key, stamp, done))
        return;
    // del applies the tombstone unconditionally (NotFound just
    // means the key was already absent): always a state change.
    repairsApplied_.inc();
    del(key, stamp, std::move(done));
}

void
KvShard::markCorrupt(Key key)
{
    auto hit = byHash_.find(mix64(key));
    if (hit == byHash_.end() || !hit->second.live ||
        hit->second.corrupt)
        return;
    hit->second.corrupt = true;
    corruptKeys_.inc();
}

std::size_t
KvShard::corruptKeyCount() const
{
    std::size_t n = 0;
    for (const auto &kv : byHash_)
        if (kv.second.corrupt)
            ++n;
    return n;
}

void
KvShard::markDead(const std::string &log, std::uint64_t offset,
                  std::uint64_t len)
{
    if (len == 0)
        return;
    const std::uint32_t psz = fs_.pageSize();
    auto &pages = deadBytes_[log];
    std::uint64_t first = offset / psz;
    std::uint64_t last = (offset + len - 1) / psz;
    for (std::uint64_t p = first; p <= last; ++p) {
        std::uint64_t pstart = p * psz;
        std::uint64_t pend = pstart + psz;
        auto lo = offset > pstart ? offset : pstart;
        auto hi = offset + len < pend ? offset + len : pend;
        std::uint32_t &dead = pages[p];
        dead += static_cast<std::uint32_t>(hi - lo);
        if (dead >= psz) {
            // Every byte of the page belongs to dead records: drop
            // its physical backing so the cleaner sees the page as
            // reclaimable. trim() can refuse (page already poisoned
            // or never mapped); the dead-byte entry is retired
            // either way -- its bytes can die only once.
            (void)fs_.trim(log, p);
            pages.erase(p);
        }
    }
}

} // namespace kv
} // namespace bluedbm
