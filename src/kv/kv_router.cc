#include "kv/kv_router.hh"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace kv {

using flash::PageBuffer;
using net::NodeId;

namespace {

/** Ring points per node; more points, smoother balance. */
constexpr unsigned vnodesPerNode = 64;

/**
 * Independent append chains per shard (KvShard stripes). One log
 * file serializes a node's puts behind a single tail page (one
 * program in flight at a time); striping multiplies the per-node
 * write ceiling and feeds the flash server's program-coalescing
 * stage when stripes land on one bus. The hot-shard write backlog
 * under quorum acks is exactly what this bounds: stragglers drain
 * at S chains, not one. More stripes also dilute group-commit
 * amortization (fewer puts absorbed per tail-page program, so more
 * chip-busy program windows stalling reads); 5 is the empirical
 * sweet spot of the 20-node serving bench, where both the write
 * p99 and throughput targets clear with margin.
 */
constexpr unsigned logStripes = 5;

/** Shard log file name (one per node's file system). */
constexpr const char *shardLog = "kv.shard.log";

/** Failover retries per read (distinct replicas, each paying a
 * fresh readTimeoutUs) before the read fails with Error. */
constexpr unsigned readRetries = 1;

} // namespace

KvRouter::KvRouter(sim::Simulator &sim, core::Cluster &cluster,
                   const KvParams &params)
    : sim_(sim), cluster_(cluster), params_(params),
      localOps_(sim.metrics().counter("kv.router.local_ops")),
      remoteOps_(sim.metrics().counter("kv.router.remote_ops")),
      cacheServed_(sim.metrics().counter("kv.router.cache_served")),
      cacheStale_(sim.metrics().counter("kv.router.cache_stale")),
      repairedKeys_(sim.metrics().counter("kv.router.repaired_keys")),
      repairSweeps_(sim.metrics().counter("kv.router.repair_sweeps")),
      readTimeouts_(sim.metrics().counter("kv.router.read_timeouts")),
      writeTimeouts_(
          sim.metrics().counter("kv.router.write_timeouts")),
      retriedReads_(sim.metrics().counter("kv.router.retried_reads")),
      failedReads_(sim.metrics().counter("kv.router.failed_reads")),
      degradedWrites_(
          sim.metrics().counter("kv.router.degraded_writes")),
      lateResponses_(
          sim.metrics().counter("kv.router.late_responses")),
      suspectTransitions_(
          sim.metrics().counter("kv.router.suspect_transitions")),
      deadTransitions_(
          sim.metrics().counter("kv.router.dead_transitions")),
      movedKeys_(sim.metrics().counter("kv.router.moved_keys")),
      localCorruption_(
          sim.metrics().counter("kv.router.local_corruption")),
      stageNet_(sim.metrics().histogram("kv.stage.net")),
      stageShard_(sim.metrics().histogram("kv.stage.shard"))
{
    if (cluster_.network().endpointCount() < kvRequiredEndpoints)
        sim::fatal("KV service needs >= %u network endpoints, "
                   "cluster has %u",
                   kvRequiredEndpoints,
                   cluster_.network().endpointCount());
    unsigned active = params_.activeNodes == 0 ? cluster_.size()
                                               : params_.activeNodes;
    if (active > cluster_.size())
        sim::fatal("activeNodes %u exceeds cluster size %u", active,
                   cluster_.size());
    if (params_.replication == 0 || params_.replication > active ||
        params_.replication > maxReplication)
        sim::fatal("replication factor %u invalid for %u active "
                   "nodes", params_.replication, active);
    if (params_.writeQuorum == 0 ||
        params_.writeQuorum > params_.replication)
        sim::fatal("write quorum %u invalid for replication %u",
                   params_.writeQuorum, params_.replication);
    if (params_.repairChunk == 0)
        sim::fatal("repair chunk must be >= 1");

    // Hash ring: vnodesPerNode points per active node, sorted once.
    // Every node derives identical owners with no directory service.
    // Nodes beyond activeNodes start Standby: provisioned but
    // owning no keys, joinable later.
    ring_.reserve(std::size_t(active) * vnodesPerNode);
    for (unsigned n = 0; n < active; ++n) {
        for (unsigned v = 0; v < vnodesPerNode; ++v)
            ring_.emplace_back(
                mix64((std::uint64_t(n) << 32) | v), NodeId(n));
    }
    std::sort(ring_.begin(), ring_.end());

    members_.resize(cluster_.size());
    for (unsigned n = active; n < cluster_.size(); ++n)
        members_[n].state = MemberState::Standby;

    for (unsigned n = 0; n < cluster_.size(); ++n) {
        shards_.emplace_back(std::make_unique<KvShard>(
            sim_, cluster_.node(n).fs(), shardLog, logStripes));
        caches_.emplace_back(
            params_.cacheSlots > 0
                ? std::make_unique<KvCache>(params_.cacheSlots)
                : nullptr);
    }

    // Quantities that move both ways (or are maxima) stay plain
    // members, published as gauges. The router may die before the
    // Simulator in tests, so every gauge checks the liveness flag.
    auto alive = alive_;
    sim.metrics().registerGauge(
        "kv.router.background_writes", {}, [this, alive]() {
        return *alive ? double(backgroundWrites_) : 0.0;
    });
    sim.metrics().registerGauge(
        "kv.router.max_background_writes", {}, [this, alive]() {
        return *alive ? double(maxBackgroundWrites_) : 0.0;
    });
    sim.metrics().registerGauge(
        "kv.router.divergent_keys", {}, [this, alive]() {
        return *alive ? double(divergent_.size()) : 0.0;
    });
    // KvCache is a passive structure with no Simulator of its own;
    // the router publishes each node's cache stats on its behalf.
    for (unsigned n = 0; n < cluster_.size(); ++n) {
        if (!caches_[n])
            continue;
        const KvCache *c = caches_[n].get();
        sim::MetricLabels labels{{"inst", std::to_string(n)}};
        struct CacheStat
        {
            const char *name;
            std::uint64_t (KvCache::*read)() const;
        };
        static constexpr CacheStat stats[] = {
            {"kv.cache.lookups", &KvCache::lookups},
            {"kv.cache.hits", &KvCache::hits},
            {"kv.cache.admitted", &KvCache::admitted},
            {"kv.cache.rejected_fills", &KvCache::rejectedFills},
            {"kv.cache.evictions", &KvCache::evictions},
            {"kv.cache.invalidations", &KvCache::invalidations},
        };
        for (const CacheStat &s : stats) {
            sim.metrics().registerGauge(
                s.name, labels, [c, alive, read = s.read]() {
                return *alive ? double((c->*read)()) : 0.0;
            });
        }
        sim.metrics().registerGauge(
            "kv.cache.size", labels, [c, alive]() {
            return *alive ? double(c->size()) : 0.0;
        });
    }

    installAgents();
}

KvRouter::~KvRouter()
{
    *alive_ = false;
    for (Member &m : members_) {
        if (m.graceTimer != sim::invalidEventId)
            sim_.cancel(m.graceTimer);
    }
    // In-flight operations die with the router: their timers (and
    // grace timers above) capture `this` raw, so every armed event
    // must be cancelled before the memory goes away. The pending
    // callbacks are simply dropped -- nobody is left to hear them.
    for (auto &[id, op] : pending_) {
        (void)id;
        if (op.timer != sim::invalidEventId)
            sim_.cancel(op.timer);
    }
}

// ---------------------------------------------------------------- //
// Ring geometry
// ---------------------------------------------------------------- //

unsigned
KvRouter::ownersForHash(const Ring &ring, std::uint64_t h,
                        NodeId *out, unsigned max)
{
    auto i = std::size_t(
        std::lower_bound(ring.begin(), ring.end(),
                         std::make_pair(h, NodeId(0))) -
        ring.begin());
    unsigned count = 0;
    for (std::size_t step = 0;
         step < ring.size() && count < max; ++step, ++i) {
        if (i == ring.size())
            i = 0;
        NodeId n = ring[i].second;
        if (std::find(out, out + count, n) == out + count)
            out[count++] = n;
    }
    return count;
}

unsigned
KvRouter::unionOwners(std::uint64_t h, NodeId *out,
                      unsigned *current) const
{
    unsigned ncur = ownersForHash(ring_, h, out, params_.replication);
    if (current != nullptr)
        *current = ncur;
    if (!rebalance_)
        return ncur;
    NodeId next[maxReplication];
    unsigned nnext = ownersForHash(rebalance_->newRing, h, next,
                                   params_.replication);
    unsigned count = ncur;
    for (unsigned i = 0; i < nnext; ++i) {
        if (std::find(out, out + ncur, next[i]) == out + ncur)
            out[count++] = next[i];
    }
    return count;
}

unsigned
KvRouter::segmentRanges(const Ring &ring, std::size_t seg,
                        std::uint64_t ranges[2][2])
{
    // The arc ending at point seg; segment 0 additionally owns the
    // wrap-around arc past the last point.
    unsigned nranges = 0;
    constexpr std::uint64_t maxHash = ~std::uint64_t(0);
    if (seg == 0) {
        ranges[nranges][0] = 0;
        ranges[nranges][1] = ring.front().first;
        ++nranges;
        if (ring.back().first != maxHash) {
            ranges[nranges][0] = ring.back().first + 1;
            ranges[nranges][1] = maxHash;
            ++nranges;
        }
    } else {
        ranges[nranges][0] = ring[seg - 1].first + 1;
        ranges[nranges][1] = ring[seg].first;
        ++nranges;
    }
    return nranges;
}

unsigned
KvRouter::ownersInto(Key key, NodeId *out, unsigned max) const
{
    return ownersForHash(ring_, mix64(key), out, max);
}

std::vector<NodeId>
KvRouter::owners(Key key) const
{
    std::vector<NodeId> out(params_.replication);
    out.resize(ownersInto(key, out.data(), params_.replication));
    return out;
}

// ---------------------------------------------------------------- //
// Membership
// ---------------------------------------------------------------- //

MemberState
KvRouter::member(NodeId n) const
{
    return members_.at(n).state;
}

unsigned
KvRouter::liveNodes() const
{
    unsigned live = 0;
    for (const Member &m : members_)
        live += m.state == MemberState::Live ? 1 : 0;
    return live;
}

void
KvRouter::noteTimeout(NodeId n)
{
    Member &m = members_[n];
    ++m.consecTimeouts;
    if (m.state == MemberState::Live && params_.suspectAfter > 0 &&
        m.consecTimeouts >= params_.suspectAfter) {
        m.state = MemberState::Suspect;
        suspectTransitions_.inc();
        if (params_.deadGraceUs > 0) {
            // Grace period: a suspect that shows no life before
            // this fires is declared Dead (writes then skip it and
            // clamp their quorum -- see issueWrite).
            m.graceTimer = sim_.scheduleAfter(
                sim::usToTicks(double(params_.deadGraceUs)),
                [this, n]() {
                Member &mm = members_[n];
                mm.graceTimer = sim::invalidEventId;
                if (mm.state == MemberState::Suspect) {
                    mm.state = MemberState::Dead;
                    deadTransitions_.inc();
                }
            });
        }
    }
}

void
KvRouter::noteAlive(NodeId n)
{
    Member &m = members_[n];
    // A crashed node's own local shard completions still route
    // through completeOne; they are not network proof of life.
    if (m.crashed)
        return;
    m.consecTimeouts = 0;
    if (m.state == MemberState::Suspect) {
        // Any response -- even one for a request that already
        // timed out -- recovers a suspect. Dead stays Dead: it
        // missed writes while skipped, only a rebuild readmits it.
        m.state = MemberState::Live;
        if (m.graceTimer != sim::invalidEventId) {
            sim_.cancel(m.graceTimer);
            m.graceTimer = sim::invalidEventId;
        }
    }
}

void
KvRouter::killNode(NodeId n)
{
    Member &m = members_.at(n);
    if (m.crashed)
        return;
    m.crashed = true;
    // Fail-stop: the node's network agents drop everything from
    // now (installAgents checks the flag). Detection is NOT
    // short-circuited -- peers must discover the silence through
    // the ordinary timeout path, exactly as with a real crash.
    //
    // Operations ORIGINATED at the dead node complete with Error:
    // their clients died with it. Collect ids first -- completions
    // re-enter the router and mutate pending_.
    std::vector<std::uint64_t> doomed;
    for (const auto &[id, op] : pending_) {
        if (op.origin == n)
            doomed.push_back(id);
    }
    for (std::uint64_t id : doomed) {
        auto it = pending_.find(id);
        if (it == pending_.end())
            continue;
        PendingOp op = std::move(it->second);
        pending_.erase(it);
        if (op.timer != sim::invalidEventId)
            sim_.cancel(op.timer);
        sim_.tracer().endSpan(op.routeSpan, sim_.now());
        if (op.write) {
            if (op.clientAcked)
                --backgroundWrites_;
            // The write may have reached some replicas before the
            // crash killed its bookkeeping: repair owns the rest.
            divergent_.insert(op.key);
            ledgerOpDone(op.key, op.origin, id);
            if (!op.clientAcked && op.ackDone)
                op.ackDone(KvStatus::Error);
            if (op.settled)
                op.settled();
        } else if (op.getDone) {
            op.getDone(PageBuffer{}, KvStatus::Error);
        }
    }
}

void
KvRouter::reviveNode(NodeId n)
{
    Member &m = members_.at(n);
    if (!m.crashed)
        sim::fatal("reviveNode(%u): node was not killed", n);
    m.crashed = false;
    m.consecTimeouts = 0;
    if (m.graceTimer != sim::invalidEventId) {
        sim_.cancel(m.graceTimer);
        m.graceTimer = sim::invalidEventId;
    }
    // Joining, not Live: it receives writes again (so it stops
    // falling further behind) but serves no reads until
    // rebuildNode() streamed back what it missed.
    m.state = MemberState::Joining;
}

void
KvRouter::rebuildNode(NodeId n, std::function<void()> done)
{
    if (members_.at(n).state != MemberState::Joining)
        sim::fatal("rebuildNode(%u): node is not Joining", n);
    // The rebuild IS an anti-entropy sweep: with the node Joining
    // (reconcilable again), every segment it owns compares unequal
    // and the sweep pushes the missed history across, reading
    // sources and appending at Priority::Background so serving
    // reads never queue behind recovery I/O.
    repairSweep([this, n, done = std::move(done)]() {
        Member &m = members_[n];
        if (m.state == MemberState::Joining) {
            m.state = MemberState::Live;
            m.consecTimeouts = 0;
        }
        if (done)
            done();
    });
}

void
KvRouter::startExclusive(std::function<void()> fn)
{
    if (sweepRunning_) {
        pendingExclusive_.push_back(std::move(fn));
        return;
    }
    fn();
}

void
KvRouter::releaseExclusive()
{
    // Ring changes first (they queued behind a sweep and block
    // further sweeps while they run), then the queued sweeps.
    if (!sweepRunning_ && !pendingExclusive_.empty()) {
        auto fn = std::move(pendingExclusive_.front());
        pendingExclusive_.erase(pendingExclusive_.begin());
        fn();
    }
    if (!sweepRunning_ && !queuedSweeps_.empty()) {
        auto waiters = std::make_shared<
            std::vector<std::function<void()>>>(
            std::move(queuedSweeps_));
        queuedSweeps_.clear();
        repairSweep([waiters]() {
            for (auto &w : *waiters) {
                if (w)
                    w();
            }
        });
    }
}

void
KvRouter::joinNode(NodeId n, std::function<void()> done)
{
    if (n >= cluster_.size())
        sim::fatal("joinNode(%u): no such node", n);
    startExclusive([this, n, done = std::move(done)]() mutable {
        beginRebalance(n, true, std::move(done));
    });
}

void
KvRouter::leaveNode(NodeId n, std::function<void()> done)
{
    if (n >= cluster_.size())
        sim::fatal("leaveNode(%u): no such node", n);
    startExclusive([this, n, done = std::move(done)]() mutable {
        beginRebalance(n, false, std::move(done));
    });
}

/** One sweep or join/leave catch-up in flight (a catch-up is the
 * traversal that runs while rebalance_ is set). */
struct KvRouter::SweepState
{
    std::function<void()> done;
    std::size_t nextSeg = 0;
    unsigned outstanding = 0; //!< async repairs in flight
    /** Traversal parked on the in-flight cap (repairChunk): the
     * next repair completion below the cap restarts it. Without
     * this, a rebalance catch-up issues every push in one tick and
     * floods the controller tags foreground reads need. */
    bool stalled = false;
    bool traversalDone = false;
    /** Tombstones below this stamp may prune on consistent ranges:
     * older than every write in flight when the sweep started. */
    std::uint64_t pruneBelow = 0;
};

void
KvRouter::beginRebalance(NodeId n, bool joining,
                         std::function<void()> done)
{
    // Re-validate here: the request may have queued behind a sweep
    // and the world may have moved underneath it.
    Member &m = members_[n];
    if (joining) {
        if (m.state != MemberState::Standby || m.crashed)
            sim::fatal("joinNode(%u): node is not Standby", n);
    } else {
        if (m.state != MemberState::Live)
            sim::fatal("leaveNode(%u): node is not Live", n);
    }

    auto rb = std::make_unique<Rebalance>();
    rb->newRing = ring_;
    if (joining) {
        rb->newRing.reserve(ring_.size() + vnodesPerNode);
        for (unsigned v = 0; v < vnodesPerNode; ++v)
            rb->newRing.emplace_back(
                mix64((std::uint64_t(n) << 32) | v), n);
        std::sort(rb->newRing.begin(), rb->newRing.end());
    } else {
        rb->newRing.erase(
            std::remove_if(rb->newRing.begin(), rb->newRing.end(),
                           [n](const std::pair<std::uint64_t,
                                               NodeId> &p) {
                return p.second == n;
            }),
            rb->newRing.end());
        // A full owner walk finds R distinct nodes iff R remain.
        NodeId probe[maxReplication];
        unsigned distinct = ownersForHash(rb->newRing, 0, probe,
                                          params_.replication);
        if (distinct < params_.replication)
            sim::fatal("leaveNode(%u): %u nodes left cannot hold "
                       "%u replicas", n, distinct,
                       params_.replication);
    }
    // The finer ring (superset of points: new for a join, ring_
    // for a leave) is the granularity whose segments have constant
    // owner sets under BOTH rings -- what the catch-up walks.
    rb->finer = joining ? &rb->newRing : &ring_;
    rb->node = n;
    rb->joining = joining;
    if (joining)
        m.state = MemberState::Joining;

    // Phase 1 from here: issueWrite sees rebalance_ and dual-writes
    // to the union owner set; the traversal below copies history.
    // sweepRunning_ doubles as the exclusive lock -- no ordinary
    // sweep (whose segment geometry assumes a stable ring) and no
    // second membership change can start mid-handoff.
    rebalance_ = std::move(rb);
    sweepRunning_ = true;
    auto state = std::make_shared<SweepState>();
    state->done = std::move(done);
    sweepChunk(state);
}

void
KvRouter::finishRebalance()
{
    // Phase 2, the flip: atomic within the event -- every operation
    // issued after this line routes on the new ring.
    std::unique_ptr<Rebalance> rb = std::move(rebalance_);
    ring_ = std::move(rb->newRing);
    ++ringEpoch_;
    Member &m = members_[rb->node];
    if (rb->joining) {
        m.state = MemberState::Live;
        m.consecTimeouts = 0;
    } else {
        m.state = MemberState::Standby;
    }
}

// ---------------------------------------------------------------- //
// Read routing
// ---------------------------------------------------------------- //

NodeId
KvRouter::readReplica(NodeId origin, Key key) const
{
    NodeId target;
    // With no readable owner, target is the plain pick.
    (void)routeRead(origin, key, &target);
    return target;
}

bool
KvRouter::routeRead(NodeId origin, Key key, NodeId *out) const
{
    // Allocation-free: gets are the 95% case and run once per op.
    // One ring walk serves every step below.
    NodeId own[maxReplication];
    unsigned count = ownersInto(key, own, params_.replication);
    NodeId plain = plainRead(origin, own, count);
    NodeId steer;
    if (steerTarget(origin, key, &steer) &&
        members_[steer].state != MemberState::Dead) {
        *out = steer;
    } else if (plain == origin ||
               members_[plain].state == MemberState::Live) {
        // The origin's own shard needs no liveness check -- if the
        // origin were gone, nobody would be asking.
        *out = plain;
    } else if (!failover(own, count, origin % count, origin, nullptr,
                         0, out)) { // keeps the origin-keyed spread
        *out = plain;
        return false;
    }
    return true;
}

bool
KvRouter::steerTarget(NodeId origin, Key key, NodeId *out) const
{
    // In-flight ledger: a quorum-acked write from THIS origin still
    // draining to stragglers steers this origin's reads to a
    // replica that acked it, or the writing client could read its
    // own write's predecessor off a straggler. Reads from other
    // origins keep the plain spread (see InflightWrite for why the
    // narrow scope matters). Uses the entry's owner list, so the
    // common unconstrained read never pays a second ring walk.
    auto lit = inflightWrites_.find(key);
    if (lit == inflightWrites_.end())
        return false;
    const InflightWrite &w = lit->second;
    std::uint8_t mask = 0;
    bool wrote = false;
    for (const auto &wr : w.writers) {
        if (wr.origin == origin && wr.ops > 0) {
            wrote = true;
            if (wr.ackedOp != 0)
                mask = wr.ackedMask;
            break;
        }
    }
    if (!wrote)
        return false;
    // The origin's own shard applied its writes synchronously:
    // local stays both correct and free.
    for (unsigned i = 0; i < w.ownerCount; ++i) {
        if (w.owners[i] == origin) {
            *out = origin;
            return true;
        }
    }
    if (mask != 0) {
        NodeId safe[maxReplication];
        unsigned nsafe = 0;
        for (unsigned i = 0; i < w.ownerCount; ++i) {
            if (mask & (std::uint8_t(1) << i))
                safe[nsafe++] = w.owners[i];
        }
        if (nsafe > 0) {
            *out = safe[origin % nsafe];
            return true;
        }
    }
    // Nothing client-acked yet: no obligation to steer.
    return false;
}

NodeId
KvRouter::plainRead(NodeId origin, const NodeId *own, unsigned count)
{
    if (std::find(own, own + count, origin) != own + count)
        return origin; // a local replica: zero network hops
    // Spread different origins across the replica set so hot keys
    // draw read bandwidth from every copy.
    return own[origin % count];
}

bool
KvRouter::failover(const NodeId *own, unsigned count, unsigned start,
                   NodeId origin, const NodeId *tried,
                   unsigned ntried, NodeId *out) const
{
    // A Live owner first; a Suspect one as last resort (it may
    // merely be slow, and slow beats Error). Dead and Joining never
    // serve reads -- both are known to be missing writes.
    const MemberState passes[2] = {MemberState::Live,
                                   MemberState::Suspect};
    for (MemberState want : passes) {
        for (unsigned k = 0; k < count; ++k) {
            NodeId cand = own[(start + k) % count];
            if (cand == origin || members_[cand].state != want ||
                std::find(tried, tried + ntried, cand) !=
                    tried + ntried)
                continue;
            *out = cand;
            return true;
        }
    }
    return false;
}

bool
KvRouter::pickRetryTarget(Key key, NodeId origin,
                          const NodeId *tried, unsigned ntried,
                          NodeId *out) const
{
    NodeId own[maxReplication];
    unsigned count = ownersInto(key, own, params_.replication);
    return failover(own, count, 0, origin, tried, ntried, out);
}

void
KvRouter::get(NodeId origin, Key key, GetDone done,
              std::uint64_t trace)
{
    std::uint64_t route =
        sim_.tracer().beginSpan(trace, "route", sim_.now());
    // Routing, in priority order: the read-your-writes steer, then
    // the liveness-aware deterministic spread.
    NodeId replica;
    if (!routeRead(origin, key, &replica)) {
        // Every owner is Dead or Joining: nothing can serve this
        // read. Fail asynchronously -- callers expect it.
        failedReads_.inc();
        sim_.tracer().endSpan(route, sim_.now());
        sim_.scheduleAfter(0, [done = std::move(done)]() {
            done(PageBuffer{}, KvStatus::Error);
        });
        return;
    }
    if (replica == origin) {
        localOps_.inc();
        sim::Tick t0 = sim_.now();
        std::uint64_t span =
            sim_.tracer().beginSpan(route, "shard.get", t0);
        // `this` is safe to capture raw: the continuation only runs
        // while the shard is alive, and the shard dies with us.
        shards_[origin]->get(key,
                             [this, origin, key, t0, span, route,
                              done = std::move(done)](
                                 PageBuffer v, KvStatus st,
                                 std::uint64_t) mutable {
            sim::Tick now = sim_.now();
            stageShard_.record(now - t0);
            stageNet_.record(0);
            sim_.tracer().endSpan(span, now);
            if (st == KvStatus::Error) {
                // The local durable copy is unreadable (the flash
                // server's retry ladder exhausted; the shard marked
                // the key corrupt). Serve the client from another
                // replica and heal the local copy on the way.
                localCorruption_.inc();
                divergent_.insert(key);
                sim_.tracer().mark(route, "local.corrupt", now);
                NodeId other;
                if (pickRetryTarget(key, origin, nullptr, 0,
                                    &other)) {
                    healLocalGet(origin, other, key, route,
                                 std::move(done));
                    return;
                }
                failedReads_.inc();
            }
            sim_.tracer().endSpan(route, now);
            done(std::move(v), st);
        },
                             flash::Priority::Read, span);
        return;
    }
    std::uint64_t id = nextReqId_++;
    PendingOp &op = pending_[id];
    // Hot-key cache: a cached (value, stamp) pair turns this into
    // a conditional get. Whichever replica answers -- the plain
    // pick, a steered or failed-over one -- confirms an unchanged
    // stamp with a header-only reply, and the value is served
    // locally: one stamp names one write on every replica.
    if (KvCache *cache = cacheFor(origin)) {
        cache->touch(key);
        if (const KvCache::Entry *e = cache->lookup(key))
            op.cachedStamp = e->stamp;
        else
            sim_.tracer().mark(route, "cache.miss", sim_.now());
    }
    op.getDone = std::move(done);
    op.key = key;
    op.origin = origin;
    op.trace = trace;
    op.routeSpan = route;
    sendGet(id, op, replica);
}

void
KvRouter::sendGet(std::uint64_t id, PendingOp &op, NodeId to)
{
    remoteOps_.inc();
    op.sent[op.sentCount++] = to;
    ++op.attempts;
    ++op.remaining;
    op.sentTick = sim_.now();
    KvRequest req;
    req.reqId = id;
    req.key = op.key;
    req.op = KvOp::Get;
    req.stamp = op.cachedStamp;
    req.trace =
        sim_.tracer().beginSpan(op.routeSpan, "net.req", op.sentTick);
    cluster_.network()
        .endpoint(op.origin, epKvService)
        .send(to, kvHeaderBytes, std::move(req));
    if (params_.readTimeoutUs > 0)
        armOpTimer(id, params_.readTimeoutUs);
}

void
KvRouter::healLocalGet(NodeId origin, NodeId from, Key key,
                       std::uint64_t route, GetDone done)
{
    // Failover read at serving priority (the client is waiting);
    // the write-back push below rides Background inside repairPut.
    retriedReads_.inc();
    std::uint64_t span = sim_.tracer().beginSpan(
        route, "shard.heal_get", sim_.now());
    shards_[from]->get(
        key,
        [this, origin, key, span, route,
         done = std::move(done)](PageBuffer v, KvStatus st,
                                 std::uint64_t stamp) mutable {
        sim::Tick now = sim_.now();
        sim_.tracer().endSpan(span, now);
        if (st == KvStatus::Ok) {
            // Push the surviving copy back under the stamp of the
            // write it holds: the corrupt local entry admits the
            // push even at an equal stamp (see KvShard::HashState),
            // and the guard makes the heal idempotent against
            // racing writes.
            PageBuffer copy = v;
            shards_[origin]->repairPut(
                key, std::move(copy), stamp,
                [this, alive = alive_](KvStatus rst) {
                if (!*alive)
                    return;
                if (rst == KvStatus::Ok)
                    repairedKeys_.inc();
            });
        } else if (st == KvStatus::Error) {
            failedReads_.inc();
        }
        sim_.tracer().endSpan(route, now);
        done(std::move(v), st);
    },
        flash::Priority::Read, span);
}

// ---------------------------------------------------------------- //
// Write path
// ---------------------------------------------------------------- //

void
KvRouter::put(NodeId origin, Key key, PageBuffer value, AckDone done,
              SettledDone settled, std::uint64_t trace)
{
    issueWrite(origin, key, KvOp::Put, std::move(value),
               std::move(done), std::move(settled), trace);
}

void
KvRouter::del(NodeId origin, Key key, AckDone done,
              SettledDone settled, std::uint64_t trace)
{
    issueWrite(origin, key, KvOp::Delete, PageBuffer{},
               std::move(done), std::move(settled), trace);
}

void
KvRouter::issueWrite(NodeId origin, Key key, KvOp kvop,
                     PageBuffer value, AckDone done,
                     SettledDone settled, std::uint64_t trace)
{
    std::uint64_t route =
        sim_.tracer().beginSpan(trace, "route", sim_.now());
    // The origin's cached copy (if any) is dead the moment the
    // overwrite is issued; validation would catch it, but dropping
    // it now saves the wasted conditional round.
    if (KvCache *cache = cacheFor(origin))
        cache->invalidate(key);

    // own[0..count) are the current ring's owners; during a
    // join/leave handoff own[count..nown) are the next ring's extras.
    NodeId own[2 * maxReplication];
    unsigned count = 0;
    unsigned nown = unionOwners(mix64(key), own, &count);

    // Quorum-eligible targets: the current ring's owners minus the
    // Dead ones. Suspect and Joining owners are still written --
    // a suspect may merely be slow, and a joining node must stop
    // falling behind -- but a Dead replica is skipped outright:
    // waiting out its timeout on every write would put the crash
    // on the client latency path.
    NodeId targets[2 * maxReplication]; // eligible, then aux
    unsigned nelig = 0;
    bool clamped = false;
    for (unsigned i = 0; i < count; ++i) {
        if (members_[own[i]].state == MemberState::Dead)
            clamped = true;
        else
            targets[nelig++] = own[i];
    }
    if (clamped && nelig > 0) {
        // Durable on fewer than the configured replicas: certain
        // divergence, recorded up front so repair owns it, and the
        // exposure is observable (degradedWrites).
        divergent_.insert(key);
        degradedWrites_.inc();
    }
    if (nelig == 0) {
        sim_.tracer().endSpan(route, sim_.now());
        sim_.scheduleAfter(0, [done = std::move(done),
                               settled = std::move(settled)]() {
            if (done)
                done(KvStatus::Error);
            if (settled)
                settled();
        });
        return;
    }

    // Dual-write (join/leave phase 1): next-ring-only owners ride
    // along as aux targets, excluded from the quorum -- the client
    // never waits on a node that is still catching up, but new
    // writes stop widening the gap the catch-up sweep must close.
    unsigned total = nelig;
    for (unsigned i = count; i < nown; ++i) {
        if (members_[own[i]].state == MemberState::Dead)
            divergent_.insert(key);
        else
            targets[total++] = own[i];
    }

    std::uint64_t id = nextReqId_++;
    std::uint64_t stamp = ++nextStamp_;
    {
        PendingOp &op = pending_[id];
        std::copy(targets, targets + total, op.sent);
        op.sentCount = std::uint8_t(total);
        op.eligible = std::uint8_t(nelig);
        op.remaining = total;
        op.quorum = std::min(params_.writeQuorum, nelig);
        op.write = true;
        op.ackDone = std::move(done);
        op.settled = std::move(settled);
        op.key = key;
        op.origin = origin;
        op.stamp = stamp;
        op.trace = trace;
        op.routeSpan = route;
        op.sentTick = sim_.now();
    }
    ledgerOpen(key, origin, targets, nelig);

    auto bytes = kvHeaderBytes +
        static_cast<std::uint32_t>(value.size());
    for (unsigned i = 0; i < total; ++i) {
        // The last replica takes the buffer, the others a copy.
        PageBuffer copy =
            i + 1 < total ? value : std::move(value);
        NodeId replica = targets[i];
        if (replica == origin) {
            localOps_.inc();
            sim::Tick t0 = sim_.now();
            std::uint64_t span = sim_.tracer().beginSpan(
                route,
                kvop == KvOp::Put ? "shard.put" : "shard.del", t0);
            auto ack = [this, id, replica, t0, span](KvStatus st) {
                sim::Tick now = sim_.now();
                stageShard_.record(now - t0);
                stageNet_.record(0);
                sim_.tracer().endSpan(span, now);
                completeOne(id, st, PageBuffer{}, 0, replica);
            };
            if (kvop == KvOp::Put)
                shards_[origin]->put(key, std::move(copy), stamp,
                                     std::move(ack),
                                     flash::Priority::Read, span);
            else
                shards_[origin]->del(key, stamp, std::move(ack));
            continue;
        }
        remoteOps_.inc();
        KvRequest req;
        req.reqId = id;
        req.key = key;
        req.op = kvop;
        req.stamp = stamp;
        req.value = std::move(copy);
        req.trace =
            sim_.tracer().beginSpan(route, "net.req", sim_.now());
        cluster_.network()
            .endpoint(origin, epKvService)
            .send(replica,
                  kvop == KvOp::Put ? bytes : kvHeaderBytes,
                  std::move(req));
    }
    if (params_.writeTimeoutUs > 0)
        armOpTimer(id, params_.writeTimeoutUs);
}

void
KvRouter::ledgerOpen(Key key, NodeId origin, const NodeId *own,
                     unsigned count)
{
    InflightWrite &w = inflightWrites_[key];
    if (w.ops == 0) {
        w.ownerCount = count;
        for (unsigned i = 0; i < count; ++i)
            w.owners[i] = own[i];
    }
    ++w.ops;
    // Register the writing origin: its reads are the ones the
    // ledger must steer (read-your-writes is per session). Reuse a
    // drained slot before growing.
    InflightWrite::Writer *slot = nullptr;
    for (auto &wr : w.writers) {
        if (wr.origin == origin) {
            slot = &wr;
            break;
        }
        if (slot == nullptr && wr.ops == 0)
            slot = &wr;
    }
    if (slot == nullptr || slot->origin != origin) {
        if (slot == nullptr) {
            w.writers.emplace_back();
            slot = &w.writers.back();
        } else {
            *slot = InflightWrite::Writer{};
        }
        slot->origin = origin;
    }
    ++slot->ops;
}

void
KvRouter::ledgerClientAcked(Key key, NodeId origin,
                            std::uint64_t op_id,
                            std::uint8_t acked_mask)
{
    auto it = inflightWrites_.find(key);
    if (it == inflightWrites_.end())
        return;
    InflightWrite &w = it->second;
    for (auto &wr : w.writers) {
        if (wr.origin == origin && wr.ops > 0) {
            wr.ackedOp = op_id;
            wr.ackedMask = acked_mask;
            return;
        }
    }
}

void
KvRouter::ledgerLateAck(Key key, NodeId origin, std::uint64_t op_id,
                        unsigned idx)
{
    auto it = inflightWrites_.find(key);
    if (it == inflightWrites_.end())
        return;
    InflightWrite &w = it->second;
    auto bit = std::uint8_t(std::uint8_t(1) << idx);
    for (auto &wr : w.writers) {
        if (wr.origin == origin && wr.ackedOp == op_id) {
            wr.ackedMask |= bit;
            return;
        }
    }
}

void
KvRouter::ledgerOpDone(Key key, NodeId origin, std::uint64_t op_id)
{
    auto it = inflightWrites_.find(key);
    if (it == inflightWrites_.end())
        sim::panic("ledger completion for untracked key");
    InflightWrite &w = it->second;
    for (auto &wr : w.writers) {
        if (wr.origin == origin && wr.ops > 0) {
            --wr.ops;
            // The op reached every replica: its steer (if it was
            // the active one) is obsolete -- any replica serves it.
            if (wr.ackedOp == op_id) {
                wr.ackedOp = 0;
                wr.ackedMask = 0;
            }
            break;
        }
    }
    if (--w.ops == 0)
        inflightWrites_.erase(it);
}

void
KvRouter::multiGet(NodeId origin, std::vector<Key> keys,
                   MultiGetDone done, std::uint64_t trace)
{
    struct Ctx
    {
        std::vector<PageBuffer> values;
        std::vector<KvStatus> statuses;
        std::size_t remaining = 0;
        MultiGetDone done;
    };
    auto ctx = std::make_shared<Ctx>();
    ctx->values.resize(keys.size());
    ctx->statuses.assign(keys.size(), KvStatus::NotFound);
    ctx->remaining = keys.size();
    ctx->done = std::move(done);
    if (keys.empty()) {
        sim_.scheduleAfter(0, [ctx]() {
            ctx->done(std::move(ctx->values),
                      std::move(ctx->statuses));
        });
        return;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        get(origin, keys[i],
            [ctx, i](PageBuffer v, KvStatus st) {
            ctx->values[i] = std::move(v);
            ctx->statuses[i] = st;
            if (--ctx->remaining == 0)
                ctx->done(std::move(ctx->values),
                          std::move(ctx->statuses));
        },
            trace);
    }
}

void
KvRouter::installAgents()
{
    auto &net = cluster_.network();
    for (unsigned n = 0; n < cluster_.size(); ++n) {
        // Shard agent: serve get/put/delete arriving from peers.
        // The agents outlive nothing -- they capture the liveness
        // flag because network deliveries already in flight can
        // fire after the router died; and a crashed node's agent
        // swallows everything (fail-stop: peers hear silence, the
        // payload slot still recycles).
        net.endpoint(NodeId(n), epKvService)
            .setReceiveHandler([this, alive = alive_,
                                n](net::Message msg) {
            if (!*alive)
                return;
            auto req = msg.payload.take<KvRequest>();
            if (members_[n].crashed)
                return;
            NodeId requester = msg.src;
            net::EndpointId reply_ep = req.replyEndpoint;
            serveLocal(NodeId(n), std::move(req),
                       [this, alive, n, requester,
                        reply_ep](KvResponse resp) {
                if (!*alive || members_[n].crashed)
                    return;
                auto bytes = kvHeaderBytes +
                    static_cast<std::uint32_t>(resp.value.size());
                cluster_.network()
                    .endpoint(NodeId(n), reply_ep)
                    .send(requester, bytes, std::move(resp));
            });
        });
        // Response sink: complete the origin's pending operation.
        net.endpoint(NodeId(n), epKvData)
            .setReceiveHandler([this, alive = alive_,
                                n](net::Message msg) {
            if (!*alive)
                return;
            auto resp = msg.payload.take<KvResponse>();
            if (members_[n].crashed)
                return;
            sim_.tracer().endSpan(resp.trace, sim_.now());
            completeOne(resp.reqId, resp.status,
                        std::move(resp.value), resp.stamp,
                        msg.src, false, resp.serviceTicks);
        });
    }
}

void
KvRouter::serveLocal(NodeId node, KvRequest req,
                     std::function<void(KvResponse)> reply)
{
    // The request's net.req span ends on arrival; the shard span
    // opens as its sibling (both children of the origin's route
    // span), and the reply opens net.resp the same way. `start`
    // feeds KvResponse::serviceTicks, the always-on serving-side
    // time the origin uses to split the round trip into
    // kv.stage.shard and kv.stage.net without any tracing.
    // Capturing `this` raw in the shard continuations is safe: they
    // only run while the shard is alive, and the shard dies with us.
    sim::Tick start = sim_.now();
    sim_.tracer().endSpan(req.trace, start);
    std::uint64_t span = sim_.tracer().beginSibling(
        req.trace,
        req.op == KvOp::Get   ? "shard.get"
        : req.op == KvOp::Put ? "shard.put"
                              : "shard.del",
        start);
    auto respond = [this, id = req.reqId, start, span,
                    reply = std::move(reply)](
                       KvStatus st, PageBuffer value,
                       std::uint64_t stamp) {
        sim::Tick now = sim_.now();
        KvResponse resp;
        resp.reqId = id;
        resp.status = st;
        resp.stamp = stamp;
        resp.value = std::move(value);
        resp.serviceTicks = now - start;
        sim_.tracer().endSpan(span, now);
        resp.trace = sim_.tracer().beginSibling(span, "net.resp", now);
        reply(std::move(resp));
    };
    switch (req.op) {
      case KvOp::Get:
        shards_[node]->getIfNewer(
            req.key, req.stamp,
            [respond = std::move(respond)](PageBuffer v, KvStatus st,
                                           std::uint64_t stamp) {
            respond(st, std::move(v), stamp);
        },
            flash::Priority::Read, span);
        return;
      case KvOp::Put:
        shards_[node]->put(req.key, std::move(req.value), req.stamp,
                           [respond = std::move(respond)](KvStatus st) {
            respond(st, PageBuffer{}, 0);
        },
                           flash::Priority::Read, span);
        return;
      case KvOp::Delete:
        shards_[node]->del(req.key, req.stamp,
                           [respond = std::move(respond)](KvStatus st) {
            respond(st, PageBuffer{}, 0);
        });
        return;
    }
    sim::panic("unknown KV op");
}

void
KvRouter::armOpTimer(std::uint64_t id, std::uint64_t us)
{
    auto it = pending_.find(id);
    if (it == pending_.end())
        sim::panic("arming timer for unknown KV request");
    PendingOp &op = it->second;
    if (op.timer != sim::invalidEventId)
        sim_.cancel(op.timer);
    op.timer = sim_.scheduleAfter(
        sim::usToTicks(double(us)), [this, id]() {
        auto it2 = pending_.find(id);
        if (it2 == pending_.end())
            return;
        PendingOp &op2 = it2->second;
        op2.timer = sim::invalidEventId;
        // Synthesize a failure for every unresponded target (for a
        // read there is exactly one: the latest attempt; earlier
        // ones closed their slots when THEIR timeout retried).
        // Gather first -- completeOne may retire the op mid-loop.
        NodeId silent[2 * maxReplication];
        unsigned nsilent = 0;
        for (unsigned i = 0; i < op2.sentCount; ++i) {
            if (!(op2.respondedMask & (1u << i)))
                silent[nsilent++] = op2.sent[i];
        }
        for (unsigned i = 0; i < nsilent; ++i)
            completeOne(id, KvStatus::Error, PageBuffer{}, 0,
                        silent[i], true);
    });
}

void
KvRouter::completeOne(std::uint64_t req_id, KvStatus st,
                      PageBuffer value, std::uint64_t stamp,
                      NodeId from, bool timed_out,
                      sim::Tick service_ticks)
{
    auto it = pending_.find(req_id);
    unsigned slot = ~0u;
    if (it != pending_.end()) {
        const PendingOp &probe = it->second;
        for (unsigned i = 0; i < probe.sentCount; ++i) {
            if (probe.sent[i] == from &&
                !(probe.respondedMask & (1u << i))) {
                slot = i;
                break;
            }
        }
    }
    if (it == pending_.end() || slot == ~0u) {
        // The request already retired: it timed out (and possibly
        // failed over), or its origin died. The response is
        // dropped -- but it is proof its sender is alive, which
        // matters exactly when the sender was slow enough to be
        // suspected.
        lateResponses_.inc();
        noteAlive(from);
        return;
    }
    PendingOp &op = it->second;
    op.respondedMask |= std::uint16_t(1u << slot);
    --op.remaining;
    if (timed_out) {
        noteTimeout(from);
        sim_.tracer().mark(op.routeSpan, "rpc.timeout", sim_.now());
        if (op.write)
            writeTimeouts_.inc();
        else
            readTimeouts_.inc();
    } else {
        noteAlive(from);
        if (from != op.origin) {
            // Always-on stage attribution: the serving side
            // reported its own time, the rest of the round trip is
            // the network's.
            sim::Tick rtt = sim_.now() - op.sentTick;
            stageShard_.record(service_ticks);
            stageNet_.record(rtt > service_ticks
                                 ? rtt - service_ticks
                                 : 0);
        }
    }

    if (!op.write) {
        // Read path: one target in flight at a time.
        if (timed_out || st == KvStatus::Error) {
            // A real storage Error (not a synthesized timeout)
            // means the serving replica's durable copy is
            // unreadable -- it marked itself corrupt. Record the
            // divergence so the next sweep pushes a healthy copy
            // across even if every retry below also fails.
            if (!timed_out)
                divergent_.insert(op.key);
            // Timeout or storage error: fail over to another
            // replica, still conditional on the cached stamp.
            NodeId next;
            if (op.attempts <= readRetries &&
                pickRetryTarget(op.key, op.origin, op.sent,
                                op.sentCount, &next)) {
                retriedReads_.inc();
                sendGet(req_id, op, next);
                return;
            }
            failedReads_.inc();
            st = KvStatus::Error;
            value = PageBuffer{};
        }
        if (op.timer != sim::invalidEventId)
            sim_.cancel(op.timer);
        PendingOp fin = std::move(op);
        pending_.erase(it);
        fin.status = st;
        fin.stamp = stamp;
        fin.value = std::move(value);
        finishGet(std::move(fin));
        return;
    }

    // Write path. Eligible slots feed the quorum; aux (dual-write
    // catch-up) slots only feed the divergence set -- the catch-up
    // sweep owns whatever they miss.
    if (slot < op.eligible) {
        if (st == KvStatus::Ok) {
            ++op.okAcks;
            // Record which replica acked Ok (durable implies
            // applied): the bit feeds the read-your-writes steer.
            auto lit = inflightWrites_.find(op.key);
            if (lit != inflightWrites_.end()) {
                const InflightWrite &w = lit->second;
                for (unsigned i = 0; i < w.ownerCount; ++i) {
                    if (w.owners[i] == from) {
                        op.ackedMask |= std::uint8_t(1) << i;
                        if (op.clientAcked)
                            ledgerLateAck(op.key, op.origin,
                                          req_id, i);
                        break;
                    }
                }
            }
        } else {
            ++op.failed;
            if (op.status == KvStatus::Ok)
                op.status = st;
        }
    } else if (st != KvStatus::Ok) {
        divergent_.insert(op.key);
    }

    bool last = op.remaining == 0;

    // Quorum decision: the client completes on the W-th Ok, or as
    // soon as the failures make W unreachable. With all replies in,
    // one of the two has necessarily triggered.
    AckDone fire_client;
    KvStatus client_status = KvStatus::Ok;
    if (!op.clientAcked) {
        if (op.okAcks >= op.quorum) {
            op.clientAcked = true;
            fire_client = std::move(op.ackDone);
        } else if (op.failed > op.eligible - op.quorum) {
            op.clientAcked = true;
            fire_client = std::move(op.ackDone);
            client_status = op.status;
        }
    }

    if (!last) {
        // Stragglers still out: the op stays pending in the
        // background. Fire the client last -- the callback may
        // re-enter the router and grow pending_, invalidating op.
        if (fire_client) {
            // The route span measures client-perceived latency: it
            // ends at the ack, not at settlement. Straggler spans
            // left open are closed when the caller ends the trace.
            sim_.tracer().endSpan(op.routeSpan, sim_.now());
            op.routeSpan = 0;
            ++backgroundWrites_;
            if (backgroundWrites_ > maxBackgroundWrites_)
                maxBackgroundWrites_ = backgroundWrites_;
            if (client_status == KvStatus::Ok)
                ledgerClientAcked(op.key, op.origin, req_id,
                                  op.ackedMask);
            fire_client(client_status);
        }
        return;
    }

    // Last replica reply: retire the op and the ledger entry, and
    // record divergence (a mixed outcome means some replicas hold
    // the new value and at least one rolled back or went silent --
    // repairSweep() owns closing that window; see kv_types.hh).
    if (op.timer != sim::invalidEventId)
        sim_.cancel(op.timer);
    bool was_background = op.clientAcked && !fire_client;
    Key key = op.key;
    NodeId origin = op.origin;
    unsigned failed = op.failed, eligible = op.eligible;
    SettledDone settled = std::move(op.settled);
    std::uint64_t route_span = op.routeSpan;
    pending_.erase(it);
    sim_.tracer().endSpan(route_span, sim_.now());
    ledgerOpDone(key, origin, req_id);
    if (was_background)
        --backgroundWrites_;
    if (failed != 0 && failed < eligible)
        divergent_.insert(key);
    if (fire_client)
        fire_client(client_status);
    if (settled)
        settled();
}

// ---------------------------------------------------------------- //
// Anti-entropy repair and catch-up traversal
// ---------------------------------------------------------------- //

/**
 * One sweep (or rebalance catch-up) in flight: a cursor over the
 * traversed ring's segments plus a count of asynchronous repair
 * pushes still outstanding. The traversal walks segments in chunks
 * (yielding to the event loop between chunks -- repair is
 * maintenance, not serving), compares replica digests per segment,
 * and fires repairs fire-and-forget; completion runs only after
 * the cursor finished AND every repair completed.
 */
void
KvRouter::repairSweep(std::function<void()> done)
{
    if (sweepRunning_) {
        // A sweep or membership handoff is mid-flight: queue this
        // request and serve every queued caller with one fresh
        // full sweep once the current one completes. The
        // completion contract holds -- the caller's done still
        // fires only after a whole-ring pass that started at or
        // after the request.
        queuedSweeps_.push_back(std::move(done));
        return;
    }
    sweepRunning_ = true;
    auto state = std::make_shared<SweepState>();
    state->done = std::move(done);
    // Tombstones older than every in-flight write are stable on
    // digest-identical ranges: safe to drop everywhere at once.
    state->pruneBelow = nextStamp_ + 1;
    for (const auto &[id, op] : pending_) {
        (void)id;
        if (op.write && op.stamp < state->pruneBelow)
            state->pruneBelow = op.stamp;
    }
    sweepChunk(state);
}

void
KvRouter::sweepChunk(std::shared_ptr<SweepState> state)
{
    std::size_t total = sweepRing().size();
    unsigned budget = params_.repairChunk;
    while (budget-- > 0 && state->nextSeg < total &&
           state->outstanding < params_.repairChunk)
        sweepSegment(state, state->nextSeg++);
    if (state->nextSeg < total) {
        if (state->outstanding >= params_.repairChunk) {
            // In-flight cap reached: park the traversal until the
            // pushes drain. This is the throttle that keeps a bulk
            // catch-up (rebuild, join) from saturating the very
            // nodes still serving foreground reads.
            state->stalled = true;
            return;
        }
        // Yield between chunks: serving traffic interleaves.
        sim_.scheduleAfter(0, [this, state, alive = alive_]() {
            if (*alive)
                sweepChunk(state);
        });
        return;
    }
    state->traversalDone = true;
    sweepFinish(state);
}

void
KvRouter::sweepFinish(const std::shared_ptr<SweepState> &state)
{
    if (!state->traversalDone || state->outstanding != 0)
        return;
    if (rebalance_)
        finishRebalance();
    else
        repairSweeps_.inc();
    sweepRunning_ = false;
    if (state->done)
        state->done();
    // Whoever queued behind this sweep -- a ring change, or repair
    // requests that arrived mid-sweep -- runs now. (The done
    // callback above may itself have started a sweep; if so, THAT
    // sweep's finish drains the queues instead.)
    releaseExclusive();
}

void
KvRouter::sweepSegment(std::shared_ptr<SweepState> state,
                       std::size_t seg)
{
    // Every key hashing into segment seg -- the arc of sweepRing()
    // ending at point seg -- maps to the same replica set: its
    // owners on the current ring, joined during a handoff by the
    // next ring's (constant across the arc, by choice of the finer
    // ring). The newest-stamped state of every key in the arc ends
    // up on every member -- in particular on the next owners that
    // lack it.
    std::uint64_t ranges[2][2];
    unsigned nranges = segmentRanges(sweepRing(), seg, ranges);
    NodeId own[2 * maxReplication];
    unsigned count = unionOwners(ranges[0][0], own);
    if (count < 2)
        return; // unreplicated: nothing to reconcile

    // Reconcilable replicas only: a crashed or Dead copy can
    // neither answer digests nor take pushes. An incomplete
    // segment is still reconciled among the survivors, but it
    // keeps its divergence marks and prunes nothing -- the missing
    // replica may hold older state that only its tombstones can
    // kill, and only a sweep that sees the FULL set (after
    // rebuildNode) may declare the segment clean. A handoff's
    // catch-up never prunes or clears marks either: it copies.
    NodeId rec[2 * maxReplication];
    unsigned nrec = 0;
    for (unsigned i = 0; i < count; ++i) {
        MemberState ms = members_[own[i]].state;
        if (!members_[own[i]].crashed &&
            (ms == MemberState::Live ||
             ms == MemberState::Suspect ||
             ms == MemberState::Joining))
            rec[nrec++] = own[i];
    }
    bool complete = nrec == count && !rebalance_;
    if (nrec >= 2) {
        for (unsigned r = 0; r < nranges; ++r)
            sweepRange(state, rec, nrec, ranges[r][0],
                       ranges[r][1], complete);
    }
    if (!complete)
        return;

    // The full segment was compared (and any repairs are in
    // flight): keys here are no longer unaccountedly divergent. A
    // repair push that FAILS re-marks its key below.
    if (!divergent_.empty()) {
        for (auto it = divergent_.begin();
             it != divergent_.end();) {
            std::uint64_t h = mix64(*it);
            bool in_seg = false;
            for (unsigned r = 0; r < nranges; ++r)
                in_seg = in_seg || (h >= ranges[r][0] &&
                                    h <= ranges[r][1]);
            it = in_seg ? divergent_.erase(it) : std::next(it);
        }
    }
}

void
KvRouter::sweepRange(std::shared_ptr<SweepState> state,
                     const NodeId *own, unsigned count,
                     std::uint64_t lo, std::uint64_t hi,
                     bool may_prune)
{
    if (lo > hi)
        return;
    // The cheap pass: identical content folds to identical digests,
    // and consistent ranges (the overwhelming majority) cost no
    // enumeration and no flash I/O at all.
    std::uint64_t first = shards_[own[0]]->rangeDigest(lo, hi);
    bool mismatch = false;
    for (unsigned i = 1; i < count && !mismatch; ++i)
        mismatch = shards_[own[i]]->rangeDigest(lo, hi) != first;
    if (!mismatch) {
        // Digest-identical replicas hold identical tombstones, so
        // dropping the settled ones on every replica at once keeps
        // the digests equal and the repair index bounded. (Only
        // when every configured replica took part: see
        // sweepSegment.)
        if (may_prune) {
            for (unsigned i = 0; i < count; ++i)
                shards_[own[i]]->pruneTombstones(
                    lo, hi, state->pruneBelow);
        }
        return;
    }
    // Reconcile ALL replicas at once, not pairwise against the
    // primary: with R >= 3 the primary can itself be one of the
    // stale copies, and two equally-stale replicas must still be
    // pulled up to the newest-stamped state wherever it lives.
    struct Side
    {
        std::uint64_t stamp = 0;
        bool live = false;
        bool present = false;
        bool corrupt = false;
    };
    struct MergedKey
    {
        Key key = 0;
        Side sides[2 * maxReplication]; // a handoff's union
    };
    std::map<std::uint64_t, MergedKey> merged;
    for (unsigned i = 0; i < count; ++i) {
        std::vector<KvShard::RangeEntry> entries;
        shards_[own[i]]->rangeEntries(lo, hi, entries);
        for (const auto &e : entries) {
            MergedKey &m = merged[mix64(e.key)];
            m.key = e.key;
            m.sides[i] = Side{e.stamp, e.live, true, e.corrupt};
        }
    }
    for (auto &[hash, m] : merged) {
        (void)hash;
        // Newest-stamped INTACT side wins; absent counts as stamp
        // 0. A corrupt side is never the source -- its stamp says
        // what it USED to hold, but the bytes are gone, so pushing
        // from it would spread garbage (and its repairPut source
        // read would fail anyway).
        unsigned newest = count;
        for (unsigned i = 0; i < count; ++i) {
            if (m.sides[i].corrupt)
                continue;
            if (newest == count ||
                m.sides[i].stamp > m.sides[newest].stamp)
                newest = i;
        }
        if (newest == count || m.sides[newest].stamp == 0)
            continue; // every copy corrupt (or absent): unhealable
        for (unsigned i = 0; i < count; ++i) {
            if (i == newest)
                continue;
            // A corrupt replica NEVER "agrees", whatever its stamp:
            // equal-stamp rot is exactly the case the corrupt flag
            // exists to repair.
            if (m.sides[i].present && !m.sides[i].corrupt &&
                m.sides[i].stamp == m.sides[newest].stamp &&
                m.sides[i].live == m.sides[newest].live)
                continue; // this replica already agrees
            repairKey(state, m.key, own[newest], own[i],
                      m.sides[newest].stamp, m.sides[newest].live);
        }
    }
}

void
KvRouter::repairKey(std::shared_ptr<SweepState> state, Key key,
                    NodeId from, NodeId to, std::uint64_t stamp,
                    bool live)
{
    ++state->outstanding;
    bool moved = rebalance_ != nullptr;
    auto finish = [this, state, key, moved,
                   alive = alive_](KvStatus st) {
        if (!*alive)
            return;
        if (st != KvStatus::Ok && st != KvStatus::NotFound)
            // Push failed (unreadable source, shed append, ...):
            // still divergent. NotFound is repairDel finding the key
            // already absent -- the tombstone applied, so that copy
            // DID converge.
            divergent_.insert(key);
        else if (moved)
            movedKeys_.inc(); // rebalance copy (handoff traffic)
        else
            repairedKeys_.inc(); // reconciled (applied or caught up)
        --state->outstanding;
        if (state->stalled &&
            state->outstanding < params_.repairChunk) {
            state->stalled = false;
            sweepChunk(state);
            return;
        }
        sweepFinish(state);
    };
    if (!live) {
        shards_[to]->repairDel(key, stamp, std::move(finish));
        return;
    }
    // The source read rides Background with the push: recovery
    // traffic must never suspend a serving program or queue a
    // serving read behind it.
    shards_[from]->get(
        key,
        [this, key, to, alive = alive_,
         finish = std::move(finish)](PageBuffer v, KvStatus st,
                                     std::uint64_t read_stamp) mutable {
        if (!*alive)
            return;
        if (st != KvStatus::Ok) {
            // Source read failed; leave the key for the next sweep.
            finish(KvStatus::Error);
            return;
        }
        // Push under the stamp of the bytes read, as the read-path
        // heal does: a stored (stamp, bytes) pair must match on
        // every replica for a cached stamp to validate anywhere.
        shards_[to]->repairPut(key, std::move(v), read_stamp,
                               std::move(finish));
    },
        flash::Priority::Background);
}

void
KvRouter::finishGet(PendingOp fin)
{
    sim::Tick now = sim_.now();
    KvCache *cache = cacheFor(fin.origin);
    if (fin.status == KvStatus::Ok && fin.cachedStamp != 0 &&
        fin.stamp == fin.cachedStamp) {
        // "Not modified": the replica confirmed the stamp we sent.
        // Serve only if the entry still holds that stamp: a slower
        // get issued before a write may have refilled it with older
        // bytes while this validation was in flight.
        if (cache) {
            const KvCache::Entry *e = cache->lookup(fin.key);
            if (e && e->stamp == fin.stamp) {
                cacheServed_.inc();
                sim_.tracer().mark(fin.routeSpan, "cache.hit", now);
                sim_.tracer().endSpan(fin.routeSpan, now);
                fin.getDone(e->value, KvStatus::Ok);
                return;
            }
        }
        // Evicted or refilled meanwhile (rare): fetch again,
        // conditional on whatever the entry holds now. It repeats
        // only if the entry changes under every re-issue. The
        // re-issue opens a fresh route span under the original
        // parent.
        sim_.tracer().endSpan(fin.routeSpan, now);
        get(fin.origin, fin.key, std::move(fin.getDone), fin.trace);
        return;
    }
    if (fin.status == KvStatus::Ok) {
        if (fin.cachedStamp != 0) {
            cacheStale_.inc(); // self-detected: fresh value came back
            sim_.tracer().mark(fin.routeSpan, "cache.stale", now);
        }
        if (cache)
            cache->fill(fin.key, fin.stamp, fin.value);
    } else if (fin.status == KvStatus::NotFound && cache) {
        cache->invalidate(fin.key);
    }
    sim_.tracer().endSpan(fin.routeSpan, now);
    fin.getDone(std::move(fin.value), fin.status);
}

} // namespace kv
} // namespace bluedbm
