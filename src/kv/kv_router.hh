/**
 * @file
 * Key routing over the cluster: consistent hashing onto per-node
 * shards, replication, the shard request/response protocol over
 * the integrated storage network, the hot-key read path, and the
 * elastic-membership layer (failure detection, crash rebuild, ring
 * join/leave) that keeps the appliance serving through all of it.
 *
 * The router is what turns twenty independent flash nodes into one
 * key-value appliance (the paper's figure 17 RAMCloud scenario with
 * the roles reversed: instead of DRAM nodes that collapse when
 * storage gets involved, every node IS storage and the network is
 * the uniform-latency fabric of section 3.2). Keys map to owner
 * nodes through a ring of hashed virtual nodes; writes go to all R
 * replicas but complete to the client after W acks (quorum write,
 * default W=1 -- the put path runs at the speed of the fastest
 * replica's NAND, not the slowest's); reads go to one (read-one,
 * preferring a local replica so a well-placed client pays no
 * network hop at all). A per-key in-flight ledger keeps read-one
 * consistent while straggler replica writes drain in the
 * background, and an anti-entropy sweep (repairSweep) heals the
 * divergence a failed straggler leaves behind. kv_types.hh spells
 * out the full contract.
 *
 * Membership: every node is Live, Suspect, Dead, Joining or
 * Standby (kv_types.hh, MemberState). Detection is organic --
 * per-request timers, consecutive timeouts, a grace period -- and
 * routing reacts per state: reads fail over off suspects, writes
 * clamp their quorum past dead replicas, and recovery rides the
 * anti-entropy machinery at flash Priority::Background so serving
 * latency never queues behind it. One segment traversal serves
 * straggler repair, crash rebuild and both handoff directions.
 * Ring changes (joinNode/leaveNode) run a two-phase handoff:
 * dual-write to the union of old and new owners while that
 * traversal, walking the union's replica sets, copies history;
 * then an atomic ring flip.
 *
 * Hot-key read path: before a remote get leaves the origin node,
 * the router consults that node's KvCache. On a cached (value,
 * stamp) pair the get goes out conditional -- the replica answers
 * a stamp match with a header-only "not modified" and the cached
 * value is served locally, skipping the flash read AND the value
 * bytes on the wire. The value serves only if the entry still holds
 * the confirmed stamp when the reply lands: a slower get issued
 * before a write may have refilled it with older bytes meanwhile.
 * See kv_cache.hh for the coherence argument. A
 * stamp names one write on every replica, so steered reads,
 * failover retries and reads after a ring flip validate and fill
 * the cache like any other remote get.
 */

#ifndef BLUEDBM_KV_KV_ROUTER_HH
#define BLUEDBM_KV_KV_ROUTER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/cluster.hh"
#include "kv/kv_cache.hh"
#include "kv/kv_shard.hh"
#include "kv/kv_types.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace kv {

/**
 * Router / replication tuning. Ring points per node (64), shard log
 * stripes (5), the shard log's file name, read failover retries (1)
 * and the cache's admission threshold (KvCache::admitHits) are
 * constants: nothing varies them.
 */
struct KvParams
{
    /** Copies of every key. */
    unsigned replication = 2;
    /**
     * Replica acks required before a put/delete completes to the
     * client (1..replication). The remaining replica writes finish
     * in the background; a straggler that *fails* leaves divergence
     * for repairSweep() to heal. replication (W=R) restores strict
     * write-all acking. Clamps down to the addressable (non-Dead)
     * owner count when replicas have failed -- see kv_types.hh.
     */
    unsigned writeQuorum = 1;
    /** Ring segments reconciled per repair-sweep chunk before the
     * sweep yields to the event loop. */
    unsigned repairChunk = 64;
    /** Hot-key cache slots per node (0 disables the cache). */
    unsigned cacheSlots = 128;
    /**
     * Nodes initially in the hash ring (0 = every cluster node).
     * The remainder start Standby -- provisioned (shard, cache,
     * network agents) but owning no keys -- and enter service via
     * joinNode(). How a bench models cluster expansion without
     * rebuilding the cluster object.
     */
    unsigned activeNodes = 0;
    /**
     * @name Failure detection
     * Microsecond timeouts on remote shard requests. A request that
     * times out counts against its target (suspectAfter consecutive
     * timeouts -> Suspect; deadGraceUs more with no sign of life ->
     * Dead); any response, however late, is proof of life. Sizing:
     * comfortably above the serving tail (a spurious timeout is
     * benign -- the retry duplicates a read, divergence repair
     * covers a write -- but wasteful), well below the p99 budget a
     * crash is allowed to consume, since an affected read pays one
     * timeout before its failover retry. 0 disables the timer (and
     * with it detection and failover) for that operation class.
     */
    ///@{
    std::uint64_t readTimeoutUs = 2000;
    std::uint64_t writeTimeoutUs = 8000;
    /** Consecutive timeouts that turn a Live node Suspect. */
    unsigned suspectAfter = 3;
    /** Microseconds a Suspect node has to show life before it is
     * declared Dead (0 = never auto-declare Dead). */
    std::uint64_t deadGraceUs = 5000;
    ///@}
};

/**
 * Cluster-wide key-value routing layer. Owns one KvShard (and one
 * hot-key KvCache) per node and the network agents that serve
 * remote shard requests.
 */
class KvRouter
{
  public:
    /** Delivers a get result (value is empty unless status is Ok). */
    using GetDone =
        std::function<void(flash::PageBuffer, KvStatus)>;
    using AckDone = KvShard::AckDone;
    /** Values and statuses aligned with the requested key order. */
    using MultiGetDone =
        std::function<void(std::vector<flash::PageBuffer>,
                           std::vector<KvStatus>)>;

    /**
     * Build shards and install network agents on every node of
     * @p cluster. The cluster's network must have been built with
     * at least kvRequiredEndpoints endpoints.
     */
    KvRouter(sim::Simulator &sim, core::Cluster &cluster,
             const KvParams &params = KvParams{});

    /** Cancels every armed timer (per-request timeouts, membership
     * grace periods); in-flight operations are dropped without
     * completing -- safe mid-quorum-write. */
    ~KvRouter();

    /** Replication factor in use. */
    unsigned replication() const { return params_.replication; }

    /**
     * The R owner nodes of @p key on the CURRENT ring, primary
     * first. Deterministic: every node computes the same owners
     * with no directory service.
     */
    std::vector<net::NodeId> owners(Key key) const;

    /**
     * Replica @p origin reads @p key from (local when possible).
     * While a write of @p key is still draining to straggler
     * replicas, the in-flight ledger narrows the choice to replicas
     * known to have applied it, so a read after a quorum ack can
     * never observe the pre-write value. Failed replicas are routed
     * around: no Live owner leaves a Suspect one as last resort.
     */
    net::NodeId readReplica(net::NodeId origin, Key key) const;

    /**
     * Fetch @p key on behalf of a client attached to @p origin.
     *
     * @p trace (here and on put/del/multiGet; sim::Tracer handle,
     * 0 = untraced) parents a "route" span covering the whole
     * routed operation, under which the network hops (net.req /
     * net.resp), the serving shard (shard.get / shard.put /
     * shard.del, with the flash spans inside) and retry/timeout
     * marks hang. See docs/observability.md for the taxonomy.
     */
    void get(net::NodeId origin, Key key, GetDone done,
             std::uint64_t trace = 0);

    /** Fires when a write finished on EVERY replica (after the
     * quorum ack); see put(). */
    using SettledDone = std::function<void()>;

    /**
     * Store @p key on all replicas; @p done acks the client after
     * writeQuorum of them landed (kv_types.hh has the contract).
     * @p settled (optional) fires once every replica completed --
     * the hook admission control uses to keep the op's straggler
     * work charged against the client's window: acking early must
     * not let a closed-loop client pump extra concurrency into
     * flash that is still digesting its durability debt, or the
     * quorum win turns into a saturation loss.
     */
    void put(net::NodeId origin, Key key, flash::PageBuffer value,
             AckDone done, SettledDone settled = nullptr,
             std::uint64_t trace = 0);

    /** Delete @p key on all replicas (same quorum ack / settled
     * split as put). */
    void del(net::NodeId origin, Key key, AckDone done,
             SettledDone settled = nullptr,
             std::uint64_t trace = 0);

    /**
     * One full anti-entropy sweep over the hash ring: for every
     * ring segment (whose keys share one replica set), compare the
     * replicas' range digests; on a mismatch, enumerate the range
     * and push each differing key's newer-stamped state across
     * (repairPut/repairDel on the stale shard). Runs chunked so it
     * yields to the event loop, and repair I/O rides flash
     * Priority::Background; @p done fires after every segment was
     * compared and every pushed repair completed. Afterwards
     * divergentWrites() is zero -- every key the sweep visited is
     * either reconciled or was already consistent -- PROVIDED every
     * replica was reconcilable: segments with a crashed or Dead
     * replica are compared among the remaining ones but keep their
     * divergence marks until a sweep sees the full set again
     * (i.e. after rebuildNode readmits the missing replica).
     *
     * Sweeps never overlap: a call that lands while one is running
     * (another caller's sweep, or a rebuild's) queues, and one
     * fresh full pass serves every queued caller after the current
     * sweep completes. Ring changes (joinNode/leaveNode)
     * serialize with sweeps the same way.
     */
    void repairSweep(std::function<void()> done);

    /** Fetch several keys concurrently (read-one per key); each
     * key's route span hangs under @p trace. */
    void multiGet(net::NodeId origin, std::vector<Key> keys,
                  MultiGetDone done, std::uint64_t trace = 0);

    /**
     * @name Elastic membership
     * Crash, rebuild, join and leave -- the kv_types.hh membership
     * contract's verbs. All of them keep the cluster serving: the
     * only global barrier anywhere is the atomic ring flip at the
     * end of a join/leave handoff.
     */
    ///@{

    /** Membership state of node @p n as the router sees it. */
    MemberState member(net::NodeId n) const;

    /** Nodes currently Live. */
    unsigned liveNodes() const;

    /**
     * Fail-stop crash of node @p n (fault injection): from now the
     * node drops every arriving shard request and response, so
     * peers experience silence and the ordinary timeout path marks
     * it Suspect, then Dead. Operations ORIGINATED at @p n complete
     * with Error immediately -- their clients died with the node
     * (pause the node's workload clients first; see
     * WorkloadEngine::pauseNode). Detection is deliberately NOT
     * short-circuited: routing keeps addressing the node until
     * timeouts prove it gone, exactly as with a real crash.
     */
    void killNode(net::NodeId n);

    /**
     * Readmit crashed node @p n as Joining: it receives writes
     * again (so it stops falling further behind) but serves no
     * reads until rebuildNode() caught it up. Requires a preceding
     * killNode (the simulation's stand-in for process restart).
     */
    void reviveNode(net::NodeId n);

    /**
     * Stream Joining node @p n back to currency: one anti-entropy
     * sweep with @p n reconcilable again, pushing every key it
     * missed (newest-stamp-wins) at Priority::Background. When the
     * sweep completes the node returns to Live, divergentWrites()
     * has drained, and @p done fires.
     */
    void rebuildNode(net::NodeId n, std::function<void()> done);

    /**
     * Two-phase ring expansion onto Standby node @p n: dual-write
     * (union of current and next owners; next-only owners excluded
     * from the quorum) plus a Background catch-up sweep copying
     * @p n's future key ranges onto it, then an atomic ring flip --
     * epoch bump, @p n Live. @p done fires after
     * the flip. Serving continues throughout; reads address the old
     * owners until the flip.
     */
    void joinNode(net::NodeId n, std::function<void()> done);

    /**
     * Two-phase ring drain of Live node @p n (the reverse of
     * joinNode): dual-write to the union ring while the catch-up
     * sweep copies @p n's ranges to their next owners, then the
     * flip makes @p n Standby. Its shard keeps its (now unowned)
     * data; a later joinNode would reconcile it afresh.
     */
    void leaveNode(net::NodeId n, std::function<void()> done);

    /** Ring flips so far. */
    std::uint64_t ringEpoch() const { return ringEpoch_; }

    ///@}

    /** Node @p n's shard (stats / tests). */
    KvShard &shard(net::NodeId n) { return *shards_.at(n); }

    /** Node @p n's hot-key cache; null when disabled. */
    KvCache *cache(net::NodeId n) { return caches_.at(n).get(); }

    /** @name Statistics
     *
     * Registry-backed (`kv.router.*`); the accessors are thin
     * reads kept for existing callers.
     */
    ///@{
    /** Operations whose shard was on the requesting node. */
    std::uint64_t localOps() const { return localOps_.value(); }
    /** Shard requests that crossed the network. */
    std::uint64_t remoteOps() const { return remoteOps_.value(); }
    /** Remote gets served from the origin's cache after a
     * header-only stamp validation (no flash read, no value
     * bytes on the wire). */
    std::uint64_t cacheServedGets() const { return cacheServed_.value(); }
    /** Conditional gets whose cached stamp had gone stale (the
     * fresh value came back instead -- the self-detect path). */
    std::uint64_t cacheStaleGets() const { return cacheStale_.value(); }
    /** Keys CURRENTLY divergent: a write applied on some replicas
     * and failed (or was skipped / timed out) on at least one, and
     * no repair sweep has reconciled the key since (see
     * kv_types.hh). Drains to zero after repairSweep() once every
     * replica is reconcilable. */
    std::uint64_t divergentWrites() const { return divergent_.size(); }
    /** Writes completed to the client that still have straggler
     * replica writes outstanding, right now. */
    unsigned backgroundWrites() const { return backgroundWrites_; }
    /** High-water mark of backgroundWrites(): the repair lag --
     * the most client-acked puts ever simultaneously outstanding
     * on straggler replicas. */
    unsigned maxBackgroundWrites() const { return maxBackgroundWrites_; }
    /** Repair pushes that completed without error: the target
     * either applied the newer state or had already caught up by
     * itself (KvShard::repairsApplied() counts actual mutations).
     * A failed push is not counted -- its key goes back on the
     * divergent list for the next sweep. */
    std::uint64_t repairedKeys() const { return repairedKeys_.value(); }
    /** Completed anti-entropy sweeps. */
    std::uint64_t repairSweeps() const { return repairSweeps_.value(); }
    /** Remote reads that timed out (including spurious ones whose
     * response later arrived -- see lateResponses). */
    std::uint64_t readTimeouts() const { return readTimeouts_.value(); }
    /** Replica writes timed out and completed as failed. */
    std::uint64_t writeTimeouts() const { return writeTimeouts_.value(); }
    /** Reads re-sent to another replica after a timeout/error. */
    std::uint64_t retriedReads() const { return retriedReads_.value(); }
    /** Writes acked under a clamped quorum (>= 1 owner skipped as
     * Dead): durable on fewer than the configured W replicas. */
    std::uint64_t degradedWrites() const { return degradedWrites_.value(); }
    /** Responses for already-retired requests (a timeout fired
     * first, or the origin died). Dropped -- but counted as proof
     * of life for the sender. */
    std::uint64_t lateResponses() const { return lateResponses_.value(); }
    /** Live -> Suspect transitions. */
    std::uint64_t suspectTransitions() const { return suspectTransitions_.value(); }
    /** Suspect -> Dead transitions (grace expiries). */
    std::uint64_t deadTransitions() const { return deadTransitions_.value(); }
    /** Keys copied by join/leave catch-up sweeps (rebalance
     * traffic; rebuild and straggler repair count repairedKeys). */
    std::uint64_t movedKeys() const { return movedKeys_.value(); }
    /** Local reads that hit an unreadable (uncorrectable) durable
     * copy on the origin's own shard. Each one fails over to a
     * healthy replica for the client AND pushes the surviving copy
     * back into the corrupt shard (stamp-guarded repairPut), so
     * aged-flash data loss heals on the read path instead of
     * waiting for the next anti-entropy sweep. */
    std::uint64_t localCorruptions() const { return localCorruption_.value(); }
    ///@}

    /** Upper bound on R, so read routing can use a stack buffer. */
    static constexpr unsigned maxReplication = 8;

  private:
    /** Hash ring: (point, node), sorted by point. */
    using Ring = std::vector<std::pair<std::uint64_t, net::NodeId>>;

    /** Owner set of hash point @p h on @p ring: the first @p max
     * distinct nodes walking the ring from h. Shared by key-owner
     * lookup and the sweep's per-segment replica sets, so both
     * always agree on what the replica set of a ring arc is. */
    static unsigned ownersForHash(const Ring &ring, std::uint64_t h,
                                  net::NodeId *out, unsigned max);
    /** Replica set of hash point @p h: its owners on the current
     * ring, then, while a join/leave handoff runs, the owners only
     * the next ring has. Fills up to 2 * maxReplication nodes;
     * returns the total and sets *@p current (when given) to the
     * current-ring count. */
    unsigned unionOwners(std::uint64_t h, net::NodeId *out,
                         unsigned *current = nullptr) const;
    /** Hash range(s) of @p ring's segment @p seg (the arc ending at
     * point seg; segment 0 also owns the wrap-around arc). Fills
     * inclusive [lo, hi] pairs; returns how many (1 or 2). */
    static unsigned segmentRanges(const Ring &ring, std::size_t seg,
                                  std::uint64_t ranges[2][2]);

    unsigned ownersInto(Key key, net::NodeId *out,
                        unsigned max) const;

    /** One node's membership record. */
    struct Member
    {
        MemberState state = MemberState::Live;
        /** Consecutive request timeouts (any response resets). */
        unsigned consecTimeouts = 0;
        /** Pending Suspect -> Dead grace expiry. */
        sim::EventId graceTimer = sim::invalidEventId;
        /** killNode() called (and no reviveNode since): the node
         * drops traffic. Routing NEVER consults this -- detection
         * must run the organic timeout path. */
        bool crashed = false;
    };

    struct PendingOp
    {
        /** Replicas addressed, in send order: for writes the
         * quorum-eligible owners first, then any dual-write aux
         * targets; for reads the initial target plus one slot per
         * failover retry. */
        net::NodeId sent[2 * maxReplication] = {};
        std::uint16_t respondedMask = 0; //!< sent[] slots answered
        std::uint8_t sentCount = 0;
        /** Writes: sent[0..eligible) count toward the quorum; the
         * rest are aux (catch-up) targets whose outcome only feeds
         * the divergence set. */
        std::uint8_t eligible = 0;
        std::uint8_t attempts = 0;   //!< reads: targets tried
        unsigned remaining = 0;      //!< outstanding replica acks
        unsigned failed = 0;         //!< eligible replicas failed
        unsigned okAcks = 0;         //!< eligible replicas acked Ok
        unsigned quorum = 1;         //!< acks that complete the client
        std::uint8_t ackedMask = 0;  //!< owner-index bits that acked Ok
        bool write = false;          //!< put/delete (vs get)
        bool clientAcked = false;    //!< client callback already fired
        KvStatus status = KvStatus::Ok;
        GetDone getDone;             //!< set for gets
        AckDone ackDone;             //!< set for puts/deletes
        SettledDone settled;         //!< all-replica completion hook
        flash::PageBuffer value;     //!< get result
        Key key = 0;
        net::NodeId origin = 0;
        /** Gets: stamp of the cached copy sent for validation
         * (0 = unconditional). */
        std::uint64_t cachedStamp = 0;
        /** Writes: the write's stamp; gets: the result's stamp. */
        std::uint64_t stamp = 0;
        /** Caller's trace handle (parent of routeSpan; 0 =
         * untraced). Kept so a cache-miss re-issue can open a
         * fresh route span at the right level. */
        std::uint64_t trace = 0;
        /** The op's "route" span (0 = untraced or already ended:
         * a write ends it at the client ack, not at settlement). */
        std::uint64_t routeSpan = 0;
        /** Tick of the latest network send: per-response network
         * time is (arrival - sentTick) - KvResponse::serviceTicks
         * (always-on kv.stage.net attribution, no tracer needed). */
        sim::Tick sentTick = 0;
        /** Pending timeout expiry (invalidEventId = none). */
        sim::EventId timer = sim::invalidEventId;
    };

    /**
     * Per-key in-flight write ledger, the read-your-writes guard
     * under W < R. The obligation is narrow and the tracking must
     * be exactly as narrow: a session (node-homed) that received an
     * Ok for its write may not subsequently read the pre-write
     * value off a replica the write has not reached yet. So the
     * ledger steers ONLY reads from an origin with a client-acked
     * write still draining, and steers them ONLY to replicas that
     * acked that specific op (acked = durable = applied; per-link
     * FIFO means a replica that acked the origin's latest op also
     * applied its earlier ones). Anything coarser -- steering every
     * origin, or keying on "some write of this key is outstanding"
     * -- funnels a hot Zipfian key's entire read load onto one
     * replica (hot keys ALWAYS have a write outstanding) and
     * resurrects the hot-shard tail that read spreading kills.
     * Non-writing origins keep the plain deterministic spread; what
     * they may transiently observe is unchanged from write-all, and
     * a failed straggler is healed by repair either way.
     */
    struct InflightWrite
    {
        unsigned ops = 0; //!< outstanding write operations
        unsigned ownerCount = 0;
        net::NodeId owners[maxReplication] = {};
        /** Per writing origin: the latest client-acked op still
         * draining (opId 0 = none) and the owner-index bitmask of
         * replicas that acked it. One slot per distinct origin with
         * writes in flight (bounded by the cluster size; drained
         * slots are reused) -- the guarantee must hold for EVERY
         * writer, so there is deliberately no lossy overflow path:
         * an approximate fallback mask could steer a writer to a
         * replica that acked someone else's older op but not its
         * own. */
        struct Writer
        {
            net::NodeId origin = 0;
            unsigned ops = 0;          //!< outstanding write ops
            std::uint64_t ackedOp = 0; //!< latest client-acked op
            std::uint8_t ackedMask = 0;
        };
        std::vector<Writer> writers;
    };

    /** One join/leave handoff in flight (phase 1: dual-write +
     * catch-up traversal; finishRebalance() is phase 2, the flip).
     * ring_ stays the old ring until the flip. */
    struct Rebalance
    {
        Ring newRing; //!< the ring installed at the flip
        /** Whichever ring has MORE points (new for a join, ring_
         * for a leave): its points are a superset of the other's,
         * so its segments have constant owner sets under BOTH
         * rings -- the granularity the catch-up traversal walks. */
        const Ring *finer = nullptr;
        net::NodeId node = 0;
        bool joining = false;
    };

    KvCache *cacheFor(net::NodeId n) { return caches_[n].get(); }

    /** The plain deterministic read choice among @p own: the
     * origin when it holds a replica, else the origin-keyed spread.
     * Liveness-blind; routeRead() fails over from it. */
    static net::NodeId plainRead(net::NodeId origin,
                                 const net::NodeId *own,
                                 unsigned count);
    /** Ledger constraint on @p origin's read of @p key: true (and
     * *out set) when an outstanding client-acked write obliges the
     * read to hit a specific replica. */
    [[nodiscard]] bool steerTarget(net::NodeId origin, Key key,
                     net::NodeId *out) const;
    /** Read routing, in priority order: the ledger steer, the plain
     * pick while it is local or Live, then failover(). False (with
     * *out the plain pick) when no owner is readable. */
    [[nodiscard]] bool routeRead(net::NodeId origin, Key key,
                                 net::NodeId *out) const;
    /** Failover scan of @p own from index @p start: a Live owner
     * first, a Suspect one as last resort, never @p origin (local
     * ops have no timeout machinery) nor a node in @p tried (the
     * already-attempted sent[] prefix). */
    [[nodiscard]] bool failover(const net::NodeId *own,
                                unsigned count, unsigned start,
                                net::NodeId origin,
                                const net::NodeId *tried,
                                unsigned ntried,
                                net::NodeId *out) const;
    /** A readable replica for a read retry: failover() from the
     * primary. */
    [[nodiscard]] bool pickRetryTarget(Key key, net::NodeId origin,
                         const net::NodeId *tried, unsigned ntried,
                         net::NodeId *out) const;

    void installAgents();
    /** Serve one shard request arriving at (or issued on) @p node. */
    void serveLocal(net::NodeId node, KvRequest req,
                    std::function<void(KvResponse)> reply);
    /** Shared body of put()/del(). */
    void issueWrite(net::NodeId origin, Key key, KvOp kvop,
                    flash::PageBuffer value, AckDone done,
                    SettledDone settled, std::uint64_t trace);
    /** One replica (or the get replica) finished; @p from is the
     * node that served it (ledger bookkeeping for writes).
     * @p timed_out marks a synthesized completion from the op's
     * timeout timer rather than a real response. @p service_ticks
     * is KvResponse::serviceTicks for a remote response (feeds the
     * kv.stage.net / kv.stage.shard histograms); local completions
     * record their stages at the call site and pass 0. */
    void completeOne(std::uint64_t req_id, KvStatus st,
                     flash::PageBuffer value, std::uint64_t stamp,
                     net::NodeId from, bool timed_out = false,
                     sim::Tick service_ticks = 0);
    /** Send get op @p id (@p op) to replica @p to: its first
     * attempt or a failover retry. Arms the read timer. */
    void sendGet(std::uint64_t id, PendingOp &op, net::NodeId to);
    /** Arm (or re-arm) op @p id's timeout timer for @p us. */
    void armOpTimer(std::uint64_t id, std::uint64_t us);
    /** Origin's local read of @p key hit a corrupt durable copy:
     * serve the client from replica @p from and push the surviving
     * copy back into the origin's shard (see localCorruptions()). */
    void healLocalGet(net::NodeId origin, net::NodeId from, Key key,
                      std::uint64_t route, GetDone done);
    /** Finish a get: cache bookkeeping + the user callback. */
    void finishGet(PendingOp fin);
    /** Open (or join) the key's ledger entry for one write op. */
    void ledgerOpen(Key key, net::NodeId origin,
                    const net::NodeId *own, unsigned count);
    /** Op @p op_id of @p key was acked Ok by owner-index @p idx
     * after the client already completed: extend its steer mask. */
    void ledgerLateAck(Key key, net::NodeId origin,
                       std::uint64_t op_id, unsigned idx);
    /** Op @p op_id (origin @p origin) completed to the client with
     * Ok while replicas are still draining: arm the steer. */
    void ledgerClientAcked(Key key, net::NodeId origin,
                           std::uint64_t op_id,
                           std::uint8_t acked_mask);
    /** One write op of @p key (issued by @p origin) fully
     * completed on every replica. */
    void ledgerOpDone(Key key, net::NodeId origin,
                      std::uint64_t op_id);

    /** @name Failure detection */
    ///@{
    /** Node @p n timed out one request. */
    void noteTimeout(net::NodeId n);
    /** Node @p n produced a response (possibly late): proof of
     * life. Resets the timeout streak; recovers Suspect to Live.
     * Dead stays Dead -- it missed writes, only a rebuild
     * readmits it. */
    void noteAlive(net::NodeId n);
    ///@}

    struct SweepState; //!< one repairSweep / catch-up in flight

    /** Run @p fn now, or after the in-flight sweep/handoff (ring
     * changes and sweeps are mutually exclusive). */
    void startExclusive(std::function<void()> fn);
    /** Phase 1 of a join/leave: install dual-write state and start
     * the catch-up traversal. */
    void beginRebalance(net::NodeId n, bool joining,
                        std::function<void()> done);
    /** Phase 2: flip the ring and settle the member's state. */
    void finishRebalance();
    /** Hand the sweep/handoff lock to whoever queued for it. */
    void releaseExclusive();

    /** The ring a sweep walks: the finer ring during a handoff. */
    const Ring &sweepRing() const
    {
        return rebalance_ ? *rebalance_->finer : ring_;
    }
    /** Reconcile the next chunk of ring segments, then yield. */
    void sweepChunk(std::shared_ptr<SweepState> state);
    /** Complete the sweep (or the handoff's flip) when traversal
     * and repairs are done, then release the lock. */
    void sweepFinish(const std::shared_ptr<SweepState> &state);
    /** Compare + repair one segment of sweepRing() (its [lo,hi]
     * range(s) share one replica set, unionOwners()). Repair,
     * rebuild, join and leave all run on this. */
    void sweepSegment(std::shared_ptr<SweepState> state,
                      std::size_t seg);
    /** Reconcile one (lo,hi) hash range across ALL of the
     * segment's replicas at once (pairwise-vs-primary would miss a
     * divergence between two non-primary replicas at R >= 3). */
    void sweepRange(std::shared_ptr<SweepState> state,
                    const net::NodeId *own, unsigned count,
                    std::uint64_t lo, std::uint64_t hi,
                    bool may_prune);
    /** Push @p key's newer side from @p from to @p to: a tombstone
     * at @p stamp, or the bytes read off @p from under the stamp
     * that read returned. */
    void repairKey(std::shared_ptr<SweepState> state, Key key,
                   net::NodeId from, net::NodeId to,
                   std::uint64_t stamp, bool live);

    sim::Simulator &sim_;
    core::Cluster &cluster_;
    KvParams params_;

    Ring ring_;
    std::vector<std::unique_ptr<KvShard>> shards_;
    std::vector<std::unique_ptr<KvCache>> caches_;
    std::vector<Member> members_;
    /** Ring flips so far (see ringEpoch()). */
    std::uint64_t ringEpoch_ = 0;
    /** In-flight join/leave handoff (dual-write phase). */
    std::unique_ptr<Rebalance> rebalance_;
    /** Ring changes waiting for the running sweep/handoff. */
    std::vector<std::function<void()>> pendingExclusive_;

    std::uint64_t nextReqId_ = 1;
    /** Cluster-wide write stamp source (anti-entropy ordering). */
    std::uint64_t nextStamp_ = 0;
    std::unordered_map<std::uint64_t, PendingOp> pending_;
    std::unordered_map<Key, InflightWrite> inflightWrites_;
    /** Keys with observed divergence awaiting a repair sweep. */
    std::unordered_set<Key> divergent_;
    bool sweepRunning_ = false;
    /** Callbacks of repairSweep() calls that arrived mid-sweep; a
     * follow-up full pass serves them all. */
    std::vector<std::function<void()>> queuedSweeps_;
    /**
     * Liveness flag captured by detached continuations (sweep
     * chunk yields, repair-push completions, network agents, op
     * timers). The router may be torn down with a sweep or a
     * replica write still in flight; the destructor flips this and
     * a continuation firing afterwards returns without touching the
     * dead router.
     */
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

    /** Live background-write count / high-water mark: both move
     * down (or are maxima), so they stay plain members exposed as
     * kv.router.* gauges rather than monotone registry counters. */
    unsigned backgroundWrites_ = 0;
    unsigned maxBackgroundWrites_ = 0;

    // Registry-backed statistics (kv.router.*; the accessors above
    // are thin reads). The router is one-per-cluster, so these
    // carry no "inst" label.
    sim::Counter &localOps_;
    sim::Counter &remoteOps_;
    sim::Counter &cacheServed_;
    sim::Counter &cacheStale_;
    sim::Counter &repairedKeys_;
    sim::Counter &repairSweeps_;
    sim::Counter &readTimeouts_;
    sim::Counter &writeTimeouts_;
    sim::Counter &retriedReads_;
    sim::Counter &failedReads_;
    sim::Counter &degradedWrites_;
    sim::Counter &lateResponses_;
    sim::Counter &suspectTransitions_;
    sim::Counter &deadTransitions_;
    sim::Counter &movedKeys_;
    sim::Counter &localCorruption_;
    /** Always-on per-stage latency attribution (ticks, one sample
     * per response): kv.stage.shard is the serving side's
     * request-arrival-to-reply time, kv.stage.net the remainder of
     * the round trip (local completions record shard time directly
     * and 0 network). Cluster-wide cells shared with KvService's
     * kv.stage.admission -- see docs/observability.md. */
    sim::LatencyHistogram &stageNet_;
    sim::LatencyHistogram &stageShard_;
};

} // namespace kv
} // namespace bluedbm

#endif // BLUEDBM_KV_KV_ROUTER_HH
