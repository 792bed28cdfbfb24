/**
 * @file
 * Shared types of the sharded key-value service.
 *
 * The KV layer is the serving scenario of the paper's figure 17: a
 * RAMCloud-style low-latency store whose working set does NOT fit in
 * DRAM. Instead of a DRAM cluster that falls off a cliff when even
 * 5-10% of accesses miss to storage, BlueDBM keeps *all* values in
 * the cluster-wide flash address space and serves them at
 * near-uniform latency over the integrated storage network. These
 * types define the wire protocol that rides net::Message payloads
 * between the requesting node and the owning shards.
 */

#ifndef BLUEDBM_KV_KV_TYPES_HH
#define BLUEDBM_KV_KV_TYPES_HH

#include <cstdint>

#include "flash/types.hh"
#include "net/message.hh"
#include "net/payload.hh"

namespace bluedbm {
namespace kv {

/** Application key: a 64-bit identifier (hashes spread it anyway). */
using Key = std::uint64_t;

/**
 * Endpoint assignment of the KV service. Endpoints 1..7 belong to
 * the core remote-read protocol (core/messages.hh); the KV service
 * claims two more, so clusters hosting it must be built with
 * network endpoints >= kvRequiredEndpoints.
 */
enum : net::EndpointId
{
    epKvService = 8, //!< shard requests (get/put/delete)
    epKvData = 9,    //!< responses back to the requesting node
};

/** Network endpoints a KV-serving cluster needs. */
constexpr unsigned kvRequiredEndpoints = 10;

/**
 * Completion status of a KV operation.
 *
 * Replication / failure contract (quorum write, read-one):
 *  - A put or delete acks Ok to the client once W of its R replicas
 *    report the operation durable (W = KvParams::writeQuorum,
 *    default 1 -- the first replica to program its NAND completes
 *    the client). The remaining replica writes finish in the
 *    background. W = R restores the old write-all behavior: Ok
 *    means every copy landed.
 *  - What W < R guarantees: the acked value is durable on at least
 *    W replicas, and read-your-writes holds throughout. While any
 *    replica write is still outstanding, the router's per-key
 *    in-flight ledger steers read-one to a replica known to have
 *    applied the write (an acked replica, or the origin's own
 *    shard, whose memtable applied it synchronously) -- a reader
 *    can never observe the pre-write value after the client's ack,
 *    even though a straggler replica still holds it.
 *  - What W < R opens, and repair closes: a straggler program that
 *    FAILS after the client was acked leaves the replicas
 *    divergent -- the failed replica rolled back to its last
 *    durable version, the acked ones hold the new value. The
 *    router records the key (KvRouter::divergentWrites() counts
 *    keys currently divergent) and the anti-entropy sweep
 *    (KvRouter::repairSweep()) closes the window: shards expose
 *    cheap per-key-range stamp digests, the sweep compares them
 *    between replicas of each ring segment and re-pushes the
 *    newer-stamped version, after which divergentWrites() drains
 *    to zero. The same machinery heals a quorum-failed write-all
 *    (W = R with a partial failure, acked Error).
 *  - What a reader may observe mid-repair: for a key inside the
 *    divergence window, read-one returns the new value from an
 *    acked replica or the rolled-back value from the failed one,
 *    depending on which replica the (deterministic, origin-keyed)
 *    routing picks once the in-flight ledger entry retired -- but
 *    never garbage, and never a mix. After the sweep visits the
 *    key's range, every replica serves the newer version.
 *  - A failed append is never served as Ok with bytes that did not
 *    reach flash: the shard's index only ever points at durable log
 *    records (in-flight values are served from the memtable, which
 *    the failure path discards).
 *
 * Membership / elasticity contract (see MemberState and the
 * KvRouter membership API):
 *  - Every ring member is Live, Suspect, Dead or Joining; nodes
 *    outside the ring (pre-join, post-leave) are Standby. Failure
 *    detection is timeout-driven: remote requests carry per-request
 *    timers (KvParams::readTimeoutUs / writeTimeoutUs); a node that
 *    times out KvParams::suspectAfter consecutive times becomes
 *    Suspect, and a Suspect node that produces no response for
 *    KvParams::deadGraceUs becomes Dead. Any response -- even a
 *    late one for an already-retired request -- is proof of life
 *    and returns a Suspect node to Live. A Dead node never returns
 *    on its own: it missed writes while it was skipped, so only an
 *    explicit rebuild (reviveNode + rebuildNode, or the kill path's
 *    equivalent) may readmit it, Joining until caught up.
 *  - What clients observe per state. Reads never target Suspect,
 *    Dead or Joining replicas while a Live one exists (Suspect is
 *    the last resort before failing); a read that times out retries
 *    another readable replica (one failover retry per read), so a
 *    single crash costs affected reads one timeout + one retry,
 *    not an error. Writes still address Suspect replicas
 *    (they may merely be slow) but skip Dead ones entirely: the
 *    write quorum W clamps to the live+suspect+joining owner count,
 *    the skipped replica's key is marked divergent immediately, and
 *    the degradedWrites counter records the exposure (an Ok under
 *    clamp means durable on fewer than W configured replicas). A
 *    write with NO addressable owner fails with Error. A write that
 *    times out on a straggler completes as if that replica failed
 *    (divergence recorded, repair owns it); the straggler's late
 *    ack is dropped.
 *  - Crash + rebuild: killNode() models a fail-stop crash (the node
 *    drops all requests and responses; in-flight operations
 *    ORIGINATED there complete with Error -- their clients died
 *    with the node). Detection then runs the ordinary timeout
 *    path. reviveNode() readmits the node as Joining -- written
 *    again, not yet read -- and rebuildNode() streams it back to
 *    currency with the anti-entropy machinery (stamp digests,
 *    newest-stamp-wins pushes) at flash Priority::Background, so
 *    serving reads never queue behind recovery I/O. When the sweep
 *    completes the node returns to Live and divergentWrites()
 *    drains to zero.
 *  - Join / leave (two-phase handoff): joinNode()/leaveNode()
 *    compute the next ring, then (phase 1) dual-write -- every
 *    write addresses the union of current and next owners, with
 *    next-only owners excluded from the quorum -- while a
 *    Background catch-up sweep walks the union ring's segments and
 *    pushes each key's newest-stamped state to its next owners.
 *    Phase 2 flips the ring atomically (ring epoch bumps) and the
 *    node becomes Live (join) or Standby (leave). Hot-key caches
 *    keep their entries across the flip: a cached stamp names the
 *    same write at the new owner, whose catch-up copied it.
 *    In-flight operations drain against the owner set they were
 *    issued with; reads keep hitting the old owners -- who keep
 *    their data -- until the flip, so serving continues throughout.
 *    What a non-writing client may transiently observe right after
 *    the flip is the same class of window W < R already opens (a
 *    new owner an in-flight dual-write has not reached yet);
 *    writing clients stay read-your-writes via the in-flight
 *    ledger, which outlives the flip for ops opened before it.
 *  - Overload under membership churn: Overloaded rejections carry a
 *    retry-after hint (KvService::retryAfterUs) sized to the
 *    client's queue backlog; well-behaved closed-loop clients back
 *    off (jittered) instead of hammering a service that is
 *    absorbing failover or rebalance load.
 *
 * Aged-flash contract (wear, corruption, capacity -- docs/aging.md
 * spells out the full ladder):
 *  - Bit errors climb with block wear. A page read whose SECDED
 *    decode fails is re-sensed by the flash server (bounded by
 *    FlashServer::setReadRetries); a read that stays
 *    uncorrectable poisons the page in the file system and
 *    surfaces to the shard as a storage Error. The shard marks the
 *    key's index entry corrupt, and the router heals it from the
 *    other replica: on the read
 *    path (a fresh copy is fetched, re-put under the stamp that
 *    read returned through the stamp-guarded repair path, and
 *    served) and in the
 *    anti-entropy sweep (corrupt entries are folded into the range
 *    digests, so divergence drains to zero even when both sides
 *    hold the same stamp). Clients observe at most one slow read
 *    (heal-then-retry), never garbage bytes served as Ok.
 *  - Pressure is a first-class status: when a shard's log device
 *    falls at or below its free-block red-line
 *    (fs::LogFs::pressureLowWater), puts and deletes return
 *    Pressure instead of consuming the last reserve blocks the
 *    cleaner needs. KvService maps Pressure to an Overloaded
 *    rejection with the same retry-after hint as admission
 *    overload, so closed-loop clients back off (jittered) while
 *    the cleaner -- escalated to bounded foreground assists --
 *    recovers the reserve. Reads are never shed for capacity:
 *    serving gets proceed normally under pressure.
 *
 * Flash traffic classes (see flash::Priority and flash::Timing's
 * suspend-resume contract): every KV operation maps onto one of
 * two NAND priority classes. Serving traffic -- client gets and
 * the log appends behind client puts -- rides Priority::Read, so a
 * get's page read may SUSPEND an in-flight NAND program or erase
 * (bounded by Timing::maxSuspendsPerOp) instead of waiting the
 * full array time behind it; this is what decouples the read tail
 * from write load. Maintenance traffic -- anti-entropy repair
 * pushes (KvRouter::repairSweep) and the file system's segment
 * cleaning underneath -- rides Priority::Background: it never
 * suspends anything and is accounted separately at the array, so
 * repair can run during serving without stealing read latency or
 * blurring the load attribution.
 */
enum class KvStatus : std::uint8_t
{
    Ok,         //!< success; value (if any) is valid
    NotFound,   //!< no live version of the key
    Overloaded, //!< rejected at admission (client queue full)
    Error,      //!< storage error underneath
    /** Write shed at the shard: the log device is at its capacity
     * red-line and the write would consume reserve blocks the
     * cleaner needs. Retryable -- KvService maps it to an
     * Overloaded rejection with a retry-after hint. */
    Pressure,
};

/** Operations of the shard protocol. */
enum class KvOp : std::uint8_t { Get, Put, Delete };

/**
 * Membership state of one node, as the router sees it (the file
 * comment's membership contract spells out the transitions and what
 * clients observe in each state).
 */
enum class MemberState : std::uint8_t
{
    Live,    //!< in the ring, serving reads and writes
    Suspect, //!< consecutive timeouts; written, read only as last resort
    Dead,    //!< grace expired (or killed): skipped entirely
    Joining, //!< in the ring for writes, catching up; never read
    Standby, //!< not in the ring (pre-join / post-leave)
};

/** On-wire size of the fixed request/response header (command, key,
 * request id, routing fields). Value bytes ride on top. */
constexpr std::uint32_t kvHeaderBytes = 32;

/**
 * Ask a shard to perform one operation. Travels origin -> owner on
 * epKvService; `value` carries put data (untimed -- the timed size
 * is Message::bytes, header plus value length).
 */
struct KvRequest
{
    std::uint64_t reqId = 0;
    Key key = 0;
    /**
     * Write identity. Puts and deletes carry the router-issued write
     * stamp: one cluster-wide monotonic counter names every write, so
     * replicas agree which side of a divergence is newer during
     * anti-entropy repair. A get carries the stamp of the requester's
     * cached copy (0 = none, an unconditional get): when the owner's
     * live entry holds that same write, it replies with an empty,
     * header-only response instead of reading flash and shipping the
     * value -- the ride-along that keeps hot-key caching coherent (a
     * stale cached stamp simply fails the comparison and the fresh
     * value comes back).
     */
    std::uint64_t stamp = 0;
    KvOp op = KvOp::Get;
    net::EndpointId replyEndpoint = epKvData;
    /**
     * Tracing continuation (sim::Tracer::Handle of the request's
     * network-hop span; 0 = untraced). Simulation metadata, not
     * protocol state: it is NOT part of kvHeaderBytes -- a real
     * deployment would pack a trace id into spare header bits. The
     * receiving shard hangs its service span off this handle, which
     * is how one span tree follows the op across nodes (the single
     * simulated clock makes the remote timestamps exact). See
     * docs/observability.md for the span taxonomy.
     */
    std::uint64_t trace = 0;
    flash::PageBuffer value; //!< put payload; empty otherwise
};

/**
 * One operation's result, owner -> origin on epKvData.
 */
struct KvResponse
{
    std::uint64_t reqId = 0;
    /**
     * Stamp of the write whose bytes a get delivers (0 for misses).
     * A result equal to the request's stamp means "not modified":
     * the value is empty and the requester serves its cached copy.
     */
    std::uint64_t stamp = 0;
    /**
     * Ticks the serving node spent on this op (receipt of the
     * request to the response send). The origin subtracts this from
     * the measured round trip to attribute the remainder to the
     * network stage (kv.stage.net) without any tracing enabled --
     * the always-on per-stage breakdown BENCH_kv reports. Untimed
     * metadata, like KvRequest::trace.
     */
    std::uint64_t serviceTicks = 0;
    /** Tracing continuation for the response's network hop
     * (sim::Tracer::Handle; 0 = untraced). See KvRequest::trace. */
    std::uint64_t trace = 0;
    KvStatus status = KvStatus::Ok;
    flash::PageBuffer value; //!< get result; empty otherwise
};

static_assert(sizeof(KvRequest) <= net::PayloadPool::slotBytes &&
                  sizeof(KvResponse) <= net::PayloadPool::slotBytes,
              "KV protocol structs must recycle through the payload "
              "pool, not the heap");

/**
 * splitmix64 finalizer: the KV layer's hash for keys and ring
 * points. Deterministic across platforms (unlike std::hash).
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace kv
} // namespace bluedbm

#endif // BLUEDBM_KV_KV_TYPES_HH
