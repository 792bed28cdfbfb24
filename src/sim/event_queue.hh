/**
 * @file
 * Discrete event queue: the heart of the simulator.
 *
 * Events are (tick, sequence, callback) triples ordered by tick and,
 * for equal ticks, by insertion order, giving deterministic execution.
 * Cancellation is supported through EventId handles.
 *
 * ## Design: pooled slots + ladder queue + generation handles
 *
 * The hot path is allocation-free. Event callbacks live in a slab of
 * reusable 64-byte slots (one cache line each); scheduling order is
 * kept by a *ladder queue* (a multi-resolution calendar) of 16-byte
 * (tick, seq, slot) records. Where the previous 4-ary heap paid
 * O(log n) per pop -- ~90 ns at a 256K pending window, the kernel
 * bottleneck at cluster scale -- the ladder pays amortized O(1):
 *
 *  - far-future records land in an unsorted *top* list (one append);
 *  - when the near-time structures drain, the top is spread once
 *    into *rung 0*: up to 64 buckets of equal tick width;
 *  - consuming a bucket either sorts it into the *bottom* (when it
 *    is small or single-tick) or spreads it into a finer rung below;
 *  - the bottom is a fully sorted array consumed from the cheap end,
 *    so the steady-state pop is a bounds check and a pop_back;
 *  - records scheduled for the *current* tick (the scheduleAfter(0)
 *    follow-up pattern) bypass all of that through a same-tick FIFO
 *    whose append order is by construction the firing order.
 *
 * Each record is touched a bounded number of times (once per rung it
 * falls through, once in the bottom sort), so pops cost O(1)
 * amortized regardless of the pending-window size. Neither structure
 * allocates per event: slots recycle through a LIFO free list,
 * bucket/bottom vectors recycle their capacity, and all arrays only
 * ever grow to the high-water mark of simultaneously pending events.
 * Callbacks are stored as `InlineFunction<void(), 56>`, so the common
 * capture -- a this-pointer plus a couple of integers, or a moved-in
 * network message -- sits inside the slot instead of on the heap, and
 * `step()` *moves* the callback out before firing (copies are
 * impossible: the callback type is move-only).
 *
 * ## Determinism contract
 *
 * The queue pops the globally minimal live record under the strict
 * order (tick, then wrap-aware seq). The ladder only ever *partitions*
 * records by tick range and sorts each partition with that same
 * comparator before consumption, so the execution order is exactly
 * the order the heap produced: same-seed runs are bit-reproducible
 * across the refactor (gated by BENCH_paper.json bit-identity and the
 * heap-vs-ladder oracle in tests/test_event_queue.cc).
 *
 * An `EventId` encodes {slot, generation}: the slot index in the high
 * 32 bits and the slot's generation at schedule time in the low 32.
 * `cancel()` is O(1): it validates the generation, bumps it, destroys
 * the callback and recycles the slot -- no hash lookup, no structure
 * surgery. The ladder record is left behind and lazily discarded when
 * it surfaces: each slot remembers the `(seq, tick)` of its live
 * record, so a record that no longer matches both is stale
 * (cancelled, fired, or the slot was reused; matching the tick too
 * makes a post-wrap seq alias harmless). Firing or cancelling
 * bumps the slot generation, so a handle can never cancel a newer
 * event that happens to reuse its slot; a slot whose 32-bit
 * generation space is exhausted is retired permanently (one 64-byte
 * slot per 2^32 events of churn), so EventIds are unique for the
 * queue's lifetime.
 *
 * `seq` is the global schedule counter and doubles as the same-tick
 * FIFO tie-break. It is 32-bit with wrap-aware comparison: ordering
 * of two *coexisting equal-tick* events is exact as long as fewer
 * than 2^31 schedules separate them, which holds for any realistic
 * pending set. Same-seed runs are bit-reproducible regardless.
 *
 * ## Reserved positions
 *
 * reserve() takes a position -- a tick and the next seq -- without
 * scheduling anything; scheduleReserved() may later place an event
 * exactly there, and reached() says whether execution has passed it.
 * A model can keep a state change as a record and pay for an event
 * only when something waits on it, while every other event keeps its
 * seq and a drained run still ends on the latest reserved tick
 * (net::Lane's credit returns; docs/kernel.md).
 *
 * ## Zero-allocation invariant
 *
 * After warm-up (steady-state pending count reached), schedule(),
 * cancel() and step() perform no heap allocation as long as callback
 * captures fit the 56-byte inline buffer. `bench/ablation_kernel.cc`
 * tracks this: the pooled queue must stay >= 3x the events/sec of the
 * legacy std::function + priority_queue + hash-set implementation.
 */

#ifndef BLUEDBM_SIM_EVENT_QUEUE_HH
#define BLUEDBM_SIM_EVENT_QUEUE_HH

// lint: hot-path

#include <array>
#include <cstdint>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace bluedbm {
namespace sim {

/**
 * Handle identifying a scheduled event, usable for cancellation.
 * Encodes {slot index, slot generation}; see eventIdSlot().
 */
using EventId = std::uint64_t;

/** Sentinel meaning "no event". */
constexpr EventId invalidEventId = 0;

/** A place in the firing order: a tick and a schedule sequence
 * number (see EventQueue::reserve()). */
struct EventPos
{
    Tick when;
    std::uint32_t seq;
};

/** Slot index an EventId refers to (diagnostics / tests). */
constexpr std::uint32_t
eventIdSlot(EventId id)
{
    return static_cast<std::uint32_t>(id >> 32);
}

/** Slot generation an EventId was issued for (diagnostics / tests). */
constexpr std::uint32_t
eventIdGeneration(EventId id)
{
    return static_cast<std::uint32_t>(id);
}

/**
 * Time-ordered queue of callbacks.
 *
 * Within one tick, events run in the order they were scheduled (an
 * event on a reserved position: in the order its position was
 * reserved), so the simulation is fully deterministic for a given
 * seed and schedule.
 */
class EventQueue
{
  public:
    /** Callback storage: move-only, 56 bytes of inline capture --
     * one cache line including the vtable pointer, enough for a
     * this-pointer plus a whole 48-byte net::Message. */
    using Callback = InlineFunction<void(), 56>;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @param when absolute tick; must be >= now()
     * @param fn   callback to execute
     * @return a handle usable with cancel()
     */
    EventId schedule(Tick when, Callback fn);

    /**
     * Take the position an event scheduled now at @p when would get,
     * without scheduling one. The sequence number is used up either
     * way, and @p when counts as an event tick for the clock (see
     * runUntil()).
     */
    EventPos reserve(Tick when);

    /**
     * Schedule @p fn at a position taken by reserve(). It runs where
     * an event scheduled at reserve() time would have run, even on
     * the current tick behind events queued since.
     *
     * @param at reserved position, holding no other event; must not
     *           be reached() yet
     */
    EventId scheduleReserved(EventPos at, Callback fn);

    /**
     * Whether execution has passed @p at: an event there would
     * already have run. Inside an event or after step(), positions up
     * to and including the last event's are passed; after run() or
     * runUntil(), every position at or before now() is.
     */
    bool
    reached(EventPos at) const
    {
        if (at.when != curTick_)
            return at.when < curTick_;
        return tickDone_ ||
               static_cast<std::int32_t>(at.seq - curSeq_) <= 0;
    }

    /**
     * Cancel a previously scheduled event in O(1).
     *
     * @return true if the event existed and had not yet fired
     */
    bool cancel(EventId id);

    /** Current simulated time. */
    Tick now() const { return curTick_; }

    /** Whether any live (non-cancelled) events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /** Number of live events pending. */
    std::uint64_t pending() const { return liveEvents_; }

    /** Number of events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /** Slots ever allocated (high-water mark of pending events). */
    std::size_t poolSlots() const { return fns_.size(); }

    /** Slots permanently retired after generation exhaustion. */
    std::uint64_t retiredSlots() const { return retiredSlots_; }

    /**
     * Run events until the queue drains or @p limit is reached.
     *
     * Events scheduled exactly at @p limit still execute. A drained
     * queue leaves now() at the latest reserved tick if that is
     * later, capped at @p limit.
     *
     * @param limit inclusive time bound
     * @return the tick at which execution stopped
     */
    Tick runUntil(Tick limit);

    /** Run until the queue is empty. */
    Tick run() { return runUntil(maxTick); }

    /**
     * Execute exactly one event if one exists.
     *
     * @return true if an event ran
     */
    bool step();

    /**
     * Test hook: jump a live event's slot to the last usable
     * generation so a single fire/cancel exhausts the 32-bit space
     * (reaching it organically takes 2^32 events of churn). Returns
     * the rewritten handle for the same event; the original handle
     * is dead. Never use outside tests.
     */
    EventId debugExhaustGeneration(EventId id);

  private:
    /** activeSeq value meaning "no live ladder record". nextSeq_
     * skips it, so a live record can never alias the sentinel. */
    static constexpr std::uint32_t noSeq = 0xffffffffu;

    /** Buckets per rung; spreading divides a span by this factor. */
    static constexpr std::size_t kBuckets = 64;
    /** Bucket size at or below which it is sorted into the bottom
     * instead of spread into a finer rung. */
    static constexpr std::size_t kBottomLimit = 64;
    /** Rung depth bound; width shrinks 64x per level, so 12 levels
     * cover the full 64-bit tick range down to width 1. */
    static constexpr std::size_t kMaxRungs = 12;

    /** Callback storage: exactly one cache line per event. */
    struct alignas(64) CallbackSlot
    {
        Callback fn;
    };

    /** Cold per-slot bookkeeping, dense so stale checks stay cheap.
     * A ladder record is live iff BOTH its seq and its tick match
     * the slot: seq alone could alias after a 2^32 wrap when a stale
     * record lingers in a rung, and the tick disambiguates (an
     * alias at the very same tick is behaviorally identical). */
    struct SlotMeta
    {
        std::uint32_t gen = 1;        //!< bumped on fire/cancel
        std::uint32_t activeSeq = noSeq; //!< seq of the live record
        Tick when = 0;                //!< tick of the live record
    };

    /** Ladder record: 16 bytes, four per cache line. */
    struct Rec
    {
        Tick when;
        std::uint32_t seq;  //!< schedule order; ties equal ticks
        std::uint32_t slot;
    };

    /** One ladder rung: kBuckets equal-width tick partitions of the
     * parent bucket (or the top span) it was spread from. Buckets
     * before @ref cur have been consumed. */
    struct Rung
    {
        Tick start = 0;        //!< tick at bucket 0's lower edge
        Tick width = 1;        //!< bucket width in ticks
        std::size_t cur = 0;   //!< next bucket to consume
        std::size_t count = 0; //!< records across buckets >= cur
        std::array<std::vector<Rec>, kBuckets> buckets;
    };

    /** (tick, seq) ordering; seq compare is wrap-aware (see file
     * comment). */
    static bool
    before(const Rec &a, const Rec &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return static_cast<std::int32_t>(a.seq - b.seq) < 0;
    }

    std::uint32_t acquireSlot();
    void retireSlot(std::uint32_t slot);
    /** Next schedule sequence number (skips the noSeq sentinel). */
    std::uint32_t takeSeq();
    /** Store @p fn in a slot and file its record at @p at. */
    EventId place(EventPos at, Callback fn, bool reserved);

    /** Whether @p nd is the current occupant of its slot. */
    bool
    liveRecord(const Rec &nd) const
    {
        const SlotMeta &m = meta_[nd.slot];
        return m.activeSeq == nd.seq && m.when == nd.when;
    }

    /** Lower tick edge of rung @p r's next unconsumed bucket
     * (saturating: may exceed any schedulable tick when consumed
     * past the end). */
    Tick rungCurStart(const Rung &r) const;

    /** Route one record into top / a rung / the bottom. */
    void insertRecord(const Rec &rec);
    /** Sorted insert into the bottom (cheap-end fast path). */
    void insertBottom(const Rec &rec);
    /** Drop stale records from @p v in place. */
    void pruneStale(std::vector<Rec> &v);
    /** Spread the top list into rung 0. Top must be non-empty. */
    void spreadTop();
    /** Refill the empty bottom from the rungs/top.
     * @return false when no records remain anywhere. */
    bool refillBottom();
    /** Surface the minimal live record in nowQ_/bottom_.
     * @return false when the queue holds no live records. */
    bool prepareHead();

    std::vector<CallbackSlot> fns_;
    std::vector<SlotMeta> meta_;
    std::vector<std::uint32_t> freeSlots_;

    /** Same-tick FIFO: records scheduled for when == now(). Append
     * order equals firing order, so no sort is ever needed; consumed
     * from nowHead_ and recycled wholesale when drained. */
    std::vector<Rec> nowQ_;
    std::size_t nowHead_ = 0;
    /** Sorted *descending* by before(): the next event to fire is
     * back(), so consumption is pop_back. */
    std::vector<Rec> bottom_;
    /** rungs_[0] is the coarsest (spread from top); deeper rungs
     * subdivide one consumed bucket of the rung above. */
    std::array<Rung, kMaxRungs> rungs_;
    std::size_t nRungs_ = 0;
    /** Unsorted far-future records (when >= topStart_). */
    std::vector<Rec> top_;
    /** Ticks at or above this insert into top_. Raised when the top
     * is spread; reset to now() when the queue drains completely. */
    Tick topStart_ = 0;
    /** Whether prepareHead() surfaced the head in nowQ_ (else it is
     * bottom_.back()). */
    bool headInNow_ = false;

    Tick curTick_ = 0;
    /** Seq of the last event run; noSeq (wrap-aware: just before
     * seq 0) until one has. */
    std::uint32_t curSeq_ = noSeq;
    /** Whether every position at curTick_ is passed (a run ended
     * there), not only those up to curSeq_. */
    bool tickDone_ = false;
    /** Latest tick ever reserved: where a drained run leaves now(). */
    Tick reservedUntil_ = 0;
    std::uint32_t nextSeq_ = 0;
    std::uint64_t liveEvents_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t retiredSlots_ = 0;
};

} // namespace sim
} // namespace bluedbm

#endif // BLUEDBM_SIM_EVENT_QUEUE_HH
