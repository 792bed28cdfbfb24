/**
 * @file
 * Request tracing: sampled span trees keyed on simulated time.
 *
 * A trace is a tree of spans (named [begin,end) tick intervals) plus
 * point-in-time marks (suspend/resume, queue insertion, cache
 * hits...), built while an operation flows KvService -> KvRouter ->
 * network -> KvShard/LogFs -> FlashServer -> NAND. The whole tree is
 * addressed through 64-bit handles that ride the request structs
 * across layers; handle 0 means "untraced" and every tracer call
 * early-outs on it, which is what keeps the disabled tracer off the
 * hot path (bench/ablation_kernel.cc gates the overhead through its
 * exit status).
 *
 * Because one Simulator clocks the whole simulated cluster there is
 * no clock skew: a span begun on the origin node and ended on the
 * remote one (the network-hop spans) has exact endpoints, so stage
 * durations along a sequential chain telescope to the end-to-end
 * latency without estimation.
 *
 * Retention: when enabled, EVERY live operation builds its span tree
 * (the slow-request log must see all of them), but only two kinds
 * survive endTrace(): a 1-in-sampleEvery sample, and any trace whose
 * root exceeded slowThresholdTicks (the always-on slow-request log).
 * Everything else recycles its arena slot. Retained traces export as
 * Chrome trace-event JSON (writeChromeJson) loadable in Perfetto.
 *
 * Handles are generation-guarded: a late completion (a straggler
 * replica, a timed-out NAND op) holding a handle into a recycled
 * slot is detected and ignored, never misattributed.
 *
 * Span names must be string literals (or otherwise outlive the
 * tracer): they are stored by pointer, not copied.
 */

#ifndef BLUEDBM_SIM_TRACE_HH
#define BLUEDBM_SIM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace bluedbm {
namespace sim {

class Tracer
{
  public:
    /** Opaque span reference; 0 = untraced (all calls no-op). */
    using Handle = std::uint64_t;

    static constexpr std::uint32_t noParent = ~std::uint32_t(0);

    struct Params
    {
        bool enabled = false;
        /** Retain every Nth finished trace (0 = none but slow). */
        std::uint64_t sampleEvery = 64;
        /** Slow-request log: retain any trace whose root span
         * lasted at least this many ticks (0 = off). */
        Tick slowThresholdTicks = 0;
        /** Cap on retained traces; beyond it they are counted as
         * dropped instead of kept (bounds memory on long runs). */
        std::size_t maxRetained = 1024;
    };

    struct Span
    {
        const char *name = "";
        Tick begin = 0;
        Tick end = 0;           //!< 0 while still open
        std::uint32_t parent = noParent;
    };

    /** Instant event attached to a span (suspend, insertion...). */
    struct Mark
    {
        const char *name = "";
        Tick at = 0;
        std::uint32_t span = 0;
    };

    struct Trace
    {
        std::uint64_t serial = 0; //!< 1-based begin order
        std::uint64_t key = 0;    //!< caller tag (reqId / key hash)
        const char *why = "";     //!< "sampled" or "slow" once kept
        std::vector<Span> spans;  //!< [0] is the root
        std::vector<Mark> marks;
    };

    void configure(const Params &p) { params_ = p; }
    const Params &params() const { return params_; }
    bool enabled() const { return params_.enabled; }

    // The public entry points are inline wrappers whose only job
    // is the early-out: a disabled tracer / untraced handle costs
    // one predictable branch, never a function call (the kernel
    // ablation gates this at < 2% of event throughput). The live
    // branches are [[unlikely]] so the call-bearing blocks move to
    // the caller's cold fragment and the hot path stays
    // straight-line -- production runs default to tracing off, and
    // untraced (handle-0) touches dominate even traced runs.

    /**
     * Open a new trace rooted at span @p name. Returns 0 when
     * disabled (and then every downstream call is a no-op).
     */
    Handle
    beginTrace(const char *name, Tick now, std::uint64_t key = 0)
    {
        if (params_.enabled) [[unlikely]]
            return beginTraceLive(name, now, key);
        return 0;
    }

    /** Open a child span under the span @p parent refers to. */
    Handle
    beginSpan(Handle parent, const char *name, Tick now)
    {
        if (parent != 0) [[unlikely]]
            return beginSpanLive(parent, name, now);
        return 0;
    }

    /**
     * Open a span as a *sibling* of @p peer (same parent). This is
     * how a remote node continues a trace knowing only the handle
     * that rode the request: the shard span hangs next to the
     * network-hop span, not inside it.
     */
    Handle
    beginSibling(Handle peer, const char *name, Tick now)
    {
        if (peer != 0) [[unlikely]]
            return beginSiblingLive(peer, name, now);
        return 0;
    }

    /** Close a span (first close wins; stale handles ignored). */
    void
    endSpan(Handle h, Tick now)
    {
        if (h != 0) [[unlikely]]
            endSpanLive(h, now);
    }

    /** Attach an instant event to @p h's span. */
    void
    mark(Handle h, const char *name, Tick now)
    {
        if (h != 0) [[unlikely]]
            markLive(h, name, now);
    }

    /**
     * Finish the trace @p h belongs to: closes any span left open
     * at @p now, applies the retention policy, recycles or retains.
     * Handles into this trace become stale afterwards.
     */
    void
    endTrace(Handle h, Tick now)
    {
        if (h != 0) [[unlikely]]
            endTraceLive(h, now);
    }

    /** @name Introspection */
    ///@{
    std::uint64_t started() const { return started_; }
    std::uint64_t retainedSampled() const { return sampledKept_; }
    std::uint64_t retainedSlow() const { return slowKept_; }
    std::uint64_t droppedRetained() const { return dropped_; }
    const std::vector<Trace> &retained() const { return done_; }
    /** Span depth within its trace (root = 0); noParent-safe. */
    static unsigned depthOf(const Trace &t, std::uint32_t span);
    ///@}

    /**
     * Export every retained trace as Chrome trace-event JSON
     * ("traceEvents" array of complete/instant events; ts/dur in
     * microseconds of simulated time). Each trace becomes its own
     * pid so Perfetto shows one process group per operation;
     * args carry span/parent indices for machine consumption.
     */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Slot
    {
        std::uint16_t gen = 1;
        bool open = false;
        Trace trace;
    };

    // Handle layout: [0..31] slot+1 | [32..47] generation |
    // [48..63] span index.
    static Handle pack(std::uint32_t slot, std::uint16_t gen,
                       std::uint16_t span)
    {
        return Handle(slot + 1) | (Handle(gen) << 32) |
            (Handle(span) << 48);
    }

    /** Resolve @p h to its slot; nullptr when stale/invalid. */
    Slot *resolve(Handle h, std::uint16_t *span_out);

    /** @name Out-of-line slow paths of the wrappers above. */
    ///@{
    Handle beginTraceLive(const char *name, Tick now,
                          std::uint64_t key);
    Handle beginSpanLive(Handle parent, const char *name, Tick now);
    Handle beginSiblingLive(Handle peer, const char *name,
                            Tick now);
    void endSpanLive(Handle h, Tick now);
    void markLive(Handle h, const char *name, Tick now);
    void endTraceLive(Handle h, Tick now);
    ///@}

    Params params_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<Trace> done_;
    std::uint64_t started_ = 0;
    std::uint64_t sampledKept_ = 0;
    std::uint64_t slowKept_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace sim
} // namespace bluedbm

#endif // BLUEDBM_SIM_TRACE_HH
