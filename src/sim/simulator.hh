/**
 * @file
 * Simulator facade: owns the event queue and offers convenience
 * scheduling. All hardware models hold a Simulator reference.
 */

#ifndef BLUEDBM_SIM_SIMULATOR_HH
#define BLUEDBM_SIM_SIMULATOR_HH

#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace bluedbm {
namespace sim {

/**
 * Top-level simulation kernel.
 *
 * Thin wrapper over EventQueue that components use to read the clock
 * and schedule work. A single Simulator instance is shared by every
 * model in one simulated cluster.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time in ticks. */
    Tick now() const { return events_.now(); }

    /** Schedule @p fn at absolute tick @p when. */
    EventId
    scheduleAt(Tick when, EventQueue::Callback fn)
    {
        return events_.schedule(when, std::move(fn));
    }

    /** Schedule @p fn @p delay ticks from now. */
    EventId
    scheduleAfter(Tick delay, EventQueue::Callback fn)
    {
        return events_.schedule(now() + delay, std::move(fn));
    }

    /** Take the position an event scheduled now at @p when would
     * get, without scheduling one (EventQueue::reserve()). */
    EventPos reserve(Tick when) { return events_.reserve(when); }

    /** Schedule @p fn at a position taken by reserve(). */
    EventId
    scheduleReserved(EventPos at, EventQueue::Callback fn)
    {
        return events_.scheduleReserved(at, std::move(fn));
    }

    /** Whether execution has passed position @p at. */
    bool reached(EventPos at) const { return events_.reached(at); }

    /** Cancel a scheduled event; true if it had not fired. */
    bool cancel(EventId id) { return events_.cancel(id); }

    /** Run until no events remain. */
    Tick run() { return events_.run(); }

    /** Run until @p limit (inclusive) or until the queue drains. */
    Tick runUntil(Tick limit) { return events_.runUntil(limit); }

    /** Execute one event; false if the queue is empty. */
    bool step() { return events_.step(); }

    /** Whether the event queue is empty. */
    bool idle() const { return events_.empty(); }

    /** Total events executed so far. */
    std::uint64_t eventsExecuted() const { return events_.executed(); }

    /** Event-slab high-water mark (slots ever created). Bounded by
     * peak concurrent events, not by events executed: a steady-state
     * run recycles slots, so this staying small while
     * eventsExecuted() runs into the millions is the kernel's
     * zero-allocation invariant made observable. */
    std::size_t eventPoolSlots() const { return events_.poolSlots(); }

    /** This simulation's metrics registry: every component of the
     * cluster registers its counters/gauges/histograms here. */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /** This simulation's request tracer (disabled by default; see
     * src/sim/trace.hh). */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /**
     * Keep @p resource alive until after the event queue is
     * destroyed. Pending events may capture handles into
     * model-owned arenas (e.g. a network's payload pool); models
     * register those arenas here so that tearing a model down while
     * its events are still queued can never dangle.
     */
    void
    retainResource(std::shared_ptr<void> resource)
    {
        retained_.push_back(std::move(resource));
    }

  private:
    /** Declared before retained_/events_: pending events and
     * retained resources may reference metrics cells and trace
     * slots, so both observability arenas must outlive them. */
    MetricsRegistry metrics_;
    Tracer tracer_;
    /** Declared before events_: destroyed only after every pending
     * event (and any resource handle it captured) is gone. */
    std::vector<std::shared_ptr<void>> retained_;
    EventQueue events_;
};

} // namespace sim
} // namespace bluedbm

#endif // BLUEDBM_SIM_SIMULATOR_HH
