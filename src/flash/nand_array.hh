/**
 * @file
 * Timing-accurate model of the NAND array of one flash card: chips
 * that occupy themselves for sense/program/erase times, and buses that
 * serialize data transfers, with ECC applied on the way out.
 *
 * Parallelism model (matches the paper's controller description):
 * chips on different buses are fully independent; chips sharing a bus
 * overlap array operations but serialize page data transfers on the
 * bus; a single chip processes one array operation at a time.
 *
 * Read-priority suspend-resume: a Priority::Read page read arriving
 * at a chip that is mid-program (or mid-erase) may suspend the
 * running operation, sense with priority, and let the operation
 * resume with its remaining time plus Timing::resumeUs -- see
 * Timing for the full contract. Every in-flight array operation is
 * tracked per chip so a suspension can shift the chip's whole
 * scheduled timeline (the parked operation's completion, every
 * queued operation behind it, and an open multi-plane program
 * window as a unit) by the inserted delay.
 */

#ifndef BLUEDBM_FLASH_NAND_ARRAY_HH
#define BLUEDBM_FLASH_NAND_ARRAY_HH

// lint: hot-path

#include <cstdint>
#include <deque>
#include <vector>

#include "flash/geometry.hh"
#include "flash/page_store.hh"
#include "flash/timing.hh"
#include "flash/types.hh"
#include "sim/bandwidth.hh"
#include "sim/inline_function.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace flash {

/**
 * Completion payload for a page read.
 */
struct ReadResult
{
    PageBuffer data;
    Status status = Status::Ok;
    std::uint32_t correctedBits = 0;
};

/**
 * The NAND chips and buses of one flash card.
 */
class NandArray
{
  public:
    /** Completion callbacks: move-only, SBO -- a NAND op retires
     * millions of times per simulated second, so captures live in
     * the wrapper's cache line instead of the heap. */
    using ReadDone = sim::InlineFunction<void(ReadResult)>;
    using StatusDone = sim::InlineFunction<void(Status)>;
    using Thunk = sim::InlineFunction<void()>;

    /**
     * @param sim    simulation kernel
     * @param geo    card geometry
     * @param timing NAND/bus timing parameters
     * @param seed   synthetic-content / error-injection seed
     */
    NandArray(sim::Simulator &sim, const Geometry &geo,
              const Timing &timing, std::uint64_t seed = 1);

    /** Card geometry. */
    const Geometry &geometry() const { return store_.geometry(); }

    /** Backing store (for test inspection and preloading). */
    PageStore &store() { return store_; }

    /**
     * Start a page read; @p done fires when the last byte has crossed
     * the bus.
     *
     * The page contents are latched when the array sense actually
     * happens, not when the read is issued: a read ordered behind a
     * program or erase (FIFO or after the suspension budget is
     * spent) observes the completed operation's bytes. A
     * Priority::Read read may suspend an in-flight program/erase on
     * the chip (see Timing); Priority::Background reads always
     * queue FIFO.
     *
     * @p offset / @p len select partial page read-out (NAND random
     * data-out): the sense still costs full tR, but only the ECC
     * words covering [offset, offset + len) cross the bus, and
     * ReadResult::data holds exactly those @p len bytes. len 0 (the
     * default) reads the whole page.
     *
     * @p trace (sim::Tracer handle; 0 = untraced) hangs a
     * `nand.read` leaf span -- plus `nand.suspend` / `nand.resume` /
     * `nand.insert` marks when this read jumps chip work -- off the
     * issuing layer's span.
     */
    void read(const Address &addr, ReadDone done,
              Priority pri = Priority::Read,
              std::uint32_t offset = 0, std::uint32_t len = 0,
              std::uint64_t trace = 0);

    /**
     * Start a page write with data in hand; @p done fires when the
     * program completes. @p data holds at most a page; the page
     * reads as zeroes past it (PageStore::program), and the bus
     * still carries a whole page plus its check bytes.
     *
     * @p group is the program-coalescing batch id (Command::group).
     * Writes of the same non-zero group landing on one chip overlap
     * their plane programs (up to Timing::planesPerChip pages per
     * window) instead of serializing one tPROG each; every page
     * still takes a full tPROG from the moment its data arrived,
     * and each page's data still crosses the bus individually.
     * group 0 programs alone.
     */
    void write(const Address &addr, PageBuffer data,
               StatusDone done,
               std::uint32_t group = 0,
               Priority pri = Priority::Read,
               std::uint64_t trace = 0);

    /** Start a block erase. */
    void erase(const Address &addr, StatusDone done,
               Priority pri = Priority::Background,
               std::uint64_t trace = 0);

    /**
     * Raw NAND bit error rate applied to data read off the array
     * (errors are then corrected -- or not -- by the SECDED code).
     */
    void setBitErrorRate(double ber) { bitErrorRate_ = ber; }

    /**
     * Wear-driven bit errors: on top of the flat rate, a page read
     * from a block with PageStore erase count `n` sees an extra
     * `ber0 * (1 + (n / knee)^alpha)` raw BER, evaluated when the
     * sense latches (a block erased between issue and sense is read
     * at its new wear level). `ber0 = 0` (the default) disables the
     * model entirely so fresh-flash figures are untouched.
     */
    void
    setWearModel(double ber0, std::uint32_t knee, double alpha)
    {
        wearBer0_ = ber0;
        wearKnee_ = knee == 0 ? 1 : knee;
        wearAlpha_ = alpha;
    }

    /** Raw BER a sense of @p addr would see right now (flat rate
     * plus the wear curve at the block's current erase count). */
    double effectiveBitErrorRate(const Address &addr) const;

    /** Always run the ECC decoder, even when no errors are injected. */
    void setAlwaysDecode(bool on) { alwaysDecode_ = on; }

    /** Tick at which the given chip becomes idle. */
    sim::Tick
    chipBusyUntil(std::uint32_t bus, std::uint32_t chip) const
    {
        return chips_[bus * geometry().chipsPerBus + chip].busyUntil;
    }

    /**
     * Tick at which the bus's current data transfer completes (the
     * bus may hold further queued transfers behind it; see
     * queuedTransfers()). Feeds the suspension heuristic: a read
     * whose delivery is bus-bound gains nothing from suspending a
     * program, so the array leaves the program alone.
     */
    sim::Tick
    busBusyUntil(std::uint32_t bus) const
    {
        return buses_[bus].freeAt;
    }

    /** Transfers queued (not started) on @p bus right now. */
    std::size_t
    queuedTransfers(std::uint32_t bus) const
    {
        return buses_[bus].ready.size();
    }

    /** @name Statistics
     *
     * Registry-backed (sim.metrics(), names `nand.*` labeled by
     * array instance); these accessors are thin reads of the same
     * cells the registry exposes, kept for existing callers.
     */
    ///@{
    std::uint64_t pagesRead() const { return pagesRead_.value(); }
    std::uint64_t pagesWritten() const { return pagesWritten_.value(); }
    /** Grouped writes that joined an already-open program window on
     * their chip instead of paying their own tPROG. */
    std::uint64_t coalescedPrograms() const { return coalescedPrograms_.value(); }
    std::uint64_t blocksErased() const { return blocksErased_.value(); }
    std::uint64_t bitsCorrected() const { return bitsCorrected_.value(); }
    std::uint64_t uncorrectablePages() const { return uncorrectable_.value(); }
    /** Raw bit flips injected into sensed data (pre-ECC). */
    std::uint64_t bitsInjected() const { return bitsInjected_.value(); }
    /** Priority::Background page reads (maintenance traffic). */
    std::uint64_t backgroundReads() const { return backgroundReads_.value(); }
    /** Priority::Background page writes (maintenance traffic). */
    std::uint64_t backgroundWrites() const { return backgroundWrites_.value(); }
    /** Priority::Background block erases (maintenance traffic). */
    std::uint64_t backgroundErases() const { return backgroundErases_.value(); }
    /** Reads served by suspending an in-flight program window (one
     * count per read that jumped, including joins of an already
     * open suspension window). */
    std::uint64_t suspendedPrograms() const { return suspendedPrograms_.value(); }
    /** Program windows that were parked and later resumed (one
     * count per suspension window opened on a program). */
    std::uint64_t resumedPrograms() const { return resumedPrograms_.value(); }
    /** Reads served by suspending an in-flight erase. */
    std::uint64_t suspendedErases() const { return suspendedErases_.value(); }
    /** Erases that were parked and later resumed. */
    std::uint64_t resumedErases() const { return resumedErases_.value(); }
    /** Queued (not-yet-started) programs/erases displaced behind a
     * priority read by queue insertion -- the no-penalty sibling of
     * suspension, charged against the same per-op budget. */
    std::uint64_t displacedPrograms() const { return displacedPrograms_.value(); }
    ///@}

  private:
    /**
     * Work-conserving per-bus transfer scheduler: pages whose array
     * sense has completed queue here and the bus serves them in
     * readiness order, never idling while any chip has data waiting.
     * freeAt feeds the suspension heuristic (busBusyUntil()).
     */
    struct BusState
    {
        sim::Tick freeAt = 0;
        std::deque<Thunk> ready;
        /** Wire time of the queued (not started) transfers; with
         * partial read-out their sizes differ wildly, so the
         * suspension heuristic sums real ticks instead of guessing
         * from a count. */
        sim::Tick queuedTicks = 0;
        bool busy = false;
    };

    /**
     * One array operation scheduled on a chip: a sense, program or
     * erase with its planned [start, end) array occupancy and the
     * action to run at completion. Tracked so a suspension can
     * shift the chip's timeline: the parked program/erase extends
     * its end (charging one suspension), queued operations behind
     * it displace whole, and the completion event is rescheduled.
     */
    struct ChipOp
    {
        std::uint64_t id = 0;
        Op kind = Op::ReadPage;
        sim::Tick start = 0;
        sim::Tick end = 0;
        unsigned suspends = 0;       //!< suspensions charged so far
        sim::EventId event = sim::invalidEventId;
        Thunk fire;                  //!< runs when the array op ends
    };

    /** Per-chip schedule: end of all planned work, the open
     * suspension window's sense frontier, and the in-flight ops. */
    struct ChipCtl
    {
        sim::Tick busyUntil = 0;
        /** End of the last priority sense of the open suspension
         * window; now < senseFrontier means the chip's running
         * program/erase is currently parked. */
        sim::Tick senseFrontier = 0;
        std::vector<ChipOp> ops;
    };

    std::size_t
    chipIndex(const Address &a) const
    {
        return a.bus * geometry().chipsPerBus + a.chip;
    }

    /** Queue a transfer of @p wire_bytes on @p bus; @p deliver runs
     * when the last byte has crossed. */
    void busTransfer(std::uint32_t bus, std::uint64_t wire_bytes,
                     Thunk deliver);

    /** Start the next queued transfer if the bus is idle. */
    void busPump(std::uint32_t bus);

    /** Register an array op on chip @p ci and schedule its
     * completion. */
    void addChipOp(std::size_t ci, Op kind, sim::Tick start,
                   sim::Tick end, Thunk fire);

    /** An op's completion event fired: retire it and run @p fire. */
    void opComplete(std::size_t ci, std::uint64_t id);

    /**
     * Whether the program/erase occupying chip @p ci at @p now can
     * absorb one more suspension (every member of an open program
     * window must have budget; they are charged as a unit).
     * @p is_erase reports the unit kind for stats.
     */
    [[nodiscard]] bool suspendableUnit(const ChipCtl &chip, sim::Tick now,
                         bool &is_erase) const;

    /**
     * Insert @p delta ticks into chip @p ci's timeline at @p now:
     * the running program/erase unit extends its end and is charged
     * one suspension, queued ops displace whole, an open program
     * window's end shifts with its members, and every completion
     * event is rescheduled. Running senses never move.
     */
    void shiftChip(std::size_t ci, sim::Tick now, sim::Tick delta);

    /** Whether suspending for a read on (ci, bus) would actually
     * improve its delivery (false when the read is bus-bound). */
    [[nodiscard]] bool worthSuspending(const ChipCtl &chip, std::uint32_t bus,
                         sim::Tick now) const;

    /** Corrupt @p data / @p check in place at raw BER @p rate (the
     * flat rate plus any wear term, resolved at sense time). */
    std::uint32_t injectErrors(PageBuffer &data,
                               std::vector<std::uint8_t> &check,
                               double rate);

    sim::Simulator &sim_;
    Timing timing_;
    PageStore store_;
    sim::Rng errorRng_;
    double bitErrorRate_ = 0.0;
    double wearBer0_ = 0.0;
    std::uint32_t wearKnee_ = 1;
    double wearAlpha_ = 1.0;
    bool alwaysDecode_ = false;

    /**
     * Open multi-plane program window of one chip: grouped writes
     * whose data arrives while the same group's program is still
     * running on the chip complete with that program instead of
     * starting their own (bounded by Timing::planesPerChip).
     */
    struct ProgramWindow
    {
        std::uint32_t group = 0;
        /** Tick the window's array work starts (may be in the
         * future when the lead write queued behind other chip
         * work); joined pages share it so a queued window is never
         * mistaken for a running one. */
        sim::Tick progStart = 0;
        sim::Tick progEnd = 0;
        unsigned pages = 0;
    };

    std::vector<ChipCtl> chips_;
    std::vector<ProgramWindow> programWindows_;
    std::vector<BusState> buses_;
    std::uint64_t nextOpId_ = 1;
    /** Reused by the queue-insertion scan (no per-read allocation
     * once warmed up). */
    std::vector<std::size_t> orderScratch_;

    /** Construction serial among NAND arrays of this simulation;
     * the "inst" label of every nand.* metric below. */
    unsigned inst_;

    // Statistics cells live in the simulator's metrics registry
    // (registered at construction, labeled inst=<array serial>);
    // the references bump exactly as cheaply as the plain members
    // they replaced.
    sim::Counter &pagesRead_;
    sim::Counter &pagesWritten_;
    sim::Counter &coalescedPrograms_;
    sim::Counter &blocksErased_;
    sim::Counter &bitsCorrected_;
    sim::Counter &uncorrectable_;
    sim::Counter &bitsInjected_;
    sim::Counter &backgroundReads_;
    sim::Counter &backgroundWrites_;
    sim::Counter &backgroundErases_;
    sim::Counter &suspendedPrograms_;
    sim::Counter &resumedPrograms_;
    sim::Counter &suspendedErases_;
    sim::Counter &resumedErases_;
    sim::Counter &displacedPrograms_;
};

} // namespace flash
} // namespace bluedbm

#endif // BLUEDBM_FLASH_NAND_ARRAY_HH
