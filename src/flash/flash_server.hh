/**
 * @file
 * Flash Server (paper section 3.1.2): converts the out-of-order,
 * interleaved flash interface into multiple simple in-order
 * request/response interfaces using page buffers, and contains an
 * Address Translation Unit mapping file handles to streams of physical
 * addresses supplied by the host file system.
 *
 * An in-store processor simply requests (handle, offset, length) and
 * receives pages in order; the width (interfaces), command queue depth
 * and buffering are adjustable per application, as in the paper.
 */

#ifndef BLUEDBM_FLASH_FLASH_SERVER_HH
#define BLUEDBM_FLASH_FLASH_SERVER_HH

// lint: hot-path

#include <cstdint>
#include <deque>
#include <functional> // lint: allow(hot-path-alloc) test-only fault hooks below
#include <unordered_map>
#include <vector>

#include "flash/flash_splitter.hh"
#include "flash/types.hh"
#include "sim/inline_function.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace flash {

/**
 * In-order page server over a splitter port.
 *
 * Ordering contract: completions are delivered in issue order PER
 * DELIVERY STREAM on each interface -- serving (Priority::Read)
 * reads, maintenance (Background) reads and writes/erases each in
 * their own issue order -- not interleaved into one global
 * sequence. A serving read therefore never waits behind a slow
 * program for delivery, neither directly (essential for
 * read-priority suspension at the NAND: a read that jumped a 400us
 * program must not then queue behind that same program's
 * completion slot) nor transitively behind a Background read that
 * queued FIFO behind the program. The write/erase stream keeps the
 * strict in-order completion the file system's tail-rewrite
 * protocol depends on. No client of this class orders reads
 * against in-flight writes (or across traffic classes) through the
 * interface: the file systems only read page locations that a
 * completed program installed, and every multi-page read delivers
 * within one stream.
 */
class FlashServer : public Client
{
  public:
    /** Callback delivering one in-order page (move-only, SBO --
     * every served page crosses one of these). */
    using PageSink = sim::InlineFunction<void(PageBuffer, Status)>;
    /** Callback signalling completion of a write. */
    using WriteSink = sim::InlineFunction<void(Status)>;

    /**
     * @param sim         simulation kernel
     * @param port        splitter port to drive
     * @param interfaces  number of independent in-order interfaces
     * @param queue_depth per-interface commands kept in flight
     */
    FlashServer(sim::Simulator &sim, FlashSplitter::Port &port,
                unsigned interfaces, unsigned queue_depth);

    /** Number of in-order interfaces. */
    unsigned interfaces() const { return unsigned(ifcs_.size()); }

    /**
     * @name Address Translation Unit
     * The host file system pushes the physical locations of a file
     * once; in-store processors then reference the file by handle.
     */
    ///@{

    /** Define (or replace) the page list of @p handle. */
    void defineHandle(std::uint32_t handle, std::vector<Address> pages);

    /** Remove a handle. */
    void dropHandle(std::uint32_t handle);

    /** Pages of a handle; null if unknown. */
    const std::vector<Address> *handlePages(std::uint32_t handle) const;

    ///@}

    /**
     * Read @p count pages of file @p handle starting at page
     * @p first, delivering pages in order on interface @p ifc.
     *
     * @param ifc    interface index
     * @param handle file handle previously defined
     * @param first  first file page
     * @param count  number of pages
     * @param sink   called once per page, in file order
     * @param pri    traffic class. Defaults to Background: a bulk
     *               stream is throughput-bound (its delivery rides
     *               the bus, not the array), so letting it suspend
     *               in-flight programs would disturb writers for no
     *               gain. Pass Priority::Read explicitly for a
     *               latency-critical in-order stream.
     */
    void streamRead(unsigned ifc, std::uint32_t handle,
                    std::uint64_t first, std::uint64_t count,
                    PageSink sink,
                    Priority pri = Priority::Background);

    /**
     * Read one physical page in order on interface @p ifc.
     *
     * @p offset / @p len select partial page read-out (NAND random
     * data-out): the sink receives exactly the @p len bytes of
     * [offset, offset + len) and only the ECC words covering the
     * range cross the flash bus. len 0 (default) reads the whole
     * page.
     */
    void readPage(unsigned ifc, const Address &addr, PageSink sink,
                  Priority pri = Priority::Read,
                  std::uint32_t offset = 0, std::uint32_t len = 0,
                  std::uint64_t trace = 0);

    /** Write one physical page via interface @p ifc.
     *
     * @p trace (here and on readPage/eraseBlock; sim::Tracer
     * handle, 0 = untraced) parents a `flash.queue` span (enqueue
     * to issue) and a `flash.op` span (issue to completion, with
     * the NAND leaf inside) for this operation. */
    void writePage(unsigned ifc, const Address &addr, PageBuffer data,
                   WriteSink sink, Priority pri = Priority::Read,
                   std::uint64_t trace = 0);

    /**
     * @name Program coalescing (write combining)
     * An opt-in staging stage between writePage() and the command
     * queue: writes destined for the same (interface, bus) that
     * arrive within a bounded window are flushed together as one
     * command group, letting the NAND overlap their plane programs
     * (up to Timing::planesPerChip pages of a batch landing on a
     * chip program concurrently instead of serializing) --
     * concurrent small appends from different files amortize the
     * program latency they would otherwise each pay in full.
     *
     * The stage never adds latency a write would not already see:
     * a write stages ONLY while another write to the same bus is
     * ahead of it in this interface (staged, queued or in flight)
     * -- i.e. exactly when it would be waiting on that bus anyway
     * and a shared program window can pay. A write with no same-bus
     * write ahead (the common case: a log's tail-page chain
     * round-robins across buses) issues immediately, untouched.
     * Staged writes flush when the batch fills, when the window
     * expires, or the moment the blocking write completes.
     */
    ///@{

    /**
     * Enable coalescing on @p ifc.
     * @param max_batch writes flushed together at most (>= 2)
     * @param window    ticks a staged write may wait while the
     *                  interface is busy
     */
    void enableWriteBatching(unsigned ifc, unsigned max_batch,
                             sim::Tick window);

    /** Writes that were flushed in a batch of two or more. */
    std::uint64_t batchedWrites() const { return batchedWrites_.value(); }

    ///@}

    /** Erase one physical block via interface @p ifc. */
    void eraseBlock(unsigned ifc, const Address &addr, WriteSink sink,
                    Priority pri = Priority::Background,
                    std::uint64_t trace = 0);

    /**
     * Commands queued plus in flight on interface @p ifc: the
     * congestion signal read-spreading clients (fs::LogFs) key off.
     */
    unsigned queueLength(unsigned ifc) const;

    /**
     * @name Fault injection (tests)
     * Arm a write-fault hook: every page program whose address the
     * hook claims (returns true) is dropped before it reaches the
     * flash card and completes with Status::IllegalWrite. The NAND
     * contents are left untouched -- exactly an aborted program --
     * so durability bugs (an index trusting a failed append) surface
     * as wrong bytes instead of hiding behind a magically-written
     * page. Pass nullptr to disarm.
     */
    ///@{
    // lint: allow(hot-path-alloc) test-only fault hook, armed by
    // tests and disarmed in production paths; never on the per-op
    // fast path unless a test installed it
    using WriteFault = std::function<bool(const Address &)>;
    void setWriteFault(WriteFault hook) { writeFault_ = std::move(hook); }
    /** Programs failed by the armed hook. */
    std::uint64_t injectedWriteFaults() const { return injectedWriteFaults_.value(); }

    /**
     * What a read-fault hook does to one page read's RESPONSE (the
     * command itself executed normally): drop it entirely, hold it
     * for delayTicks before delivery, or force its status to
     * Uncorrectable (a decode failure without waiting for wear --
     * the recovery ladder's test vector; the page data is delivered
     * as-is, exactly what a failed decode hands up). All-zero/false
     * means no fault. An uncorrectable verdict still rides the
     * retry ladder: the hook is consulted again on each re-sense,
     * so a fail-N-then-pass hook exercises retry success.
     */
    struct ReadFaultAction
    {
        bool drop = false;        //!< response lost above the server
        sim::Tick delayTicks = 0; //!< response held this long
        bool uncorrectable = false; //!< status forced to Uncorrectable
    };
    /**
     * Arm a read-fault hook, the response-side sibling of
     * setWriteFault: every completing page read is offered to the
     * hook, which may drop its response (the waiter never hears
     * back -- how a requester experiences a crashed or wedged
     * node, the timeout-and-failover test vector) or delay it (a
     * degraded chip / overloaded path). A dropped response still
     * retires its delivery-stream slot, so later reads on the
     * interface flow normally -- the hang is scoped to the faulted
     * request, not the whole interface; a delayed response holds
     * its tag busy for the duration, so sustained delays backpressure
     * the interface exactly like a slow chip. Pass nullptr to disarm.
     */
    // lint: allow(hot-path-alloc) test-only fault hook (see
    // WriteFault)
    using ReadFault = std::function<ReadFaultAction(const Address &)>;
    void setReadFault(ReadFault hook) { readFault_ = std::move(hook); }
    /** Read responses dropped, delayed or corrupted by the hook. */
    std::uint64_t injectedReadFaults() const { return injectedReadFaults_.value(); }
    ///@}

    /**
     * @name Read-retry ladder
     * A page read completing Uncorrectable is re-sensed up to
     * @p retries times before the verdict is delivered: each retry
     * re-issues the command on the same tag (the delivery-stream
     * slot is preserved, so interface ordering is untouched) and
     * re-rolls the NAND's error draw -- a marginal page often reads
     * clean on a second sense, like a real controller's read-retry
     * voltage steps. 0 (the default) delivers the first verdict.
     */
    ///@{
    void setReadRetries(unsigned retries) { retryLimit_ = retries; }
    unsigned readRetries() const { return retryLimit_; }
    /** Re-senses issued by the ladder. */
    std::uint64_t retriedReads() const { return retriedReads_.value(); }
    /** Reads that recovered (non-Uncorrectable) after >=1 retry. */
    std::uint64_t retrySuccesses() const { return retrySuccesses_.value(); }
    /** Reads still Uncorrectable with the budget exhausted. */
    std::uint64_t retryFailures() const { return retryFailures_.value(); }
    ///@}

    /** @name Client interface (driven by the splitter port) */
    ///@{
    void readDone(Tag tag, PageBuffer data, Status status) override;
    void writeDataRequest(Tag tag) override;
    void writeDone(Tag tag, Status status) override;
    void eraseDone(Tag tag, Status status) override;
    ///@}

  private:
    /** One streamRead() in flight: the shared sink and pages left
     * to deliver. Pooled; returned when the last page (dropped or
     * not) retires. */
    struct StreamSink
    {
        PageSink sink;
        std::uint64_t remaining = 0;
    };

    struct Job
    {
        Op op = Op::ReadPage;
        Address addr;
        /** The write payload until the program's data is sent; the
         * read result once the command completed. */
        PageBuffer data;
        PageSink pageSink;
        WriteSink writeSink;
        /** A streamRead() page: the sink lives once in the stream's
         * record instead of in every Job (the sinks are move-only). */
        StreamSink *stream = nullptr;
        /** Read-fault drop: delivery retires the job but skips the
         * sink. */
        bool dropped = false;
        /** Completed; delivers once every job issued ahead of it on
         * its delivery stream has. */
        bool done = false;
        Status status = Status::Ok; //!< completion verdict
        std::uint32_t group = 0; //!< program-coalescing batch id
        Priority pri = Priority::Read; //!< traffic class
        std::uint32_t readOffset = 0; //!< partial read-out range
        std::uint32_t readLen = 0;    //!< 0 = whole page
        unsigned retries = 0;        //!< re-senses spent on this read
        std::uint64_t trace = 0;     //!< caller's tracing span
        std::uint64_t queueSpan = 0; //!< open flash.queue span
        std::uint64_t opSpan = 0;    //!< open flash.op span
        sim::Tick enqueued = 0;      //!< when the job entered the server
        sim::Tick issued = 0;        //!< when the command left pump()
    };

    /** Delivery streams per interface: serving reads, maintenance
     * reads and writes/erases each deliver in their own issue
     * order. A Background read queues the full array time behind a
     * program (it never suspends), so sharing its stream with
     * serving reads would head-of-line block them -- exactly what
     * the split exists to prevent. */
    static constexpr unsigned deliveryStreams = 3;

    /** Delivery stream of a job (see above). */
    static unsigned
    streamOf(Op op, Priority pri)
    {
        if (op != Op::ReadPage)
            return 1;
        return pri == Priority::Read ? 0 : 2;
    }

    /** Per-interface in-order machinery. */
    struct Interface
    {
        std::deque<Job> pending;     //!< not yet issued
        /** Issued jobs per delivery stream, oldest first: the front
         * leaves once it is done, so each stream delivers in issue
         * order whatever order the flash completes in. */
        std::deque<Job *> issued[deliveryStreams];
        unsigned inFlight = 0;
        /** @name Write-coalescing stage (enableWriteBatching) */
        ///@{
        unsigned batchMax = 0;    //!< 0 = coalescing disabled
        sim::Tick batchWindow = 0;
        /** Staged write jobs keyed by bus (batches form per bus so
         * a flushed group lands on one bus's chips together). */
        std::vector<std::vector<Job>> staged;
        unsigned stagedCount = 0;
        /** Writes per bus currently staged, queued or in flight:
         * the contention signal that gates staging. */
        std::vector<unsigned> writeLoad;
        ///@}
    };

    void pump(unsigned ifc);
    /** Send @p tag's job to the card: its first issue, or one more
     * sense of a read on the retry ladder. */
    void send(Tag tag);
    void complete(Tag tag, PageBuffer data, Status status);
    void deliver(unsigned ifc);
    unsigned tagBase(unsigned ifc) const { return ifc * depth_; }

    /** Stage @p job on (ifc, bus) or decide it must issue now. */
    void stageWrite(unsigned ifc, Job job);
    /** Flush one (ifc, bus) batch into the command queue. */
    void flushBatch(unsigned ifc, std::uint32_t bus);

    sim::Simulator &sim_;
    FlashSplitter::Port &port_;
    unsigned depth_;
    std::vector<Interface> ifcs_;
    /** Job of each busy tag; null while the tag is free. */
    std::vector<Job *> tags_;
    /** Jobs issued and not yet delivered. The deque keeps addresses
     * stable as it grows; freed slots are reused, so it grows to the
     * peak number issued and undelivered, not to the tag count. */
    std::deque<Job> jobPool_;
    std::vector<Job *> freeJobs_;
    /** streamRead() records, pooled the same way. */
    std::deque<StreamSink> streamPool_;
    std::vector<StreamSink *> freeStreams_;
    std::unordered_map<std::uint32_t, std::vector<Address>> atu_;
    WriteFault writeFault_;
    ReadFault readFault_;
    std::uint32_t nextGroup_ = 1;   //!< batch ids (0 = ungrouped)
    unsigned stagedTotal_ = 0;
    unsigned retryLimit_ = 0;       //!< read-retry ladder budget

    /** Route a read verdict through the retry ladder, then
     * complete(). */
    void readRetryCheck(Tag tag, PageBuffer data, Status status);

    /** Construction serial among flash servers; the "inst" label of
     * the flash.* metrics below. */
    unsigned inst_;
    // Registry-backed statistics (accessors above are thin reads).
    sim::Counter &injectedWriteFaults_;
    sim::Counter &injectedReadFaults_;
    sim::Counter &injectedReadDrops_;
    sim::Counter &injectedReadDelays_;
    sim::Counter &injectedReadUncorrectable_;
    sim::Counter &retriedReads_;
    sim::Counter &retrySuccesses_;
    sim::Counter &retryFailures_;
    sim::Counter &batchedWrites_;
    /**
     * Always-on per-stage latency attribution, shared by every
     * flash server of the simulation (no inst label: the bench
     * reports cluster-wide stage distributions). Ticks; labeled by
     * traffic class ("read" serving vs "bg" maintenance).
     * kv.stage.flash_queue = job enqueue to command issue,
     * kv.stage.nand = command issue to completion.
     */
    sim::LatencyHistogram &stageQueueRead_;
    sim::LatencyHistogram &stageQueueBg_;
    sim::LatencyHistogram &stageNandRead_;
    sim::LatencyHistogram &stageNandBg_;
};

} // namespace flash
} // namespace bluedbm

#endif // BLUEDBM_FLASH_FLASH_SERVER_HH
