/**
 * @file
 * Log-structured flash file system in the style of RFS (paper
 * section 4).
 *
 * Instead of hiding flash behind an FTL, the file system itself
 * performs logical-to-physical mapping and garbage collection, and --
 * crucially for BlueDBM -- can hand applications the *physical
 * locations* of a file's pages (figure 8 step 1), which user code
 * streams to in-store processors so the hardware can read flash
 * directly (steps 2-3).
 *
 * Data is written out-of-place at a log frontier striped across
 * buses; a segment cleaner relocates live pages from mostly-dead
 * blocks. Metadata (directory, inodes) lives in host memory; metadata
 * persistence is out of scope for the simulation (the paper's
 * evaluation does not exercise it either).
 *
 * Small appends group-commit: every page has at most one program
 * in flight, and rewrites of a page that arrive while one is in
 * flight (the tail page of a hot log under back-to-back appends)
 * accumulate and are absorbed by a single follow-up program -- the
 * staged content of a page always supersedes earlier stagings, so
 * the newest rewrite carries every waiter's bytes. This turns K
 * queued tail rewrites into ~2 programs per NAND program window
 * without giving up bus parallelism across distinct pages.
 *
 * Append-failure semantics (see append()): an append reserves its
 * byte range in the file immediately -- size() grows before
 * durability and never rolls back, so concurrent appends compute
 * stable offsets. done(false) is the durability-failure signal; the
 * affected range reads as each page's previous contents (zeroes for
 * fresh pages, which additionally report ok=false) until a later
 * append rewrites the shared tail page from the in-memory tail,
 * which heals it. Callers that index into the log (kv::KvShard)
 * own rolling back their pointers into a failed range.
 */

#ifndef BLUEDBM_FS_LOG_FS_HH
#define BLUEDBM_FS_LOG_FS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "flash/flash_server.hh"
#include "flash/page_store.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace fs {

/**
 * File-system tuning knobs.
 */
struct FsParams
{
    /** Blocks kept in reserve for the cleaner. */
    unsigned cleanLowWater = 4;
    /** Cleaner frees blocks until this many are free. */
    unsigned cleanHighWater = 8;
    /**
     * Optional second FlashServer interface reserved for reads:
     * when the primary interface's queue (pending + in flight)
     * reaches readSpreadDepth, page reads stripe onto this one so a
     * read-hot file is not serialized behind one command queue.
     * Writes and erases stay on the primary interface, whose
     * in-order completion the tail-rewrite protocol depends on.
     * -1 disables spreading.
     */
    int spillInterface = -1;
    /** Primary-interface queue depth that triggers read spreading. */
    unsigned readSpreadDepth = 8;
    /**
     * Program coalescing on the primary interface: page writes from
     * different files (or different pages of one file) headed for
     * the same bus that arrive within writeBatchWindow of each other
     * flush as one command group and share a NAND program window per
     * chip (FlashServer::enableWriteBatching). 0 disables the stage.
     * The stage is contention-gated: a write only ever stages while
     * another write to the same bus is ahead of it, so an
     * uncontended writer (a lone log's tail chain) is never slowed.
     */
    unsigned writeBatchMax = 4;
    /** Ticks a staged page write may wait while the queue is busy
     * (a small fraction of tPROG: enough to gather a concurrent
     * burst, cheap against the program it may share). */
    sim::Tick writeBatchWindow = sim::usToTicks(8);
    /**
     * Capacity red-line: at or below this many free blocks the FS
     * reports pressure (underPressure(); kv::KvShard sheds puts
     * with a retryable status) and the cleaner's page moves
     * escalate from Background pacing to foreground
     * (flash::Priority::Read) assists until the line is recrossed.
     * Must sit below cleanLowWater so ordinary cleaning engages
     * first.
     */
    unsigned pressureLowWater = 2;
};

/**
 * Log-structured file system over one flash card.
 */
class LogFs
{
  public:
    using Done = std::function<void(bool ok)>;
    using ReadDone = std::function<void(std::vector<std::uint8_t>,
                                        bool ok)>;

    /**
     * @param sim    simulation kernel
     * @param server in-order flash interface
     * @param ifc    FlashServer interface reserved for FS traffic
     * @param store  backing store of the card behind @p server: its
     *               geometry, and where dead pages are released
     * @param params tuning knobs
     */
    LogFs(sim::Simulator &sim, flash::FlashServer &server,
          unsigned ifc, flash::PageStore &store,
          const FsParams &params = FsParams{});

    /** Page size in bytes. */
    std::uint32_t pageSize() const { return geo_.pageSize; }

    /** Create an empty file. False if it already exists. */
    [[nodiscard]] bool create(const std::string &name);

    /** Whether @p name exists. */
    [[nodiscard]] bool exists(const std::string &name) const;

    /** Size of @p name in bytes; 0 if missing. */
    std::uint64_t size(const std::string &name) const;

    /** Delete @p name, invalidating its pages. */
    [[nodiscard]] bool remove(const std::string &name);

    /**
     * Drop the physical backing of file page @p fpage of @p name:
     * the page's bytes read as zeroes (ok = true) from now on and
     * the physical page stops counting as live, so the cleaner can
     * reclaim its block without moving it. The log's byte range is
     * untouched -- offsets of later records stay valid. This is how
     * an index that knows a record is dead (kv::KvShard after every
     * record of a page is superseded) turns logical garbage into
     * reclaimable flash space. False if the file is missing or the
     * page has no backing to drop.
     */
    [[nodiscard]] bool trim(const std::string &name,
                            std::uint64_t fpage);

    /** Names of all files. */
    std::vector<std::string> list() const;

    /**
     * Append @p data to @p name. Data is buffered into page-sized
     * log writes; @p done fires when everything is on flash.
     *
     * Failure semantics: the byte range is reserved immediately
     * (size() includes it whether or not the programs succeed, so
     * offsets handed to concurrent appends stay stable). If any
     * page program fails, @p done fires with false; a page that had
     * earlier contents keeps them (the aborted program touched
     * nothing), a fresh page becomes a poisoned hole that reads as
     * zeroes with ok=false. The failed bytes stay staged in the
     * in-memory tail when they fall in the tail page, so the next
     * successful append rewrites -- and heals -- that page.
     *
     * @p pri is the flash traffic class of the page programs:
     * serving appends default to flash::Priority::Read (a client
     * ack is waiting on them); maintenance appends -- anti-entropy
     * repair pushes -- pass flash::Priority::Background so the NAND
     * statistics attribute them to maintenance. When rewrites of
     * one tail page batch, a single serving-class waiter escalates
     * the whole follow-up program to the serving class.
     */
    void append(const std::string &name,
                std::vector<std::uint8_t> data, Done done,
                flash::Priority pri = flash::Priority::Read,
                std::uint64_t trace = 0);

    /**
     * Read @p len bytes at @p offset of @p name. ok is false when
     * the range covers an uncorrectable page or a poisoned hole
     * left by a failed append.
     *
     * @p pri is the flash traffic class of the page reads: serving
     * gets ride Priority::Read (may suspend programs, drain through
     * the serving delivery stream); maintenance readers -- replica
     * rebuild streaming a crashed node back to currency -- pass
     * Background so recovery I/O never suspends serving programs
     * and is attributed to the maintenance counters at the NAND.
     * Background reads also skip read spreading: the spill
     * interface is reserved headroom for serving tails.
     *
     * @p trace (here and on append(); sim::Tracer handle, 0 =
     * untraced) parents an `fs.read` / `fs.append` span covering
     * the call to its completion, with the flash server's queue and
     * op spans nested inside.
     */
    void read(const std::string &name, std::uint64_t offset,
              std::uint64_t len, ReadDone done,
              flash::Priority pri = flash::Priority::Read,
              std::uint64_t trace = 0);

    /**
     * Physical locations of the file's pages, in file order: the
     * query user applications issue before streaming addresses to an
     * in-store processor (figure 8 step 1).
     */
    std::vector<flash::Address>
    physicalAddresses(const std::string &name) const;

    /**
     * Publish @p name's physical locations to the flash server's
     * address translation unit under @p handle, so in-store
     * processors can reference the file by handle. The handle is a
     * snapshot of live pages: a page that later dies (rewritten,
     * trimmed, removed or poisoned) is released, and reading it
     * through the handle panics.
     */
    void publishHandle(const std::string &name, std::uint32_t handle);

    /** @name Statistics
     *
     * Registry-backed (`fs.*`, labeled by instance); the accessors
     * are thin reads kept for existing callers.
     */
    ///@{
    std::uint64_t pagesWritten() const { return pagesWritten_.value(); }
    std::uint64_t pagesCleaned() const { return pagesCleaned_.value(); }
    std::uint64_t blocksErased() const { return blocksErased_.value(); }
    unsigned freeBlocks() const { return unsigned(freeBlocks_.size()); }
    /** Blocks the card holds (any state). */
    unsigned totalBlocks() const { return unsigned(blocks_.size()); }
    /** Page programs that completed with a failure status. */
    std::uint64_t pageWriteFailures() const { return writeFailures_.value(); }
    /** Page reads diverted to the spill interface. */
    std::uint64_t spreadReads() const { return spreadReads_.value(); }
    /** Page rewrites absorbed by an already-pending program
     * (group commit of back-to-back tail appends). */
    std::uint64_t batchedPageWrites() const { return batchedWrites_.value(); }
    /** Blocks permanently pulled from service (wear-out / bad). */
    std::uint64_t retiredBlocks() const { return retiredBlocks_.value(); }
    /** Pages whose flash copy stayed uncorrectable and was
     * unmapped; the range reads as zeroes with ok = false. */
    std::uint64_t poisonedPages() const { return poisonedPages_.value(); }
    /** Retirements that left the free reserve under cleanLowWater. */
    std::uint64_t reserveAlarms() const { return reserveAlarms_.value(); }
    /** Cleaner page moves escalated to the serving class under
     * capacity pressure. */
    std::uint64_t foregroundAssists() const { return foregroundAssists_.value(); }
    /** Clean passes that parked a victim still holding live pages
     * (relocation failures mid-clean) instead of erasing it. */
    std::uint64_t cleanParks() const { return cleanParks_.value(); }
    /** File pages trimmed by the index layer. */
    std::uint64_t trimmedPages() const { return trimmedPages_.value(); }
    ///@}

    /** Whether free blocks are at or below the capacity red-line
     * (FsParams::pressureLowWater). */
    [[nodiscard]] bool
    underPressure() const
    {
        return freeBlocks_.size() <= params_.pressureLowWater;
    }

    /** Whether free blocks are down to the cleaner's relocation
     * reserve: even maintenance-class appends (replica repair),
     * which bypass the ordinary red-line, must shed here -- the
     * last block is what lets the cleaner keep making forward
     * progress at all. */
    [[nodiscard]] bool
    exhausted() const
    {
        return freeBlocks_.size() <= cleanReserve;
    }

    /** Free blocks the allocator holds back for cleaner relocation:
     * an ordinary append may never open the last free block, or a
     * burst of admitted appends could strand the cleaner with no
     * destination and deadlock reclamation. */
    static constexpr std::size_t cleanReserve = 1;

  private:
    static constexpr std::uint64_t invalidPage = ~std::uint64_t(0);
    /** A fresh page whose program failed: a poisoned hole. */
    static constexpr std::uint64_t failedPage = ~std::uint64_t(0) - 1;
    /** A page trimmed by the index layer: reads as zeroes, ok. */
    static constexpr std::uint64_t trimmedPage = ~std::uint64_t(0) - 2;

    /** Retired: permanently out of service (endurance tripped or a
     * program hit a bad block); never refreed, never a clean
     * victim. */
    enum class BlockState : std::uint8_t { Free, Active, Closed,
                                           Retired };

    struct Inode
    {
        std::uint64_t bytes = 0;
        //! physical linear page per file page (in file order)
        std::vector<std::uint64_t> pages;
        //! bytes buffered but not yet flushed into the last page
        std::vector<std::uint8_t> tail;
    };

    struct BlockInfo
    {
        std::uint32_t livePages = 0;
        /** Programs issued but not yet completed; the cleaner must
         * not erase a block whose pages are still being written. */
        std::uint32_t pendingWrites = 0;
        BlockState state = BlockState::Free;
    };

    struct RevEntry
    {
        std::uint32_t fileId = 0;
        std::uint64_t filePage = 0;
    };

    /**
     * Single-writer slot of one (file, page): at most one program
     * in flight; rewrites arriving meanwhile batch into pending and
     * are issued as one follow-up program. Lives outside the inode
     * so completions survive a concurrent remove().
     */
    struct WriteSlot
    {
        std::vector<Done> flightWaiters; //!< served by the program in flight
        bool hasPending = false;
        flash::PageBuffer pendingData;   //!< latest staging supersedes
        std::vector<Done> pendingWaiters;
        /** Class of the pending follow-up program: Read as soon as
         * any batched waiter is serving-class. */
        flash::Priority pendingPri = flash::Priority::Background;
        /** Tracing span of the follow-up program: the first traced
         * contributor of the batch carries it. */
        std::uint64_t pendingTrace = 0;
    };

    std::uint64_t blockIndex(const flash::Address &a) const;
    flash::Address blockAddress(std::uint64_t bidx) const;

    /** Hand out the next log page. @p clean marks a cleaner
     * relocation: it alone may dip into the reserve (see
     * cleanReserve) and may overtake ordinary waiters parked on
     * it. */
    void allocatePage(std::function<void(flash::Address)> got,
                      bool clean = false);
    void pumpAlloc();
    /** Try to grant one page under @p clean's reserve rules. */
    [[nodiscard]] bool tryGrant(bool clean, flash::Address *out);
    void maybeClean();
    void cleanStep();
    void relocate(std::vector<std::uint64_t> pages, std::size_t next,
                  std::function<void()> then);

    /**
     * Pull block @p bidx out of service permanently: drop it from
     * the free list / its bus frontier, and kick off a Background
     * relocation of any pages still live in it. Idempotent.
     */
    void retireBlock(std::uint64_t bidx);

    /**
     * The flash copy of (file, page) at linear @p phys stayed
     * uncorrectable: unmap it (livePages drops, the cleaner can
     * reclaim the block) and mark the file page as a poisoned hole
     * so reads report failure until a rewrite -- or a replica
     * repair one level up -- heals it. No-op if the mapping moved.
     */
    void poisonPage(std::uint32_t file_id, std::uint64_t fpage,
                    std::uint64_t phys);

    /** Physical page @p phys stopped backing its file page: drop
     * its reverse entry and live count, and release it. No-op if it
     * was not mapped. */
    void unmap(std::uint64_t phys);
    /** Release @p phys's bytes in the page store now, or when its
     * last read in flight completes (readDone()). */
    void release(std::uint64_t phys);
    /** A read of @p phys completed. */
    void readDone(std::uint64_t phys);

    /** Traffic class for cleaner page moves: Background normally,
     * the serving class when free blocks are under the red-line
     * (bounded foreground assist). */
    flash::Priority cleanPriority();

    /** Queue one page program through the page's write slot
     * (batches rewrites while a program is in flight). */
    void queuePageWrite(std::uint32_t file_id, std::uint64_t fpage,
                        flash::PageBuffer data, Done done,
                        flash::Priority pri, std::uint64_t trace);
    /** Issue the slot's program for (file, page). */
    void issueSlot(std::uint32_t file_id, std::uint64_t fpage,
                   flash::PageBuffer data, flash::Priority pri,
                   std::uint64_t trace);
    static std::uint64_t
    slotKey(std::uint32_t file_id, std::uint64_t fpage)
    {
        return (std::uint64_t(file_id) << 32) | fpage;
    }

    /** Write one full page of @p inode at file page @p fpage. */
    void writeFilePage(std::uint32_t file_id, std::uint64_t fpage,
                       flash::PageBuffer data, Done done,
                       flash::Priority pri, std::uint64_t trace);

    sim::Simulator &sim_;
    flash::FlashServer &server_;
    unsigned ifc_;
    FsParams params_;
    flash::PageStore &store_;
    flash::Geometry geo_;

    std::unordered_map<std::string, std::uint32_t> names_;
    std::unordered_map<std::uint32_t, Inode> inodes_;
    std::uint32_t nextFileId_ = 1;

    std::unordered_map<std::uint64_t, RevEntry> reverse_;
    /** Reads in flight per physical page, serving and cleaner: a
     * page that dies under one keeps its bytes until the last one
     * completes. */
    std::unordered_map<std::uint64_t, std::uint32_t> readsInFlight_;
    /** Active write slots, keyed by slotKey(file, page). */
    std::unordered_map<std::uint64_t, WriteSlot> writeSlots_;
    std::vector<BlockInfo> blocks_;
    std::deque<std::uint64_t> freeBlocks_;
    struct AllocWaiter
    {
        std::function<void(flash::Address)> got;
        bool clean = false; //!< cleaner relocation: reserve-eligible
    };
    std::deque<AllocWaiter> allocWaiters_;

    /** One log frontier per bus: file data stripes across channels
     * so in-store processors can stream at full card bandwidth. */
    struct ActiveBlock
    {
        bool open = false;
        std::uint64_t block = 0;
        std::uint32_t nextPage = 0;
    };
    std::vector<ActiveBlock> active_;
    std::uint32_t nextBus_ = 0;
    bool cleaning_ = false;

    /** Construction serial among file systems; the "inst" label of
     * the fs.* metrics below. */
    unsigned inst_;
    // Registry-backed statistics (accessors above are thin reads).
    sim::Counter &pagesWritten_;
    sim::Counter &pagesCleaned_;
    sim::Counter &blocksErased_;
    sim::Counter &writeFailures_;
    sim::Counter &spreadReads_;
    sim::Counter &batchedWrites_;
    sim::Counter &retiredBlocks_;
    sim::Counter &poisonedPages_;
    sim::Counter &reserveAlarms_;
    sim::Counter &foregroundAssists_;
    sim::Counter &cleanParks_;
    sim::Counter &trimmedPages_;
};

} // namespace fs
} // namespace bluedbm

#endif // BLUEDBM_FS_LOG_FS_HH
