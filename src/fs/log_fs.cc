#include "fs/log_fs.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace fs {

using flash::Address;
using flash::PageBuffer;
using flash::Status;

namespace {

sim::Counter &
cell(sim::Simulator &sim, unsigned inst, const char *name)
{
    return sim.metrics().counter(name,
                                 {{"inst", std::to_string(inst)}});
}

} // namespace

LogFs::LogFs(sim::Simulator &sim, flash::FlashServer &server,
             unsigned ifc, flash::PageStore &store,
             const FsParams &params)
    : sim_(sim), server_(server), ifc_(ifc), params_(params),
      store_(store), geo_(store.geometry()),
      inst_(sim.metrics().nextInstance("fs")),
      pagesWritten_(cell(sim, inst_, "fs.pages_written")),
      pagesCleaned_(cell(sim, inst_, "fs.pages_cleaned")),
      blocksErased_(cell(sim, inst_, "fs.blocks_erased")),
      writeFailures_(cell(sim, inst_, "fs.write_failures")),
      spreadReads_(cell(sim, inst_, "fs.spread_reads")),
      batchedWrites_(cell(sim, inst_, "fs.batched_page_writes")),
      retiredBlocks_(cell(sim, inst_, "fs.retired_blocks")),
      poisonedPages_(cell(sim, inst_, "fs.poisoned_pages")),
      reserveAlarms_(cell(sim, inst_, "fs.reserve_alarms")),
      foregroundAssists_(cell(sim, inst_, "fs.foreground_assists")),
      cleanParks_(cell(sim, inst_, "fs.clean_parks")),
      trimmedPages_(cell(sim, inst_, "fs.trimmed_pages"))
{
    // The red-line must sit below the cleaning trigger so ordinary
    // cleaning engages before pressure shedding; clamp rather than
    // reject so callers that only tightened cleanLowWater keep
    // working.
    if (params_.cleanLowWater > 0 &&
        params_.pressureLowWater >= params_.cleanLowWater)
        params_.pressureLowWater = params_.cleanLowWater - 1;
    sim.metrics().registerGauge(
        "fs.free_blocks", {{"inst", std::to_string(inst_)}},
        [this]() { return double(freeBlocks_.size()); });
    if (params_.spillInterface >= 0 &&
        (unsigned(params_.spillInterface) >= server_.interfaces() ||
         unsigned(params_.spillInterface) == ifc_))
        sim::fatal("spill interface %d invalid (primary %u of %u)",
                   params_.spillInterface, ifc_,
                   server_.interfaces());
    if (params_.writeBatchMax >= 2)
        server_.enableWriteBatching(ifc_, params_.writeBatchMax,
                                    params_.writeBatchWindow);
    std::uint64_t total_blocks =
        std::uint64_t(geo_.buses) * geo_.chipsPerBus *
        geo_.blocksPerChip;
    blocks_.assign(total_blocks, BlockInfo{});
    for (std::uint32_t blk = 0; blk < geo_.blocksPerChip; ++blk) {
        for (std::uint32_t chip = 0; chip < geo_.chipsPerBus; ++chip) {
            for (std::uint32_t bus = 0; bus < geo_.buses; ++bus) {
                Address a{bus, chip, blk, 0};
                freeBlocks_.push_back(blockIndex(a));
            }
        }
    }
    active_.assign(geo_.buses, ActiveBlock{});
}

std::uint64_t
LogFs::blockIndex(const Address &a) const
{
    return (std::uint64_t(a.bus) * geo_.chipsPerBus + a.chip) *
        geo_.blocksPerChip + a.block;
}

Address
LogFs::blockAddress(std::uint64_t bidx) const
{
    Address a;
    a.block = static_cast<std::uint32_t>(bidx % geo_.blocksPerChip);
    bidx /= geo_.blocksPerChip;
    a.chip = static_cast<std::uint32_t>(bidx % geo_.chipsPerBus);
    bidx /= geo_.chipsPerBus;
    a.bus = static_cast<std::uint32_t>(bidx);
    a.page = 0;
    return a;
}

bool
LogFs::create(const std::string &name)
{
    if (names_.count(name))
        return false;
    std::uint32_t id = nextFileId_++;
    names_[name] = id;
    inodes_[id] = Inode{};
    return true;
}

bool
LogFs::exists(const std::string &name) const
{
    return names_.count(name) != 0;
}

std::uint64_t
LogFs::size(const std::string &name) const
{
    auto it = names_.find(name);
    if (it == names_.end())
        return 0;
    return inodes_.at(it->second).bytes;
}

std::vector<std::string>
LogFs::list() const
{
    std::vector<std::string> out;
    out.reserve(names_.size());
    for (const auto &[name, id] : names_)
        out.push_back(name);
    std::sort(out.begin(), out.end());
    return out;
}

bool
LogFs::remove(const std::string &name)
{
    auto it = names_.find(name);
    if (it == names_.end())
        return false;
    Inode &ino = inodes_.at(it->second);
    for (std::uint64_t phys : ino.pages) {
        if (phys != invalidPage && phys != failedPage &&
            phys != trimmedPage)
            unmap(phys);
    }
    inodes_.erase(it->second);
    names_.erase(it);
    return true;
}

bool
LogFs::trim(const std::string &name, std::uint64_t fpage)
{
    auto it = names_.find(name);
    if (it == names_.end())
        return false;
    Inode &ino = inodes_.at(it->second);
    if (fpage >= ino.pages.size())
        return false;
    std::uint64_t phys = ino.pages[fpage];
    if (phys == invalidPage || phys == failedPage ||
        phys == trimmedPage)
        return false;
    unmap(phys);
    ino.pages[fpage] = trimmedPage;
    trimmedPages_.inc();
    return true;
}

void
LogFs::retireBlock(std::uint64_t bidx)
{
    BlockInfo &blk = blocks_[bidx];
    if (blk.state == BlockState::Retired)
        return;
    // Pull the block from wherever the allocator could still hand
    // it out: the free list, or an open bus frontier.
    auto fit =
        std::find(freeBlocks_.begin(), freeBlocks_.end(), bidx);
    if (fit != freeBlocks_.end())
        freeBlocks_.erase(fit);
    for (ActiveBlock &frontier : active_) {
        if (frontier.open && frontier.block == bidx)
            frontier.open = false;
    }
    blk.state = BlockState::Retired;
    retiredBlocks_.inc();
    if (freeBlocks_.size() < params_.cleanLowWater)
        reserveAlarms_.inc();
    // Surviving live pages drain out at maintenance priority; the
    // block is never erased or reused, offsets of the moved pages
    // stay valid through the same remapping the cleaner uses.
    std::vector<std::uint64_t> live;
    std::uint64_t base = bidx * geo_.pagesPerBlock;
    for (std::uint32_t p = 0; p < geo_.pagesPerBlock; ++p) {
        if (reverse_.count(base + p))
            live.push_back(base + p);
    }
    if (!live.empty())
        relocate(std::move(live), 0, [this]() { pumpAlloc(); });
    maybeClean();
}

void
LogFs::poisonPage(std::uint32_t file_id, std::uint64_t fpage,
                  std::uint64_t phys)
{
    auto iit = inodes_.find(file_id);
    if (iit == inodes_.end() || fpage >= iit->second.pages.size() ||
        iit->second.pages[fpage] != phys)
        return; // remapped or removed since the verdict
    unmap(phys);
    iit->second.pages[fpage] = failedPage;
    poisonedPages_.inc();
}

void
LogFs::unmap(std::uint64_t phys)
{
    auto rit = reverse_.find(phys);
    if (rit == reverse_.end())
        return;
    reverse_.erase(rit);
    --blocks_[phys / geo_.pagesPerBlock].livePages;
    release(phys);
}

void
LogFs::release(std::uint64_t phys)
{
    if (!readsInFlight_.count(phys))
        store_.release(Address::fromLinear(geo_, phys));
}

void
LogFs::readDone(std::uint64_t phys)
{
    auto it = readsInFlight_.find(phys);
    if (--it->second == 0) {
        readsInFlight_.erase(it);
        if (!reverse_.count(phys))
            release(phys); // it died while the read was in flight
    }
}

flash::Priority
LogFs::cleanPriority()
{
    if (underPressure()) {
        foregroundAssists_.inc();
        return flash::Priority::Read;
    }
    return flash::Priority::Background;
}

std::vector<Address>
LogFs::physicalAddresses(const std::string &name) const
{
    auto it = names_.find(name);
    if (it == names_.end())
        sim::fatal("physicalAddresses of missing file '%s'",
                   name.c_str());
    const Inode &ino = inodes_.at(it->second);
    std::vector<Address> out;
    out.reserve(ino.pages.size());
    for (std::uint64_t phys : ino.pages) {
        if (phys == invalidPage || phys == failedPage ||
            phys == trimmedPage)
            sim::panic("file '%s' has a hole", name.c_str());
        out.push_back(Address::fromLinear(geo_, phys));
    }
    return out;
}

void
LogFs::publishHandle(const std::string &name, std::uint32_t handle)
{
    server_.defineHandle(handle, physicalAddresses(name));
}

void
LogFs::append(const std::string &name, std::vector<std::uint8_t> data,
              Done done, flash::Priority pri, std::uint64_t trace)
{
    auto it = names_.find(name);
    if (it == names_.end())
        sim::fatal("append to missing file '%s'", name.c_str());
    std::uint32_t file_id = it->second;
    Inode &ino = inodes_.at(file_id);

    std::uint64_t span =
        sim_.tracer().beginSpan(trace, "fs.append", sim_.now());

    // Stage the new bytes after any partial tail already on flash.
    std::vector<std::uint8_t> staged = std::move(ino.tail);
    ino.tail.clear();
    staged.insert(staged.end(), data.begin(), data.end());
    std::uint64_t first_page = ino.bytes / geo_.pageSize;
    ino.bytes += data.size();

    // Cut into page-sized writes; the final partial page programs
    // only its bytes (the page reads as zeroes past them) and is
    // mirrored in the in-memory tail.
    struct Ctx
    {
        unsigned outstanding = 0;
        bool issued_all = false;
        bool ok = true;
        Done done;
    };
    auto ctx = std::make_shared<Ctx>();
    ctx->done = std::move(done);
    auto finish_one = [this, ctx, span](bool ok) {
        ctx->ok = ctx->ok && ok;
        if (--ctx->outstanding == 0 && ctx->issued_all) {
            sim_.tracer().endSpan(span, sim_.now());
            sim_.scheduleAfter(0, [ctx]() { ctx->done(ctx->ok); });
        }
    };

    std::uint64_t fpage = first_page;
    std::size_t off = 0;
    while (off < staged.size()) {
        std::size_t take =
            std::min<std::size_t>(geo_.pageSize, staged.size() - off);
        auto first = staged.begin() +
            std::vector<std::uint8_t>::difference_type(off);
        PageBuffer page(first, first + std::ptrdiff_t(take));
        if (take < geo_.pageSize) {
            ino.tail.assign(staged.begin() +
                                std::vector<std::uint8_t>::
                                    difference_type(off),
                            staged.end());
        }
        ++ctx->outstanding;
        queuePageWrite(file_id, fpage, std::move(page), finish_one,
                       pri, span);
        off += take;
        ++fpage;
    }
    ctx->issued_all = true;
    if (ctx->outstanding == 0) {
        // Zero-length append.
        sim_.tracer().endSpan(span, sim_.now());
        sim_.scheduleAfter(0, [ctx]() { ctx->done(true); });
    }
}

void
LogFs::queuePageWrite(std::uint32_t file_id, std::uint64_t fpage,
                      PageBuffer data, Done done,
                      flash::Priority pri, std::uint64_t trace)
{
    WriteSlot &slot = writeSlots_[slotKey(file_id, fpage)];
    if (!slot.flightWaiters.empty()) {
        // A program for this page is already in flight: batch. The
        // new staging contains every byte of the earlier pending
        // one (tail stagings grow monotonically from the page
        // boundary), so the latest content serves all waiters.
        batchedWrites_.inc();
        slot.hasPending = true;
        slot.pendingData = std::move(data);
        slot.pendingWaiters.push_back(std::move(done));
        // One serving-class waiter escalates the whole follow-up
        // (pendingPri re-arms to Background with each flight).
        if (pri == flash::Priority::Read)
            slot.pendingPri = pri;
        if (slot.pendingTrace == 0)
            slot.pendingTrace = trace;
        return;
    }
    slot.flightWaiters.push_back(std::move(done));
    issueSlot(file_id, fpage, std::move(data), pri, trace);
}

void
LogFs::issueSlot(std::uint32_t file_id, std::uint64_t fpage,
                 PageBuffer data, flash::Priority pri,
                 std::uint64_t trace)
{
    writeFilePage(file_id, fpage, std::move(data),
                  [this, file_id, fpage](bool ok) {
        auto it = writeSlots_.find(slotKey(file_id, fpage));
        std::vector<Done> waiters =
            std::move(it->second.flightWaiters);
        if (it->second.hasPending) {
            // Rewrites accumulated during the program: one
            // follow-up program absorbs them all. Re-arm before
            // firing callbacks, which may queue further rewrites.
            PageBuffer next = std::move(it->second.pendingData);
            flash::Priority next_pri = it->second.pendingPri;
            std::uint64_t next_trace = it->second.pendingTrace;
            it->second.flightWaiters =
                std::move(it->second.pendingWaiters);
            it->second.pendingWaiters.clear();
            it->second.hasPending = false;
            it->second.pendingData.clear();
            it->second.pendingPri = flash::Priority::Background;
            it->second.pendingTrace = 0;
            issueSlot(file_id, fpage, std::move(next), next_pri,
                      next_trace);
        } else {
            writeSlots_.erase(it);
        }
        for (auto &w : waiters)
            w(ok);
    },
                  pri, trace);
}

void
LogFs::writeFilePage(std::uint32_t file_id, std::uint64_t fpage,
                     PageBuffer data, Done done, flash::Priority pri,
                     std::uint64_t trace)
{
    allocatePage([this, file_id, fpage, pri, trace,
                  data = std::move(data),
                  done = std::move(done)](Address addr) mutable {
        std::uint64_t linear = addr.linearize(geo_);
        ++blocks_[linear / geo_.pagesPerBlock].pendingWrites;
        server_.writePage(ifc_, addr, std::move(data),
                          [this, file_id, fpage, linear,
                           done = std::move(done)](Status st) {
            --blocks_[linear / geo_.pagesPerBlock].pendingWrites;
            if (st != Status::Ok) {
                // Failed program: the page keeps whatever it held.
                // A previously-written page stays mapped (its old
                // contents are intact and still serve the bytes
                // before this append); a fresh page becomes a
                // poisoned hole so reads of the range report
                // failure instead of silently returning zeroes.
                writeFailures_.inc();
                if (st == Status::BadBlock) {
                    // The hardware's verdict, not a semantic
                    // violation: remap the block out of service so
                    // the frontier stops landing programs on it and
                    // its surviving live pages move out.
                    retireBlock(linear / geo_.pagesPerBlock);
                }
                auto iit = inodes_.find(file_id);
                if (iit != inodes_.end()) {
                    Inode &ino = iit->second;
                    if (ino.pages.size() <= fpage)
                        ino.pages.resize(fpage + 1, invalidPage);
                    if (ino.pages[fpage] == invalidPage)
                        ino.pages[fpage] = failedPage;
                }
                done(false);
                return;
            }
            auto iit = inodes_.find(file_id);
            if (iit == inodes_.end()) {
                // File deleted while the write was in flight; the
                // page is dead on arrival.
                release(linear);
                done(true);
                return;
            }
            Inode &ino = iit->second;
            if (ino.pages.size() <= fpage)
                ino.pages.resize(fpage + 1, invalidPage);
            // Overlapping appends rewrite the same tail file page;
            // installing unconditionally is safe only because all
            // FS writes ride one in-order FlashServer interface, so
            // completions arrive in issue order and the newest
            // rewrite always installs last. A successful rewrite
            // also heals a poisoned hole left by a failed one.
            if (ino.pages[fpage] != invalidPage &&
                ino.pages[fpage] != failedPage &&
                ino.pages[fpage] != trimmedPage)
                unmap(ino.pages[fpage]);
            ino.pages[fpage] = linear;
            reverse_[linear] = RevEntry{file_id, fpage};
            ++blocks_[linear / geo_.pagesPerBlock].livePages;
            pagesWritten_.inc();
            done(true);
        },
                          pri, trace);
    });
}

void
LogFs::read(const std::string &name, std::uint64_t offset,
            std::uint64_t len, ReadDone done, flash::Priority pri,
            std::uint64_t trace)
{
    auto it = names_.find(name);
    if (it == names_.end())
        sim::fatal("read of missing file '%s'", name.c_str());
    const Inode &ino = inodes_.at(it->second);
    if (offset > ino.bytes)
        offset = ino.bytes;
    if (offset + len > ino.bytes)
        len = ino.bytes - offset;

    std::uint64_t span =
        sim_.tracer().beginSpan(trace, "fs.read", sim_.now());

    struct Ctx
    {
        std::vector<std::uint8_t> out;
        unsigned outstanding = 0;
        bool issued_all = false;
        bool ok = true;
        ReadDone done;
    };
    auto ctx = std::make_shared<Ctx>();
    ctx->out.assign(len, 0);
    ctx->done = std::move(done);
    auto maybe_finish = [this, ctx, span]() {
        if (ctx->outstanding == 0 && ctx->issued_all) {
            sim_.tracer().endSpan(span, sim_.now());
            sim_.scheduleAfter(0, [ctx]() {
                ctx->done(std::move(ctx->out), ctx->ok);
            });
        }
    };

    std::uint64_t pos = offset;
    while (pos < offset + len) {
        std::uint64_t fpage = pos / geo_.pageSize;
        std::uint32_t in_page =
            static_cast<std::uint32_t>(pos % geo_.pageSize);
        std::uint32_t take = std::min<std::uint32_t>(
            geo_.pageSize - in_page,
            static_cast<std::uint32_t>(offset + len - pos));
        std::uint64_t out_off = pos - offset;
        if (fpage >= ino.pages.size() ||
            ino.pages[fpage] == invalidPage) {
            // An append to this range is still in flight; the bytes
            // are not durable yet and read as zeroes.
            pos += take;
            continue;
        }
        if (ino.pages[fpage] == failedPage) {
            // Poisoned hole: a failed append's fresh page, or a
            // page whose flash copy stayed uncorrectable. Zeroes,
            // and the read as a whole reports failure.
            ctx->ok = false;
            pos += take;
            continue;
        }
        if (ino.pages[fpage] == trimmedPage) {
            // Trimmed by the index layer: logically dead bytes.
            pos += take;
            continue;
        }
        std::uint64_t phys = ino.pages[fpage];
        // Read spreading: a deep primary queue diverts page reads
        // to the reserved spill interface so a read-hot file is not
        // serialized behind the write path's command queue.
        unsigned read_ifc = ifc_;
        if (pri == flash::Priority::Read &&
            params_.spillInterface >= 0 &&
            server_.queueLength(ifc_) >= params_.readSpreadDepth) {
            read_ifc = unsigned(params_.spillInterface);
            spreadReads_.inc();
        }
        ++ctx->outstanding;
        // Partial page read-out: only the requested range's ECC
        // words cross the flash bus -- a small-record read does not
        // pay a full page transfer.
        std::uint32_t file_id = it->second;
        ++readsInFlight_[phys];
        server_.readPage(
            read_ifc, Address::fromLinear(geo_, phys),
            [this, ctx, take, out_off, file_id, fpage, phys,
             maybe_finish](PageBuffer range, Status st) {
            readDone(phys);
            if (st == Status::Uncorrectable) {
                // The flash server's retry ladder already re-sensed
                // and gave up: this copy is gone. Unmap it so the
                // block stays cleanable and later reads fail fast;
                // healing comes from a rewrite or a replica.
                ctx->ok = false;
                poisonPage(file_id, fpage, phys);
            }
            std::memcpy(ctx->out.data() + out_off, range.data(),
                        take);
            --ctx->outstanding;
            maybe_finish();
        },
            pri, in_page, take, span);
        pos += take;
    }
    ctx->issued_all = true;
    maybe_finish();
}

void
LogFs::allocatePage(std::function<void(Address)> got, bool clean)
{
    allocWaiters_.push_back(AllocWaiter{std::move(got), clean});
    pumpAlloc();
}

bool
LogFs::tryGrant(bool clean, Address *out)
{
    const std::uint64_t blocks_per_bus =
        std::uint64_t(geo_.chipsPerBus) * geo_.blocksPerChip;
    for (std::uint32_t attempt = 0; attempt < geo_.buses;
         ++attempt) {
        std::uint32_t bus = nextBus_;
        nextBus_ = (nextBus_ + 1) % geo_.buses;
        ActiveBlock &frontier = active_[bus];
        if (!frontier.open) {
            // Opening a fresh frontier consumes a free block; only
            // the cleaner may take the last cleanReserve blocks (an
            // open frontier's remaining pages are fair game for
            // anyone -- they are already paid for).
            if (!clean && freeBlocks_.size() <= cleanReserve)
                continue;
            auto it = freeBlocks_.begin();
            for (; it != freeBlocks_.end(); ++it) {
                if (*it / blocks_per_bus == bus)
                    break;
            }
            if (it == freeBlocks_.end())
                continue; // this bus is out of free blocks
            frontier.block = *it;
            freeBlocks_.erase(it);
            blocks_[frontier.block].state = BlockState::Active;
            frontier.nextPage = 0;
            frontier.open = true;
            maybeClean();
        }
        Address addr = blockAddress(frontier.block);
        addr.page = frontier.nextPage++;
        if (frontier.nextPage == geo_.pagesPerBlock) {
            blocks_[frontier.block].state = BlockState::Closed;
            frontier.open = false;
        }
        *out = addr;
        return true;
    }
    return false;
}

void
LogFs::pumpAlloc()
{
    while (!allocWaiters_.empty()) {
        // FIFO, except that a cleaner relocation may overtake an
        // ordinary waiter parked on the reserve: the cleaner is the
        // only producer of free blocks, so holding it behind the
        // very append it must unblock would deadlock reclamation.
        std::size_t idx = allocWaiters_.size();
        Address addr;
        if (tryGrant(allocWaiters_.front().clean, &addr)) {
            idx = 0;
        } else {
            for (std::size_t i = 1; i < allocWaiters_.size(); ++i) {
                if (allocWaiters_[i].clean &&
                    tryGrant(true, &addr)) {
                    idx = i;
                    break;
                }
            }
        }
        if (idx == allocWaiters_.size()) {
            maybeClean();
            return;
        }
        auto got = std::move(allocWaiters_[idx].got);
        allocWaiters_.erase(allocWaiters_.begin() +
                            std::ptrdiff_t(idx));
        got(addr);
    }
}

void
LogFs::maybeClean()
{
    if (cleaning_ || freeBlocks_.size() >= params_.cleanLowWater)
        return;
    cleaning_ = true;
    cleanStep();
}

void
LogFs::cleanStep()
{
    if (freeBlocks_.size() >= params_.cleanHighWater) {
        cleaning_ = false;
        return;
    }
    std::uint64_t victim = invalidPage;
    std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
    for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
        if (blocks_[b].state != BlockState::Closed)
            continue;
        if (blocks_[b].pendingWrites > 0)
            continue; // pages still being programmed
        if (blocks_[b].livePages < best) {
            best = blocks_[b].livePages;
            victim = b;
        }
    }
    if (victim == invalidPage || best >= geo_.pagesPerBlock) {
        // No victim, or the best one is fully live: a clean pass
        // would burn a program per page and free nothing. At high
        // utilization the reclaimable garbage can run out below the
        // high water; stop instead of relocating live data forever.
        // The next garbage-making append re-arms the cleaner.
        cleaning_ = false;
        return;
    }
    std::vector<std::uint64_t> live;
    std::uint64_t base = victim * geo_.pagesPerBlock;
    for (std::uint32_t p = 0; p < geo_.pagesPerBlock; ++p) {
        if (reverse_.count(base + p))
            live.push_back(base + p);
    }
    relocate(std::move(live), 0, [this, victim]() {
        if (blocks_[victim].livePages != 0) {
            // Relocation failures (program faults, destination
            // blocks going bad mid-clean) left live pages behind:
            // park the victim Closed instead of erasing data that
            // never moved. A later pass re-picks it and retries;
            // every relocation attempt costs flash time, so the
            // retry is naturally paced.
            cleanParks_.inc();
            cleanStep();
            return;
        }
        server_.eraseBlock(ifc_, blockAddress(victim),
                           [this, victim](Status st) {
            if (st == Status::Ok) {
                blocksErased_.inc();
                blocks_[victim].state = BlockState::Free;
                freeBlocks_.push_back(victim);
            } else {
                // Endurance tripped (the PageStore keeps the data,
                // but every live page already moved out): the block
                // leaves service for good.
                retireBlock(victim);
            }
            pumpAlloc();
            cleanStep();
        });
    });
}

void
LogFs::relocate(std::vector<std::uint64_t> pages, std::size_t next,
                std::function<void()> then)
{
    while (next < pages.size() && !reverse_.count(pages[next]))
        ++next;
    if (next >= pages.size()) {
        then();
        return;
    }
    std::uint64_t phys = pages[next];
    // Cleaner traffic is maintenance: its reads must never suspend
    // a serving program, and its programs and erases count as
    // background load at the array -- except under capacity
    // pressure, where the moves escalate to the serving class
    // (bounded foreground assist) so the reserve recovers before
    // the allocator stalls.
    flash::Priority pri = cleanPriority();
    ++readsInFlight_[phys];
    server_.readPage(
        ifc_, Address::fromLinear(geo_, phys),
        [this, pages = std::move(pages), next, phys, pri,
         then = std::move(then)](PageBuffer data,
                                 Status rst) mutable {
        readDone(phys);
        if (rst == Status::Uncorrectable) {
            // The source copy is gone (retry ladder exhausted):
            // relocating garbage would silently corrupt the file.
            // Poison the page -- the block stays cleanable and the
            // loss surfaces to readers, who heal from a replica.
            auto rit = reverse_.find(phys);
            if (rit != reverse_.end())
                poisonPage(rit->second.fileId,
                           rit->second.filePage, phys);
            relocate(std::move(pages), next + 1, std::move(then));
            return;
        }
        allocatePage([this, pages = std::move(pages), next, phys,
                      pri, data = std::move(data),
                      then = std::move(then)](Address dst) mutable {
            std::uint64_t new_linear = dst.linearize(geo_);
            ++blocks_[new_linear / geo_.pagesPerBlock].pendingWrites;
            server_.writePage(
                ifc_, dst, std::move(data),
                [this, pages = std::move(pages), next, phys,
                 new_linear, then = std::move(then)](Status st)
                    mutable {
                --blocks_[new_linear / geo_.pagesPerBlock]
                      .pendingWrites;
                if (st == Status::BadBlock) {
                    // The destination went bad under us: remap it
                    // out of service; this source page stays live
                    // in the victim and a later pass retries.
                    retireBlock(new_linear / geo_.pagesPerBlock);
                }
                if (st == Status::Ok) {
                    bool moved = false;
                    auto rit = reverse_.find(phys);
                    if (rit != reverse_.end()) {
                        RevEntry entry = rit->second;
                        auto iit = inodes_.find(entry.fileId);
                        if (iit != inodes_.end() &&
                            entry.filePage <
                                iit->second.pages.size() &&
                            iit->second.pages[entry.filePage] ==
                                phys) {
                            unmap(phys);
                            iit->second.pages[entry.filePage] =
                                new_linear;
                            reverse_[new_linear] = entry;
                            ++blocks_[new_linear /
                                      geo_.pagesPerBlock].livePages;
                            pagesCleaned_.inc();
                            moved = true;
                        }
                    }
                    // The source died during the move: the copy is
                    // dead on arrival.
                    if (!moved)
                        release(new_linear);
                }
                relocate(std::move(pages), next + 1,
                         std::move(then));
            },
                pri);
        },
                     /*clean=*/true);
    },
        pri);
}

} // namespace fs
} // namespace bluedbm
