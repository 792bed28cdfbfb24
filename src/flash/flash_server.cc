#include "flash/flash_server.hh"

// lint: hot-path

#include <string>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace flash {

FlashServer::FlashServer(sim::Simulator &sim,
                         FlashSplitter::Port &port,
                         unsigned interfaces, unsigned queue_depth)
    : sim_(sim), port_(port), depth_(queue_depth),
      inst_(sim.metrics().nextInstance("flash_server")),
      injectedWriteFaults_(sim.metrics().counter(
          "flash.injected_write_faults",
          {{"inst", std::to_string(inst_)}})),
      injectedReadFaults_(sim.metrics().counter(
          "flash.injected_read_faults",
          {{"inst", std::to_string(inst_)}})),
      injectedReadDrops_(sim.metrics().counter(
          "flash.injected_read_faults",
          {{"inst", std::to_string(inst_)}, {"mode", "drop"}})),
      injectedReadDelays_(sim.metrics().counter(
          "flash.injected_read_faults",
          {{"inst", std::to_string(inst_)}, {"mode", "delay"}})),
      injectedReadUncorrectable_(sim.metrics().counter(
          "flash.injected_read_faults",
          {{"inst", std::to_string(inst_)},
           {"mode", "uncorrectable"}})),
      retriedReads_(sim.metrics().counter(
          "flash.read_retries",
          {{"inst", std::to_string(inst_)}})),
      retrySuccesses_(sim.metrics().counter(
          "flash.read_retry_successes",
          {{"inst", std::to_string(inst_)}})),
      retryFailures_(sim.metrics().counter(
          "flash.read_retry_failures",
          {{"inst", std::to_string(inst_)}})),
      batchedWrites_(sim.metrics().counter(
          "flash.batched_writes",
          {{"inst", std::to_string(inst_)}})),
      stageQueueRead_(sim.metrics().histogram(
          "kv.stage.flash_queue", {{"class", "read"}})),
      stageQueueBg_(sim.metrics().histogram(
          "kv.stage.flash_queue", {{"class", "bg"}})),
      stageNandRead_(sim.metrics().histogram(
          "kv.stage.nand", {{"class", "read"}})),
      stageNandBg_(sim.metrics().histogram(
          "kv.stage.nand", {{"class", "bg"}}))
{
    if (interfaces == 0 || queue_depth == 0)
        sim::fatal("FlashServer needs >=1 interface and depth");
    if (interfaces * queue_depth > port.tagCount())
        sim::fatal("FlashServer needs %u tags but port has %u",
                   interfaces * queue_depth, port.tagCount());
    // Direct construction: Interface holds move-only Jobs in a
    // deque, so resize()'s copy-relocation path must never be
    // instantiated. Neither vector grows after this; a tag's job
    // lives in jobPool_, which grows with the commands in flight.
    ifcs_ = std::vector<Interface>(interfaces);
    tagInfo_ = std::vector<TagInfo>(interfaces * queue_depth);
    port_.setClient(this);
    for (unsigned i = 0; i < interfaces; ++i) {
        // Live queue depth as a computed gauge: no shadow counter
        // to keep in sync, snapshots just call queueLength().
        sim.metrics().registerGauge(
            "flash.queue_len",
            {{"inst", std::to_string(inst_)},
             {"ifc", std::to_string(i)}},
            [this, i]() { return double(queueLength(i)); });
    }
    sim.metrics().registerGauge(
        "flash.staged_writes", {{"inst", std::to_string(inst_)}},
        [this]() { return double(stagedTotal_); });
}

void
FlashServer::defineHandle(std::uint32_t handle,
                          std::vector<Address> pages)
{
    atu_[handle] = std::move(pages);
}

void
FlashServer::dropHandle(std::uint32_t handle)
{
    atu_.erase(handle);
}

const std::vector<Address> *
FlashServer::handlePages(std::uint32_t handle) const
{
    auto it = atu_.find(handle);
    return it == atu_.end() ? nullptr : &it->second;
}

void
FlashServer::streamRead(unsigned ifc, std::uint32_t handle,
                        std::uint64_t first, std::uint64_t count,
                        PageSink sink, Priority pri)
{
    if (ifc >= ifcs_.size())
        sim::panic("interface %u out of range", ifc);
    auto it = atu_.find(handle);
    if (it == atu_.end())
        sim::fatal("streamRead on undefined handle %u", handle);
    const auto &pages = it->second;
    if (first + count > pages.size())
        sim::fatal("streamRead past end of handle %u "
                   "(%llu + %llu > %zu)", handle,
                   static_cast<unsigned long long>(first),
                   static_cast<unsigned long long>(count),
                   pages.size());

    if (count == 0)
        return;
    std::uint32_t sid = nextStreamId_++;
    if (nextStreamId_ == 0)
        nextStreamId_ = 1;
    streams_.emplace(sid, StreamState{std::move(sink), count});
    for (std::uint64_t i = 0; i < count; ++i) {
        Job job;
        job.op = Op::ReadPage;
        job.addr = pages[first + i];
        job.streamId = sid;
        job.pri = pri;
        job.enqueued = sim_.now();
        ifcs_[ifc].pending.push_back(std::move(job));
    }
    pump(ifc);
}

void
FlashServer::readPage(unsigned ifc, const Address &addr, PageSink sink,
                      Priority pri, std::uint32_t offset,
                      std::uint32_t len, std::uint64_t trace)
{
    if (ifc >= ifcs_.size())
        sim::panic("interface %u out of range", ifc);
    Job job;
    job.op = Op::ReadPage;
    job.addr = addr;
    job.pageSink = std::move(sink);
    job.pri = pri;
    job.readOffset = offset;
    job.readLen = len;
    job.trace = trace;
    job.enqueued = sim_.now();
    job.queueSpan =
        sim_.tracer().beginSpan(trace, "flash.queue", job.enqueued);
    ifcs_[ifc].pending.push_back(std::move(job));
    pump(ifc);
}

void
FlashServer::writePage(unsigned ifc, const Address &addr,
                       PageBuffer data, WriteSink sink, Priority pri,
                       std::uint64_t trace)
{
    if (ifc >= ifcs_.size())
        sim::panic("interface %u out of range", ifc);
    Job job;
    job.op = Op::WritePage;
    job.addr = addr;
    job.writeData = std::move(data);
    job.writeSink = std::move(sink);
    job.pri = pri;
    job.trace = trace;
    job.enqueued = sim_.now();
    job.queueSpan =
        sim_.tracer().beginSpan(trace, "flash.queue", job.enqueued);
    if (ifcs_[ifc].batchMax != 0) {
        stageWrite(ifc, std::move(job));
        return;
    }
    ifcs_[ifc].pending.push_back(std::move(job));
    pump(ifc);
}

void
FlashServer::enableWriteBatching(unsigned ifc, unsigned max_batch,
                                 sim::Tick window)
{
    if (ifc >= ifcs_.size())
        sim::panic("interface %u out of range", ifc);
    if (max_batch < 2)
        sim::fatal("write batching needs max_batch >= 2");
    Interface &itf = ifcs_[ifc];
    itf.batchMax = max_batch;
    itf.batchWindow = window;
}

void
FlashServer::stageWrite(unsigned ifc, Job job)
{
    Interface &itf = ifcs_[ifc];
    std::uint32_t bus = job.addr.bus;
    if (bus >= itf.writeLoad.size())
        itf.writeLoad.resize(bus + 1, 0);
    // No same-bus write ahead: this write pays no contention, so
    // staging could only add latency. Issue it untouched. (A log's
    // tail-page chain round-robins buses, so the serialized
    // latency-critical chain always takes this path.)
    if (itf.writeLoad[bus] == 0) {
        ++itf.writeLoad[bus];
        itf.pending.push_back(std::move(job));
        pump(ifc);
        return;
    }
    // A write to this bus is already staged, queued or in flight:
    // this one would wait on the bus regardless, so gather it for
    // a shared program window instead.
    ++itf.writeLoad[bus];
    if (bus >= itf.staged.size())
        itf.staged.resize(bus + 1);
    auto &slot = itf.staged[bus];
    slot.push_back(std::move(job));
    ++itf.stagedCount;
    ++stagedTotal_;
    if (slot.size() >= itf.batchMax) {
        flushBatch(ifc, bus);
        return;
    }
    if (slot.size() == 1) {
        // Bounded wait: the batch flushes when the window expires
        // even if neither the size cap nor the blocking write's
        // completion got there first. A stale timer after an early
        // flush is harmless -- it just flushes whatever has
        // restaged since.
        sim_.scheduleAfter(itf.batchWindow, [this, ifc, bus]() {
            flushBatch(ifc, bus);
        });
    }
}

void
FlashServer::flushBatch(unsigned ifc, std::uint32_t bus)
{
    Interface &itf = ifcs_[ifc];
    if (bus >= itf.staged.size() || itf.staged[bus].empty())
        return;
    std::vector<Job> jobs = std::move(itf.staged[bus]);
    itf.staged[bus].clear();
    itf.stagedCount -= unsigned(jobs.size());
    stagedTotal_ -= unsigned(jobs.size());
    if (jobs.size() > 1) {
        // One command group: the NAND lets these share a program
        // window per chip (multi-plane one-pass program).
        std::uint32_t group = nextGroup_++;
        if (nextGroup_ == 0)
            nextGroup_ = 1;
        for (Job &j : jobs)
            j.group = group;
        batchedWrites_.inc(jobs.size());
    }
    for (Job &j : jobs)
        itf.pending.push_back(std::move(j));
    pump(ifc);
}

void
FlashServer::eraseBlock(unsigned ifc, const Address &addr,
                        WriteSink sink, Priority pri,
                        std::uint64_t trace)
{
    if (ifc >= ifcs_.size())
        sim::panic("interface %u out of range", ifc);
    Job job;
    job.op = Op::EraseBlock;
    job.addr = addr;
    job.writeSink = std::move(sink);
    job.pri = pri;
    job.trace = trace;
    job.enqueued = sim_.now();
    job.queueSpan =
        sim_.tracer().beginSpan(trace, "flash.queue", job.enqueued);
    ifcs_[ifc].pending.push_back(std::move(job));
    pump(ifc);
}

unsigned
FlashServer::queueLength(unsigned ifc) const
{
    const Interface &itf = ifcs_.at(ifc);
    return unsigned(itf.pending.size()) + itf.inFlight +
        itf.stagedCount;
}

void
FlashServer::pump(unsigned ifc)
{
    Interface &itf = ifcs_[ifc];
    while (itf.inFlight < depth_ && !itf.pending.empty()) {
        // Find a free tag in this interface's tag window.
        Tag tag = FlashSplitter::Port::noTag;
        for (unsigned t = 0; t < depth_; ++t) {
            if (!tagInfo_[tagBase(ifc) + t].busy) {
                tag = tagBase(ifc) + t;
                break;
            }
        }
        if (tag == FlashSplitter::Port::noTag)
            sim::panic("inFlight below depth but no free tag");

        TagInfo &info = tagInfo_[tag];
        info.busy = true;
        info.ifc = ifc;
        if (freeJobs_.empty()) {
            info.job = &jobPool_.emplace_back();
        } else {
            info.job = freeJobs_.back();
            freeJobs_.pop_back();
        }
        *info.job = std::move(itf.pending.front());
        info.stream = streamOf(info.job->op, info.job->pri);
        info.seq = itf.nextIssueSeq[info.stream]++;
        itf.pending.pop_front();
        ++itf.inFlight;

        // Stage boundary: the job leaves the queue. Always-on
        // histogram; the spans only exist for traced ops.
        sim::Tick now = sim_.now();
        info.issued = now;
        (info.job->pri == Priority::Read ? stageQueueRead_
                                         : stageQueueBg_)
            .record(now - info.job->enqueued);
        if (info.job->queueSpan != 0) {
            sim_.tracer().endSpan(info.job->queueSpan, now);
            info.job->queueSpan = 0;
        }
        info.opSpan =
            sim_.tracer().beginSpan(info.job->trace, "flash.op", now);

        if (info.job->op == Op::WritePage && writeFault_ &&
            writeFault_(info.job->addr)) {
            // Injected program failure: the command never reaches
            // the card, so the page keeps its previous contents.
            injectedWriteFaults_.inc();
            sim_.scheduleAfter(0, [this, tag]() {
                complete(tag, PageBuffer{}, Status::IllegalWrite);
            });
            continue;
        }

        Command cmd;
        cmd.op = info.job->op;
        cmd.addr = info.job->addr;
        cmd.tag = tag;
        cmd.group = info.job->group;
        cmd.pri = info.job->pri;
        cmd.readOffset = info.job->readOffset;
        cmd.readLen = info.job->readLen;
        cmd.trace = info.opSpan;
        port_.sendCommand(cmd);
    }
}

void
FlashServer::complete(Tag tag, PageBuffer data, Status status)
{
    TagInfo &info = tagInfo_[tag];
    if (!info.busy)
        sim::panic("completion for idle tag %u", tag);
    unsigned ifc = info.ifc;
    Interface &itf = ifcs_[ifc];
    bool write_done = info.job->op == Op::WritePage;
    std::uint32_t bus = info.job->addr.bus;

    // Stage boundary: NAND service time (issue to completion,
    // including any read-fault delay the response absorbed).
    sim::Tick now = sim_.now();
    (info.job->pri == Priority::Read ? stageNandRead_ : stageNandBg_)
        .record(now - info.issued);
    if (info.opSpan != 0) {
        sim_.tracer().endSpan(info.opSpan, now);
        info.opSpan = 0;
    }

    Completion done;
    done.job = std::move(*info.job);
    done.data = std::move(data);
    done.status = status;
    itf.reorder[info.stream].emplace(info.seq, std::move(done));

    freeJobs_.push_back(info.job);
    info.job = nullptr;
    info.busy = false;
    --itf.inFlight;

    if (write_done && itf.batchMax != 0 &&
        bus < itf.writeLoad.size() && itf.writeLoad[bus] > 0)
        --itf.writeLoad[bus];

    deliver(ifc);
    pump(ifc);
    // The write that was blocking this bus completed: flush the
    // batch gathered behind it rather than waiting out the window.
    if (write_done && itf.batchMax != 0)
        flushBatch(ifc, bus);
}

void
FlashServer::deliver(unsigned ifc)
{
    Interface &itf = ifcs_[ifc];
    // Page buffers restore FIFO order per stream: only the next
    // sequence number of each class may leave its reorder buffer.
    // Reads drain independently of writes/erases, so a read never
    // waits on a slow (possibly suspended-and-resumed) program's
    // completion slot.
    for (unsigned stream = 0; stream < deliveryStreams; ++stream) {
        while (true) {
            auto it = itf.reorder[stream].find(
                itf.nextDeliverSeq[stream]);
            if (it == itf.reorder[stream].end())
                break;
            Completion c = std::move(it->second);
            itf.reorder[stream].erase(it);
            ++itf.nextDeliverSeq[stream];
            if (c.job.op == Op::ReadPage) {
                if (c.job.streamId != 0) {
                    auto sit = streams_.find(c.job.streamId);
                    if (sit == streams_.end())
                        sim::panic("page for unknown stream %u",
                                   c.job.streamId);
                    // The sink may reenter streamRead() and rehash
                    // streams_ (iterators die, value references
                    // survive): retire the slot before invoking,
                    // and never touch the iterator after the call.
                    StreamState &st = sit->second;
                    bool last = --st.remaining == 0;
                    if (last) {
                        PageSink sink = std::move(st.sink);
                        streams_.erase(sit);
                        if (!c.job.dropped)
                            sink(std::move(c.data), c.status);
                    } else if (!c.job.dropped) {
                        st.sink(std::move(c.data), c.status);
                    }
                } else if (c.job.pageSink) {
                    c.job.pageSink(std::move(c.data), c.status);
                }
            } else {
                if (c.job.writeSink)
                    c.job.writeSink(c.status);
            }
        }
    }
}

void
FlashServer::resendRead(Tag tag)
{
    TagInfo &info = tagInfo_[tag];
    Command cmd;
    cmd.op = info.job->op;
    cmd.addr = info.job->addr;
    cmd.tag = tag;
    cmd.group = info.job->group;
    cmd.pri = info.job->pri;
    cmd.readOffset = info.job->readOffset;
    cmd.readLen = info.job->readLen;
    cmd.trace = info.opSpan;
    port_.sendCommand(cmd);
}

void
FlashServer::readDone(Tag tag, PageBuffer data, Status status)
{
    TagInfo &info = tagInfo_[tag];
    if (readFault_ && info.busy && info.job->op == Op::ReadPage) {
        ReadFaultAction act = readFault_(info.job->addr);
        if (act.uncorrectable) {
            // Forced decode failure: the bytes are delivered as-is
            // (a real failed decode hands up its best guess), only
            // the verdict flips. Falls through to the retry ladder
            // like an organic uncorrectable.
            injectedReadFaults_.inc();
            injectedReadUncorrectable_.inc();
            status = Status::Uncorrectable;
        }
        if (act.drop) {
            // The response is lost above the flash server: the
            // waiter hangs (its timeout machinery owns recovery),
            // but the delivery slot retires so the interface's
            // other reads keep flowing in order.
            injectedReadFaults_.inc();
            injectedReadDrops_.inc();
            info.job->pageSink.reset();
            info.job->dropped = true;
            complete(tag, PageBuffer{}, status);
            return;
        }
        if (act.delayTicks > 0) {
            // Held response: the tag stays busy for the duration,
            // backpressuring the interface like a wedged chip.
            injectedReadFaults_.inc();
            injectedReadDelays_.inc();
            sim_.scheduleAfter(act.delayTicks,
                               [this, tag, status,
                                data = std::move(data)]() mutable {
                readRetryCheck(tag, std::move(data), status);
            });
            return;
        }
    }
    readRetryCheck(tag, std::move(data), status);
}

void
FlashServer::readRetryCheck(Tag tag, PageBuffer data, Status status)
{
    TagInfo &info = tagInfo_[tag];
    if (info.busy && info.job->op == Op::ReadPage) {
        if (status == Status::Uncorrectable) {
            if (info.job->retries < retryLimit_) {
                // Re-sense on the same tag: the delivery-stream
                // slot (seq) is preserved, so interface ordering
                // never observes the retry; the NAND re-rolls its
                // error draw at the block's current wear.
                ++info.job->retries;
                retriedReads_.inc();
                resendRead(tag);
                return;
            }
            if (retryLimit_ > 0)
                retryFailures_.inc();
        } else if (info.job->retries > 0) {
            retrySuccesses_.inc();
        }
    }
    complete(tag, std::move(data), status);
}

void
FlashServer::writeDataRequest(Tag tag)
{
    TagInfo &info = tagInfo_[tag];
    if (!info.busy)
        sim::panic("writeDataRequest for idle tag %u", tag);
    port_.sendWriteData(tag, std::move(info.job->writeData));
}

void
FlashServer::writeDone(Tag tag, Status status)
{
    complete(tag, PageBuffer{}, status);
}

void
FlashServer::eraseDone(Tag tag, Status status)
{
    complete(tag, PageBuffer{}, status);
}

} // namespace flash
} // namespace bluedbm
