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
    // lives in jobPool_, which grows with the commands undelivered.
    ifcs_ = std::vector<Interface>(interfaces);
    tags_.assign(interfaces * queue_depth, nullptr);
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
    StreamSink *stream;
    if (freeStreams_.empty()) {
        stream = &streamPool_.emplace_back();
    } else {
        stream = freeStreams_.back();
        freeStreams_.pop_back();
    }
    stream->sink = std::move(sink);
    stream->remaining = count;
    for (std::uint64_t i = 0; i < count; ++i) {
        Job job;
        job.op = Op::ReadPage;
        job.addr = pages[first + i];
        job.stream = stream;
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
    job.data = std::move(data);
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
            if (!tags_[tagBase(ifc) + t]) {
                tag = tagBase(ifc) + t;
                break;
            }
        }
        if (tag == FlashSplitter::Port::noTag)
            sim::panic("inFlight below depth but no free tag");

        Job *job;
        if (freeJobs_.empty()) {
            job = &jobPool_.emplace_back();
        } else {
            job = freeJobs_.back();
            freeJobs_.pop_back();
        }
        *job = std::move(itf.pending.front());
        itf.pending.pop_front();
        itf.issued[streamOf(job->op, job->pri)].push_back(job);
        tags_[tag] = job;
        ++itf.inFlight;

        // Stage boundary: the job leaves the queue. Always-on
        // histogram; the spans only exist for traced ops.
        sim::Tick now = sim_.now();
        job->issued = now;
        (job->pri == Priority::Read ? stageQueueRead_ : stageQueueBg_)
            .record(now - job->enqueued);
        if (job->queueSpan != 0) {
            sim_.tracer().endSpan(job->queueSpan, now);
            job->queueSpan = 0;
        }
        job->opSpan =
            sim_.tracer().beginSpan(job->trace, "flash.op", now);

        if (job->op == Op::WritePage && writeFault_ &&
            writeFault_(job->addr)) {
            // Injected program failure: the command never reaches
            // the card, so the page keeps its previous contents.
            injectedWriteFaults_.inc();
            sim_.scheduleAfter(0, [this, tag]() {
                complete(tag, PageBuffer{}, Status::IllegalWrite);
            });
            continue;
        }
        send(tag);
    }
}

void
FlashServer::send(Tag tag)
{
    const Job &job = *tags_[tag];
    Command cmd;
    cmd.op = job.op;
    cmd.addr = job.addr;
    cmd.tag = tag;
    cmd.group = job.group;
    cmd.pri = job.pri;
    cmd.readOffset = job.readOffset;
    cmd.readLen = job.readLen;
    cmd.trace = job.opSpan;
    port_.sendCommand(cmd);
}

void
FlashServer::complete(Tag tag, PageBuffer data, Status status)
{
    Job *job = tags_[tag];
    if (!job)
        sim::panic("completion for idle tag %u", tag);
    unsigned ifc = tag / depth_;
    Interface &itf = ifcs_[ifc];
    bool write_done = job->op == Op::WritePage;
    std::uint32_t bus = job->addr.bus;

    // Stage boundary: NAND service time (issue to completion,
    // including any read-fault delay the response absorbed).
    sim::Tick now = sim_.now();
    (job->pri == Priority::Read ? stageNandRead_ : stageNandBg_)
        .record(now - job->issued);
    if (job->opSpan != 0) {
        sim_.tracer().endSpan(job->opSpan, now);
        job->opSpan = 0;
    }

    job->data = std::move(data);
    job->status = status;
    job->done = true;
    tags_[tag] = nullptr;
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
    // Page buffers restore FIFO order per stream: a stream's
    // oldest job leaves once it is done, and the ones behind it
    // wait. Reads drain independently of writes/erases, so a read
    // never waits on a slow (possibly suspended-and-resumed)
    // program's completion.
    for (std::deque<Job *> &fifo : ifcs_[ifc].issued) {
        while (!fifo.empty() && fifo.front()->done) {
            // Retire the job and its stream record before running a
            // sink: the sink may reenter the server and issue more.
            Job *job = fifo.front();
            fifo.pop_front();
            PageBuffer data = std::move(job->data);
            Status status = job->status;
            PageSink page_sink = std::move(job->pageSink);
            WriteSink write_sink = std::move(job->writeSink);
            StreamSink *stream = job->stream;
            bool dropped = job->dropped;
            freeJobs_.push_back(job);
            if (stream && --stream->remaining == 0) {
                page_sink = std::move(stream->sink);
                freeStreams_.push_back(stream);
                stream = nullptr;
            }
            if (dropped)
                continue;
            if (stream)
                stream->sink(std::move(data), status);
            else if (page_sink)
                page_sink(std::move(data), status);
            else if (write_sink)
                write_sink(status);
        }
    }
}

void
FlashServer::readDone(Tag tag, PageBuffer data, Status status)
{
    Job *job = tags_[tag];
    if (readFault_ && job && job->op == Op::ReadPage) {
        ReadFaultAction act = readFault_(job->addr);
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
            // but the job still retires in order so the interface's
            // other reads keep flowing.
            injectedReadFaults_.inc();
            injectedReadDrops_.inc();
            job->dropped = true;
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
    Job *job = tags_[tag];
    if (job && job->op == Op::ReadPage) {
        if (status == Status::Uncorrectable) {
            if (job->retries < retryLimit_) {
                // Re-sense on the same tag: the job keeps its place
                // in its delivery stream, so interface ordering
                // never observes the retry; the NAND re-rolls its
                // error draw at the block's current wear.
                ++job->retries;
                retriedReads_.inc();
                send(tag);
                return;
            }
            if (retryLimit_ > 0)
                retryFailures_.inc();
        } else if (job->retries > 0) {
            retrySuccesses_.inc();
        }
    }
    complete(tag, std::move(data), status);
}

void
FlashServer::writeDataRequest(Tag tag)
{
    Job *job = tags_[tag];
    if (!job)
        sim::panic("writeDataRequest for idle tag %u", tag);
    port_.sendWriteData(tag, std::move(job->data));
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
