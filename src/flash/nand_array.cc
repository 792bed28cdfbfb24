#include "flash/nand_array.hh"

// lint: hot-path

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "flash/ecc.hh"

namespace bluedbm {
namespace flash {

namespace {

/** Registry cell for one per-array counter, labeled by instance. */
sim::Counter &
cell(sim::Simulator &sim, unsigned inst, const char *name)
{
    return sim.metrics().counter(name,
                                 {{"inst", std::to_string(inst)}});
}

} // namespace

NandArray::NandArray(sim::Simulator &sim, const Geometry &geo,
                     const Timing &timing, std::uint64_t seed)
    : sim_(sim), timing_(timing), store_(geo, seed),
      errorRng_(seed ^ 0xecc0ecc0ecc0ecc0ull),
      inst_(sim.metrics().nextInstance("nand")),
      pagesRead_(cell(sim, inst_, "nand.pages_read")),
      pagesWritten_(cell(sim, inst_, "nand.pages_written")),
      coalescedPrograms_(cell(sim, inst_, "nand.coalesced_programs")),
      blocksErased_(cell(sim, inst_, "nand.blocks_erased")),
      bitsCorrected_(cell(sim, inst_, "nand.bits_corrected")),
      uncorrectable_(cell(sim, inst_, "nand.uncorrectable_pages")),
      bitsInjected_(cell(sim, inst_, "nand.bits_injected")),
      backgroundReads_(cell(sim, inst_, "nand.background_reads")),
      backgroundWrites_(cell(sim, inst_, "nand.background_writes")),
      backgroundErases_(cell(sim, inst_, "nand.background_erases")),
      suspendedPrograms_(cell(sim, inst_, "nand.suspended_programs")),
      resumedPrograms_(cell(sim, inst_, "nand.resumed_programs")),
      suspendedErases_(cell(sim, inst_, "nand.suspended_erases")),
      resumedErases_(cell(sim, inst_, "nand.resumed_erases")),
      displacedPrograms_(cell(sim, inst_, "nand.displaced_programs"))
{
    chips_.resize(geo.chips());
    programWindows_.assign(geo.chips(), ProgramWindow{});
    // Direct construction: BusState holds a deque of move-only
    // thunks, so resize()'s copy-relocation path must never be
    // instantiated. The vector never grows after this.
    buses_ = std::vector<BusState>(geo.buses);
}

double
NandArray::effectiveBitErrorRate(const Address &addr) const
{
    double rate = bitErrorRate_;
    if (wearBer0_ > 0.0) {
        double cycles =
            static_cast<double>(store_.eraseCount(addr)) /
            static_cast<double>(wearKnee_);
        rate += wearBer0_ * (1.0 + std::pow(cycles, wearAlpha_));
    }
    return rate;
}

std::uint32_t
NandArray::injectErrors(PageBuffer &data,
                        std::vector<std::uint8_t> &check,
                        double rate)
{
    if (rate <= 0.0)
        return 0;
    // The expected number of flipped bits per page is usually small;
    // draw a count from the binomial's Poisson approximation and
    // place the flips uniformly. The draw is capped only by the
    // page's bit count (every bit flipped), never below it: a high
    // BER must inject its full Poisson tail or SECDED stress tests
    // silently under-inject.
    double total_bits =
        static_cast<double>(data.size() + check.size()) * 8.0;
    double expect = total_bits * rate;
    if (expect > 500.0) {
        // exp(-expect) underflows and the inverse transform would
        // degenerate; no plausible NAND (or SECDED model) lives
        // out here.
        sim::panic("bit error rate %g (%.0f expected flips/page) "
                   "is outside the error model's range",
                   rate, expect);
    }
    auto cap = static_cast<std::uint32_t>(total_bits);
    std::uint32_t flips = 0;
    // Inverse-transform Poisson sampling.
    double p = std::exp(-expect);
    double cum = p;
    double u = errorRng_.uniform();
    while (u > cum && flips < cap) {
        ++flips;
        p *= expect / static_cast<double>(flips);
        cum += p;
    }
    for (std::uint32_t i = 0; i < flips; ++i) {
        std::uint64_t bit =
            errorRng_.below(static_cast<std::uint64_t>(total_bits));
        std::uint64_t byte = bit / 8;
        auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
        if (byte < data.size())
            data[byte] ^= mask;
        else
            check[byte - data.size()] ^= mask;
    }
    bitsInjected_.inc(flips);
    return flips;
}

void
NandArray::busTransfer(std::uint32_t bus, std::uint64_t wire_bytes,
                       Thunk deliver)
{
    BusState &state = buses_[bus];
    sim::Tick xfer =
        sim::transferTicks(wire_bytes, timing_.busBytesPerSec);
    state.queuedTicks += xfer;
    state.ready.push_back(
        [this, bus, xfer, deliver = std::move(deliver)]() mutable {
        BusState &s = buses_[bus];
        s.busy = true;
        s.queuedTicks -= xfer;
        s.freeAt = sim_.now() + xfer;
        sim_.scheduleAt(s.freeAt,
                        [this, bus,
                         deliver = std::move(deliver)]() mutable {
            buses_[bus].busy = false;
            deliver();
            busPump(bus);
        });
    });
    busPump(bus);
}

void
NandArray::busPump(std::uint32_t bus)
{
    BusState &state = buses_[bus];
    if (state.busy || state.ready.empty())
        return;
    auto next = std::move(state.ready.front());
    state.ready.pop_front();
    next();
}

void
NandArray::addChipOp(std::size_t ci, Op kind, sim::Tick start,
                     sim::Tick end, Thunk fire)
{
    ChipCtl &chip = chips_[ci];
    chip.ops.emplace_back();
    ChipOp &op = chip.ops.back();
    op.id = nextOpId_++;
    op.kind = kind;
    op.start = start;
    op.end = end;
    op.fire = std::move(fire);
    op.event = sim_.scheduleAt(end, [this, ci, id = op.id]() {
        opComplete(ci, id);
    });
}

void
NandArray::opComplete(std::size_t ci, std::uint64_t id)
{
    ChipCtl &chip = chips_[ci];
    for (auto it = chip.ops.begin(); it != chip.ops.end(); ++it) {
        if (it->id != id)
            continue;
        Thunk fire = std::move(it->fire);
        chip.ops.erase(it);
        fire();
        return;
    }
    sim::panic("completion for unknown chip op");
}

bool
NandArray::suspendableUnit(const ChipCtl &chip, sim::Tick now,
                           bool &is_erase) const
{
    bool found = false;
    is_erase = false;
    for (const ChipOp &op : chip.ops) {
        if (op.kind == Op::ReadPage)
            continue;
        if (op.start > now || op.end <= now)
            continue; // queued behind, or completing this tick
        // Members of an open program window suspend as a unit, so
        // every member needs budget left.
        if (op.suspends >= timing_.maxSuspendsPerOp)
            return false;
        found = true;
        is_erase = is_erase || op.kind == Op::EraseBlock;
    }
    return found;
}

void
NandArray::shiftChip(std::size_t ci, sim::Tick now, sim::Tick delta)
{
    ChipCtl &chip = chips_[ci];
    chip.busyUntil += delta;
    ProgramWindow &win = programWindows_[ci];
    if (win.progEnd > now) {
        win.progEnd += delta;
        if (win.progStart > now)
            win.progStart += delta;
    }
    for (ChipOp &op : chip.ops) {
        if (op.end <= now)
            continue; // completing this tick: already done cell-wise
        if (op.start <= now) {
            if (op.kind == Op::ReadPage)
                continue; // a running sense never moves
            // The parked unit: keeps its remaining array time,
            // shifted past the inserted delay, and is charged.
            op.end += delta;
            ++op.suspends;
        } else {
            // Not started: displaced whole, no suspension charged.
            op.start += delta;
            op.end += delta;
        }
        sim_.cancel(op.event);
        op.event = sim_.scheduleAt(op.end,
                                   [this, ci, id = op.id]() {
            opComplete(ci, id);
        });
    }
}

bool
NandArray::worthSuspending(const ChipCtl &chip, std::uint32_t bus,
                           sim::Tick now) const
{
    // Suspension trades program disruption for an earlier sense; if
    // the bus backlog alone outlasts the chip's queue, the read's
    // delivery is bus-bound and the early sense buys nothing.
    const BusState &b = buses_[bus];
    sim::Tick bus_clear = std::max(b.freeAt, now) + b.queuedTicks;
    return bus_clear < chip.busyUntil + timing_.readUs;
}

void
NandArray::read(const Address &addr, ReadDone done, Priority pri,
                std::uint32_t offset, std::uint32_t len,
                std::uint64_t trace)
{
    const Geometry &geo = geometry();
    if (!addr.validFor(geo))
        sim::panic("NAND read at invalid address %s",
                   addr.toString().c_str());
    if (len == 0)
        len = geo.pageSize; // the whole page, so offset must be 0
    if (std::uint64_t(offset) + len > geo.pageSize)
        sim::panic("NAND read range [%u, %u) beyond page size %u",
                   offset, offset + len, geo.pageSize);

    sim::Tick now = sim_.now();
    std::size_t ci = chipIndex(addr);
    ChipCtl &chip = chips_[ci];

    // Random data-out: only the SECDED words covering the range
    // cross the bus, each with its check byte.
    std::uint32_t slice0 = offset / 8 * 8;
    auto word1 = std::uint32_t(
        (std::uint64_t(offset) + len + 7) / 8);
    std::uint32_t slice_bytes =
        std::min(word1 * 8, geo.pageSize) - slice0;
    std::uint64_t wire_bytes = std::uint64_t(slice_bytes) +
        Secded72::checkBytes(slice_bytes);
    pagesRead_.inc();
    if (pri == Priority::Background)
        backgroundReads_.inc();

    // The trace's NAND leaf: covers everything from here (the array
    // accepting the sense) to the last byte delivered, nesting under
    // the flash server's op span. Closed by wrapping the completion;
    // handle 0 skips all of it.
    sim::Tracer::Handle span =
        sim_.tracer().beginSpan(trace, "nand.read", now);
    if (span != 0) {
        done = [this, span,
                inner = std::move(done)](ReadResult r) mutable {
            sim_.tracer().endSpan(span, sim_.now());
            inner(std::move(r));
        };
    }

    std::uint32_t bus = addr.bus;
    Address a = addr;
    // Runs when the array sense completes: the page register latches
    // the NAND cell contents as they are THEN -- after any program
    // or erase this read was ordered behind -- never a snapshot from
    // issue time. (Within one chip nothing can alter the cells
    // during the sense itself, so latching at sense end equals
    // latching at sense start.)
    // The result and check bytes move through the stage captures --
    // sense -> bus transfer -> controller overhead each run exactly
    // once in sequence, so ownership hands off without shared state.
    auto deliver = [this, a, bus, wire_bytes, offset, len, slice0,
                    slice_bytes, done = std::move(done)]() mutable {
        ReadResult res{store_.read(a, slice0, slice_bytes)};
        // Wear is sampled at the sense, like the cell contents: the
        // raw BER of this read reflects the block's erase count NOW.
        double ber = effectiveBitErrorRate(a);
        // The slice's check bytes, as written at program: stored
        // bytes never change before erase (PageStore). Only needed
        // when bits can flip; wire_bytes charges them regardless.
        std::vector<std::uint8_t> check;
        if (ber > 0.0 || alwaysDecode_)
            check = Secded72::encode(res.data);
        busTransfer(bus, wire_bytes,
                    [this, res = std::move(res),
                     check = std::move(check), offset, len, slice0,
                     ber,
                     done = std::move(done)]() mutable {
            sim_.scheduleAfter(timing_.controllerOverhead,
                               [this, res = std::move(res),
                                check = std::move(check), offset,
                                len, slice0, ber,
                                done = std::move(done)]() mutable {
                std::uint32_t injected =
                    injectErrors(res.data, check, ber);
                if (injected > 0 || alwaysDecode_) {
                    EccResult ecc =
                        Secded72::decode(res.data, check);
                    bitsCorrected_.inc(ecc.correctedBits);
                    if (ecc.uncorrectable) {
                        uncorrectable_.inc();
                        res.status = Status::Uncorrectable;
                    } else if (ecc.correctedBits > 0) {
                        res.status = Status::Corrected;
                    }
                    res.correctedBits = ecc.correctedBits;
                }
                // Trim the word-aligned slice to the caller's range.
                res.data.erase(res.data.begin(),
                               res.data.begin() + (offset - slice0));
                res.data.resize(len);
                done(std::move(res));
            });
        });
    };

    // Read-priority suspension: jump the program/erase occupying the
    // chip instead of queueing the full array time behind it.
    if (pri == Priority::Read && timing_.maxSuspendsPerOp > 0 &&
        chip.busyUntil > now) {
        bool is_erase = false;
        if (now < chip.senseFrontier) {
            // The chip's unit is already parked with priority senses
            // running: join behind the last one. Each join charges
            // the unit one more suspension and extends its park.
            if (suspendableUnit(chip, now, is_erase)) {
                sim::Tick sense_start = chip.senseFrontier;
                chip.senseFrontier = sense_start + timing_.readUs;
                shiftChip(ci, now, timing_.readUs);
                (is_erase ? suspendedErases_ : suspendedPrograms_)
                    .inc();
                sim_.tracer().mark(span, "nand.suspend", now);
                sim_.scheduleAt(sense_start + timing_.readUs,
                                std::move(deliver));
                return;
            }
        } else if (suspendableUnit(chip, now, is_erase) &&
                   now + timing_.suspendUs < chip.busyUntil &&
                   worthSuspending(chip, addr.bus, now)) {
            // Open a suspension window: park the unit (suspendUs),
            // sense with priority, resume (resumeUs) -- the unit and
            // everything queued behind it shift by the inserted
            // delay; the unit's remaining array time is preserved.
            sim::Tick sense_start = now + timing_.suspendUs;
            chip.senseFrontier = sense_start + timing_.readUs;
            shiftChip(ci, now,
                      timing_.suspendUs + timing_.readUs +
                          timing_.resumeUs);
            (is_erase ? suspendedErases_ : suspendedPrograms_).inc();
            (is_erase ? resumedErases_ : resumedPrograms_).inc();
            sim_.tracer().mark(span, "nand.suspend", now);
            // The parked unit resumes the moment the priority sense
            // ends (plus resumeUs of re-ramp charged to the unit);
            // both instants are known now, so mark them now.
            sim_.tracer().mark(span, "nand.resume",
                               sense_start + timing_.readUs);
            sim_.scheduleAt(sense_start + timing_.readUs,
                            std::move(deliver));
            return;
        }
        // Queue insertion: the chip could not be suspended (a sense
        // is running, or the running unit's budget is spent), but
        // programs/erases QUEUED behind have not started -- a
        // read-priority controller issues the sense before them.
        // Walk the schedule backwards group-by-group (ops sharing a
        // start are one program window and move as a unit) to find
        // the displaceable suffix: trailing groups that are all
        // not-yet-started programs/erases with yield budget left.
        // The read lands right before that suffix and displaces it
        // by one sense, charging each displaced op one unit of the
        // same budget suspension draws from. No suspend/resume
        // penalty: nothing mid-flight is interrupted.
        std::vector<std::size_t> &order = orderScratch_;
        order.clear();
        for (std::size_t i = 0; i < chip.ops.size(); ++i) {
            if (chip.ops[i].end > now)
                order.push_back(i);
        }
        std::sort(order.begin(), order.end(),
                  [&](std::size_t x, std::size_t y) {
            return chip.ops[x].start < chip.ops[y].start;
        });
        std::size_t suffix = order.size();
        while (suffix > 0) {
            sim::Tick s = chip.ops[order[suffix - 1]].start;
            std::size_t g = suffix;
            while (g > 0 && chip.ops[order[g - 1]].start == s)
                --g;
            bool jumpable = s > now;
            for (std::size_t k = g; k < suffix && jumpable; ++k) {
                const ChipOp &op = chip.ops[order[k]];
                jumpable = op.kind != Op::ReadPage &&
                    op.suspends < timing_.maxSuspendsPerOp;
            }
            if (!jumpable)
                break;
            suffix = g;
        }
        if (suffix < order.size()) {
            sim::Tick insert_at = std::max(now, chip.senseFrontier);
            for (std::size_t k = 0; k < suffix; ++k)
                insert_at = std::max(insert_at,
                                     chip.ops[order[k]].end);
            for (std::size_t k = suffix; k < order.size(); ++k) {
                ChipOp &op = chip.ops[order[k]];
                op.start += timing_.readUs;
                op.end += timing_.readUs;
                ++op.suspends;
                sim_.cancel(op.event);
                op.event = sim_.scheduleAt(
                    op.end, [this, ci, id = op.id]() {
                    opComplete(ci, id);
                });
            }
            ProgramWindow &win = programWindows_[ci];
            if (win.progEnd > now && win.progStart >= insert_at) {
                win.progStart += timing_.readUs;
                win.progEnd += timing_.readUs;
            }
            chip.busyUntil += timing_.readUs;
            displacedPrograms_.inc(order.size() - suffix);
            sim_.tracer().mark(span, "nand.insert", now);
            addChipOp(ci, Op::ReadPage, insert_at,
                      insert_at + timing_.readUs,
                      std::move(deliver));
            return;
        }
    }

    // FIFO: sense after the chip's scheduled work. Registered as a
    // chip op so a later suspension displaces this queued sense
    // along with everything else.
    sim::Tick sense_start = std::max(now, chip.busyUntil);
    sim::Tick sense_done = sense_start + timing_.readUs;
    chip.busyUntil = sense_done;
    addChipOp(ci, Op::ReadPage, sense_start, sense_done,
              std::move(deliver));
}

void
NandArray::write(const Address &addr, PageBuffer data,
                 StatusDone done,
                 std::uint32_t group, Priority pri,
                 std::uint64_t trace)
{
    const Geometry &geo = geometry();
    if (!addr.validFor(geo))
        sim::panic("NAND write at invalid address %s",
                   addr.toString().c_str());
    if (data.size() > geo.pageSize)
        sim::panic("NAND write size %zu > page size %u",
                   data.size(), geo.pageSize);

    // A short program still costs a whole page on the bus.
    std::uint64_t wire_bytes =
        geo.pageSize + Secded72::checkBytes(geo.pageSize);
    pagesWritten_.inc();
    if (pri == Priority::Background)
        backgroundWrites_.inc();
    sim::Tracer::Handle span =
        sim_.tracer().beginSpan(trace, "nand.write", sim_.now());
    if (span != 0) {
        done = [this, span,
                inner = std::move(done)](Status st) mutable {
            sim_.tracer().endSpan(span, sim_.now());
            inner(st);
        };
    }
    Address a = addr;

    // Write data crosses the bus first, then the chip programs; the
    // payload moves stage to stage (each runs once, in order).
    busTransfer(addr.bus, wire_bytes,
                [this, a, payload = std::move(data), group,
                 done = std::move(done)]() mutable {
        std::size_t ci = chipIndex(a);
        ChipCtl &chip = chips_[ci];
        ProgramWindow &win = programWindows_[ci];
        sim::Tick now = sim_.now();
        sim::Tick prog_start, prog_done;
        if (group != 0 && win.group == group &&
            win.progEnd > now &&
            chip.busyUntil <= win.progEnd &&
            now >= chip.senseFrontier &&
            win.pages < timing_.planesPerChip) {
            // (chip.busyUntil <= progEnd guards against another op
            // -- e.g. an interleaved read -- having claimed the
            // chip since the window opened: planes overlap only
            // with their own batch, never with foreign work. A
            // window that is currently PARKED by a suspension
            // (now < senseFrontier) cannot accept new planes
            // either: its cells are not programming.)
            // Same coalesced batch, program still running: this
            // page's plane programs OVERLAPPED with the open window
            // instead of serializing a full tPROG behind it. The
            // page itself still takes a full tPROG from the moment
            // its data arrived -- no plane programs faster than the
            // cells allow -- so the window extends to cover it.
            prog_start = win.progStart;
            prog_done = std::max(win.progEnd,
                                 now + timing_.programUs);
            win.progEnd = prog_done;
            chip.busyUntil = std::max(chip.busyUntil, prog_done);
            ++win.pages;
            coalescedPrograms_.inc();
        } else {
            prog_start = std::max(now, chip.busyUntil);
            prog_done = prog_start + timing_.programUs;
            chip.busyUntil = prog_done;
            win.group = group;
            win.progStart = prog_start;
            win.progEnd = prog_done;
            win.pages = 1;
        }
        addChipOp(ci, Op::WritePage, prog_start, prog_done,
                  [this, a, payload = std::move(payload),
                   done = std::move(done)]() mutable {
            // The cells hold the data the moment the program's
            // array time ends: a sense ordered after this tick
            // observes the new bytes. The client completion still
            // pays the controller pipeline on top.
            Status st = store_.program(a, std::move(payload));
            sim_.scheduleAfter(timing_.controllerOverhead,
                               [st,
                                done = std::move(done)]() mutable {
                done(st);
            });
        });
    });
}

void
NandArray::erase(const Address &addr, StatusDone done,
                 Priority pri, std::uint64_t trace)
{
    if (!addr.validFor(geometry()))
        sim::panic("NAND erase at invalid address %s",
                   addr.toString().c_str());

    sim::Tick now = sim_.now();
    std::size_t ci = chipIndex(addr);
    ChipCtl &chip = chips_[ci];
    sim::Tick start = std::max(now, chip.busyUntil);
    sim::Tick finish = start + timing_.eraseUs;
    chip.busyUntil = finish;

    blocksErased_.inc();
    if (pri == Priority::Background)
        backgroundErases_.inc();
    sim::Tracer::Handle span =
        sim_.tracer().beginSpan(trace, "nand.erase", now);
    if (span != 0) {
        done = [this, span,
                inner = std::move(done)](Status st) mutable {
            sim_.tracer().endSpan(span, sim_.now());
            inner(st);
        };
    }
    Address a = addr;
    addChipOp(ci, Op::EraseBlock, start, finish,
              [this, a, done = std::move(done)]() mutable {
        Status st = store_.eraseBlock(a);
        sim_.scheduleAfter(timing_.controllerOverhead,
                           [st, done = std::move(done)]() mutable {
            done(st);
        });
    });
}

} // namespace flash
} // namespace bluedbm
