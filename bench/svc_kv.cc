/**
 * @file
 * KV service bench: throughput vs tail latency over the global
 * flash address space (the serving scenario behind figure 17's
 * RAMCloud comparison, with the ROADMAP's 20-node ring as the
 * headline configuration), and the same service under faults.
 *
 * Every scenario is one row of table(): its cluster shape, its
 * KvParams / WorkloadParams, a step schedule (measured phases, node
 * kill + rebuild, ring join, flash aging, a write fault, the
 * anti-entropy sweep, a read-back), the BENCH_kv.json fields it
 * exports and the checks it must pass. One runner (runRow) builds
 * every row's cluster and one phase cutter (Cutter) measures every
 * phase, so a check holds at whatever size its row runs. The rows,
 * all YCSB-style over R=2 replicas with quorum-acked W=1 writes
 * unless they say otherwise:
 *  - scaling: 95/5 closed loop, Zipf 0.99, at 4, 8, 20 and 100
 *    nodes (throughput must grow monotonically; 100 nodes must
 *    clear 10M ops/s);
 *  - skew: uniform and rising Zipf theta at 8 nodes, with and
 *    without the hot-key read cache;
 *  - write quorum: W=1 vs W=2 at 20 nodes (the W=1 write tail must
 *    stay within 1.6x of the read tail);
 *  - open loop: Poisson arrivals below saturation at 8 nodes;
 *  - traced: the headline config with 1-in-16 request tracing;
 *    sampled span trees must telescope exactly;
 *  - membership: a node crashes mid-phase and is rebuilt under
 *    load; a standby node joins a serving ring;
 *  - aged flash: a pre-worn card at 80-90% occupancy
 *    (docs/aging.md);
 *  - quorum fault (smoke only): W=1 overwrites while one node fails
 *    every NAND program.
 *
 * `svc_kv` runs the full rows and writes BENCH_kv.json;
 * `svc_kv --smoke` runs the small rows (ctest: svc_kv_smoke) and
 * writes no JSON. `--trace-out PATH` exports the traced row's span
 * trees as Chrome trace-event JSON for Perfetto. Either mode prints
 * every check and exits 1 if any failed.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "core/cluster.hh"
#include "kv/kv_router.hh"
#include "kv/kv_service.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"
#include "workload/workload.hh"

using namespace bluedbm;
using bench::Check;
using bench::Cmp;

namespace {

/** Named results of one row, without the row prefix. */
using Values = std::map<std::string, double>;

/** Mid-size card: 1 GB (8 buses x 2 chips x 128 blocks x 64 pages
 * of 8 KB) -- big enough that the cleaner stays idle, small enough
 * to build twenty nodes of it per config. */
flash::Geometry
kvGeometry()
{
    flash::Geometry g;
    g.buses = 8;
    g.chipsPerBus = 2;
    g.blocksPerChip = 128;
    g.pagesPerBlock = 64;
    g.pageSize = 8192;
    return g;
}

/** Tiny card for the aging runs: 8 MB (2 buses x 1 chip x 32
 * blocks of 16 x 8 KB pages), so a few thousand puts reach 80%
 * utilization and the cleaner runs hot instead of staying idle. */
flash::Geometry
agedGeometry()
{
    flash::Geometry g;
    g.buses = 2;
    g.chipsPerBus = 1;
    g.blocksPerChip = 32;
    g.pagesPerBlock = 16;
    g.pageSize = 8192;
    return g;
}

/** Wear curve for the aged phase (NandArray::setWearModel): with
 * the pre-age below, the effective BER lands near 2.6e-4 -- about
 * 19 expected raw flips per 8 KB page, enough that SECDED fails a
 * noticeable fraction of senses and the retry ladder + poison +
 * replica-heal machinery all engage within a short phase. */
constexpr double agedBer0 = 2e-5;
constexpr std::uint32_t agedKnee = 1000;
constexpr double agedAlpha = 2.5;
/** Endurance limit; pre-age sits close under it. */
constexpr std::uint32_t agedEraseLimit = 3000;
/** Pre-age cycles for the bulk of the blocks: ~600 erases of
 * headroom, far more than the serving phase plus the anti-entropy
 * rounds perform, so only the marked blocks ever retire and
 * capacity loss stays bounded -- letting ordinary cleaning march
 * the bulk into the limit would shrink the card until the fullest
 * node pins at the cleaner's reserve and repair can never
 * converge. */
constexpr std::uint32_t agedBulkWear = agedEraseLimit - 600;
/** The first this-many blocks of each bus are pre-aged to one
 * cycle under the limit: their next erase retires them. The
 * cleaner breaks victim ties toward low block indices, so these
 * are also the likeliest early victims. Few enough that pages
 * poisoned at their (worst-case) error rate stay a sparse set --
 * losing BOTH replicas of a key is what the scenario must not
 * manufacture. */
constexpr std::uint32_t agedMarkedPerBus = 2;

/** One step of a row's schedule. */
enum class Op
{
    Run,       //!< a measured phase
    Kill,      //!< measured phase; the last node crashes as it starts
    Rebuild,   //!< revive the crashed node, rebuild it at Background
               //!< priority under a measured phase
    Join,      //!< measured phase; the standby node joins as it starts
    Age,       //!< pre-age every card, arm wear curve + read retries
    FaultPuts, //!< overwrite every key while the last node fails
               //!< every NAND program
    Sweep,     //!< anti-entropy, then record the settled state
    ReadBack,  //!< read every key from every node
};

struct Step
{
    Op op;
    const char *phase = ""; //!< measured phase: its field prefix
};

/** Steps that run the workload and are cut as a measured phase. */
bool
measured(Op op)
{
    return op == Op::Run || op == Op::Kill || op == Op::Rebuild ||
        op == Op::Join;
}

/** A BENCH_kv.json field: its name after the row prefix, and the
 * row value it reports (the same name unless aliased). */
struct Field
{
    Field(const char *name) : json(name), from(name) {}
    Field(std::string name, std::string value)
        : json(std::move(name)), from(std::move(value))
    {
    }
    std::string json, from;
};

struct Row
{
    std::string prefix;   //!< of its JSON fields and check names
    bool smoke = false;   //!< run by --smoke, else by the full bench
    unsigned nodes = 4;   //!< serving nodes
    bool standby = false; //!< plus one Standby node for Op::Join
    flash::Geometry geometry = kvGeometry();
    unsigned cards = 2;
    kv::KvParams kv;
    workload::WorkloadParams load;
    sim::Tracer::Params trace; //!< disabled unless a traced row
    /** Op::Sweep repeats while divergence remains, up to this many
     * rounds. */
    unsigned sweepRounds = 1;
    bool twice = false; //!< run again: every value must repeat
    std::vector<Step> steps;
    std::vector<Field> fields;
    std::vector<Check> checks;
};

// ---------------------------------------------------------------- //
// The phase cutter
// ---------------------------------------------------------------- //

/**
 * Registry counters every cut records as a delta (value name,
 * metric): under "<phase>_<name>" for a labeled phase, and summed
 * over every cut of the row into "<name>" -- so an unlabeled
 * single-phase row reports whole-run totals, and a multi-phase row
 * reports both.
 */
constexpr std::pair<const char *, const char *> kCounters[] = {
    {"read_timeouts", "kv.router.read_timeouts"},
    {"degraded_writes", "kv.router.degraded_writes"},
    {"dead_transitions", "kv.router.dead_transitions"},
    {"cache_served", "kv.router.cache_served"},
    {"cache_stale", "kv.router.cache_stale"},
    {"moved_keys", "kv.router.moved_keys"},
    {"repaired_keys", "kv.router.repaired_keys"},
    {"local_corruptions", "kv.router.local_corruption"},
    {"pressured", "kv.svc.pressured"},
    {"coalesced_gets", "kv.shard.coalesced_gets"},
    {"repairs", "kv.shard.repairs_applied"},
    {"suspended_programs", "nand.suspended_programs"},
    {"resumed_programs", "nand.resumed_programs"},
    {"bg_reads", "nand.background_reads"},
    {"bg_writes", "nand.background_writes"},
    {"bits_corrected", "nand.bits_corrected"},
    {"uncorrectable_pages", "nand.uncorrectable_pages"},
    {"retried_reads", "flash.read_retries"},
    {"retry_successes", "flash.read_retry_successes"},
    {"retry_failures", "flash.read_retry_failures"},
    {"pages_written", "fs.pages_written"},
    {"relocated_pages", "fs.pages_cleaned"},
    {"retired_blocks", "fs.retired_blocks"},
    {"poisoned_pages", "fs.poisoned_pages"},
    {"reserve_alarms", "fs.reserve_alarms"},
    {"foreground_assists", "fs.foreground_assists"},
    {"clean_parks", "fs.clean_parks"},
    {"trimmed_pages", "fs.trimmed_pages"},
};

/**
 * Closes the segment since the previous cut. Counter deltas come
 * from registry snapshots (Snapshot::deltaSince); stage tails from
 * copies of the always-on kv.stage.* histograms
 * (LatencyHistogram::subtract), so each phase owns exactly the
 * activity between two cuts; throughput and client latency come
 * from the workload engine, which resets per phase.
 */
class Cutter
{
  public:
    Cutter(sim::Simulator &sim, const workload::WorkloadEngine &engine,
           Values &v)
        : sim_(sim), engine_(engine), v_(v),
          base_(sim.metrics().snapshot())
    {
        auto &m = sim.metrics();
        stages_ = {
            {"stage_admission_p99_us",
             &m.histogram("kv.stage.admission")},
            {"stage_net_p99_us", &m.histogram("kv.stage.net")},
            {"stage_shard_p99_us", &m.histogram("kv.stage.shard")},
            {"stage_flash_queue_p99_us",
             &m.histogram("kv.stage.flash_queue", {{"class", "read"}})},
            {"stage_nand_p99_us",
             &m.histogram("kv.stage.nand", {{"class", "read"}})},
        };
        for (Stage &s : stages_)
            s.base = *s.live;
    }

    /** Record the segment since the last cut under @p phase;
     * @p is_phase adds the engine's and the stage histograms' view
     * of a measured phase. */
    void
    cut(const std::string &phase, bool is_phase)
    {
        auto name = [&](const char *f) {
            return phase.empty() ? std::string(f) : phase + "_" + f;
        };
        auto now = sim_.metrics().snapshot();
        auto delta = now.deltaSince(base_);
        base_ = std::move(now);
        for (const auto &[f, metric] : kCounters) {
            double d = double(delta.total(metric));
            if (!phase.empty())
                v_[name(f)] = d;
            v_[f] += d;
        }
        for (Stage &s : stages_) {
            sim::LatencyHistogram cur = *s.live;
            cur.subtract(s.base);
            s.base = *s.live;
            if (is_phase)
                v_[name(s.field)] =
                    cur.count() ? sim::ticksToUs(cur.p99()) : 0.0;
        }
        if (!is_phase)
            return;
        const auto &lat = engine_.allLatency();
        v_[name("tput_ops")] = engine_.throughputOpsPerSec();
        v_[name("p50_us")] = sim::ticksToUs(lat.p50());
        v_[name("p99_us")] = sim::ticksToUs(lat.p99());
        v_[name("p999_us")] = sim::ticksToUs(lat.p999());
        v_[name("read_p99_us")] =
            sim::ticksToUs(engine_.readLatency().p99());
        v_[name("write_p99_us")] =
            sim::ticksToUs(engine_.writeLatency().p99());
        v_[name("mean_us")] = lat.mean() / double(sim::oneUs);
        v_[name("rejected")] = double(engine_.rejectedOps());
        v_[name("backoffs")] = double(engine_.backoffs());
        // Write amplification: (user page writes + cleaner page
        // moves) / user page writes.
        auto written = delta.total("fs.pages_written");
        v_[name("write_amp")] = written == 0 ? 0.0
            : double(written + delta.total("fs.pages_cleaned")) /
                double(written);
    }

  private:
    struct Stage
    {
        const char *field;
        sim::LatencyHistogram *live;
        sim::LatencyHistogram base = {};
    };

    sim::Simulator &sim_;
    const workload::WorkloadEngine &engine_;
    Values &v_;
    sim::MetricsRegistry::Snapshot base_;
    std::vector<Stage> stages_;
};

// ---------------------------------------------------------------- //
// Step helpers
// ---------------------------------------------------------------- //

/**
 * Span-tree checks over the retained traces, recorded into @p v:
 *  - span_checked / span_sum_err_us: for every sampled kv.get that
 *    reached NAND (the paper's uncached data path), the durations
 *    of the root's direct children -- svc.queue then route, which
 *    themselves telescope over net.req / shard.get / net.resp --
 *    must sum exactly to the root's duration, because every span
 *    is clocked by the one simulated clock. Traces that hit a
 *    timeout retry (rpc.timeout mark) legitimately hold a
 *    straggler span that overlaps the retry and are skipped.
 *  - complete_traces: traces whose kv.* root holds a svc.queue
 *    child and reaches a nand.* leaf through the parent links --
 *    one tree from admission down to the flash chip.
 */
void
traceChecks(const sim::Tracer &tracer, Values &v)
{
    std::uint64_t checked = 0, complete = 0;
    double max_err = 0.0;
    for (const auto &t : tracer.retained()) {
        if (t.spans.empty() ||
            std::string_view(t.spans[0].name).substr(0, 3) != "kv.")
            continue;
        bool queued = false, nand = false, timed_out = false;
        for (const auto &s : t.spans) {
            if (s.parent == 0 &&
                std::string_view(s.name) == "svc.queue")
                queued = true;
            if (std::string_view(s.name).substr(0, 5) != "nand.")
                continue;
            const sim::Tracer::Span *hop = &s;
            while (hop->parent != sim::Tracer::noParent &&
                   hop->parent < t.spans.size())
                hop = &t.spans[hop->parent];
            nand = nand || hop == &t.spans[0];
        }
        if (queued && nand)
            ++complete;
        for (const auto &m : t.marks) {
            if (std::string_view(m.name) == "rpc.timeout")
                timed_out = true;
        }
        if (std::string_view(t.spans[0].name) != "kv.get" || !nand ||
            timed_out)
            continue;
        sim::Tick sum = 0;
        bool open = false;
        for (std::size_t i = 1; i < t.spans.size(); ++i) {
            const auto &s = t.spans[i];
            if (s.parent != 0)
                continue; // not a direct child of the root
            if (s.end == 0)
                open = true;
            else
                sum += s.end - s.begin;
        }
        if (open)
            continue;
        sim::Tick e2e = t.spans[0].end - t.spans[0].begin;
        sim::Tick err = sum > e2e ? sum - e2e : e2e - sum;
        max_err = std::max(max_err, sim::ticksToUs(err));
        ++checked;
    }
    v["span_checked"] = double(checked);
    v["span_sum_err_us"] = max_err;
    v["complete_traces"] = double(complete);
}

/**
 * Age every node's card in place: wear curve on, every block
 * pre-aged near the endurance limit (the marked few one erase under
 * it), and the read-retry ladder armed.
 */
void
ageCards(core::Cluster &cluster, const flash::Geometry &geo)
{
    const unsigned nodes = cluster.size();
    for (unsigned n = 0; n < nodes; ++n) {
        cluster.node(n).hostServer(0).setReadRetries(2);
        auto &nand = cluster.node(n).card(0).nand();
        nand.setWearModel(agedBer0, agedKnee, agedAlpha);
        auto &store = nand.store();
        flash::Address a;
        for (a.bus = 0; a.bus < geo.buses; ++a.bus) {
            for (a.chip = 0; a.chip < geo.chipsPerBus; ++a.chip) {
                // The heavily-marked blocks sit at different
                // physical positions on each node. Replicated
                // preload lays data out near-identically across
                // nodes, so marking the SAME indices everywhere
                // would poison both replicas of the same keys --
                // manufactured double-fault data loss, not the
                // single-card wear this scenario models.
                for (std::uint32_t b = 0; b < geo.blocksPerChip;
                     ++b) {
                    std::uint32_t slot =
                        (b + geo.blocksPerChip -
                         (n * geo.blocksPerChip / nodes) %
                             geo.blocksPerChip) %
                        geo.blocksPerChip;
                    a.block = b;
                    a.page = 0;
                    store.addWear(a, slot < agedMarkedPerBus
                                         ? agedEraseLimit - 1
                                         : agedBulkWear);
                }
            }
        }
        store.setEraseLimit(agedEraseLimit);
    }
}

/**
 * Record the settled state after a sweep: divergence, repair lag,
 * ring epoch, measured flash occupancy (occupied usable blocks over
 * usable blocks, retired blocks excluded from both -- the fragmented
 * footprint the cleaner contends with, not the a-priori live-bytes
 * fraction), the erase-count spread (min of mins, mean of p50s, max
 * of maxes), keys still marked corrupt, and the trace checks;
 * exports a traced row's span trees to @p trace_out.
 */
void
settle(const Row &row, sim::Simulator &sim, core::Cluster &cluster,
       kv::KvRouter &router, Values &v, const std::string &trace_out)
{
    v["divergent_final"] = double(router.divergentWrites());
    v["repair_lag"] = double(router.maxBackgroundWrites());
    v["ring_epoch"] = double(router.ringEpoch());
    v["keys"] = double(row.load.keys);
    // The cuts must account for every counted event: their deltas
    // sum back to the live counters.
    double unaccounted = 0.0;
    for (const auto &[f, metric] : kCounters)
        unaccounted += std::fabs(
            v[f] - double(sim.metrics().counterTotal(metric)));
    v["unaccounted"] = unaccounted;

    const flash::Geometry &g = row.geometry;
    const double blocks =
        double(g.buses) * g.chipsPerBus * g.blocksPerChip;
    const unsigned nodes = cluster.size();
    double occ = 0.0;
    std::uint64_t p50sum = 0, corrupt = 0;
    std::uint32_t emin = ~0u, emax = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        const auto &fs = cluster.node(n).fs();
        double usable = blocks - double(fs.retiredBlocks());
        occ += (usable - double(fs.freeBlocks())) / usable;
        for (unsigned c = 0; c < cluster.node(n).cardCount(); ++c) {
            auto es =
                cluster.node(n).card(c).nand().store().eraseStats();
            emin = std::min(emin, es.min);
            emax = std::max(emax, es.max);
            p50sum += es.p50;
        }
        corrupt += router.shard(net::NodeId(n)).corruptKeyCount();
    }
    v["utilization"] = occ / nodes;
    v["erase_min"] = double(emin);
    v["erase_p50"] =
        double(std::uint32_t(p50sum / (nodes * row.cards)));
    v["erase_max"] = double(emax);
    v["corrupt_final"] = double(corrupt);

    if (!row.trace.enabled)
        return;
    const sim::Tracer &t = sim.tracer();
    v["started"] = double(t.started());
    v["retained"] = double(t.retained().size());
    v["slow"] = double(t.retainedSlow());
    traceChecks(t, v);
    if (!trace_out.empty() && !t.writeChromeJson(trace_out))
        sim::fatal("could not write trace JSON to %s",
                   trace_out.c_str());
}

// ---------------------------------------------------------------- //
// The runner: one cluster builder, one step loop
// ---------------------------------------------------------------- //

/** Build @p row's cluster, run its steps, return its values. */
Values
runRow(const Row &row, const std::string &trace_out)
{
    sim::Simulator sim;
    sim.tracer().configure(row.trace);
    const unsigned size = row.nodes + (row.standby ? 1 : 0);
    core::ClusterParams cp;
    cp.topology = net::Topology::ring(size, size >= 20 ? 4 : 2);
    cp.node.geometry = row.geometry;
    cp.node.timing = flash::Timing{}; // paper NAND timing
    cp.node.cards = row.cards;
    cp.node.controllerTags = 128;
    cp.network.endpoints = kv::kvRequiredEndpoints;
    core::Cluster cluster(sim, cp);

    // A standby node starts outside the ring and carries no client
    // sessions until it joins.
    kv::KvParams kp = row.kv;
    workload::WorkloadParams wp = row.load;
    if (row.standby)
        kp.activeNodes = wp.clientNodes = row.nodes;
    kv::KvRouter router(sim, cluster, kp);
    kv::KvService service(sim, router);
    workload::WorkloadEngine engine(sim, cluster, router, service,
                                    wp);

    Values v;
    Cutter cutter(sim, engine, v);
    auto fail = [&](const char *what) {
        sim::fatal("%s: %s", row.prefix.c_str(), what);
    };
    bool loaded = false;
    engine.preload([&]() { loaded = true; });
    sim.run();
    if (!loaded)
        fail("preload did not finish");
    cutter.cut("preload", false);

    const net::NodeId last(row.nodes - 1); // crash victim / faulty
    const net::NodeId joiner(row.nodes);
    const std::uint64_t keys = wp.keys;
    bool first = true, faulted = false;
    for (const Step &s : row.steps) {
        if (measured(s.op)) {
            // The membership event lands as the phase starts, so the
            // phase measures the dying in-flight ops, the detection
            // timeouts and failover retries, the rebuild stream or
            // the handoff.
            bool done = false, event = true;
            if (s.op == Op::Rebuild) {
                event = false;
                router.reviveNode(last);
                router.rebuildNode(last, [&]() {
                    event = true;
                    engine.resumeNode(last); // its clients return
                });
            }
            // The first phase issues the engine's own budget (an
            // open-loop row has only this one); later ones restart it.
            if (first)
                engine.run([&]() { done = true; });
            else
                engine.runPhase(wp.totalOps, [&]() { done = true; });
            first = false;
            if (s.op == Op::Kill) {
                engine.pauseNode(last);
                router.killNode(last);
            }
            if (s.op == Op::Join) {
                event = false;
                router.joinNode(joiner, [&]() { event = true; });
            }
            sim.run();
            if (!done || !event)
                fail("phase did not finish");
            if (s.op == Op::Kill &&
                router.member(last) != kv::MemberState::Dead)
                fail("victim not detected dead by end of window");
            if (s.op == Op::Rebuild &&
                router.member(last) != kv::MemberState::Live)
                fail("victim not live after rebuild");
            if (s.op == Op::Join &&
                (router.member(joiner) != kv::MemberState::Live ||
                 router.shard(joiner).keyCount() == 0))
                fail("joiner not serving after handoff");
            cutter.cut(s.phase, true);
        } else if (s.op == Op::Age) {
            ageCards(cluster, row.geometry);
        } else if (s.op == Op::FaultPuts) {
            // W=1 overwrites with one node failing every program:
            // each acks Ok off the healthy replica and leaves the
            // faulty one divergent.
            auto &server = cluster.node(last).hostServer(0);
            server.setWriteFault(
                [](const flash::Address &) { return true; });
            std::uint64_t ok = 0;
            bench::Window::run(
                keys, 64,
                [&](std::uint64_t k, std::function<void()> next) {
                router.put(net::NodeId(k % row.nodes), k,
                           workload::WorkloadEngine::makeValue(
                               k ^ 0xff, wp.valueBytes),
                           [&ok, next](kv::KvStatus st) {
                    ok += st == kv::KvStatus::Ok;
                    next();
                });
            });
            sim.run();
            server.setWriteFault(nullptr);
            v["fault_puts_ok"] = double(ok);
            faulted = true;
        } else if (s.op == Op::Sweep) {
            // Quiesced anti-entropy. Repeated rounds are for the
            // aged card at the red line: repair pushes are appends,
            // so a round's later repairs can shed while the cleaner
            // digests the churn of its earlier ones; each sweep's
            // quiesce window lets reclamation catch up.
            v["divergent"] = double(router.divergentWrites());
            for (unsigned round = 0; round < row.sweepRounds &&
                 (round == 0 || router.divergentWrites() > 0);
                 ++round) {
                bool swept = false;
                router.repairSweep([&]() { swept = true; });
                sim.run();
                if (!swept)
                    fail("repair sweep did not finish");
            }
            cutter.cut("sweep", false);
            settle(row, sim, cluster, router, v, trace_out);
        } else if (s.op == Op::ReadBack) {
            // Every key from every node, bounded in flight: an
            // unthrottled burst would trip the read timeout on
            // queueing delay alone. A key that fails here -- after
            // retries, failover and the sweep -- was lost; one that
            // reads Ok with the wrong bytes was silently corrupted.
            const std::uint64_t reads = keys * row.nodes;
            std::uint64_t ok = 0, right = 0;
            bench::Window::run(
                reads, 64,
                [&](std::uint64_t i, std::function<void()> next) {
                kv::Key k = i / row.nodes;
                router.get(net::NodeId(i % row.nodes), k,
                           [&, k, next](flash::PageBuffer got,
                                        kv::KvStatus st) {
                    ok += st == kv::KvStatus::Ok;
                    right += st == kv::KvStatus::Ok &&
                        got == workload::WorkloadEngine::makeValue(
                                   faulted ? k ^ 0xff : k,
                                   wp.valueBytes);
                    next();
                });
            });
            sim.run();
            v["read_back"] = double(reads);
            v["read_back_bad"] = double(reads - ok);
            v["read_back_wrong"] = double(ok - right);
        }
    }
    return v;
}

// ---------------------------------------------------------------- //
// The scenario table
// ---------------------------------------------------------------- //

const std::vector<const char *> kStageFields = {
    "stage_admission_p99_us", "stage_net_p99_us",
    "stage_shard_p99_us", "stage_flash_queue_p99_us",
    "stage_nand_p99_us"};

/** Fields of each membership phase. */
const std::vector<const char *> kMemberFields = {
    "tput_ops", "p50_us", "p99_us", "read_timeouts",
    "degraded_writes", "dead_transitions"};

/** @p names under each of @p phases ("steady_tput_ops", ...). */
std::vector<Field>
phased(std::initializer_list<const char *> phases,
       std::vector<const char *> names)
{
    names.insert(names.end(), kStageFields.begin(), kStageFields.end());
    std::vector<Field> out;
    for (const char *p : phases) {
        for (const char *n : names) {
            std::string f = std::string(p) + "_" + n;
            out.emplace_back(f, f);
        }
    }
    return out;
}

/** Tracer setup of a traced row: 1-in-16 sampling, and every op
 * slower than @p slow_us when non-zero (the slow-request log). */
sim::Tracer::Params
sampled(double slow_us)
{
    sim::Tracer::Params tp;
    tp.enabled = true;
    tp.sampleEvery = 16;
    tp.slowThresholdTicks = sim::usToTicks(slow_us);
    tp.maxRetained = 4096;
    return tp;
}

/** Gates of a traced row. */
const std::vector<Check> kTraceChecks = {
    {"started", Cmp::Gt, 0},
    {"retained", Cmp::Gt, 0},
    {"span_checked", Cmp::Ge, 1},
    {"span_sum_err_us", Cmp::Eq, 0}, // one simulated clock
    {"complete_traces", Cmp::Ge, 1},
};

/**
 * The headline serving row: @p nodes on a ring (4 lanes from 20
 * nodes up), two 1 GB cards each, R=2 / W=1 with a 256-slot hot-key
 * cache; 95/5 get/put over 10k keys of 256 B, Zipf 0.99, 8
 * closed-loop clients per node x depth 4; one measured phase of
 * @p ops, then one anti-entropy sweep that must leave no divergence.
 */
Row
serving(std::string prefix, unsigned nodes, std::uint64_t ops)
{
    Row r;
    r.prefix = std::move(prefix);
    r.nodes = nodes;
    r.kv.replication = 2;
    r.kv.writeQuorum = 1;
    r.kv.cacheSlots = 256;
    workload::WorkloadParams &w = r.load;
    w.keys = 10000;
    w.valueBytes = 256;
    w.mix.readFrac = 0.95;
    w.zipfian = true;
    w.theta = 0.99;
    w.clientsPerNode = 8;
    w.pipeline = 4;
    w.client.window = 8;
    w.client.queueCap = 1024;
    w.totalOps = ops;
    w.seed = 99;
    r.steps = {{Op::Run}, {Op::Sweep}};
    r.checks = {{"divergent_final", Cmp::Eq, 0},
                {"unaccounted", Cmp::Eq, 0}};
    return r;
}

/**
 * Fail-stop crash under serving load, then a Background-priority
 * rebuild, across four measured phases: steady, kill window (the
 * crash lands as it starts), rebuild window (the anti-entropy
 * stream runs under live load from the surviving clients) and
 * recovered. The crash window -- not steady state -- must own the
 * detection timeouts and the dead transition, and hold p99 within
 * 3x of steady.
 */
Row
killRow(std::string prefix, unsigned nodes, std::uint64_t ops)
{
    Row r = serving(std::move(prefix), nodes, ops);
    r.load.honorRetryAfter = true;
    r.steps = {{Op::Run, "steady"},
               {Op::Kill, "window"},
               {Op::Rebuild, "rebuild"},
               {Op::Run, "post"},
               {Op::Sweep}};
    r.fields = phased({"steady", "window", "rebuild", "post"},
                      kMemberFields);
    r.fields.insert(r.fields.end(),
                    {"read_timeouts", "dead_transitions",
                     "degraded_writes", "rebuild_repairs",
                     {"bg_reads", "rebuild_bg_reads"},
                     {"bg_writes", "rebuild_bg_writes"},
                     {"backoffs", "post_backoffs"},
                     "divergent_final"});
    r.checks.insert(r.checks.end(),
                    {{"dead_transitions", Cmp::Gt, 0},
                     {"steady_dead_transitions", Cmp::Eq, 0},
                     {"window_dead_transitions", Cmp::Gt, 0},
                     {"window_read_timeouts", Cmp::Gt, 1,
                      "steady_read_timeouts"},
                     {"window_p99_us", Cmp::Le, 3, "steady_p99_us"},
                     // The rebuild rides the Background flash class.
                     {"rebuild_repairs", Cmp::Gt, 0},
                     {"rebuild_bg_writes", Cmp::Gt, 0}});
    return r;
}

/**
 * Ring expansion under live load: a standby node joins as the
 * window phase starts, so the dual-write handoff, the Background
 * catch-up sweep and the atomic ring flip all land inside it.
 */
Row
expandRow(std::string prefix, unsigned nodes, std::uint64_t ops)
{
    Row r = serving(std::move(prefix), nodes, ops);
    r.standby = true;
    // Throttle the catch-up stream harder than the anti-entropy
    // default: the handoff moves a large slice of the key space
    // while every node keeps serving, and a wide-open chunk eats
    // the controller tags foreground reads need.
    r.kv.repairChunk = 16;
    r.load.honorRetryAfter = true;
    r.steps = {{Op::Run, "steady"},
               {Op::Join, "window"},
               {Op::Run, "post"},
               {Op::Sweep}};
    r.fields = phased({"steady", "window", "post"}, kMemberFields);
    r.fields.insert(r.fields.end(),
                    {"moved_keys", "ring_epoch", "divergent_final"});
    r.checks.insert(r.checks.end(),
                    {{"moved_keys", Cmp::Gt, 0},
                     {"ring_epoch", Cmp::Eq, 1},
                     {"window_p99_us", Cmp::Le, 3, "steady_p99_us"}});
    return r;
}

/**
 * Aged flash: serve a skewed 50/50 mix at 80-90% occupied capacity
 * on 4 nodes, then age the array in place and serve the same load
 * again. The aged tail must hold within 3x of fresh while the whole
 * ladder runs underneath: raw bit errors rise with erase counts,
 * SECDED failures climb the read-retry ladder, persistent losses
 * poison pages and fail over to the replica (healed back by
 * repairPut), endurance-tripped blocks retire behind the cleaner,
 * and the capacity red line sheds puts with a retry-after hint.
 * Sweeps then run to convergence and every key must read back.
 */
Row
agedRow(std::string prefix, std::uint64_t ops)
{
    Row r = serving(std::move(prefix), 4, ops);
    r.geometry = agedGeometry();
    r.cards = 1;
    // No hot-key cache: the subject is the flash read path, and a
    // cache hit would mask the very corruption events under test.
    r.kv.cacheSlots = 0;
    // Live-bytes target: 62% of raw capacity over R=2 replicas of
    // 2 KB values plus 12 bytes of KvShard record framing. Occupied
    // capacity runs well above it: a log page holds ~4 records from
    // adjacent keys and stays live until every one is overwritten
    // (dead-byte trim), so the page-granular cleaner cannot compact
    // sub-page garbage and the footprint settles in the 80-90% band
    // (measured, and gated, as utilization).
    const flash::Geometry &g = r.geometry;
    const std::uint64_t cap = std::uint64_t(g.buses) * g.chipsPerBus *
        g.blocksPerChip * g.pagesPerBlock * g.pageSize;
    r.load.valueBytes = 2048;
    r.load.keys = std::uint64_t(double(r.nodes) * double(cap) * 0.62) /
        (r.kv.replication * (r.load.valueBytes + 12ull));
    r.load.mix.readFrac = 0.5; // write-heavy: churn feeds the cleaner
    r.load.clientsPerNode = 4;
    r.load.pipeline = 2;
    r.load.honorRetryAfter = true; // pressure sheds must back off
    r.sweepRounds = 16;
    r.steps = {{Op::Run, "fresh"},
               {Op::Age},
               {Op::Run, "aged"},
               {Op::Sweep},
               {Op::ReadBack}};
    r.fields = {"keys", "utilization", "fresh_tput_ops",
                "fresh_p99_us", "aged_tput_ops", "aged_p99_us",
                {"write_amp", "aged_write_amp"}, "erase_min",
                "erase_p50", "erase_max", "retired_blocks",
                "bits_corrected", "uncorrectable_pages",
                "retried_reads", "retry_successes", "retry_failures",
                "poisoned_pages", {"relocated_pages", "aged_relocated_pages"},
                "local_corruptions", "repaired_keys", "corrupt_final",
                "divergent_final", "pressured",
                {"backoffs", "aged_backoffs"}, "foreground_assists",
                "reserve_alarms", "clean_parks", "trimmed_pages",
                "read_back_bad"};
    r.checks.insert(r.checks.end(),
                    {{"aged_p99_us", Cmp::Le, 3, "fresh_p99_us"},
                     // Every wear-destroyed page healed.
                     {"corrupt_final", Cmp::Eq, 0},
                     {"read_back_bad", Cmp::Eq, 0},
                     // The ladder engaged: wear bit, retries rescued
                     // senses, a block retired behind the cleaner.
                     {"uncorrectable_pages", Cmp::Gt, 0},
                     {"retry_successes", Cmp::Gt, 0},
                     {"retired_blocks", Cmp::Ge, 1},
                     {"aged_relocated_pages", Cmp::Gt, 0},
                     {"aged_write_amp", Cmp::Ge, 1},
                     {"utilization", Cmp::Ge, 0.78},
                     {"utilization", Cmp::Le, 0.93}});
    return r;
}

/** Every scenario: the full rows feed BENCH_kv.json, the smoke rows
 * run the same scenarios small enough for a sanitizer build. */
std::vector<Row>
table()
{
    std::vector<Row> t;
    // Scaling: the headline. The 100-node point is the cluster-scale
    // target the ladder event queue and next-hop routing exist for.
    for (unsigned n : {4u, 8u, 20u, 100u}) {
        Row r = serving("nodes" + std::to_string(n) + "_", n,
                        3000ull * n);
        r.fields = {"tput_ops", "p50_us", "p99_us", "p999_us",
                    "read_p99_us", "write_p99_us", "mean_us",
                    "suspended_programs", "resumed_programs"};
        r.fields.insert(r.fields.end(), kStageFields.begin(),
                        kStageFields.end());
        if (n == 4) // the config program interference used to sink
            r.checks.push_back({"tput_ops", Cmp::Ge, 400000});
        if (n == 20) {
            r.fields.insert(r.fields.end(),
                            {"cache_served", "cache_stale",
                             "coalesced_gets"});
            r.checks.push_back({"tput_ops", Cmp::Ge, 1.9e6});
            // A silently disabled suspend-resume path would pass
            // every latency gate on a lucky run.
            r.checks.push_back({"suspended_programs", Cmp::Gt, 0});
        }
        if (n == 100)
            r.checks.push_back({"tput_ops", Cmp::Ge, 10e6});
        t.push_back(r);
    }
    // Skew at 8 nodes: uniform, then rising Zipf theta, with the
    // hot-key cache on and off (ablation).
    for (bool cached : {true, false}) {
        for (double theta : {0.0, 0.5, 0.8, 0.9, 0.99}) {
            std::string label = theta == 0.0
                ? std::string("uniform")
                : "theta" + std::to_string(int(theta * 100));
            Row r = serving(std::string("skew_") +
                                (cached ? "" : "nocache_") + label + "_",
                            8, 24000);
            r.load.zipfian = theta != 0.0;
            r.load.theta = theta;
            r.kv.cacheSlots = cached ? 256 : 0;
            r.fields = {"tput_ops", "p99_us"};
            t.push_back(r);
        }
    }
    // Write quorum at 20 nodes: W=1 acks on the first replica and
    // leaves stragglers to the background; W=2 waits for both.
    for (unsigned w : {1u, 2u}) {
        Row r = serving("quorum_w" + std::to_string(w) + "_", 20,
                        60000);
        r.kv.writeQuorum = w;
        r.fields = {"tput_ops", "p99_us", "read_p99_us",
                    "write_p99_us", "repair_lag",
                    {"divergent_after_sweep", "divergent_final"}};
        if (w == 1)
            r.checks.push_back(
                {"write_p99_us", Cmp::Le, 1.6, "read_p99_us"});
        t.push_back(r);
    }
    // Open loop at 8 nodes: Poisson arrivals, 64 clients x 2000/s
    // = 128k ops/s offered, well under the closed-loop ceiling.
    Row open = serving("open_", 8, 24000);
    open.load.openLoop = true;
    open.load.arrivalsPerSec = 2000.0;
    open.fields = {"tput_ops", "p50_us", "p99_us", "p999_us",
                   "rejected"};
    t.push_back(open);
    // The headline config again, smaller, traced.
    Row traced = serving("traced_", 20, 12000);
    traced.trace = sampled(0);
    traced.fields = {"tput_ops", "p99_us", "started", "retained",
                     "slow", "span_checked", "span_sum_err_us"};
    traced.checks.insert(traced.checks.end(), kTraceChecks.begin(),
                         kTraceChecks.end());
    t.push_back(traced);
    // Elastic membership and aged flash.
    Row kill = killRow("member_kill_", 20, 30000);
    // At 20 nodes the default detection knobs sit far above the
    // steady tail, so steady state must own no timeouts at all.
    kill.checks.push_back({"steady_read_timeouts", Cmp::Eq, 0});
    t.push_back(kill);
    t.push_back(expandRow("member_expand_", 20, 30000));
    t.push_back(agedRow("age_", 8000));

    // Smoke rows. The hot-key config (cache, coalescing, spreading,
    // group commit) traced with the slow-request log on, run twice:
    // a same-seed rerun must repeat every value.
    std::vector<Row> s;
    Row hot = serving("smoke_", 4, 4000);
    hot.trace = sampled(2000);
    hot.twice = true;
    hot.checks.push_back({"tput_ops", Cmp::Gt, 0});
    hot.checks.insert(hot.checks.end(), kTraceChecks.begin(),
                      kTraceChecks.end());
    s.push_back(hot);
    // Quorum fault: W=1 overwrites of 200 keys while node 3 fails
    // every program must all ack Ok and leave divergence, which one
    // sweep drains; then every node must read every new value.
    Row quorum = serving("smoke_quorum_", 4, 0);
    quorum.kv.cacheSlots = 0;
    quorum.load.keys = 200;
    quorum.load.valueBytes = 128;
    quorum.steps = {{Op::FaultPuts}, {Op::Sweep}, {Op::ReadBack}};
    quorum.checks.insert(quorum.checks.end(),
                         {{"fault_puts_ok", Cmp::Eq, 1, "keys"},
                          {"divergent", Cmp::Gt, 0},
                          {"read_back_bad", Cmp::Eq, 0},
                          {"read_back_wrong", Cmp::Eq, 0}});
    s.push_back(quorum);
    // Membership at 4 nodes. The kill row detects with tight knobs so
    // it spends simulated milliseconds, not seconds; they sit below
    // the 4-node steady tail, so steady state sees a few spurious
    // timeouts and the crash window must merely dominate. The join
    // involves no failure detection and keeps the defaults.
    Row kill4 = killRow("smoke_kill_", 4, 3000);
    kill4.kv.readTimeoutUs = 1000;
    kill4.kv.writeTimeoutUs = 4000;
    kill4.kv.suspectAfter = 2;
    kill4.kv.deadGraceUs = 2000;
    s.push_back(kill4);
    s.push_back(expandRow("smoke_expand_", 4, 3000));
    s.push_back(agedRow("smoke_age_", 6000));
    // The full cluster scale point with a reduced op budget.
    Row big = serving("smoke100_", 100, 20000);
    big.checks.push_back({"tput_ops", Cmp::Gt, 0});
    s.push_back(big);
    for (Row &r : s) {
        r.smoke = true;
        t.push_back(std::move(r));
    }
    return t;
}

/** Checks that span rows: throughput must grow with every added
 * scale point (a kink means added nodes stopped paying). */
const std::vector<Check> kCrossChecks = {
    {"nodes4_tput_ops", Cmp::Lt, 1, "nodes8_tput_ops"},
    {"nodes8_tput_ops", Cmp::Lt, 1, "nodes20_tput_ops"},
    {"nodes20_tput_ops", Cmp::Lt, 1, "nodes100_tput_ops"},
};

/** One line per measured phase of @p row. */
void
printRow(const Row &row, const Values &v)
{
    std::printf("\n%s (%u nodes)\n", row.prefix.c_str(), row.nodes);
    for (const Step &s : row.steps) {
        if (!measured(s.op))
            continue;
        std::string p = *s.phase ? std::string(s.phase) + "_" : "";
        auto at = [&](const char *f) { return v.at(p + f); };
        std::printf("  %-8s %10.0f ops/s  p50 %7.1f  p99 %7.1f  "
                    "p99.9 %7.1f us  rejected %.0f | stage p99 (us) "
                    "admission %.1f net %.1f shard %.1f flashq %.1f "
                    "nand %.1f\n",
                    *s.phase ? s.phase : "run", at("tput_ops"),
                    at("p50_us"), at("p99_us"), at("p999_us"),
                    at("rejected"), at("stage_admission_p99_us"),
                    at("stage_net_p99_us"), at("stage_shard_p99_us"),
                    at("stage_flash_queue_p99_us"),
                    at("stage_nand_p99_us"));
    }
    if (v.count("read_back"))
        std::printf("  read-back: %.0f reads, %.0f failed, %.0f Ok "
                    "with wrong bytes\n",
                    v.at("read_back"), v.at("read_back_bad"),
                    v.at("read_back_wrong"));
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        std::string_view a = argv[i];
        if (a == "--smoke") {
            smoke = true;
        } else if (a == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: svc_kv [--smoke] [--trace-out PATH]\n");
            return 1;
        }
    }

    bench::banner(smoke ? "KV service smoke rows"
                        : "KV service: throughput vs tail latency "
                          "(R=2), under faults");
    std::map<std::string, double> all;
    bench::JsonCounters json;
    std::vector<std::string> failed;
    for (const Row &row : table()) {
        if (row.smoke != smoke)
            continue;
        Values v = runRow(row, trace_out);
        printRow(row, v);
        if (row.twice) {
            Values again = runRow(row, trace_out);
            for (const auto &[name, x] : v) {
                auto it = again.find(name);
                if (it != again.end() && it->second == x)
                    continue;
                std::printf("FAIL %s%s not deterministic\n",
                            row.prefix.c_str(), name.c_str());
                failed.push_back(row.prefix + name);
            }
        }
        for (const auto &[name, x] : v)
            all[row.prefix + name] = x;
        for (const Field &f : row.fields) {
            if (!v.count(f.from))
                sim::fatal("%s: no value %s", row.prefix.c_str(),
                           f.from.c_str());
            json.emplace_back(row.prefix + f.json, v.at(f.from));
        }
        for (Check c : row.checks) {
            c.lhs = row.prefix + c.lhs;
            if (!c.rhs.empty())
                c.rhs = row.prefix + c.rhs;
            if (!bench::holds(c, all))
                failed.push_back(c.lhs);
        }
    }
    if (!smoke) {
        for (const Check &c : kCrossChecks) {
            if (!bench::holds(c, all))
                failed.push_back(c.lhs);
        }
        bench::writeJson("BENCH_kv.json", json);
    }
    if (failed.empty())
        return 0;
    std::fprintf(stderr, "svc_kv: %zu check(s) failed:", failed.size());
    for (const auto &f : failed)
        std::fprintf(stderr, " %s", f.c_str());
    std::fprintf(stderr, "\n");
    return 1;
}
