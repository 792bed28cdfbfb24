/**
 * @file
 * Per-layer metrics: registry deltas over the measured phase, and
 * critical-path self times from the tracer's span trees.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <string_view>
#include <utility>

#include "harness.hh"

namespace repobench {

namespace {

const sim::MetricLabels readClass = {{"class", "read"}};
const sim::MetricLabels bgClass = {{"class", "bg"}};

/** @p now with @p base subtracted: the samples recorded since. */
sim::LatencyHistogram
since(sim::LatencyHistogram now, const sim::LatencyHistogram &base)
{
    now.subtract(base);
    return now;
}

double
p99us(const sim::LatencyHistogram &h)
{
    return sim::ticksToUs(h.p99());
}

} // namespace

void
addEndToEnd(SimResult &r, std::vector<Metric> &out,
            std::vector<Metric> &samples)
{
    out.push_back({"sim_ops_per_s", "1/s",
                   frac(double(r.all.count()),
                        sim::ticksToSec(r.elapsed))});
    out.push_back({"sim_p50_us", "us", r.all.us(0.50)});
    out.push_back({"sim_p99_us", "us", r.all.us(0.99)});
    out.push_back({"sim_p999_us", "us", r.all.us(0.999)});
    out.push_back({"sim_read_p99_us", "us", r.reads.us(0.99)});
    out.push_back({"sim_write_p99_us", "us", r.writes.us(0.99)});
    out.push_back({"flash_write_amp", "ratio",
                   frac(r.nandBytes, r.userBytes)});
    samples.push_back({"samples.all", "count", double(r.all.count())});
    samples.push_back({"samples.read", "count", double(r.reads.count())});
    samples.push_back(
        {"samples.write", "count", double(r.writes.count())});
}

LayerProbe::LayerProbe(sim::Simulator &sim, core::Cluster &cluster)
    : sim_(sim), cluster_(cluster)
{
    auto &reg = sim.metrics();
    counters_ = reg.snapshot();
    cacheHits_ = reg.gaugeTotal("kv.cache.hits");
    cacheLookups_ = reg.gaugeTotal("kv.cache.lookups");
    admission_ = reg.histogramTotal("kv.stage.admission");
    rtt_ = reg.histogramTotal("kv.stage.net");
    queueRead_ = reg.histogram("kv.stage.flash_queue", readClass);
    queueBg_ = reg.histogram("kv.stage.flash_queue", bgClass);
    nandRead_ = reg.histogram("kv.stage.nand", readClass);
    events_ = sim.eventsExecuted();
    laneBytes_ = laneBytes();
    sent_ = messagesSent();
}

std::uint64_t
LayerProbe::laneBytes() const
{
    return cluster_.network().totalLaneBytes();
}

std::uint64_t
LayerProbe::messagesSent() const
{
    auto &net = cluster_.network();
    std::uint64_t sent = 0;
    for (unsigned n = 0; n < net.nodeCount(); ++n) {
        for (unsigned e = 1; e < net.endpointCount(); ++e)
            sent += net.endpoint(net::NodeId(n), net::EndpointId(e)).sent();
    }
    return sent;
}

void
LayerProbe::finish(const Work &w, std::vector<Metric> &out) const
{
    auto &reg = sim_.metrics();
    auto d = reg.snapshot().deltaSince(counters_);
    auto c = [&d](const char *name) { return double(d.total(name)); };
    const double ops = double(w.ops);
    const double gets = double(w.gets);
    const double puts = double(w.puts);

    auto add = [&out](const char *name, const char *unit, double v) {
        out.push_back({name, unit, v});
    };

    add("op_fail_frac", "ratio", frac(double(w.failed), ops));

    // sim: the event loop itself.
    add("sim.events_per_op", "events/op",
        frac(double(sim_.eventsExecuted() - events_), ops));
    add("sim.event_pool_slots", "slots", double(sim_.eventPoolSlots()));

    // kv.svc: admission.
    add("kv.svc.admission_wait_p99_us", "us",
        p99us(since(reg.histogramTotal("kv.stage.admission"),
                    admission_)));
    add("kv.svc.rejected_frac", "ratio",
        frac(c("kv.svc.rejected"),
             c("kv.svc.admitted") + c("kv.svc.rejected")));

    // kv.cache / kv.router.
    add("kv.cache.hit_frac", "ratio",
        frac(reg.gaugeTotal("kv.cache.hits") - cacheHits_,
             reg.gaugeTotal("kv.cache.lookups") - cacheLookups_));
    add("kv.router.cache_stale_frac", "ratio",
        frac(c("kv.router.cache_stale"),
             c("kv.router.cache_served") + c("kv.router.cache_stale")));
    add("kv.router.remote_frac", "ratio",
        frac(c("kv.router.remote_ops"),
             c("kv.router.local_ops") + c("kv.router.remote_ops")));
    add("kv.router.retried_reads", "count", c("kv.router.retried_reads"));
    add("kv.router.read_timeouts", "count", c("kv.router.read_timeouts"));
    add("kv.router.repair_lag_max", "count",
        reg.gaugeTotal("kv.router.max_background_writes"));

    // kv.shard.
    const double shard_gets = c("kv.shard.gets");
    add("kv.shard.coalesced_frac", "ratio",
        frac(c("kv.shard.coalesced_gets"), shard_gets));
    add("kv.shard.validated_frac", "ratio",
        frac(c("kv.shard.validated_gets"), shard_gets));
    add("kv.shard.memtable_hit_frac", "ratio",
        frac(c("kv.shard.memtable_hits"), shard_gets));
    add("kv.shard.pressured_puts", "count", c("kv.shard.pressured_puts"));

    // net: every lane of the topology, both directions.
    const double lane_bytes = double(laneBytes() - laneBytes_);
    const auto &net = cluster_.network();
    const double lanes = 2.0 * double(net.topology().links.size());
    const double capacity = lanes *
        net.laneParams().effectiveBytesPerSec() *
        sim::ticksToSec(w.elapsed);
    add("net.bytes_per_op", "B/op", frac(lane_bytes, ops));
    add("net.messages_per_op", "msg/op",
        frac(double(messagesSent() - sent_), ops));
    add("net.link_util", "ratio", frac(lane_bytes, capacity));
    add("net.rtt_p99_us", "us",
        p99us(since(reg.histogramTotal("kv.stage.net"), rtt_)));

    // fs: the log-structured file system under the shards.
    const double fs_written = c("fs.pages_written");
    const double nand_read = c("nand.pages_read");
    add("fs.pages_written_per_put", "pages/put", frac(fs_written, puts));
    add("fs.clean_ratio", "ratio", frac(c("fs.pages_cleaned"), fs_written));
    add("fs.blocks_erased", "count", c("fs.blocks_erased"));
    add("fs.batched_page_frac", "ratio",
        frac(c("fs.batched_page_writes"),
             fs_written + c("fs.batched_page_writes")));
    add("fs.foreground_assists", "count", c("fs.foreground_assists"));
    add("fs.spread_read_frac", "ratio",
        frac(c("fs.spread_reads"), nand_read));

    // flash: the flash servers' command queues.
    add("flash.queue_wait_p99_us.read", "us",
        p99us(since(reg.histogram("kv.stage.flash_queue", readClass),
                    queueRead_)));
    add("flash.queue_wait_p99_us.bg", "us",
        p99us(since(reg.histogram("kv.stage.flash_queue", bgClass),
                    queueBg_)));
    add("flash.batched_writes", "count", c("flash.batched_writes"));
    add("flash.read_retries", "count", c("flash.read_retries"));

    // nand: the arrays.
    add("nand.pages_read_per_get", "pages/get", frac(nand_read, gets));
    add("nand.read_service_p99_us", "us",
        p99us(since(reg.histogram("kv.stage.nand", readClass),
                    nandRead_)));
    add("nand.pages_written", "count", c("nand.pages_written"));
    add("nand.blocks_erased", "count", c("nand.blocks_erased"));
    add("nand.coalesced_programs", "count", c("nand.coalesced_programs"));
    add("nand.suspended_programs", "count", c("nand.suspended_programs"));
    add("nand.displaced_programs", "count", c("nand.displaced_programs"));
}

namespace {

/** The spans whose self times the benchmark reports. */
const char *const criticalSpans[] = {
    "svc.queue", "route",     "net.req",  "net.resp",
    "shard.get", "shard.put", "fs.read",  "fs.append",
    "flash.queue", "flash.op", "nand.read", "nand.write"};

/**
 * Critical-path walk over one span tree. From a span's end, step back
 * to the child that finished last before the current point, then to
 * the one that finished last before that child began, and so on; the
 * gaps in between are the span's self time. Children that ran in
 * parallel with the chosen one (the second page of a record that
 * straddles two pages, a straggler replica) are off the path and
 * count nothing. Each chosen child is walked over its own full
 * interval, so the self times along the path sum to the root's
 * duration exactly when every child on it lies inside the time its
 * parent left for it -- which is what the attribution check asserts.
 */
class CriticalPath
{
  public:
    using Self = std::map<std::string_view, sim::Tick>;

    explicit CriticalPath(const sim::Tracer::Trace &t)
        : spans_(t.spans), kids_(t.spans.size())
    {
        for (std::uint32_t i = 1; i < spans_.size(); ++i) {
            if (spans_[i].parent < spans_.size())
                kids_[spans_[i].parent].push_back(i);
        }
    }

    /** Self times along the path below span @p i, accumulated into
     * @p self by name; returns their sum. */
    sim::Tick
    walk(std::uint32_t i, Self &self) const
    {
        const auto &s = spans_[i];
        sim::Tick t = s.end, own = 0, below = 0;
        while (t > s.begin) {
            const std::uint32_t *best = nullptr;
            sim::Tick best_end = 0;
            for (const std::uint32_t &k : kids_[i]) {
                const auto &c = spans_[k];
                if (c.begin >= t)
                    continue;
                sim::Tick end = std::min(c.end, t);
                if (best == nullptr || end > best_end ||
                    (end == best_end && precedes(c, spans_[*best], t))) {
                    best = &k;
                    best_end = end;
                }
            }
            if (best == nullptr || best_end <= s.begin) {
                own += t - s.begin;
                break;
            }
            own += t - best_end;
            below += walk(*best, self);
            t = std::max(spans_[*best].begin, s.begin);
        }
        self[s.name] += own;
        return own + below;
    }

  private:
    /** Tie-break between children ending together at @p t: one that
     * fits before @p t, then the one that started later. */
    static bool
    precedes(const sim::Tracer::Span &a, const sim::Tracer::Span &b,
             sim::Tick t)
    {
        bool a_fits = a.end <= t, b_fits = b.end <= t;
        if (a_fits != b_fits)
            return a_fits;
        return a.begin > b.begin;
    }

    const std::vector<sim::Tracer::Span> &spans_;
    std::vector<std::vector<std::uint32_t>> kids_;
};

} // namespace

void
attributeSpans(const sim::Tracer &tracer, Rep &rep)
{
    // Per-op self time of each name (0 where the op's critical path
    // had no such span), so the means add up to the mean latency.
    std::map<std::string_view, sim::LatencyHistogram> self;
    for (const char *n : criticalSpans)
        self[n];

    CriticalPath::Self per_op;
    for (const auto &t : tracer.retained()) {
        if (t.spans.empty())
            continue;
        std::string_view root = t.spans[0].name;
        if (root != "kv.get" && root != "kv.put")
            continue;

        per_op.clear();
        sim::Tick path_sum = CriticalPath(t).walk(0, per_op);
        for (const char *n : criticalSpans) {
            auto it = per_op.find(n);
            self[n].record(it == per_op.end() ? 0 : it->second);
        }

        // Attribution: on a get that reached NAND without a timeout
        // retry, self times partition the root exactly (one clock).
        bool reached_nand = std::any_of(
            t.spans.begin(), t.spans.end(), [](const auto &s) {
                return std::string_view(s.name).substr(0, 5) == "nand.";
            });
        bool timed_out = std::any_of(
            t.marks.begin(), t.marks.end(), [](const auto &m) {
                return std::strcmp(m.name, "rpc.timeout") == 0;
            });
        if (root == "kv.get" && reached_nand && !timed_out) {
            sim::Tick e2e = t.spans[0].end - t.spans[0].begin;
            sim::Tick err = path_sum > e2e ? path_sum - e2e
                                           : e2e - path_sum;
            rep.attributionErr = std::max(rep.attributionErr, err);
            ++rep.attributionChecked;
        }
    }

    for (const char *n : criticalSpans) {
        const auto &h = self[n];
        std::string base = std::string("span.") + n;
        rep.spans.push_back({base + ".self_mean_us", "us",
                             h.mean() / double(sim::oneUs)});
        rep.spans.push_back({base + ".self_p99_us", "us", p99us(h)});
    }
    rep.samples.push_back({"samples.traced_ops", "count",
                           double(self.begin()->second.count())});
}

} // namespace repobench
