/**
 * @file
 * Repository benchmark driver.
 *
 *   repobench --workload <kv_zipf_read|kv_uniform_write|
 *                         isp_remote_scan|all>
 *             --seed N --seconds S --trace 0|1
 *             [--ops N] [--subruns N]
 *
 * A run derives a fixed number of sub-run seeds from --seed. Each
 * sub-run builds a fresh cluster, preloads it, runs the measured
 * phase and verifies the result; the simulated end-to-end metrics
 * pool the measured phases of all sub-runs, which keeps them steady
 * from seed to seed. The driver then repeats sub-runs (traced with
 * --trace 1) until S seconds of wall clock are spent: every repeat
 * must reproduce its seed's simulated results bit for bit, and the
 * host times are the fastest untraced repetition's.
 *
 * Prints a report with every metric, its unit and the sample counts
 * behind each percentile, then, as the last line, one JSON object:
 * {"correct", "attempted", "failed", "metrics"} holding the
 * end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
 * --workload all runs the three workloads in one process and
 * prefixes each metric with its workload. Exits 1 when a check or an
 * operation failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hh"
#include "kv/kv_types.hh"

using namespace repobench;

namespace {

struct Workload
{
    const char *name;
    Rep (*run)(const RepConfig &);
    bool kv;          //!< has KV span trees to attribute
    unsigned subRuns; //!< seeds pooled into the simulated metrics
};

const Workload workloads[] = {
    {"kv_zipf_read", runKvZipfRead, true, 24},
    {"kv_uniform_write", runKvUniformWrite, true, 10},
    {"isp_remote_scan", runIspRemoteScan, false, 40},
};

/**
 * The smallest of @p field over @p reps. Host times take the fastest
 * repetition: on a shared machine the same seed's measured phase runs
 * up to 1.5x slower in bursts lasting seconds, so a median moves with
 * how much of a run such bursts covered, while the fastest repetition
 * is one no burst touched. @p reps must not be empty.
 */
template <typename Field>
double
fastest(const std::vector<const Rep *> &reps, Field field)
{
    double best = field(*reps.front());
    for (const Rep *r : reps)
        best = std::min(best, field(*r));
    return best;
}

/** The median of @p v, which must not be empty. */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

/** Exact equality of two metric lists (names, units, values). */
bool
same(const std::vector<Metric> &a, const std::vector<Metric> &b)
{
    return a.size() == b.size() &&
        std::equal(a.begin(), a.end(), b.begin(),
                   [](const Metric &x, const Metric &y) {
        return x.name == y.name && x.unit == y.unit &&
            std::memcmp(&x.value, &y.value, sizeof(double)) == 0;
    });
}

/** Seed of sub-run @p i: the workload's inputs derive from it. */
std::uint64_t
subSeed(std::uint64_t seed, unsigned i)
{
    return kv::mix64(seed ^ (0xd1b54a32d192ed03ull * (i + 1)));
}

/** Aggregate of all repetitions of one workload. */
struct Outcome
{
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::vector<Metric> samples;
    std::vector<std::string> problems;
    std::uint64_t attempted = 0, failed = 0;
    std::size_t reps = 0, tracedReps = 0;
};

/**
 * Run @p sub_runs repetitions, one per derived seed, and pool their
 * simulated results; then repeat them (traced when @p trace) until
 * @p seconds of wall clock are spent. A repeat must reproduce its
 * seed's simulated results bit for bit, traced or not.
 */
Outcome
runWorkload(const Workload &w, std::uint64_t seed, double seconds,
            bool trace, std::uint64_t ops, unsigned sub_runs)
{
    Stopwatch clock;
    std::vector<Rep> base, repeats;
    for (unsigned i = 0; i < sub_runs; ++i)
        base.push_back(w.run({subSeed(seed, i), false, ops}));
    // Traced repeats run each seed twice in a row, so the span self
    // times get a same-seed check too.
    auto sub_of = [&](std::size_t k) {
        return unsigned((trace ? k / 2 : k) % sub_runs);
    };
    double elapsed = clock.lap();
    do {
        repeats.push_back(w.run(
            {subSeed(seed, sub_of(repeats.size())), trace, ops}));
        elapsed += clock.lap();
    } while (elapsed < seconds || repeats.size() < (trace ? 2u : 1u));

    Outcome o;
    o.reps = base.size() + (trace ? 0 : repeats.size());
    o.tracedReps = trace ? repeats.size() : 0;

    // Correctness: every repetition's own checks, then determinism.
    for (const auto *reps : {&base, &repeats}) {
        for (const Rep &r : *reps) {
            o.attempted += r.attempted;
            o.failed += r.failed;
            o.problems.insert(o.problems.end(), r.problems.begin(),
                              r.problems.end());
        }
    }
    for (std::size_t k = 0; k < repeats.size(); ++k) {
        Rep &r = repeats[k];
        Rep &b = base[sub_of(k)];
        if (!r.sim.same(b.sim) || !same(r.layers, b.layers))
            o.problems.push_back(
                trace ? "tracing: traced results differ from untraced"
                      : "determinism: a same-seed repetition differs");
        if (!trace)
            continue;
        if (k % 2 == 1 && !same(r.spans, repeats[k - 1].spans))
            o.problems.push_back(
                "determinism: same-seed span self times differ");
        if (w.kv && r.attributionChecked == 0)
            o.problems.push_back("attribution: no traced get reached NAND");
        if (r.attributionErr != 0)
            o.problems.push_back(sim::format(
                "attribution: span self times miss the root by %.6f us",
                sim::ticksToUs(r.attributionErr)));
    }

    // Host-side times: the fastest untraced repetition.
    std::vector<const Rep *> plain;
    for (const Rep &r : base)
        plain.push_back(&r);
    if (!trace) {
        for (const Rep &r : repeats)
            plain.push_back(&r);
    }
    auto best = [&plain](auto field) { return fastest(plain, field); };
    auto ns_per_op = [](const Rep &r) { return r.hostNsPerOp(); };

    SimResult pooled;
    for (const Rep &r : base)
        pooled.merge(r.sim);
    addEndToEnd(pooled, o.endToEnd, o.samples);
    o.endToEnd.push_back({"host_ns_per_op", "ns", best(ns_per_op)});
    o.endToEnd.push_back({"host_peak_rss_mb", "MB", peakRssMb()});
    o.endToEnd.push_back({"setup_s", "s", best([](const Rep &r) {
        return r.buildS + r.preloadS;
    })});
    // Per-sub-run counts (client retries), summed over the pool.
    std::vector<Metric> counts = base.front().samples;
    for (std::size_t i = 1; i < base.size(); ++i) {
        for (std::size_t j = 0; j < counts.size(); ++j)
            counts[j].value += base[i].samples[j].value;
    }
    o.samples.insert(o.samples.end(), counts.begin(), counts.end());
    o.samples.push_back({"samples.seeds_pooled", "count",
                         double(sub_runs)});
    o.samples.push_back({"samples.host_reps", "count",
                         double(plain.size())});

    if (trace) {
        // Per-layer numbers: the first sub-run, traced.
        const Rep &t = repeats.front();
        o.perLayer = t.layers;
        o.perLayer.insert(o.perLayer.end(), t.spans.begin(),
                          t.spans.end());
        o.samples.push_back({"samples.attribution_checked", "count",
                             double(t.attributionChecked)});
        o.perLayer.push_back({"sim.host_ns_per_event", "ns/event",
                              best([](const Rep &r) {
            return r.events ? r.runS * 1e9 / double(r.events) : 0.0;
        })});
        // Each traced repeat against the untraced run of its seed.
        std::vector<double> overhead;
        for (std::size_t k = 0; k < repeats.size(); ++k) {
            overhead.push_back(frac(repeats[k].hostNsPerOp(),
                                    base[sub_of(k)].hostNsPerOp()));
        }
        o.perLayer.push_back({"sim.trace_overhead", "ratio",
                              median(overhead)});
        o.perLayer.push_back({"host.build_s", "s", best([](const Rep &r) {
            return r.buildS;
        })});
        o.perLayer.push_back({"host.preload_s", "s",
                              best([](const Rep &r) {
            return r.preloadS;
        })});
        o.perLayer.push_back({"host.run_s", "s", best([](const Rep &r) {
            return r.runS;
        })});
        o.perLayer.push_back({"host.sweep_s", "s", best([](const Rep &r) {
            return r.sweepS;
        })});
    }
    return o;
}

void
printReport(const char *name, std::uint64_t seed, const Outcome &o)
{
    std::printf("== %s  seed %llu  %zu untraced + %zu traced "
                "repetitions ==\n",
                name, static_cast<unsigned long long>(seed), o.reps,
                o.tracedReps);
    auto print = [](const std::vector<Metric> &ms) {
        for (const Metric &m : ms)
            std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    };
    std::printf(" end to end (sim = simulated clock, host = wall):\n");
    print(o.endToEnd);
    std::printf(" samples and counts behind the numbers:\n");
    print(o.samples);
    if (!o.perLayer.empty()) {
        std::printf(" per layer (measured phase; span.* from the "
                    "traced run):\n");
        print(o.perLayer);
    }
    std::printf(" attempted %llu, failed %llu (op_fail_frac %.6f)\n",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed),
                frac(double(o.failed), double(o.attempted)));
    if (o.problems.empty())
        std::printf(" checks: all passed\n");
    for (const auto &p : o.problems)
        std::printf(" CHECK FAILED: %s\n", p.c_str());
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<std::pair<std::string, Metric>> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto &[key, m] = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", key.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: repobench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--ops N] [--subruns N]\n"
                 "workloads: kv_zipf_read kv_uniform_write "
                 "isp_remote_scan all\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1, ops = 0, sub_runs = 0;
    double seconds = 10.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload")
            workload = val;
        else if (flag == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(val, nullptr);
        else if (flag == "--trace")
            trace = std::atoi(val);
        else if (flag == "--ops")
            ops = std::strtoull(val, nullptr, 10);
        else if (flag == "--subruns")
            sub_runs = std::strtoull(val, nullptr, 10);
        else
            usage();
    }
    if (argc % 2 == 0 || (trace != 0 && trace != 1))
        usage();

    std::vector<const Workload *> chosen;
    for (const Workload &w : workloads) {
        if (workload == w.name || workload == "all")
            chosen.push_back(&w);
    }
    if (chosen.empty())
        usage();

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::pair<std::string, Metric>> metrics;
    for (const Workload *w : chosen) {
        Outcome o = runWorkload(
            *w, seed, seconds, trace == 1, ops,
            sub_runs ? unsigned(sub_runs) : w->subRuns);
        printReport(w->name, seed, o);
        correct = correct && o.problems.empty();
        attempted += o.attempted;
        failed += o.failed;
        // One workload: bare names. "all": prefixed by workload.
        std::string prefix =
            chosen.size() > 1 ? std::string(w->name) + "/" : "";
        for (const Metric &m : trace == 1 ? o.perLayer : o.endToEnd)
            metrics.emplace_back(prefix + m.name, m);
    }
    std::fflush(stdout);
    printJson(correct, attempted, failed, metrics);
    return correct && failed == 0 ? 0 : 1;
}
