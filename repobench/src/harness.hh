/**
 * @file
 * Shared types of the repository benchmark driver.
 *
 * One repetition of a workload builds a fresh simulated cluster,
 * preloads it, runs the measured phase, then verifies (anti-entropy
 * sweep plus read-back). Everything simulated in a repetition is a
 * pure function of the seed; everything timed on the host is not.
 * Rep keeps the two apart so the driver can demand bit-identical
 * simulated results across repetitions while taking the fastest
 * repetition's host times.
 */

#ifndef REPOBENCH_HARNESS_HH
#define REPOBENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.hh"
#include "sim/simulator.hh"

namespace repobench {

using namespace bluedbm;

/** One named value with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Wall-clock stopwatch over the host's steady clock. */
class Stopwatch
{
  public:
    /** Seconds since construction or the previous lap(). */
    double
    lap()
    {
        auto now = std::chrono::steady_clock::now();
        double s = std::chrono::duration<double>(now - last_).count();
        last_ = now;
        return s;
    }

  private:
    std::chrono::steady_clock::time_point last_ =
        std::chrono::steady_clock::now();
};

/**
 * Raw latency samples of one kind. Percentiles are exact order
 * statistics (nearest rank), not histogram bucket edges, so they keep
 * every digit of the simulated clock.
 */
class Latencies
{
  public:
    void record(sim::Tick t) { ticks_.push_back(t); }
    std::size_t count() const { return ticks_.size(); }

    void
    merge(const Latencies &o)
    {
        ticks_.insert(ticks_.end(), o.ticks_.begin(), o.ticks_.end());
    }

    /** The samples in ascending order. */
    const std::vector<sim::Tick> &
    sorted()
    {
        std::sort(ticks_.begin(), ticks_.end());
        return ticks_;
    }

    /** Microseconds at quantile @p q in (0, 1]; 0 when empty. */
    double
    us(double q)
    {
        if (ticks_.empty())
            return 0.0;
        auto rank = std::size_t(std::ceil(q * double(ticks_.size())));
        return sim::ticksToUs(
            sorted()[std::clamp<std::size_t>(rank, 1, ticks_.size()) - 1]);
    }

  private:
    std::vector<sim::Tick> ticks_;
};

/**
 * What the measured phase of one repetition looked like to its
 * clients: the raw material of the end-to-end simulated metrics, kept
 * raw so repetitions of different seeds pool exactly.
 */
struct SimResult
{
    Latencies all, reads, writes; //!< successful ops only
    sim::Tick elapsed = 0;        //!< first issue to last completion
    /** Bytes NAND programmed, and bytes the clients wrote (acked
     * puts' values; for isp_remote_scan, the preloaded pages). */
    double nandBytes = 0.0, userBytes = 0.0;

    void
    merge(const SimResult &o)
    {
        all.merge(o.all);
        reads.merge(o.reads);
        writes.merge(o.writes);
        elapsed += o.elapsed;
        nandBytes += o.nandBytes;
        userBytes += o.userBytes;
    }

    /** Bit-identical results (the determinism check). */
    bool
    same(SimResult &o)
    {
        return all.sorted() == o.all.sorted() &&
            reads.sorted() == o.reads.sorted() &&
            writes.sorted() == o.writes.sorted() &&
            elapsed == o.elapsed && nandBytes == o.nandBytes &&
            userBytes == o.userBytes;
    }
};

/** What the caller asks of one repetition. */
struct RepConfig
{
    std::uint64_t seed = 1;
    bool traced = false;
    /** Measured operations; 0 = the workload's default. */
    std::uint64_t ops = 0;
};

/** Everything one repetition produced. */
struct Rep
{
    /** End-to-end simulated results of the measured phase. */
    SimResult sim;
    /** Per-layer results read from the registry over the measured
     * phase: simulated, so identical for every repetition. */
    std::vector<Metric> layers;
    /** Per-op self time of each critical-path span (traced only). */
    std::vector<Metric> spans;
    /** Counts that explain the numbers (report only). */
    std::vector<Metric> samples;

    /** @name Host wall-clock seconds per phase */
    ///@{
    double buildS = 0.0;
    double preloadS = 0.0;
    double runS = 0.0;
    double sweepS = 0.0;
    ///@}
    std::uint64_t events = 0; //!< events executed in the measured phase

    /** Measured operations issued, and those that failed (non-Ok
     * status, or bytes that differ from what was written). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failed correctness checks, one line each. */
    std::vector<std::string> problems;

    /** Sampled NAND-reaching gets whose span self times were summed
     * against the root, and the largest difference (ticks). */
    std::uint64_t attributionChecked = 0;
    sim::Tick attributionErr = 0;

    double hostNsPerOp() const
    {
        return attempted ? runS * 1e9 / double(attempted) : 0.0;
    }
};

/** @name Workloads (one repetition each) */
///@{
Rep runKvZipfRead(const RepConfig &cfg);
Rep runKvUniformWrite(const RepConfig &cfg);
Rep runIspRemoteScan(const RepConfig &cfg);
///@}

/**
 * Registry and network state at the start of the measured phase;
 * finish() turns the difference at its end into per-layer metrics.
 */
class LayerProbe
{
  public:
    LayerProbe(sim::Simulator &sim, core::Cluster &cluster);

    /** What the measured phase did, as the workload counted it. */
    struct Work
    {
        std::uint64_t ops = 0;
        std::uint64_t gets = 0; //!< reads (ISP: pages read)
        std::uint64_t puts = 0;
        std::uint64_t failed = 0;
        sim::Tick elapsed = 0; //!< measured phase, simulated
    };

    /** Per-layer metrics over the measured phase; appends to
     * @p out. Call once the simulator drained. */
    void finish(const Work &work, std::vector<Metric> &out) const;

  private:
    std::uint64_t laneBytes() const;
    std::uint64_t messagesSent() const;

    sim::Simulator &sim_;
    core::Cluster &cluster_;
    sim::MetricsRegistry::Snapshot counters_;
    double cacheHits_ = 0.0, cacheLookups_ = 0.0;
    sim::LatencyHistogram admission_, rtt_, queueRead_, queueBg_,
        nandRead_;
    std::uint64_t events_ = 0;
    std::uint64_t laneBytes_ = 0;
    std::uint64_t sent_ = 0;
};

/**
 * Critical-path attribution over the tracer's retained span trees:
 * per-op self time of each reported span (its time on the op's
 * critical path not covered by a child on that path), appended to
 * @p rep.spans, and the exactness check on sampled gets that reached
 * NAND.
 */
void attributeSpans(const sim::Tracer &tracer, Rep &rep);

/** @p num / @p den, or 0 when nothing was counted. */
inline double
frac(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The end-to-end simulated metrics of @p r, appended to @p out, and
 * the sample count behind each percentile, appended to @p samples.
 */
void addEndToEnd(SimResult &r, std::vector<Metric> &out,
                 std::vector<Metric> &samples);

} // namespace repobench

#endif // REPOBENCH_HARNESS_HH
