/**
 * @file
 * Lightweight statistics: counters, accumulators and histograms used
 * by models and benchmark harnesses.
 */

#ifndef BLUEDBM_SIM_STATS_HH
#define BLUEDBM_SIM_STATS_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace bluedbm {
namespace sim {

/**
 * Running scalar statistic: count, sum, min, max, mean, stddev.
 */
class Accumulator
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        sumSq_ += v * v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return count_; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Arithmetic mean, or 0 with no samples. */
    double
    mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }

    /** Population standard deviation. */
    double
    stddev() const
    {
        if (count_ == 0)
            return 0.0;
        double m = mean();
        double var = sumSq_ / static_cast<double>(count_) - m * m;
        return var > 0.0 ? std::sqrt(var) : 0.0;
    }

    /** Smallest sample (+inf when empty). */
    double min() const { return min_; }

    /** Largest sample (-inf when empty). */
    double max() const { return max_; }

    /** Fold another accumulator's samples into this one. */
    void
    merge(const Accumulator &o)
    {
        count_ += o.count_;
        sum_ += o.sum_;
        sumSq_ += o.sumSq_;
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }

    /**
     * Remove an earlier snapshot of *this* accumulator, leaving the
     * statistics of the samples recorded since. Only valid against
     * a copy taken from this same accumulator (monotone history);
     * min/max cannot be un-merged and keep their all-time values.
     */
    void
    subtract(const Accumulator &earlier)
    {
        count_ -= earlier.count_;
        sum_ -= earlier.sum_;
        sumSq_ -= earlier.sumSq_;
        if (count_ == 0) {
            min_ = std::numeric_limits<double>::infinity();
            max_ = -std::numeric_limits<double>::infinity();
        }
    }

    /** Forget all samples. */
    void
    reset()
    {
        count_ = 0;
        sum_ = sumSq_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * HDR-style latency histogram over integer values (typically ticks).
 *
 * Values are bucketed logarithmically with 128 sub-buckets per power
 * of two, bounding the relative quantile error at 1/128 (~0.8%)
 * across the whole 64-bit range while using tens of kilobytes of
 * counters regardless of how many samples are recorded. This is what
 * a tail-latency report needs: p99.9 of a million samples without
 * storing a million values, and with no bucket width to choose per
 * workload, as a fixed-width histogram would need. The sub-bucket count
 * is chosen so that p99s of benchmark configs at adjacent scales
 * never quantize into one bucket edge: at ~1ms tick values a bucket
 * is ~4us wide, well under the differences the KV bench reports.
 *
 * record() is O(1); quantile() scans the (small, fixed) bucket
 * array. min/max/mean are tracked exactly.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram() : counts_(bucketCount(), 0) {}

    /** Record one non-negative sample. */
    void
    record(std::uint64_t v)
    {
        acc_.sample(static_cast<double>(v));
        if (v < minExact_)
            minExact_ = v;
        if (v > maxExact_)
            maxExact_ = v;
        ++counts_[index(v)];
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return acc_.count(); }

    /** Exact smallest sample (0 when empty). */
    std::uint64_t
    min() const
    {
        return acc_.count() == 0 ? 0 : minExact_;
    }

    /** Exact largest sample (0 when empty). */
    std::uint64_t max() const { return acc_.count() == 0 ? 0 : maxExact_; }

    /** Exact arithmetic mean (0 when empty). */
    double mean() const { return acc_.mean(); }

    /** Underlying scalar statistics. */
    const Accumulator &acc() const { return acc_; }

    /**
     * Value at quantile @p q in [0,1], within ~0.8% relative error.
     *
     * Returns the upper edge of the bucket holding the q-th sample,
     * clamped to the exact observed max (so quantile(1) == max()).
     */
    std::uint64_t
    quantile(double q) const
    {
        std::uint64_t n = acc_.count();
        if (n == 0)
            return 0;
        if (q < 0.0)
            q = 0.0;
        if (q > 1.0)
            q = 1.0;
        // Rank of the target sample, 1-based, ceil like hdrhistogram.
        auto target = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(n)));
        if (target == 0)
            target = 1;
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen >= target)
                return std::min(upperEdge(i), maxExact_);
        }
        return maxExact_;
    }

    /** Shorthand percentile accessors for reports. */
    std::uint64_t p50() const { return quantile(0.50); }
    std::uint64_t p95() const { return quantile(0.95); }
    std::uint64_t p99() const { return quantile(0.99); }
    std::uint64_t p999() const { return quantile(0.999); }

    /**
     * Fold another histogram's samples into this one. Bucket
     * geometry is identical by construction, so the merged
     * histogram reports exactly what recording every sample of
     * both into one histogram would have -- this is how per-client
     * and per-stage histograms aggregate without re-sampling.
     */
    void
    merge(const LatencyHistogram &o)
    {
        acc_.merge(o.acc_);
        minExact_ = std::min(minExact_, o.minExact_);
        maxExact_ = std::max(maxExact_, o.maxExact_);
        for (std::size_t i = 0; i < counts_.size(); ++i)
            counts_[i] += o.counts_[i];
    }

    /**
     * Remove an earlier snapshot (a plain copy) of *this* histogram,
     * leaving the distribution of the samples recorded since -- how
     * a phase-scoped tail (crash window, handoff window) is cut out
     * of an always-on stage histogram. Exact-extreme tracking
     * cannot be un-merged: min()/max() degrade to the all-time
     * values (quantiles are unaffected except for clamping at the
     * all-time max).
     */
    void
    subtract(const LatencyHistogram &earlier)
    {
        acc_.subtract(earlier.acc_);
        for (std::size_t i = 0; i < counts_.size(); ++i)
            counts_[i] -= earlier.counts_[i];
        if (acc_.count() == 0) {
            minExact_ = ~std::uint64_t(0);
            maxExact_ = 0;
        }
    }

    /** Forget all samples. */
    void
    reset()
    {
        acc_.reset();
        minExact_ = ~std::uint64_t(0);
        maxExact_ = 0;
        std::fill(counts_.begin(), counts_.end(), 0);
    }

  private:
    /** log2 of the sub-bucket count: 128 sub-buckets per doubling. */
    static constexpr unsigned subBits = 7;
    static constexpr std::uint64_t subCount = std::uint64_t(1)
        << (subBits + 1); //!< first linear region covers [0, 256)

    static constexpr std::size_t
    bucketCount()
    {
        // Linear region + 2^subBits sub-buckets per doubling above
        // 2^(subBits + 1).
        return std::size_t(subCount) +
            (64 - (subBits + 1)) * (std::size_t(1) << subBits);
    }

    /** Bucket index of value @p v. */
    static std::size_t
    index(std::uint64_t v)
    {
        if (v < subCount)
            return static_cast<std::size_t>(v);
        // 2^k <= v < 2^(k+1) with k >= subBits + 1; keep the top
        // subBits mantissa bits below the leading one. v >= subCount
        // here, so bit_width(v) >= 1 and the subtraction never wraps.
        unsigned k = unsigned(std::bit_width(v)) - 1u;
        std::uint64_t sub = (v >> (k - subBits)) -
            (std::uint64_t(1) << subBits);
        return std::size_t(subCount) +
            (k - (subBits + 1)) * (std::size_t(1) << subBits) +
            static_cast<std::size_t>(sub);
    }

    /** Largest value mapping into bucket @p i (inclusive edge). */
    static std::uint64_t
    upperEdge(std::size_t i)
    {
        if (i < subCount)
            return static_cast<std::uint64_t>(i);
        std::size_t rel = i - subCount;
        unsigned k = subBits + 1 + unsigned(rel >> subBits);
        std::uint64_t sub = rel & ((std::uint64_t(1) << subBits) - 1);
        std::uint64_t lower = (std::uint64_t(1) << k) +
            (sub << (k - subBits));
        return lower + (std::uint64_t(1) << (k - subBits)) - 1;
    }

    Accumulator acc_;
    std::uint64_t minExact_ = ~std::uint64_t(0);
    std::uint64_t maxExact_ = 0;
    std::vector<std::uint64_t> counts_;
};

} // namespace sim
} // namespace bluedbm

#endif // BLUEDBM_SIM_STATS_HH
