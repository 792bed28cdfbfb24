/**
 * @file
 * Unit tests for the latency histogram.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"

using namespace bluedbm;

namespace {

/** Exact quantile of a sorted sample vector (ceil-rank definition,
 * matching LatencyHistogram). */
std::uint64_t
oracleQuantile(std::vector<std::uint64_t> sorted, double q)
{
    auto n = sorted.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

void
expectCloseToOracle(const sim::LatencyHistogram &h,
                    std::vector<std::uint64_t> values, double q)
{
    std::sort(values.begin(), values.end());
    std::uint64_t exact = oracleQuantile(values, q);
    std::uint64_t approx = h.quantile(q);
    // One sub-bucket of slack: 1/128 relative plus the integer edge.
    double tol = static_cast<double>(exact) / 128.0 + 1.0;
    EXPECT_NEAR(static_cast<double>(approx),
                static_cast<double>(exact), tol)
        << "quantile " << q;
    // The reported value never undershoots the exact quantile: the
    // bucket's upper edge is at or above every sample in it.
    EXPECT_GE(approx, exact);
}

} // namespace

TEST(LatencyHistogram, EmptyIsZero)
{
    sim::LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact)
{
    // Values below 128 land in unit-wide buckets: quantiles exact.
    sim::LatencyHistogram h;
    for (std::uint64_t v = 0; v < 100; ++v)
        h.record(v);
    EXPECT_EQ(h.quantile(0.5), 49u);
    EXPECT_EQ(h.quantile(0.99), 98u);
    EXPECT_EQ(h.quantile(1.0), 99u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 99u);
}

TEST(LatencyHistogram, PercentilesMatchSortedOracle)
{
    // Latency-shaped distribution: a tight body plus a long tail,
    // spanning five decades like ns-resolution tick values do.
    sim::Rng rng(42);
    sim::LatencyHistogram h;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 200000; ++i) {
        std::uint64_t v = 100000 + rng.below(30000);
        if (rng.chance(0.02))
            v += rng.below(5000000); // tail
        values.push_back(v);
        h.record(v);
    }
    for (double q : {0.10, 0.50, 0.90, 0.95, 0.99, 0.999})
        expectCloseToOracle(h, values, q);
    EXPECT_EQ(h.quantile(1.0),
              *std::max_element(values.begin(), values.end()));
}

TEST(LatencyHistogram, RelativeErrorUnderOnePercent)
{
    // The contract the KV bench reporting leans on: any recorded
    // value comes back from quantile() within 1% of itself, across
    // the decades tick-denominated latencies span. (At 64
    // sub-buckets this failed: ~1.6% error quantized p99s of
    // adjacent bench scales into the same bucket edge.)
    for (std::uint64_t v = 300; v < (std::uint64_t(1) << 33);
         v = v * 3 + 17) {
        sim::LatencyHistogram h;
        h.record(v);
        // A far-away outlier keeps quantile() from clamping to the
        // exact max, so this probes the real bucket edge of v.
        h.record(v * 100);
        std::uint64_t got = h.quantile(0.5);
        EXPECT_GE(got, v);
        EXPECT_LE(static_cast<double>(got - v),
                  0.01 * static_cast<double>(v))
            << "value " << v;
    }
}

TEST(LatencyHistogram, AdjacentScalePercentilesDistinguishable)
{
    // Regression for the bench artifact where 8-node and 20-node
    // read p99s (981us-ish ticks ~0.5% apart) reported the identical
    // bucket edge: values half a percent apart must land in
    // different buckets anywhere in the latency range of interest.
    sim::LatencyHistogram a, b;
    std::uint64_t va = 981467, vb = 986606; // ~0.52% apart
    a.record(va);
    a.record(va * 100); // outlier defeats the exact-max clamp
    b.record(vb);
    b.record(vb * 100);
    EXPECT_NE(a.quantile(0.5), b.quantile(0.5));
}

TEST(LatencyHistogram, HugeValuesDoNotOverflow)
{
    sim::LatencyHistogram h;
    std::uint64_t huge = ~std::uint64_t(0);
    h.record(huge);
    h.record(1);
    EXPECT_EQ(h.max(), huge);
    EXPECT_EQ(h.quantile(1.0), huge);
    EXPECT_EQ(h.quantile(0.25), 1u);
}

TEST(LatencyHistogram, ResetClearsState)
{
    sim::LatencyHistogram h;
    h.record(1000);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    h.record(7);
    h.record(9);
    EXPECT_DOUBLE_EQ(h.mean(), 8.0);
    EXPECT_EQ(h.quantile(1.0), 9u);
}

TEST(LatencyHistogram, MergeMatchesSingleHistogramOracle)
{
    // Aggregation contract: merging per-client/per-stage histograms
    // must report exactly what one histogram fed every sample would
    // -- identical counts, extremes, mean and quantiles (bucket
    // geometry is shared, so merge is a lossless bucket-wise sum).
    sim::Rng rng(7);
    sim::LatencyHistogram parts[4];
    sim::LatencyHistogram all;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 80000; ++i) {
        std::uint64_t v = 50000 + rng.below(20000);
        if (rng.chance(0.03))
            v += rng.below(3000000); // tail
        values.push_back(v);
        parts[i % 4].record(v);
        all.record(v);
    }
    sim::LatencyHistogram merged;
    for (const auto &p : parts)
        merged.merge(p);
    EXPECT_EQ(merged.count(), all.count());
    EXPECT_EQ(merged.min(), all.min());
    EXPECT_EQ(merged.max(), all.max());
    EXPECT_DOUBLE_EQ(merged.mean(), all.mean());
    for (double q : {0.10, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0}) {
        EXPECT_EQ(merged.quantile(q), all.quantile(q))
            << "quantile " << q;
        expectCloseToOracle(merged, values, q);
    }
}

TEST(LatencyHistogram, MergeIntoEmptyAndOfEmpty)
{
    sim::LatencyHistogram a, b;
    a.record(123);
    a.merge(b); // merging empty changes nothing
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.max(), 123u);
    b.merge(a); // merging into empty adopts everything
    EXPECT_EQ(b.count(), 1u);
    EXPECT_EQ(b.min(), 123u);
    EXPECT_EQ(b.quantile(1.0), 123u);
}

TEST(LatencyHistogram, SubtractRecoversPhaseDistribution)
{
    // Phase attribution contract: copy an always-on histogram at a
    // phase boundary, subtract the copy at the end, and the result
    // must match a histogram that saw only the phase's samples.
    sim::Rng rng(11);
    sim::LatencyHistogram h;
    sim::LatencyHistogram phaseOnly;
    for (int i = 0; i < 5000; ++i)
        h.record(1000 + rng.below(500)); // pre-phase traffic
    sim::LatencyHistogram before = h;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t v = 800000 + rng.below(400000);
        h.record(v);
        phaseOnly.record(v);
    }
    h.subtract(before);
    EXPECT_EQ(h.count(), phaseOnly.count());
    EXPECT_DOUBLE_EQ(h.mean(), phaseOnly.mean());
    for (double q : {0.50, 0.99})
        EXPECT_EQ(h.quantile(q), phaseOnly.quantile(q))
            << "quantile " << q;
}
