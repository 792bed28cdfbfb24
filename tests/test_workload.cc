/**
 * @file
 * Tests for the workload engine: key-distribution statistics
 * (Zipfian rank-frequency slope, determinism), Poisson arrivals,
 * and end-to-end closed/open-loop runs against a small cluster.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/cluster.hh"
#include "kv/kv_router.hh"
#include "kv/kv_service.hh"
#include "sim/simulator.hh"
#include "workload/key_dist.hh"
#include "workload/workload.hh"

using namespace bluedbm;
using workload::WorkloadEngine;
using workload::WorkloadParams;

namespace {

core::ClusterParams
kvCluster(unsigned nodes)
{
    core::ClusterParams p;
    p.topology = nodes == 2 ? net::Topology::line(2)
                            : net::Topology::ring(nodes, 2);
    p.node.geometry = flash::Geometry::tiny();
    p.node.timing = flash::Timing::fast();
    p.node.cards = 2;
    p.node.controllerTags = 64;
    p.network.endpoints = kv::kvRequiredEndpoints;
    return p;
}

} // namespace

// ---------------------------------------------------------------- //
// Key distributions
// ---------------------------------------------------------------- //

TEST(ZipfianKeys, DeterministicUnderFixedSeed)
{
    workload::ZipfianKeys a(1000, 0.99, 7);
    workload::ZipfianKeys b(1000, 0.99, 7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next()) << "draw " << i;

    workload::ZipfianKeys c(1000, 0.99, 8);
    bool diverged = false;
    for (int i = 0; i < 1000 && !diverged; ++i)
        diverged = a.next() != c.next();
    EXPECT_TRUE(diverged);
}

TEST(ZipfianKeys, StaysInRange)
{
    workload::ZipfianKeys g(100, 0.9, 3);
    for (int i = 0; i < 20000; ++i)
        ASSERT_LT(g.next(), 100u);
}

TEST(ZipfianKeys, RankZeroIsHottest)
{
    workload::ZipfianKeys g(10000, 0.99, 5);
    std::vector<unsigned> counts(10000, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[g.next()];
    // Rank 0 beats every rank past the head by a wide margin.
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[100]);
    EXPECT_GT(counts[10], counts[1000] / 2 + 1);
}

TEST(ZipfianKeys, RankFrequencySlopeMatchesTheta)
{
    // Empirical check of the defining property: log(freq) vs
    // log(rank+1) is linear with slope -theta.
    const double theta = 0.8;
    const std::uint64_t n = 1000;
    workload::ZipfianKeys g(n, theta, 11);
    std::vector<double> counts(n, 0.0);
    const int samples = 400000;
    for (int i = 0; i < samples; ++i)
        counts[g.next()] += 1.0;

    // Least-squares fit over the well-populated head (ranks 0..49).
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    const int m = 50;
    for (int r = 0; r < m; ++r) {
        ASSERT_GT(counts[r], 0.0);
        double x = std::log(double(r + 1));
        double y = std::log(counts[r]);
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    double slope = (m * sxy - sx * sy) / (m * sxx - sx * sx);
    EXPECT_NEAR(slope, -theta, 0.1);
}

TEST(UniformKeys, CoversTheSpaceEvenly)
{
    workload::UniformKeys g(100, 9);
    std::vector<unsigned> counts(100, 0);
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t k = g.next();
        ASSERT_LT(k, 100u);
        ++counts[k];
    }
    for (unsigned c : counts) {
        EXPECT_GT(c, 350u); // mean 500, generous band
        EXPECT_LT(c, 650u);
    }
}

TEST(PoissonArrivals, MeanGapMatchesRate)
{
    const double rate = 1e6; // 1 op/us
    workload::PoissonArrivals p(rate, 13);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += double(p.nextGap());
    double mean_us = sum / n / double(sim::oneUs);
    EXPECT_NEAR(mean_us, 1.0, 0.05);
}

// ---------------------------------------------------------------- //
// Workload engine
// ---------------------------------------------------------------- //

TEST(WorkloadEngine, PreloadWritesEveryKeyReplicated)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, kv::KvParams{});
    kv::KvService service(sim, router);

    WorkloadParams wp;
    wp.keys = 200;
    wp.valueBytes = 32;
    wp.totalOps = 0;
    WorkloadEngine engine(sim, cluster, router, service, wp);

    bool loaded = false;
    engine.preload([&]() { loaded = true; });
    sim.run();
    ASSERT_TRUE(loaded);

    std::size_t replicas = 0;
    for (unsigned n = 0; n < 4; ++n)
        replicas += router.shard(net::NodeId(n)).keyCount();
    EXPECT_EQ(replicas, 200u * 2); // R = 2 copies of every key

    // Values round-trip through the full stack.
    flash::PageBuffer got;
    router.get(0, 123, [&](flash::PageBuffer v, kv::KvStatus st) {
        EXPECT_EQ(st, kv::KvStatus::Ok);
        got = std::move(v);
    });
    sim.run();
    EXPECT_EQ(got, WorkloadEngine::makeValue(123, 32));
}

TEST(WorkloadEngine, ValueBytesFollowTheByteFormula)
{
    // makeValue writes a word at a time; byte i must still be byte
    // (i % 8) of mix64(key) xor the low byte of i. The word path is
    // what every put stores and every get is checked against, so a
    // wrong rewrite would agree with itself in any run.
    auto by_bytes = [](kv::Key key, std::uint32_t n) {
        flash::PageBuffer v(n);
        const std::uint64_t h = kv::mix64(key);
        for (std::uint32_t i = 0; i < n; ++i)
            v[i] = std::uint8_t((h >> ((i % 8) * 8)) ^ i);
        return v;
    };
    for (std::uint32_t n : {0u, 1u, 7u, 8u, 9u, 255u, 256u, 257u, 2048u,
                            4084u, 4095u}) {
        for (kv::Key key = 0; key < 3000; ++key)
            ASSERT_EQ(WorkloadEngine::makeValue(key, n), by_bytes(key, n))
                << "key " << key << ", " << n << " bytes";
    }
}

TEST(WorkloadEngine, ClosedLoopCompletesAndRecords)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster, kv::KvParams{});
    kv::KvService service(sim, router);

    WorkloadParams wp;
    wp.keys = 300;
    wp.valueBytes = 64;
    wp.mix.readFrac = 0.9;
    wp.zipfian = true;
    wp.theta = 0.9;
    wp.clientsPerNode = 4;
    wp.pipeline = 2;
    wp.totalOps = 2000;
    wp.seed = 17;
    WorkloadEngine engine(sim, cluster, router, service, wp);

    bool loaded = false;
    engine.preload([&]() { loaded = true; });
    sim.run();
    ASSERT_TRUE(loaded);

    bool finished = false;
    engine.run([&]() { finished = true; });
    sim.run();
    ASSERT_TRUE(finished);

    EXPECT_EQ(engine.completedOps(), 2000u);
    EXPECT_EQ(engine.rejectedOps(), 0u);
    EXPECT_EQ(engine.notFoundOps(), 0u); // all keys preloaded
    EXPECT_EQ(engine.readLatency().count() +
                  engine.writeLatency().count(),
              2000u);
    // Mix respected within statistical noise.
    EXPECT_NEAR(double(engine.readLatency().count()) / 2000.0, 0.9,
                0.05);
    EXPECT_GT(engine.throughputOpsPerSec(), 0.0);
    // Percentiles are ordered.
    EXPECT_LE(engine.allLatency().p50(), engine.allLatency().p99());
    EXPECT_LE(engine.allLatency().p99(), engine.allLatency().p999());
    EXPECT_LE(engine.allLatency().p999(), engine.allLatency().max());
}

TEST(WorkloadEngine, OpenLoopPoissonCompletes)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(2));
    kv::KvRouter router(sim, cluster, kv::KvParams{});
    kv::KvService service(sim, router);

    WorkloadParams wp;
    wp.keys = 100;
    wp.valueBytes = 32;
    wp.clientsPerNode = 2;
    wp.openLoop = true;
    wp.arrivalsPerSec = 20000; // per client, comfortably served
    wp.totalOps = 800;
    wp.client.window = 4;
    wp.client.queueCap = 64;
    WorkloadEngine engine(sim, cluster, router, service, wp);

    engine.preload([]() {});
    sim.run();
    bool finished = false;
    engine.run([&]() { finished = true; });
    sim.run();
    ASSERT_TRUE(finished);
    EXPECT_EQ(engine.completedOps(), 800u);
    EXPECT_EQ(engine.rejectedOps() + engine.allLatency().count(),
              800u);
    EXPECT_GT(engine.throughputOpsPerSec(), 0.0);
}

TEST(WorkloadEngine, DeterministicAcrossRuns)
{
    auto once = [](std::uint64_t seed) {
        sim::Simulator sim;
        core::Cluster cluster(sim, kvCluster(2));
        kv::KvRouter router(sim, cluster, kv::KvParams{});
        kv::KvService service(sim, router);
        WorkloadParams wp;
        wp.keys = 100;
        wp.valueBytes = 32;
        wp.clientsPerNode = 2;
        wp.totalOps = 400;
        wp.seed = seed;
        workload::WorkloadEngine engine(sim, cluster, router,
                                        service, wp);
        engine.preload([]() {});
        sim.run();
        engine.run([]() {});
        sim.run();
        return std::make_pair(sim.now(),
                              engine.allLatency().p99());
    };
    auto a = once(5), b = once(5), c = once(6);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

// ---------------------------------------------------------------- //
// Retry-after backoff + phased runs with pause/resume
// ---------------------------------------------------------------- //

TEST(Workload, HonorsRetryAfterBackoff)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster);
    kv::KvService service(sim, router);

    WorkloadParams wp;
    wp.keys = 200;
    wp.valueBytes = 64;
    wp.totalOps = 2000;
    wp.clientsPerNode = 2;
    // Pipeline deeper than the admission window + queue: the
    // overflow is rejected Overloaded, and honoring clients answer
    // each rejection with a jittered retry-after pause instead of
    // an instant resubmit.
    wp.pipeline = 8;
    wp.client.window = 2;
    wp.client.queueCap = 2;
    wp.honorRetryAfter = true;
    wp.mix.readFrac = 0.5;
    WorkloadEngine engine(sim, cluster, router, service, wp);

    bool loaded = false;
    engine.preload([&]() { loaded = true; });
    sim.run();
    ASSERT_TRUE(loaded);

    bool done = false;
    engine.run([&]() { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(engine.completedOps(), wp.totalOps);
    EXPECT_GT(engine.rejectedOps(), 0u);
    EXPECT_GT(engine.backoffs(), 0u);
    EXPECT_LE(engine.backoffs(), engine.rejectedOps());
}

TEST(Workload, PhasedRunRedistributesAroundPausedNode)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, kvCluster(4));
    kv::KvRouter router(sim, cluster);
    kv::KvService service(sim, router);

    WorkloadParams wp;
    wp.keys = 200;
    wp.valueBytes = 64;
    wp.clientsPerNode = 2;
    wp.clientNodes = 3; // node 3 carries no client sessions
    wp.pipeline = 2;
    WorkloadEngine engine(sim, cluster, router, service, wp);
    EXPECT_EQ(service.clientCount(), 3u * wp.clientsPerNode);

    bool loaded = false;
    engine.preload([&]() { loaded = true; });
    sim.run();
    ASSERT_TRUE(loaded);

    // Phase 1: everyone serving.
    bool p1 = false;
    engine.runPhase(600, [&]() { p1 = true; });
    sim.run();
    EXPECT_TRUE(p1);
    EXPECT_EQ(engine.completedOps(), 600u);
    EXPECT_GT(engine.readLatency().count(), 0u);

    // Phase 2: node 1's clients die mid-phase (ops already in
    // flight). Their quota moves to the survivors and the phase
    // still reaches its op target.
    bool p2 = false;
    engine.runPhase(600, [&]() { p2 = true; });
    engine.pauseNode(net::NodeId(1));
    sim.run();
    EXPECT_TRUE(p2);
    EXPECT_EQ(engine.completedOps(), 600u);

    // Phase 3: the node is back; per-phase counters reset.
    engine.resumeNode(net::NodeId(1));
    bool p3 = false;
    engine.runPhase(300, [&]() { p3 = true; });
    sim.run();
    EXPECT_TRUE(p3);
    EXPECT_EQ(engine.completedOps(), 300u);
}
