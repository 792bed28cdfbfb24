/**
 * @file
 * Tests for the baseline device models the paper compares against:
 * the off-the-shelf SSD, the hard disk and the ram-cloud workload.
 * Tables 1-3 (FPGA resources and power) are restated constants in
 * bench/paper.cc and checked by its table1/table2/table3 rows.
 */

#include <gtest/gtest.h>

#include "baseline/hdd.hh"
#include "baseline/ram_cloud.hh"
#include "baseline/ssd.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using baseline::HardDisk;
using baseline::HddParams;
using baseline::OffTheShelfSsd;
using baseline::RamCloudParams;
using baseline::RamCloudWorkload;
using baseline::SsdParams;
using sim::Tick;

TEST(Ssd, SequentialReachesRatedBandwidth)
{
    sim::Simulator sim;
    OffTheShelfSsd ssd(sim, SsdParams{});
    const int pages = 2000;
    Tick last = 0;
    for (int i = 0; i < pages; ++i)
        ssd.read(std::uint64_t(i), 8192, [&] { last = sim.now(); });
    sim.run();
    double rate = sim::bytesPerSec(8192ull * pages, last);
    EXPECT_NEAR(rate, 600e6, 600e6 * 0.05);
    EXPECT_EQ(ssd.sequentialReads(), std::uint64_t(pages) - 1);
}

TEST(Ssd, RandomIsMuchSlowerThanSequential)
{
    sim::Simulator sim;
    OffTheShelfSsd ssd(sim, SsdParams{});
    const int pages = 2000;
    Tick last = 0;
    sim::Rng rng(3);
    for (int i = 0; i < pages; ++i) {
        ssd.read(rng.below(1u << 20) * 2, 8192,
                 [&] { last = sim.now(); });
    }
    sim.run();
    double rate = sim::bytesPerSec(8192ull * pages, last);
    // 4 channels x ~10K IOPS = ~40K IOPS = ~327 MB/s ceiling.
    EXPECT_LT(rate, 400e6);
    EXPECT_GT(rate, 200e6);
}

TEST(Hdd, SequentialStreamsAtPlatterRate)
{
    sim::Simulator sim;
    HardDisk disk(sim, HddParams{});
    const int pages = 1000;
    Tick last = 0;
    for (int i = 0; i < pages; ++i)
        disk.read(std::uint64_t(i), 8192, [&] { last = sim.now(); });
    sim.run();
    double rate = sim::bytesPerSec(8192ull * pages, last);
    // First access seeks; the rest stream.
    EXPECT_GT(rate, 100e6);
    EXPECT_EQ(disk.seeks(), 1u);
}

TEST(Hdd, RandomAccessesPaySeeks)
{
    sim::Simulator sim;
    HardDisk disk(sim, HddParams{});
    Tick last = 0;
    const int n = 50;
    sim::Rng rng(5);
    for (int i = 0; i < n; ++i)
        disk.read(rng.below(1u << 24) * 2, 8192,
                  [&] { last = sim.now(); });
    sim.run();
    // ~8 ms per op: 50 ops take ~400 ms.
    EXPECT_GT(last, sim::msToTicks(350));
    EXPECT_EQ(disk.seeks(), std::uint64_t(n));
}

TEST(RamCloud, PureDramScalesWithThreadsUntilBandwidth)
{
    auto throughput = [](unsigned threads) {
        sim::Simulator sim;
        host::HostCpu cpu(sim, 24);
        RamCloudWorkload work(sim, cpu, RamCloudParams{});
        Tick finish = 0;
        const std::uint64_t items = 4000;
        work.run(threads, items, [&] { finish = sim.now(); });
        sim.run();
        return double(items) / sim::ticksToSec(finish);
    };
    double t1 = throughput(1);
    double t4 = throughput(4);
    double t16 = throughput(16);
    EXPECT_NEAR(t4 / t1, 4.0, 0.5);      // linear at low threads
    EXPECT_LT(t16 / t1, 16.0);           // saturates eventually
    EXPECT_NEAR(t1, 43500, 4000);        // ~1/23us per thread
}

TEST(RamCloud, SmallMissFractionCollapsesThroughput)
{
    // The paper's headline ram-cloud result: 10% flash misses or 5%
    // disk misses crater performance (figure 17).
    auto throughput = [](double miss, Tick penalty) {
        sim::Simulator sim;
        host::HostCpu cpu(sim, 24);
        RamCloudParams p;
        p.missFraction = miss;
        p.missPenalty = penalty;
        RamCloudWorkload work(sim, cpu, p);
        Tick finish = 0;
        const std::uint64_t items = 3000;
        work.run(8, items, [&] { finish = sim.now(); });
        sim.run();
        return double(items) / sim::ticksToSec(finish);
    };
    double pure = throughput(0.0, 0);
    double flash10 = throughput(0.10, sim::usToTicks(750));
    double disk5 = throughput(0.05, sim::msToTicks(12));
    EXPECT_GT(pure, 300000.0);
    EXPECT_LT(flash10, 90000.0);
    EXPECT_LT(disk5, 15000.0);
    EXPECT_GT(pure / flash10, 3.5);
    EXPECT_GT(pure / disk5, 20.0);
}
