/**
 * @file
 * Tests for the host interface: CPU model, PCIe caps and DMA burst
 * reordering.
 */

#include <gtest/gtest.h>

#include <vector>

#include "host/host_cpu.hh"
#include "host/page_buffers.hh"
#include "host/pcie.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using host::BurstDma;
using host::HostCpu;
using host::PcieLink;
using host::PcieParams;
using sim::Tick;

TEST(HostCpu, SingleSegmentTiming)
{
    sim::Simulator sim;
    HostCpu cpu(sim, 4);
    Tick done_at = 0;
    cpu.execute(sim::usToTicks(10), [&] { done_at = sim.now(); });
    sim.run();
    EXPECT_EQ(done_at, sim::usToTicks(10));
    EXPECT_EQ(cpu.busyTime(), sim::usToTicks(10));
}

TEST(HostCpu, SegmentsBeyondCoresQueue)
{
    sim::Simulator sim;
    HostCpu cpu(sim, 2);
    std::vector<Tick> done;
    for (int i = 0; i < 4; ++i)
        cpu.execute(sim::usToTicks(10),
                    [&] { done.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done.size(), 4u);
    // Two run immediately, two queue behind them.
    EXPECT_EQ(done[0], sim::usToTicks(10));
    EXPECT_EQ(done[1], sim::usToTicks(10));
    EXPECT_EQ(done[2], sim::usToTicks(20));
    EXPECT_EQ(done[3], sim::usToTicks(20));
}

TEST(HostCpu, UtilizationAccounting)
{
    sim::Simulator sim;
    HostCpu cpu(sim, 4);
    // One core busy for 100 us while 3 idle: 25% utilization.
    cpu.execute(sim::usToTicks(100), [] {});
    sim.run();
    EXPECT_NEAR(cpu.utilization(), 0.25, 1e-9);
    cpu.resetAccounting();
    EXPECT_EQ(cpu.busyTime(), 0u);
}

TEST(Pcie, DeviceToHostCapIs1600MBps)
{
    sim::Simulator sim;
    PcieLink pcie(sim, PcieParams{});
    const int pages = 1000;
    Tick last = 0;
    int done = 0;
    for (int i = 0; i < pages; ++i) {
        pcie.deviceToHost(8192, [&] {
            ++done;
            last = sim.now();
        });
    }
    sim.run();
    ASSERT_EQ(done, pages);
    double rate = sim::bytesPerSec(8192ull * pages, last);
    EXPECT_NEAR(rate, 1.6e9, 1.6e9 * 0.02);
}

TEST(Pcie, HostToDeviceCapIs1000MBps)
{
    sim::Simulator sim;
    PcieLink pcie(sim, PcieParams{});
    const int pages = 1000;
    Tick last = 0;
    for (int i = 0; i < pages; ++i)
        pcie.hostToDevice(8192, [&] { last = sim.now(); });
    sim.run();
    double rate = sim::bytesPerSec(8192ull * pages, last);
    EXPECT_NEAR(rate, 1.0e9, 1.0e9 * 0.02);
}

TEST(Pcie, RpcAndInterruptLatencies)
{
    sim::Simulator sim;
    PcieParams p;
    PcieLink pcie(sim, p);
    Tick rpc_at = 0, irq_at = 0;
    pcie.rpc([&] { rpc_at = sim.now(); });
    pcie.interrupt([&] { irq_at = sim.now(); });
    sim.run();
    EXPECT_EQ(rpc_at, p.rpcLatency);
    EXPECT_EQ(irq_at, p.interruptLatency);
}

TEST(Pcie, DirectionsAreIndependent)
{
    sim::Simulator sim;
    PcieLink pcie(sim, PcieParams{});
    Tick up = 0, down = 0;
    pcie.deviceToHost(1 << 20, [&] { down = sim.now(); });
    pcie.hostToDevice(1 << 20, [&] { up = sim.now(); });
    sim.run();
    // Full duplex: neither waits for the other.
    EXPECT_LT(down, sim::msToTicks(1));
    EXPECT_LT(up, sim::msToTicks(2));
    EXPECT_EQ(pcie.devToHostBytes(), 1u << 20);
    EXPECT_EQ(pcie.hostToDevBytes(), 1u << 20);
}

TEST(BurstDma, CompletesWhenAllDataArrived)
{
    sim::Simulator sim;
    PcieLink pcie(sim, PcieParams{});
    BurstDma dma(sim, pcie, 8192, 1024, true);
    bool done = false;
    dma.beginRead(0, [&] { done = true; });
    for (int i = 0; i < 8; ++i)
        dma.addData(0, 1024);
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(dma.openRequests(), 0u);
    EXPECT_EQ(pcie.devToHostBytes(), 8192u);
}

TEST(BurstDma, PartialTailBurstFlushes)
{
    sim::Simulator sim;
    PcieLink pcie(sim, PcieParams{});
    BurstDma dma(sim, pcie, 1000, 512, true);
    bool done = false;
    dma.beginRead(3, [&] { done = true; });
    dma.addData(3, 600);
    dma.addData(3, 400);
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(pcie.devToHostBytes(), 1000u);
}

TEST(BurstDma, InterleavedArrivalsBothComplete)
{
    sim::Simulator sim;
    PcieLink pcie(sim, PcieParams{});
    BurstDma dma(sim, pcie, 4096, 1024, true);
    int done = 0;
    dma.beginRead(0, [&] { ++done; });
    dma.beginRead(1, [&] { ++done; });
    // Interleave sub-burst chunks between the two buffers.
    for (int i = 0; i < 8; ++i) {
        dma.addData(0, 512);
        dma.addData(1, 512);
    }
    sim.run();
    EXPECT_EQ(done, 2);
}

TEST(BurstDma, PerBufferFifosAvoidHeadOfLineBlocking)
{
    // Buffer 0's data is delayed; buffer 1's data is all present.
    // With per-buffer FIFOs buffer 1 completes early; without, it
    // waits for buffer 0 (head of line).
    auto run_one = [](bool per_buffer) {
        sim::Simulator sim;
        PcieLink pcie(sim, PcieParams{});
        BurstDma dma(sim, pcie, 4096, 1024, per_buffer);
        Tick done1 = 0;
        dma.beginRead(0, [] {});
        dma.beginRead(1, [&] { done1 = sim.now(); });
        dma.addData(1, 4096); // buffer 1 fully ready at t=0
        // Buffer 0 data dribbles in late.
        sim.scheduleAt(sim::usToTicks(100), [&] {
            dma.addData(0, 4096);
        });
        sim.run();
        return done1;
    };
    Tick with_fifos = run_one(true);
    Tick without = run_one(false);
    EXPECT_LT(with_fifos, sim::usToTicks(10));
    EXPECT_GT(without, sim::usToTicks(100));
}
