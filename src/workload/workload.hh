/**
 * @file
 * Trace-driven workload engine for the KV service.
 *
 * Drives the appliance the way a data-center evaluation does
 * (paper section 6, figure 17): a population of clients spread
 * across the rack's nodes, a YCSB-style read/write mix over a
 * uniform or Zipfian key distribution, and per-operation latency
 * recorded into HDR-style histograms so throughput can be reported
 * against p50/p95/p99/p99.9.
 *
 * Two client models:
 *  - closed-loop: each client keeps a fixed number of operations in
 *    flight and issues the next on completion (throughput-oriented,
 *    self-throttling);
 *  - open-loop: operations arrive on a Poisson process regardless
 *    of completions (latency-oriented; queueing delay and admission
 *    rejections become visible, which is how tail collapse actually
 *    manifests in serving systems).
 */

#ifndef BLUEDBM_WORKLOAD_WORKLOAD_HH
#define BLUEDBM_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/cluster.hh"
#include "kv/kv_service.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "workload/key_dist.hh"

namespace bluedbm {
namespace workload {

/**
 * Operation mix (fractions of all operations). The remainder after
 * reads is single-key puts.
 */
struct MixParams
{
    double readFrac = 0.95; //!< single-key gets
};

/**
 * Workload shape.
 */
struct WorkloadParams
{
    std::uint64_t keys = 10000;   //!< key-space size (preloaded)
    std::uint32_t valueBytes = 256;
    MixParams mix;
    bool zipfian = true;          //!< else uniform
    double theta = 0.99;          //!< Zipfian skew
    unsigned clientsPerNode = 8;
    /**
     * Home clients (and preload origins) on only the first this
     * many nodes; 0 = every cluster node. Membership scenarios
     * build the cluster with standby nodes (KvParams::activeNodes)
     * that must carry no client sessions until they join.
     */
    unsigned clientNodes = 0;
    /** Concurrent operations each closed-loop client sustains. */
    unsigned pipeline = 1;
    /**
     * Closed loop: when an operation is rejected Overloaded, pause
     * the client for a jittered multiple of the service's
     * retry-after hint (KvService::retryAfterUs) before issuing
     * again, instead of hammering a full queue. Rejections still
     * count as completions either way.
     */
    bool honorRetryAfter = false;
    /** Per-client admission parameters handed to the service. */
    kv::KvService::ClientParams client;
    bool openLoop = false;
    /** Open loop: mean arrivals per second per client. */
    double arrivalsPerSec = 0.0;
    /** Measured operations across all clients (beyond preload). */
    std::uint64_t totalOps = 50000;
    std::uint64_t seed = 1;
};

/**
 * Issues one workload against one cluster + KV service and
 * collects the results.
 */
class WorkloadEngine
{
  public:
    WorkloadEngine(sim::Simulator &sim, core::Cluster &cluster,
                   kv::KvRouter &router, kv::KvService &service,
                   const WorkloadParams &params);

    ~WorkloadEngine() { *alive_ = false; }

    /**
     * Insert every key once (replicated by the router), bounded
     * in-flight. Run the simulator until @p done fires before
     * starting the measured phase.
     */
    void preload(std::function<void()> done);

    /**
     * Issue the measured operations; @p done fires when the last
     * completion lands. Histograms and counters cover only this
     * phase.
     */
    void run(std::function<void()> done);

    /**
     * Issue @p ops operations as a fresh measured phase: histograms
     * and counters reset, quotas redistribute over the currently
     * unpaused clients, and @p done fires when the last completion
     * lands. Membership scenarios chain phases (steady -> kill
     * window -> recovered) and read per-phase tails in between.
     * Closed-loop only.
     */
    void runPhase(std::uint64_t ops, std::function<void()> done);

    /**
     * Stop the clients homed on @p node from issuing further
     * operations (a killed node's clients die with it). Their
     * unissued quota moves to the surviving clients so the running
     * phase still completes; operations already in flight complete
     * normally (the router fails a killed node's in-flight ops).
     */
    void pauseNode(net::NodeId node);

    /** Let @p node's clients issue again (from the next phase, or
     * immediately if the running phase has quota left). */
    void resumeNode(net::NodeId node);

    /** Deterministic value bytes for @p key. */
    static flash::PageBuffer makeValue(kv::Key key,
                                       std::uint32_t bytes);

    /** @name Results */
    ///@{
    const sim::LatencyHistogram &readLatency() const { return readLat_; }
    const sim::LatencyHistogram &writeLatency() const { return writeLat_; }
    /** All accepted operations regardless of type. */
    const sim::LatencyHistogram &allLatency() const { return allLat_; }

    /** Accepted completions per simulated second. */
    double throughputOpsPerSec() const;

    std::uint64_t completedOps() const { return completed_; }
    std::uint64_t rejectedOps() const { return rejected_; }
    std::uint64_t notFoundOps() const { return notFound_; }
    /** Overloaded rejections answered with a retry-after pause. */
    std::uint64_t backoffs() const { return backoffs_; }
    ///@}

  private:
    struct ClientState
    {
        kv::KvService::ClientId id = 0;
        net::NodeId origin = 0;
        sim::Rng opRng;                   //!< op type + value draw
        std::unique_ptr<ZipfianKeys> zipf;
        std::unique_ptr<UniformKeys> uniform;
        std::unique_ptr<PoissonArrivals> arrivals;
        std::uint64_t quota = 0;
        std::uint64_t issued = 0;
        unsigned inflight = 0;
        bool paused = false; //!< node killed / left: issues nothing
    };

    kv::Key nextKey(ClientState &c);
    void pumpPreload();
    /** One bulk-load put; re-issues itself after a pause when the
     * shard sheds it at the capacity red line. */
    void preloadPut(kv::Key key);
    void issueOne(std::size_t ci);
    /** Closed loop: issue the client's next op if quota remains. */
    void refill(std::size_t ci);
    /** Open loop: schedule the client's next Poisson arrival. */
    void scheduleArrival(std::size_t ci);
    /** Account one completion; closed loop re-arms the client. */
    void opFinished(std::size_t ci, sim::Tick start,
                    sim::LatencyHistogram &hist, bool accepted);

    sim::Simulator &sim_;
    kv::KvRouter &router_;
    kv::KvService &service_;
    WorkloadParams params_;
    unsigned clusterSize_ = 0;
    /** Nodes carrying client sessions (params_.clientNodes or the
     * whole cluster). */
    unsigned originNodes_ = 0;

    std::vector<ClientState> clients_;
    std::uint64_t targetOps_ = 0;
    /** Bumped by runPhase: parks stale backoff wakeups from the
     * previous phase. */
    std::uint64_t phaseEpoch_ = 0;

    /** Preload progress (engine-owned: callbacks capture `this`,
     * so the engine must outlive its simulation, which run()'s
     * callbacks already require). */
    std::uint64_t preloadNext_ = 0;
    std::uint64_t preloadCompleted_ = 0;
    std::function<void()> preloadDone_;

    sim::Tick startTick_ = 0;
    sim::Tick endTick_ = 0;
    /** Phase-local (runPhase resets them), so they are registry
     * gauges -- workload.* -- rather than monotone counters. */
    std::uint64_t completed_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t notFound_ = 0;
    std::uint64_t backoffs_ = 0;
    /** Flipped by the destructor; guards the workload.* gauges. */
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    std::function<void()> runDone_;

    sim::LatencyHistogram readLat_;
    sim::LatencyHistogram writeLat_;
    sim::LatencyHistogram allLat_;
};

} // namespace workload
} // namespace bluedbm

#endif // BLUEDBM_WORKLOAD_WORKLOAD_HH
