/**
 * @file
 * The two KV workloads: a load generator of the benchmark's own that
 * drives KvService::get/put, checks every byte it gets back, and
 * verifies the cluster after the measured phase.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_util.hh"
#include "harness.hh"
#include "kv/kv_router.hh"
#include "kv/kv_service.hh"
#include "workload/key_dist.hh"
#include "workload/workload.hh"

namespace repobench {

namespace {

using kv::Key;
using kv::KvStatus;

/** One KV workload's cluster and traffic. */
struct KvSpec
{
    unsigned nodes = 0;
    unsigned portsPerNode = 1;
    unsigned cards = 1;
    flash::Geometry geometry;
    unsigned cacheSlots = 0;
    std::uint64_t keys = 0;
    /** Value size; a key's size is drawn once, from its hash, in
     * [valueBytes, valueBytesMax] when valueBytesMax is larger. */
    std::uint32_t valueBytes = 0;
    std::uint32_t valueBytesMax = 0;
    double readFrac = 0.0;
    bool zipfian = false;
    double theta = 0.0;
    unsigned clientsPerNode = 0;
    /** Closed loop: operations each client keeps outstanding. */
    unsigned pipeline = 1;
    /** Preload puts outstanding across the cluster. */
    unsigned preloadWindow = 64;
    /** Open loop: Poisson arrivals per second per client (0 =
     * closed loop). */
    double arrivalsPerSec = 0.0;
    std::uint64_t ops = 0;      //!< measured operations per sub-run
    std::uint64_t readBack = 0; //!< keys read back after the sweep
};

/**
 * Closed- or open-loop clients over one KvService. Every put writes
 * WorkloadEngine::makeValue(key, valueSize(key)) and every get must
 * return exactly those bytes, so a get that returns anything else is
 * a failure.
 */
class KvLoad
{
  public:
    KvLoad(sim::Simulator &sim, kv::KvService &svc, const KvSpec &spec,
           std::uint64_t seed)
        : sim_(sim), svc_(svc), spec_(spec)
    {
        kv::KvService::ClientParams cp;
        cp.window = 8;
        cp.queueCap = 1024;
        std::unique_ptr<workload::ZipfianKeys> proto;
        if (spec.zipfian) {
            proto = std::make_unique<workload::ZipfianKeys>(
                spec.keys, spec.theta, seed);
        }
        const unsigned n = spec.nodes * spec.clientsPerNode;
        clients_.resize(n);
        for (unsigned i = 0; i < n; ++i) {
            Client &c = clients_[i];
            c.id = svc.addClient(net::NodeId(i % spec.nodes), cp);
            std::uint64_t cs =
                kv::mix64(seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
            c.rng = sim::Rng(cs);
            if (proto) {
                c.zipf = std::make_unique<workload::ZipfianKeys>(*proto);
                c.zipf->reseed(cs ^ 0x5bf036350c488d15ull);
            } else {
                c.uniform = std::make_unique<workload::UniformKeys>(
                    spec.keys, cs ^ 0x5bf036350c488d15ull);
            }
            if (spec.arrivalsPerSec > 0.0) {
                c.arrivals = std::make_unique<workload::PoissonArrivals>(
                    spec.arrivalsPerSec, cs ^ 0xc2b2ae3d27d4eb4full);
            }
        }
    }

    /** Put every key once, @p window puts at a time; key k goes
     * through client k mod n. */
    void
    preload(unsigned window)
    {
        bench::Window::run(
            spec_.keys, window,
            [this](Key key, std::function<void()> next) {
            svc_.put(clients_[key % clients_.size()].id, key,
                     expected(key), [this, next](KvStatus st) {
                ++preloaded;
                if (st != KvStatus::Ok)
                    ++preloadFailed;
                next();
            });
        });
    }

    /** Issue @p ops measured operations. */
    void
    measure(std::uint64_t ops)
    {
        start_ = end_ = sim_.now();
        const std::size_t n = clients_.size();
        for (std::size_t ci = 0; ci < n; ++ci) {
            Client &c = clients_[ci];
            c.quota = ops / n + (ci < ops % n ? 1 : 0);
            if (c.arrivals) {
                scheduleArrival(ci);
            } else {
                for (unsigned p = 0; p < spec_.pipeline; ++p)
                    refill(ci);
            }
        }
    }

    /** Get @p keys sampled keys once more after the sweep, a few
     * at a time: a burst would trip read timeouts on queueing alone. */
    void
    readBack(std::uint64_t keys, std::uint64_t seed)
    {
        readBackRng_ = sim::Rng(kv::mix64(seed ^ 0x2545f4914f6cdd1dull));
        bench::Window::run(
            keys, 16, [this](std::uint64_t, std::function<void()> next) {
            Key key = readBackRng_.below(spec_.keys);
            svc_.get(clients_[key % clients_.size()].id, key,
                     [this, key, next](flash::PageBuffer v,
                                       KvStatus st) {
                ++readBackDone;
                if (st != KvStatus::Ok || v != expected(key))
                    ++readBackBad;
                next();
            });
        });
    }

    std::uint32_t
    valueSize(Key key) const
    {
        if (spec_.valueBytesMax <= spec_.valueBytes)
            return spec_.valueBytes;
        return spec_.valueBytes +
            std::uint32_t(kv::mix64(key ^ 0x94d049bb133111ebull) %
                          (spec_.valueBytesMax - spec_.valueBytes + 1));
    }

    flash::PageBuffer
    expected(Key key) const
    {
        return workload::WorkloadEngine::makeValue(key, valueSize(key));
    }

    /** @name Results */
    ///@{
    std::uint64_t preloaded = 0, preloadFailed = 0;
    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t gets = 0, puts = 0, putBytesOk = 0;
    std::uint64_t readBackDone = 0, readBackBad = 0;
    std::uint64_t retries = 0; //!< Overloaded attempts sent again
    std::uint64_t wrongBytes = 0; //!< Ok gets with the wrong value
    Latencies all, reads, writes;
    sim::Tick elapsed() const { return end_ - start_; }
    ///@}

  private:
    struct Client
    {
        kv::KvService::ClientId id = 0;
        sim::Rng rng;
        std::unique_ptr<workload::ZipfianKeys> zipf;
        std::unique_ptr<workload::UniformKeys> uniform;
        std::unique_ptr<workload::PoissonArrivals> arrivals;
        std::uint64_t quota = 0;
        std::uint64_t issued = 0;
    };

    void
    refill(std::size_t ci)
    {
        Client &c = clients_[ci];
        if (c.issued < c.quota) {
            ++c.issued;
            issue(ci);
        }
    }

    void
    scheduleArrival(std::size_t ci)
    {
        Client &c = clients_[ci];
        if (c.issued >= c.quota)
            return;
        sim_.scheduleAfter(c.arrivals->nextGap(), [this, ci]() {
            ++clients_[ci].issued;
            issue(ci);
            scheduleArrival(ci);
        });
    }

    void
    issue(std::size_t ci)
    {
        Client &c = clients_[ci];
        ++attempted;
        const bool is_get = c.rng.uniform() < spec_.readFrac;
        Key key = c.zipf ? c.zipf->next() : c.uniform->next();
        if (is_get)
            ++gets;
        else
            ++puts;
        send(ci, is_get, key, sim_.now(), 0);
    }

    /** One attempt of an op first issued at @p t0. */
    void
    send(std::size_t ci, bool is_get, Key key, sim::Tick t0,
         unsigned tries)
    {
        const auto id = clients_[ci].id;
        if (is_get) {
            svc_.get(id, key, [=, this](flash::PageBuffer v,
                                        KvStatus st) {
                if (st == KvStatus::Overloaded &&
                    retry(ci, is_get, key, t0, tries))
                    return;
                bool right = v == expected(key);
                if (st == KvStatus::Ok && !right)
                    ++wrongBytes;
                done(ci, t0, reads, st == KvStatus::Ok && right);
            });
        } else {
            svc_.put(id, key, expected(key), [=, this](KvStatus st) {
                if (st == KvStatus::Overloaded &&
                    retry(ci, is_get, key, t0, tries))
                    return;
                if (st == KvStatus::Ok)
                    putBytesOk += valueSize(key);
                done(ci, t0, writes, st == KvStatus::Ok);
            });
        }
    }

    /**
     * Overloaded is retryable by the service's contract (a full
     * admission queue, or a shard shedding puts at its capacity red
     * line): wait a jittered multiple of the retry-after hint and
     * send again, up to maxRetries times. The op's latency runs from
     * its first attempt, so the wait lands in the tail.
     */
    bool
    retry(std::size_t ci, bool is_get, Key key, sim::Tick t0,
          unsigned tries)
    {
        if (tries >= maxRetries)
            return false;
        ++retries;
        Client &c = clients_[ci];
        double hint_us = double(std::max<std::uint64_t>(
            svc_.retryAfterUs(c.id), 1));
        sim_.scheduleAfter(
            sim::usToTicks(hint_us * (0.5 + c.rng.uniform())),
            [=, this]() { send(ci, is_get, key, t0, tries + 1); });
        return true;
    }

    void
    done(std::size_t ci, sim::Tick t0, Latencies &kind, bool ok)
    {
        end_ = sim_.now();
        if (ok) {
            kind.record(end_ - t0);
            all.record(end_ - t0);
        } else {
            ++failed;
        }
        if (!clients_[ci].arrivals)
            refill(ci);
    }

    /** A put shed at the red line can need 9 retries while the cleaner
     * reclaims a block; the cap only bounds a service that never
     * recovers. */
    static constexpr unsigned maxRetries = 64;

    sim::Simulator &sim_;
    kv::KvService &svc_;
    const KvSpec &spec_;
    std::vector<Client> clients_;
    sim::Rng readBackRng_;
    sim::Tick start_ = 0, end_ = 0;
};

Rep
runKv(const KvSpec &spec, const RepConfig &cfg)
{
    Rep rep;
    Stopwatch clock;
    const std::uint64_t ops = cfg.ops ? cfg.ops : spec.ops;

    sim::Simulator sim;
    core::ClusterParams cp;
    cp.topology = net::Topology::ring(spec.nodes, spec.portsPerNode);
    cp.node.geometry = spec.geometry;
    cp.node.timing = flash::Timing{};
    cp.node.cards = spec.cards;
    cp.node.controllerTags = 128;
    cp.network.endpoints = kv::kvRequiredEndpoints;
    core::Cluster cluster(sim, cp);
    kv::KvParams kp;
    kp.replication = 2;
    kp.writeQuorum = 1;
    kp.cacheSlots = spec.cacheSlots;
    kv::KvRouter router(sim, cluster, kp);
    kv::KvService service(sim, router);
    KvLoad load(sim, service, spec, cfg.seed);
    rep.buildS = clock.lap();

    load.preload(spec.preloadWindow);
    sim.run();
    if (load.preloaded != spec.keys || load.preloadFailed != 0)
        rep.problems.push_back("preload: not every put was acked Ok");
    rep.preloadS = clock.lap();

    // Measured phase: traced repetitions sample only this phase.
    if (cfg.traced) {
        sim::Tracer::Params tp;
        tp.enabled = true;
        tp.sampleEvery = 8;
        tp.maxRetained = std::size_t(ops / 8 + 64);
        sim.tracer().configure(tp);
    }
    LayerProbe probe(sim, cluster);
    const std::uint64_t events0 = sim.eventsExecuted();
    auto nand_pages = [&sim]() {
        return sim.metrics().counterTotal("nand.pages_written");
    };
    const std::uint64_t nand0 = nand_pages();
    load.measure(ops);
    sim.run();
    rep.runS = clock.lap();
    rep.events = sim.eventsExecuted() - events0;
    sim.tracer().configure(sim::Tracer::Params{});

    rep.attempted = load.attempted;
    rep.failed = load.failed;
    if (load.all.count() + load.failed != ops)
        rep.problems.push_back("measured: not every op completed");
    if (load.wrongBytes != 0)
        rep.problems.push_back("measured: a get returned wrong bytes");
    rep.samples.push_back(
        {"samples.client_retries", "count", double(load.retries)});
    rep.sim.all = std::move(load.all);
    rep.sim.reads = std::move(load.reads);
    rep.sim.writes = std::move(load.writes);
    rep.sim.elapsed = load.elapsed();
    rep.sim.userBytes = double(load.putBytesOk);
    rep.sim.nandBytes = double(nand_pages() - nand0) *
        double(spec.geometry.pageSize);
    probe.finish({load.attempted, load.gets, load.puts, load.failed,
                  load.elapsed()},
                 rep.layers);

    // Verify: one anti-entropy sweep must leave nothing divergent,
    // then a sample of keys must read back byte-exact.
    bool swept = false;
    router.repairSweep([&swept]() { swept = true; });
    sim.run();
    if (!swept || router.divergentWrites() != 0)
        rep.problems.push_back("sweep: divergent keys remain");
    load.readBack(spec.readBack, cfg.seed);
    sim.run();
    if (load.readBackDone != spec.readBack || load.readBackBad != 0)
        rep.problems.push_back("read-back: a key did not read back");
    rep.sweepS = clock.lap();

    if (cfg.traced)
        attributeSpans(sim.tracer(), rep);
    return rep;
}

} // namespace

Rep
runKvZipfRead(const RepConfig &cfg)
{
    // svc_kv's headline: 20-node ring, 4 ports per node, two 1 GB
    // cards per node (8 buses x 2 chips x 128 blocks x 64 pages).
    KvSpec s;
    s.nodes = 20;
    s.portsPerNode = 4;
    s.cards = 2;
    s.geometry.buses = 8;
    s.geometry.chipsPerBus = 2;
    s.geometry.blocksPerChip = 128;
    s.geometry.pagesPerBlock = 64;
    s.geometry.pageSize = 8192;
    s.cacheSlots = 256;
    s.keys = 10000;
    s.valueBytes = 256;
    s.readFrac = 0.95;
    s.zipfian = true;
    s.theta = 0.99;
    s.clientsPerNode = 8;
    s.pipeline = 4;
    s.ops = 40000;
    s.readBack = 512;
    return runKv(s, cfg);
}

Rep
runKvUniformWrite(const RepConfig &cfg)
{
    // svc_kv's aged-card geometry: 8 MB (2 buses x 1 chip x 32
    // blocks x 16 pages), so the measured phase programs the card
    // several times over and the cleaner never rests. Values vary per
    // key and the mix is 60/40 so that p50 sits inside the get mode
    // instead of on a plateau or on the read/write split.
    KvSpec s;
    s.nodes = 8;
    s.portsPerNode = 2;
    s.cards = 1;
    s.geometry.buses = 2;
    s.geometry.chipsPerBus = 1;
    s.geometry.blocksPerChip = 32;
    s.geometry.pagesPerBlock = 16;
    s.geometry.pageSize = 8192;
    s.cacheSlots = 128;
    s.keys = 2000;
    s.valueBytes = 2048;
    s.valueBytesMax = 4084;
    s.readFrac = 0.6;
    s.zipfian = false;
    s.clientsPerNode = 8;
    s.preloadWindow = 16;
    s.arrivalsPerSec = 100.0;
    s.ops = 20000;
    s.readBack = 512;
    return runKv(s, cfg);
}

} // namespace repobench
