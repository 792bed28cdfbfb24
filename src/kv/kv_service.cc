#include "kv/kv_service.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace kv {

using flash::PageBuffer;

KvService::ClientId
KvService::addClient(net::NodeId origin, const ClientParams &params)
{
    if (params.window == 0)
        sim::fatal("client window must be >= 1");
    Client c;
    c.origin = origin;
    c.params = params;
    clients_.push_back(std::move(c));
    return ClientId(clients_.size() - 1);
}

template <typename Run>
void
KvService::admit(ClientId client, const char *name, Key trace_key,
                 Run run)
{
    // Root of the op's span tree; 0 when the op was not sampled
    // (every tracer call below then early-outs). The trace covers
    // the client-perceived lifetime, queueing included.
    sim::Tick enq = sim_.now();
    std::uint64_t root = sim_.tracer().beginTrace(name, enq, trace_key);
    std::uint64_t qspan =
        sim_.tracer().beginSpan(root, "svc.queue", enq);
    Client &c = clients_.at(client);
    if (c.queue.size() >= c.params.queueCap) {
        rejected_.inc();
        // Size the retry-after hint to the backlog: one base unit
        // per window's worth of queued work, so a client a hundred
        // windows behind is told to stay away proportionally
        // longer than one that just grazed the cap.
        c.retryAfterUs = c.params.retryBaseUs *
            (1 + c.queue.size() / std::max(1u, c.params.window));
        // Completes on a fresh event like every other path: callers
        // may rely on done never firing re-entrantly.
        sim_.scheduleAfter(0, [&sim = sim_, root,
                               run = std::move(run)]() mutable {
            sim.tracer().endTrace(root, sim.now());
            run(Slot{}, root);
        });
        return;
    }
    admitted_.inc();
    c.queue.push_back([this, root, qspan, enq,
                       run = std::move(run)](Slot slot) mutable {
        sim::Tick launched = sim_.now();
        stageAdmission_.record(launched - enq);
        sim_.tracer().endSpan(qspan, launched);
        run(std::move(slot), root);
    });
    pump(client);
    // High-water mark of operations actually left waiting (an op
    // that dispatched straight into a window slot never queued).
    maxQueued_ =
        std::max(maxQueued_, clients_.at(client).queue.size());
}

void
KvService::pump(ClientId client)
{
    Client &c = clients_.at(client);
    while (c.inFlight < c.params.window && !c.queue.empty()) {
        Launch launch = std::move(c.queue.front());
        c.queue.pop_front();
        ++c.inFlight;
        launch([this, client]() {
            Client &cl = clients_.at(client);
            if (cl.inFlight == 0)
                sim::panic("KV window underflow");
            --cl.inFlight;
            pump(client);
        });
    }
}

void
KvService::get(ClientId client, Key key, KvRouter::GetDone done)
{
    net::NodeId origin = clients_.at(client).origin;
    admit(client, "kv.get", key,
          [this, origin, key, done = std::move(done)](
              Slot slot, std::uint64_t root) mutable {
        if (!slot) {
            done(PageBuffer{}, KvStatus::Overloaded);
            return;
        }
        router_.get(origin, key,
                    [&sim = sim_, done = std::move(done), root,
                     slot = std::move(slot)](PageBuffer v,
                                             KvStatus st) {
            slot();
            sim.tracer().endTrace(root, sim.now());
            done(std::move(v), st);
        },
                    root);
    });
}

void
KvService::put(ClientId client, Key key, PageBuffer value,
               KvRouter::AckDone done)
{
    net::NodeId origin = clients_.at(client).origin;
    admit(client, "kv.put", key,
          [this, client, origin, key, value = std::move(value),
           done = std::move(done)](Slot slot,
                                   std::uint64_t root) mutable {
        if (!slot) {
            done(KvStatus::Overloaded);
            return;
        }
        // The client completes at the quorum ack, but the window
        // slot stays charged until every replica settled: the
        // op's straggler writes still occupy flash and network,
        // and admission must account them or quorum acks let a
        // closed-loop client overrun the node (see KvRouter::put).
        // The trace ends with the client too -- endTrace closes
        // any straggler replica span still open at that instant.
        router_.put(origin, key, std::move(value),
                    [this, alive = alive_, client,
                     done = std::move(done), root](KvStatus st) {
            sim_.tracer().endTrace(root, sim_.now());
            if (st == KvStatus::Pressure && *alive) {
                // Capacity red line at the owning shard: surface
                // the standard Overloaded + retry-after contract,
                // with the hint sized for block reclaim rather
                // than a queue blip, so well-behaved clients back
                // off long enough for the cleaner to free space.
                pressured_.inc();
                Client &cl = clients_.at(client);
                if (cl.params.pressureRetryUs > 0)
                    cl.retryAfterUs = cl.params.pressureRetryUs;
                st = KvStatus::Overloaded;
            }
            done(st);
        },
                    std::move(slot), root);
    });
}

void
KvService::del(ClientId client, Key key, KvRouter::AckDone done)
{
    net::NodeId origin = clients_.at(client).origin;
    admit(client, "kv.del", key,
          [this, origin, key, done = std::move(done)](
              Slot slot, std::uint64_t root) mutable {
        if (!slot) {
            done(KvStatus::Overloaded);
            return;
        }
        router_.del(origin, key,
                    [&sim = sim_, done = std::move(done),
                     root](KvStatus st) {
            sim.tracer().endTrace(root, sim.now());
            done(st);
        },
                    std::move(slot), root);
    });
}

void
KvService::multiGet(ClientId client, std::vector<Key> keys,
                    KvRouter::MultiGetDone done)
{
    net::NodeId origin = clients_.at(client).origin;
    Key first = keys.empty() ? 0 : keys.front();
    admit(client, "kv.scan", first,
          [this, origin, keys = std::move(keys),
           done = std::move(done)](Slot slot,
                                   std::uint64_t root) mutable {
        if (!slot) {
            done(std::vector<PageBuffer>(keys.size()),
                 std::vector<KvStatus>(keys.size(),
                                       KvStatus::Overloaded));
            return;
        }
        router_.multiGet(origin, std::move(keys),
                         [&sim = sim_, done = std::move(done), root,
                          slot = std::move(slot)](
                             std::vector<PageBuffer> values,
                             std::vector<KvStatus> sts) {
            slot();
            sim.tracer().endTrace(root, sim.now());
            done(std::move(values), std::move(sts));
        },
                         root);
    });
}

} // namespace kv
} // namespace bluedbm
