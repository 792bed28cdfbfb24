#include "isp/nearest_neighbor.hh"

#include <utility>

namespace bluedbm {
namespace isp {

namespace {

struct QueryState
{
    core::Node *node = nullptr;
    unsigned window = 0;
    flash::PageBuffer query;
    std::vector<core::GlobalAddress> candidates;
    std::size_t nextIssue = 0;
    std::size_t completed = 0;
    NnResult result;
    NearestNeighborEngine::Done done;
};

/**
 * Keep up to `window` candidate reads in flight; distance
 * computation is pipelined in hardware (it happens at line rate as
 * bursts arrive, so it costs no extra simulated time). Only the
 * in-flight read callbacks own @p st, so it is freed with the last
 * of them.
 */
void
pump(const std::shared_ptr<QueryState> &st)
{
    while (st->nextIssue < st->candidates.size() &&
           st->nextIssue - st->completed < st->window) {
        std::size_t idx = st->nextIssue++;
        const core::GlobalAddress &ga = st->candidates[idx];
        st->node->ispReadRemote(
            ga.node, ga.card, ga.addr,
            [st, idx](flash::PageBuffer page) {
            std::uint64_t d = analytics::hammingDistance(
                st->query.data(), page.data(),
                std::min(st->query.size(), page.size()));
            ++st->result.comparisons;
            if (d < st->result.bestDistance) {
                st->result.bestDistance = d;
                st->result.bestIndex = idx;
            }
            ++st->completed;
            if (st->completed == st->candidates.size()) {
                st->done(std::move(st->result));
                return;
            }
            pump(st);
        });
    }
}

} // namespace

void
NearestNeighborEngine::query(flash::PageBuffer query,
                             std::vector<core::GlobalAddress>
                                 candidates,
                             Done done)
{
    auto st = std::make_shared<QueryState>();
    st->node = &node_;
    st->window = window_;
    st->query = std::move(query);
    st->candidates = std::move(candidates);
    st->done = std::move(done);

    if (st->candidates.empty()) {
        node_.ispReadDeviceDram(0, [st]() {
            st->done(std::move(st->result));
        });
        return;
    }
    pump(st);
}

} // namespace isp
} // namespace bluedbm
