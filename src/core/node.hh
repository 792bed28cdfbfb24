/**
 * @file
 * One BlueDBM node (paper figure 2): a host server coupled with a
 * storage device that carries two custom flash cards, an in-store
 * processing substrate, on-board DRAM, the host PCIe link, and
 * integrated network endpoints.
 *
 * The node exposes the four access paths the paper measures:
 *  - ispReadLocal/ispReadRemote: the in-store processor reading local
 *    or remote flash directly over the integrated network (ISP-F);
 *  - hostReadLocal: host software reading its own device (Host-Local);
 *  - hostReadRemote: host software reading remote flash through the
 *    integrated network (H-F);
 *  - hostReadRemoteViaHost: the conventional path through the remote
 *    server's software (H-RH-F), or its DRAM (H-D).
 *
 * Host software stores files through the log-structured file system
 * on card 0 (fs(), paper section 4). There is no block-device FTL:
 * none of the paper's measurements uses one, and a LogFs file serves
 * any caller that wants a block device.
 */

#ifndef BLUEDBM_CORE_NODE_HH
#define BLUEDBM_CORE_NODE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "core/messages.hh"
#include "flash/flash_card.hh"
#include "flash/flash_server.hh"
#include "fs/log_fs.hh"
#include "host/host_cpu.hh"
#include "host/pcie.hh"
#include "host/software.hh"
#include "net/network.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace core {

/**
 * Per-node configuration.
 */
struct NodeParams
{
    flash::Geometry geometry;        //!< per-card geometry
    flash::Timing timing;            //!< NAND timing
    unsigned cards = 2;              //!< flash cards per node
    unsigned controllerTags = 256;   //!< hardware tags per card
    host::PcieParams pcie;           //!< Connectal host link
    host::SoftwareParams software;   //!< software path costs
    unsigned cores = 24;             //!< host cores
    /** Device DRAM read rate (on-board buffer, section 3). */
    double dramBytesPerSec = 10e9;
    std::uint64_t seed = 1;          //!< content seed
};

/**
 * A host server plus its BlueDBM storage device.
 */
class Node
{
  public:
    /** Page-delivery callback for read paths. */
    using PageDone = std::function<void(flash::PageBuffer)>;

    /**
     * @param sim    simulation kernel
     * @param net    cluster storage network
     * @param id     this node's network id
     * @param params node configuration
     */
    Node(sim::Simulator &sim, net::StorageNetwork &net,
         net::NodeId id, const NodeParams &params);

    /** Network id of this node. */
    net::NodeId id() const { return id_; }

    /** Node configuration. */
    const NodeParams &params() const { return params_; }

    /** Flash card @p i. */
    flash::FlashCard &card(unsigned i) { return *cards_.at(i); }

    /** Number of cards. */
    unsigned cardCount() const { return unsigned(cards_.size()); }

    /** In-order flash server used by the in-store processor. */
    flash::FlashServer &
    ispServer(unsigned card)
    {
        return *ispServers_.at(card);
    }

    /** In-order flash server used by host software. */
    flash::FlashServer &
    hostServer(unsigned card)
    {
        return *hostServers_.at(card);
    }

    /** Log-structured file system (lives on card 0). */
    fs::LogFs &fs() { return *fs_; }

    /** Host CPU. */
    host::HostCpu &cpu() { return *cpu_; }

    /** Host link. */
    host::PcieLink &pcie() { return *pcie_; }

    /** Software path costs. */
    const host::SoftwareParams &software() const
    {
        return params_.software;
    }

    /** Network endpoint @p e of this node. */
    net::Endpoint &
    endpoint(net::EndpointId e)
    {
        return net_.endpoint(id_, e);
    }

    /** @name Data paths (paper sections 6.4, 6.5) */
    ///@{

    /**
     * In-store processor reads a local page: no host involvement.
     */
    void ispReadLocal(unsigned card, const flash::Address &addr,
                      PageDone done);

    /**
     * In-store processor reads a page on @p remote via the
     * integrated network (ISP-F).
     */
    void ispReadRemote(net::NodeId remote, unsigned card,
                       const flash::Address &addr, PageDone done);

    /**
     * Host software reads a local page: request setup, RPC doorbell,
     * flash access, DMA into a read buffer, completion interrupt.
     */
    void hostReadLocal(unsigned card, const flash::Address &addr,
                       PageDone done);

    /**
     * Host software reads a remote page over the integrated network
     * (H-F): like hostReadLocal but the flash access happens on the
     * remote device.
     */
    void hostReadRemote(net::NodeId remote, unsigned card,
                        const flash::Address &addr, PageDone done);

    /**
     * Host software asks the *remote host's software* for a page
     * (H-RH-F). Data still returns over the integrated network.
     */
    void hostReadRemoteViaHost(net::NodeId remote, unsigned card,
                               const flash::Address &addr,
                               PageDone done);

    /**
     * Host software asks the remote host for @p bytes out of its
     * DRAM (H-D).
     */
    void hostReadRemoteDram(net::NodeId remote, std::uint32_t bytes,
                            PageDone done);

    /**
     * In-store processor reads @p bytes from the device's on-board
     * DRAM buffer.
     */
    void ispReadDeviceDram(std::uint32_t bytes,
                           std::function<void()> done);

    ///@}

    /** Pages served by this node's read-service agent. */
    std::uint64_t remoteReadsServed() const { return served_; }

  private:
    void installServices();

    /** Track one outstanding remote request. */
    std::uint64_t
    track(PageDone done)
    {
        std::uint64_t id = nextReqId_++;
        pending_.emplace(id, std::move(done));
        return id;
    }

    void complete(std::uint64_t req_id, flash::PageBuffer data);

    sim::Simulator &sim_;
    net::StorageNetwork &net_;
    net::NodeId id_;
    NodeParams params_;

    std::vector<std::unique_ptr<flash::FlashCard>> cards_;
    std::vector<std::unique_ptr<flash::FlashServer>> ispServers_;
    std::vector<std::unique_ptr<flash::FlashServer>> hostServers_;
    std::vector<std::unique_ptr<flash::FlashServer>> agentServers_;
    std::unique_ptr<fs::LogFs> fs_;
    std::unique_ptr<host::HostCpu> cpu_;
    std::unique_ptr<host::PcieLink> pcie_;
    std::unique_ptr<sim::LatencyRateServer> deviceDram_;

    std::uint64_t nextReqId_ = 1;
    std::unordered_map<std::uint64_t, PageDone> pending_;
    std::uint64_t served_ = 0;

    unsigned ispIfcRotor_ = 0;
    unsigned hostIfcRotor_ = 0;
    unsigned agentIfcRotor_ = 0;
};

} // namespace core
} // namespace bluedbm

#endif // BLUEDBM_CORE_NODE_HH
