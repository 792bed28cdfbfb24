/**
 * @file
 * Flash Interface Splitter with tag renaming (paper section 3.1.2,
 * figure 3).
 *
 * Several hardware endpoints -- the local in-store processor, host
 * software over PCIe DMA, and remote in-store processors over the
 * integrated network -- share one flash controller. Each attaches to
 * its own Port with a private tag space; the splitter renames port
 * tags onto controller tags and routes completions back. When the
 * controller runs out of tags, commands queue FIFO.
 */

#ifndef BLUEDBM_FLASH_FLASH_SPLITTER_HH
#define BLUEDBM_FLASH_FLASH_SPLITTER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "flash/flash_controller.hh"
#include "flash/types.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace flash {

/**
 * Shares one FlashController among multiple tagged clients.
 */
class FlashSplitter : public Client
{
  public:
    /**
     * One endpoint's view of the flash controller. The interface is
     * identical to FlashController's, with tags local to the port.
     */
    class Port
    {
      public:
        /** Sentinel for "no tag". */
        static constexpr Tag noTag = ~Tag(0);

        /** Attach the callback sink for this port. */
        void setClient(Client *client) { client_ = client; }

        /** Port-local tag count. */
        unsigned tagCount() const { return tags_; }

        /** Whether a port-local tag is currently unused. */
        [[nodiscard]] bool
        tagFree(Tag tag) const
        {
            return ctrlTagOf_[tag] == noTag && !queuedTag_[tag];
        }

        /** Issue a command with a port-local tag. */
        void sendCommand(const Command &cmd);

        /** Supply write data for a port-local tag. */
        void sendWriteData(Tag tag, PageBuffer data);

      private:
        friend class FlashSplitter;

        Port(FlashSplitter &owner, unsigned index, unsigned tags)
            : owner_(owner), index_(index), tags_(tags),
              ctrlTagOf_(tags, noTag), queuedTag_(tags, false)
        {
        }

        FlashSplitter &owner_;
        unsigned index_;
        unsigned tags_;
        Client *client_ = nullptr;
        std::vector<Tag> ctrlTagOf_; //!< port tag -> controller tag
        std::vector<bool> queuedTag_;
    };

    /**
     * @param sim  simulation kernel
     * @param ctrl controller to share; the splitter installs itself as
     *             the controller's client
     */
    FlashSplitter(sim::Simulator &sim, FlashController &ctrl);

    /**
     * Create a port with @p tags port-local tags.
     *
     * Ports live as long as the splitter; the returned reference stays
     * valid.
     */
    Port &addPort(unsigned tags);

    /** Commands that had to wait for a free controller tag. */
    std::uint64_t queuedCommands() const { return queuedCommands_; }

    /** @name Client interface (driven by the controller) */
    ///@{
    void readDone(Tag tag, PageBuffer data, Status status) override;
    void writeDataRequest(Tag tag) override;
    void writeDone(Tag tag, Status status) override;
    void eraseDone(Tag tag, Status status) override;
    ///@}

  private:
    struct Owner
    {
        Port *port = nullptr;
        Tag portTag = 0;
    };

    struct Queued
    {
        Port *port;
        Command cmd;
    };

    void issue(Port &port, const Command &cmd);
    void releaseAndRefill(Tag ctrl_tag);

    sim::Simulator &sim_;
    FlashController &ctrl_;
    std::vector<Owner> owner_;       //!< controller tag -> port/tag
    std::vector<Tag> freeCtrlTags_;
    std::deque<Queued> waiting_;
    std::vector<std::unique_ptr<Port>> ports_;
    std::uint64_t queuedCommands_ = 0;
};

} // namespace flash
} // namespace bluedbm

#endif // BLUEDBM_FLASH_FLASH_SPLITTER_HH
