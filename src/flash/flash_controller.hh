/**
 * @file
 * The low-level flash controller (paper section 3.1.1).
 *
 * Exposes a thin, tag-based, bit-error-corrected interface to raw NAND:
 * the user issues a Command carrying an operation, an address and a
 * tag; for writes the controller later raises writeDataRequest() when
 * its scheduler is ready for the payload; read data returns tagged,
 * possibly out of order with respect to issue and interleaved with
 * other reads. Saturating the card requires many commands in flight,
 * exactly as the paper notes.
 */

#ifndef BLUEDBM_FLASH_FLASH_CONTROLLER_HH
#define BLUEDBM_FLASH_FLASH_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "flash/nand_array.hh"
#include "flash/types.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace flash {

/**
 * Tag-based asynchronous flash controller for one card.
 */
class FlashController
{
  public:
    /**
     * @param sim  simulation kernel
     * @param nand NAND array the controller drives
     * @param tags number of concurrently trackable requests
     */
    FlashController(sim::Simulator &sim, NandArray &nand,
                    unsigned tags = 128);

    /** Attach the single direct client (normally the splitter). */
    void setClient(Client *client) { client_ = client; }

    /** Number of hardware tags. */
    unsigned tagCount() const { return unsigned(tagState_.size()); }

    /** Whether @p tag is free to carry a new command. */
    [[nodiscard]] bool
    tagFree(Tag tag) const
    {
        return tagState_[tag] == TagState::Free;
    }

    /**
     * Issue a command. The tag must be free; commands with in-use tags
     * are a client protocol violation (panic).
     */
    void sendCommand(const Command &cmd);

    /**
     * Supply the payload for a write whose writeDataRequest() was
     * raised.
     */
    void sendWriteData(Tag tag, PageBuffer data);

    /** Underlying NAND array. */
    NandArray &nand() { return nand_; }

    /** @name Statistics */
    ///@{
    std::uint64_t readsIssued() const { return readsIssued_; }
    ///@}

  private:
    enum class TagState : std::uint8_t
    {
        Free,
        ReadInFlight,
        AwaitWriteData,
        WriteInFlight,
        EraseInFlight,
    };

    sim::Simulator &sim_;
    NandArray &nand_;
    Client *client_ = nullptr;
    std::vector<TagState> tagState_;
    std::vector<Address> tagAddr_;
    /** Program-coalescing group of the command on each tag (0 =
     * ungrouped); handed to the NAND when the write data arrives. */
    std::vector<std::uint32_t> tagGroup_;
    /** Traffic class of the command on each tag (see Priority). */
    std::vector<Priority> tagPri_;
    /** Tracing continuation of the command on each tag
     * (Command::trace); handed to the NAND with the operation. */
    std::vector<std::uint64_t> tagTrace_;

    std::uint64_t readsIssued_ = 0;
};

} // namespace flash
} // namespace bluedbm

#endif // BLUEDBM_FLASH_FLASH_CONTROLLER_HH
