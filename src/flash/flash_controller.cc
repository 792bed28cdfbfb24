#include "flash/flash_controller.hh"

#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace flash {

FlashController::FlashController(sim::Simulator &sim, NandArray &nand,
                                 unsigned tags)
    : sim_(sim), nand_(nand)
{
    if (tags == 0)
        sim::fatal("FlashController needs at least one tag");
    tagState_.assign(tags, TagState::Free);
    tagAddr_.assign(tags, Address{});
    tagGroup_.assign(tags, 0);
    tagPri_.assign(tags, Priority::Read);
    tagTrace_.assign(tags, 0);
}

void
FlashController::sendCommand(const Command &cmd)
{
    if (!client_)
        sim::panic("FlashController has no client");
    if (cmd.tag >= tagState_.size())
        sim::panic("command tag %u out of range (%zu tags)", cmd.tag,
                   tagState_.size());
    if (tagState_[cmd.tag] != TagState::Free)
        sim::panic("command reuses in-flight tag %u", cmd.tag);

    Tag tag = cmd.tag;
    tagAddr_[tag] = cmd.addr;
    tagGroup_[tag] = cmd.group;
    tagPri_[tag] = cmd.pri;
    tagTrace_[tag] = cmd.trace;

    switch (cmd.op) {
      case Op::ReadPage:
        tagState_[tag] = TagState::ReadInFlight;
        ++readsIssued_;
        nand_.read(cmd.addr, [this, tag](ReadResult res) {
            tagState_[tag] = TagState::Free;
            client_->readDone(tag, std::move(res.data), res.status);
        },
                   cmd.pri, cmd.readOffset, cmd.readLen, cmd.trace);
        break;

      case Op::WritePage:
        tagState_[tag] = TagState::AwaitWriteData;
        // The scheduler asks for the payload as soon as the command is
        // registered; with bounded tags this bounds buffering exactly
        // like the hardware's write-data request queue.
        sim_.scheduleAfter(0, [this, tag]() {
            if (tagState_[tag] == TagState::AwaitWriteData)
                client_->writeDataRequest(tag);
        });
        break;

      case Op::EraseBlock:
        tagState_[tag] = TagState::EraseInFlight;
        nand_.erase(cmd.addr, [this, tag](Status st) {
            tagState_[tag] = TagState::Free;
            client_->eraseDone(tag, st);
        },
                    cmd.pri, cmd.trace);
        break;
    }
}

void
FlashController::sendWriteData(Tag tag, PageBuffer data)
{
    if (tag >= tagState_.size())
        sim::panic("write data tag %u out of range", tag);
    if (tagState_[tag] != TagState::AwaitWriteData)
        sim::panic("write data for tag %u not awaiting data", tag);

    tagState_[tag] = TagState::WriteInFlight;
    nand_.write(tagAddr_[tag], std::move(data),
                [this, tag](Status st) {
        tagState_[tag] = TagState::Free;
        client_->writeDone(tag, st);
    },
                tagGroup_[tag], tagPri_[tag], tagTrace_[tag]);
}

} // namespace flash
} // namespace bluedbm
