#include "isp/string_search.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace isp {

using flash::PageBuffer;
using flash::Status;

void
StringSearchEngine::search(std::uint32_t handle,
                           std::uint64_t file_bytes,
                           std::uint32_t page_size_in,
                           const std::string &needle, Done done)
{
    const auto *pages = server_.handlePages(handle);
    if (!pages)
        sim::fatal("search on unpublished handle %u", handle);

    struct Shared
    {
        MpPattern pattern;
        SearchResult result;
        unsigned remaining = 0;
        Done done;

        explicit Shared(const std::string &n) : pattern(n) {}
    };
    auto shared = std::make_shared<Shared>(needle);
    shared->done = std::move(done);

    std::uint64_t total_pages = pages->size();
    if (total_pages == 0) {
        sim_.scheduleAfter(0, [shared]() {
            shared->done(std::move(shared->result));
        });
        return;
    }
    std::uint64_t page_size = page_size_in;
    if (page_size == 0 ||
        (total_pages - 1) * page_size >= file_bytes ||
        file_bytes > total_pages * page_size)
        sim::fatal("file size %llu inconsistent with %llu pages of "
                   "%llu bytes",
                   static_cast<unsigned long long>(file_bytes),
                   static_cast<unsigned long long>(total_pages),
                   static_cast<unsigned long long>(page_size));

    unsigned ifcs = server_.interfaces();
    std::uint64_t overlap = needle.size() - 1;
    std::uint64_t pages_per_seg =
        (total_pages + ifcs - 1) / ifcs;

    unsigned launched = 0;
    for (unsigned ifc = 0; ifc < ifcs; ++ifc) {
        std::uint64_t first_page = std::uint64_t(ifc) * pages_per_seg;
        if (first_page >= total_pages)
            break;
        std::uint64_t seg_start = first_page * page_size;
        std::uint64_t seg_end =
            std::min((first_page + pages_per_seg) * page_size,
                     file_bytes);
        std::uint64_t ext_end = std::min(seg_end + overlap,
                                         file_bytes);
        std::uint64_t last_page =
            (ext_end + page_size - 1) / page_size;

        ++launched;
        ++shared->remaining;

        struct SegState
        {
            MpMatcher matcher;
            std::uint64_t pos;
            std::uint64_t segStart;
            std::uint64_t segEnd;
            std::uint64_t extEnd;
            std::vector<std::uint64_t> matches;

            SegState(const MpPattern &p, std::uint64_t start)
                : matcher(p), pos(start), segStart(start)
            {
            }
        };
        auto seg = std::make_shared<SegState>(shared->pattern,
                                              seg_start);
        seg->segEnd = seg_end;
        seg->extEnd = ext_end;

        std::uint64_t count = last_page - first_page;
        std::uint64_t expected_pages = count;
        auto pages_seen = std::make_shared<std::uint64_t>(0);
        server_.streamRead(
            ifc, handle, first_page, count,
            [this, shared, seg, expected_pages, pages_seen](
                PageBuffer page, Status st) {
            if (st == Status::Uncorrectable)
                ++shared->result.uncorrectablePages;
            std::uint64_t take = std::min<std::uint64_t>(
                page.size(), seg->extEnd - seg->pos);
            seg->matcher.feed(page.data(), take, seg->pos,
                              seg->matches);
            seg->pos += take;
            shared->result.bytesScanned += take;
            if (++*pages_seen == expected_pages) {
                // Keep only matches owned by this segment (matches
                // starting in the overlap belong to the next one).
                for (std::uint64_t m : seg->matches) {
                    if (m >= seg->segStart && m < seg->segEnd)
                        shared->result.positions.push_back(m);
                }
                if (--shared->remaining == 0) {
                    std::sort(shared->result.positions.begin(),
                              shared->result.positions.end());
                    shared->done(std::move(shared->result));
                }
            }
        });
    }
    if (launched == 0) {
        sim_.scheduleAfter(0, [shared]() {
            shared->done(std::move(shared->result));
        });
    }
}

} // namespace isp
} // namespace bluedbm
