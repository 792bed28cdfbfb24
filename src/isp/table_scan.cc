#include "isp/table_scan.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace isp {

using flash::PageBuffer;
using flash::Status;

RecordSchema::RecordSchema(std::vector<std::uint32_t> widths)
    : widths_(std::move(widths))
{
    if (widths_.empty())
        sim::fatal("schema needs at least one column");
    for (auto w : widths_) {
        if (w == 0 || w > 8)
            sim::fatal("column width %u out of range 1..8", w);
        offsets_.push_back(recordBytes_);
        recordBytes_ += w;
    }
}

std::uint64_t
RecordSchema::extract(const std::uint8_t *record,
                      std::uint32_t c) const
{
    std::uint64_t v = 0;
    std::memcpy(&v, record + offset(c), width(c));
    return v;
}

void
RecordSchema::store(std::uint8_t *record, std::uint32_t c,
                    std::uint64_t value) const
{
    std::memcpy(record + offset(c), &value, width(c));
}

bool
Predicate::matches(std::uint64_t v) const
{
    switch (op) {
      case CmpOp::Eq: return v == value;
      case CmpOp::Ne: return v != value;
      case CmpOp::Lt: return v < value;
      case CmpOp::Le: return v <= value;
      case CmpOp::Gt: return v > value;
      case CmpOp::Ge: return v >= value;
    }
    sim::panic("bad comparison operator");
}

void
TableScanEngine::scan(std::uint32_t handle,
                      const RecordSchema &schema,
                      std::uint64_t row_count,
                      std::uint32_t page_size,
                      std::vector<Predicate> predicates, Done done)
{
    const auto *pages = server_.handlePages(handle);
    if (!pages)
        sim::fatal("scan on unpublished handle %u", handle);
    std::uint32_t per_page = schema.recordsPerPage(page_size);
    if (per_page == 0)
        sim::fatal("record (%u bytes) larger than a page",
                   schema.recordBytes());
    std::uint64_t need_pages =
        (row_count + per_page - 1) / per_page;
    if (need_pages > pages->size())
        sim::fatal("table of %llu rows needs %llu pages, handle "
                   "has %zu",
                   static_cast<unsigned long long>(row_count),
                   static_cast<unsigned long long>(need_pages),
                   pages->size());

    struct Seg
    {
        std::vector<std::uint64_t> rows;
        std::vector<std::uint8_t> records;
        std::uint64_t nextRow = 0;
        std::uint64_t scanned = 0;
        std::uint64_t bytes = 0;
        std::uint64_t uncorrectable = 0;
    };
    struct Shared
    {
        RecordSchema schema;
        std::vector<Predicate> preds;
        std::vector<Seg> segs;
        unsigned remaining = 0;
        Done done;

        Shared(const RecordSchema &s, std::vector<Predicate> p)
            : schema(s), preds(std::move(p))
        {
        }
    };
    auto shared = std::make_shared<Shared>(schema,
                                           std::move(predicates));
    shared->done = std::move(done);

    unsigned ifcs = server_.interfaces();
    std::uint64_t pages_per_seg = (need_pages + ifcs - 1) / ifcs;
    shared->segs.resize(ifcs);

    unsigned launched = 0;
    for (unsigned ifc = 0; ifc < ifcs; ++ifc) {
        std::uint64_t first = std::uint64_t(ifc) * pages_per_seg;
        if (first >= need_pages)
            break;
        std::uint64_t count =
            std::min(pages_per_seg, need_pages - first);
        ++launched;
        ++shared->remaining;

        Seg &seg = shared->segs[ifc];
        seg.nextRow = first * per_page;
        auto pages_seen = std::make_shared<std::uint64_t>(0);
        server_.streamRead(
            ifc, handle, first, count,
            [this, shared, ifc, per_page, row_count, count,
             pages_seen](PageBuffer page, Status st) {
            Seg &s = shared->segs[ifc];
            if (st == Status::Uncorrectable)
                ++s.uncorrectable;
            const RecordSchema &sc = shared->schema;
            for (std::uint32_t r = 0;
                 r < per_page && s.nextRow < row_count;
                 ++r, ++s.nextRow) {
                const std::uint8_t *rec =
                    page.data() + std::size_t(r) * sc.recordBytes();
                ++s.scanned;
                s.bytes += sc.recordBytes();
                bool ok = true;
                for (const auto &p : shared->preds)
                    ok = ok && p.matches(sc.extract(rec, p.column));
                if (ok) {
                    s.rows.push_back(s.nextRow);
                    s.records.insert(s.records.end(), rec,
                                     rec + sc.recordBytes());
                }
            }
            if (++*pages_seen == count) {
                if (--shared->remaining == 0) {
                    // Merge segments in table order.
                    ScanResult out;
                    for (auto &sg : shared->segs) {
                        out.rows.insert(out.rows.end(),
                                        sg.rows.begin(),
                                        sg.rows.end());
                        out.records.insert(out.records.end(),
                                           sg.records.begin(),
                                           sg.records.end());
                        out.rowsScanned += sg.scanned;
                        out.bytesScanned += sg.bytes;
                        out.uncorrectablePages += sg.uncorrectable;
                    }
                    shared->done(std::move(out));
                }
            }
        });
    }
    if (launched == 0) {
        sim_.scheduleAfter(0, [shared]() {
            shared->done(ScanResult{});
        });
    }
}

} // namespace isp
} // namespace bluedbm
