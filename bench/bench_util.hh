/**
 * @file
 * Shared helpers for the benches (paper, svc_kv, ablation_kernel)
 * and the repo benchmark: flat JSON reports, result gates, banners
 * and windowed request issuing.
 *
 * A bench names its results, gates them with Checks (printing one
 * "ok"/"FAIL" line each and exiting 1 if any failed) and writes
 * them to a BENCH_*.json file.
 */

#ifndef BLUEDBM_BENCH_BENCH_UTIL_HH
#define BLUEDBM_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "sim/types.hh"

namespace bench {

/** Ordered (name, value) counters destined for a JSON report. */
using JsonCounters = std::vector<std::pair<std::string, double>>;

/**
 * Write @p counters as a flat JSON object to @p path, so the perf
 * trajectory of every bench is machine-readable across PRs (the
 * BENCH_*.json files at the repo root).
 *
 * Non-finite values are emitted as null. Returns false (with a
 * warning on stderr) when the file cannot be written.
 */
inline bool
writeJson(const std::string &path, const JsonCounters &counters)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
        return false;
    }
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < counters.size(); ++i) {
        const auto &[name, value] = counters[i];
        std::fprintf(f, "  \"%s\": ", name.c_str());
        if (std::isfinite(value))
            std::fprintf(f, "%.6g", value);
        else
            std::fprintf(f, "null");
        std::fprintf(f, "%s\n", i + 1 < counters.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    bool ok = std::ferror(f) == 0;
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        std::fprintf(stderr, "bench: short write to %s\n",
                     path.c_str());
    return ok;
}

/** Comparison of a Check. */
enum class Cmp
{
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
};

/**
 * One gate on a bench's named results: value(lhs) cmp bound, or,
 * when @p rhs names a second result, value(lhs) cmp bound *
 * value(rhs) (e.g. a window p99 within 3x of steady state).
 */
struct Check
{
    std::string lhs;
    Cmp cmp;
    double bound;
    std::string rhs = {};
};

/**
 * Evaluate @p c over @p values and print one "ok"/"FAIL" line. A
 * name missing from @p values fails the check. Returns whether it
 * held.
 */
inline bool
holds(const Check &c, const std::map<std::string, double> &values)
{
    static const char *const ops[] = {"==", "<", "<=", ">", ">="};
    auto l = values.find(c.lhs);
    auto r = c.rhs.empty() ? values.end() : values.find(c.rhs);
    bool ok = false;
    if (l != values.end() && (c.rhs.empty() || r != values.end())) {
        double a = l->second;
        double b = c.bound * (c.rhs.empty() ? 1.0 : r->second);
        switch (c.cmp) {
        case Cmp::Eq: ok = a == b; break;
        case Cmp::Lt: ok = a < b; break;
        case Cmp::Le: ok = a <= b; break;
        case Cmp::Gt: ok = a > b; break;
        case Cmp::Ge: ok = a >= b; break;
        }
    }
    std::printf("%-4s %s %g %s %g", ok ? "ok" : "FAIL", c.lhs.c_str(),
                l == values.end() ? NAN : l->second,
                ops[int(c.cmp)], c.bound);
    if (!c.rhs.empty())
        std::printf(" x %s %g", c.rhs.c_str(),
                    r == values.end() ? NAN : r->second);
    std::printf("\n");
    return ok;
}

/** Print a section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n==============================================="
                "===============\n  %s\n"
                "================================================"
                "==============\n",
                title.c_str());
}

/**
 * Issue @p total asynchronous requests keeping at most @p depth
 * outstanding (models the bounded page buffers / request queues real
 * software uses). @p issue receives the request index and a
 * completion callback it must eventually invoke; @p all_done fires
 * after the last completion.
 */
class Window
{
  public:
    using Issue =
        std::function<void(std::uint64_t, std::function<void()>)>;

    static void
    run(std::uint64_t total, unsigned depth, Issue issue,
        std::function<void()> all_done = {})
    {
        auto st = std::make_shared<State>();
        st->total = total;
        st->issue = std::move(issue);
        st->allDone = std::move(all_done);
        pump(st, depth);
    }

  private:
    struct State
    {
        std::uint64_t total = 0;
        std::uint64_t issued = 0;
        std::uint64_t completed = 0;
        Issue issue;
        std::function<void()> allDone;
    };

    static void
    pump(std::shared_ptr<State> st, unsigned depth)
    {
        while (st->issued < st->total &&
               st->issued - st->completed < depth) {
            std::uint64_t idx = st->issued++;
            st->issue(idx, [st, depth]() {
                ++st->completed;
                if (st->completed == st->total) {
                    if (st->allDone)
                        st->allDone();
                    return;
                }
                pump(st, depth);
            });
        }
    }
};

} // namespace bench

#endif // BLUEDBM_BENCH_BENCH_UTIL_HH
