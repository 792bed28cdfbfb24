#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace bluedbm {
namespace sim {

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
format(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    return s;
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

} // namespace sim
} // namespace bluedbm
