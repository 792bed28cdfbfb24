/**
 * @file
 * Status and error reporting helpers, in the spirit of gem5's
 * logging.hh.
 *
 * - format(): printf-style formatting into a std::string.
 * - fatal():  the *user* asked for something impossible (bad config,
 *             bad arguments); exits with an error code.
 * - panic():  an internal invariant was violated (a bug); aborts.
 *
 * There is no verbosity level: a condition worth reporting is a
 * counter or a result field its caller can check, not a log line.
 */

#ifndef BLUEDBM_SIM_LOGGING_HH
#define BLUEDBM_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace bluedbm {
namespace sim {

/** printf-style formatting into a std::string. */
std::string vformat(const char *fmt, std::va_list ap);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a user-caused error and exit(1). Use for bad configuration or
 * invalid arguments, not for simulator bugs.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation and abort(). Use when
 * something happened that should never happen regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace sim
} // namespace bluedbm

#endif // BLUEDBM_SIM_LOGGING_HH
