/**
 * @file
 * Fundamental simulation types and unit helpers.
 *
 * The simulator measures time in integer picoseconds so that
 * multi-gigabit link serialization (fractions of a nanosecond per byte)
 * accumulates no rounding error over millions of transfers.
 */

#ifndef BLUEDBM_SIM_TYPES_HH
#define BLUEDBM_SIM_TYPES_HH

#include <cstdint>

namespace bluedbm {
namespace sim {

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** A tick value that compares greater than any schedulable time. */
constexpr Tick maxTick = ~Tick(0);

/** One nanosecond in ticks. */
constexpr Tick onePs = 1;
/** One nanosecond in ticks. */
constexpr Tick oneNs = 1000;
/** One microsecond in ticks. */
constexpr Tick oneUs = 1000 * oneNs;
/** One millisecond in ticks. */
constexpr Tick oneMs = 1000 * oneUs;
/** One second in ticks. */
constexpr Tick oneSec = 1000 * oneMs;

/** Convert nanoseconds to ticks. */
constexpr Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * oneNs);
}

/** Convert microseconds to ticks. */
constexpr Tick
usToTicks(double us)
{
    return static_cast<Tick>(us * oneUs);
}

/** Convert milliseconds to ticks. */
constexpr Tick
msToTicks(double ms)
{
    return static_cast<Tick>(ms * oneMs);
}

/** Convert seconds to ticks. */
constexpr Tick
secToTicks(double s)
{
    return static_cast<Tick>(s * oneSec);
}

/** Convert ticks to microseconds (floating point). */
constexpr double
ticksToUs(Tick t)
{
    return static_cast<double>(t) / oneUs;
}

/** Convert ticks to seconds (floating point). */
constexpr double
ticksToSec(Tick t)
{
    return static_cast<double>(t) / oneSec;
}

/**
 * Serialization delay of @p bytes at @p bytes_per_sec, in ticks.
 *
 * @param bytes          transfer size in bytes
 * @param bytes_per_sec  channel rate in bytes per second
 * @return ticks needed to clock the payload onto the channel
 */
constexpr Tick
transferTicks(std::uint64_t bytes, double bytes_per_sec)
{
    return static_cast<Tick>(
        static_cast<double>(bytes) / bytes_per_sec * oneSec);
}

/**
 * Effective rate in bytes/second given an amount moved over a duration.
 */
constexpr double
bytesPerSec(std::uint64_t bytes, Tick elapsed)
{
    return elapsed == 0
        ? 0.0
        : static_cast<double>(bytes) / ticksToSec(elapsed);
}

} // namespace sim
} // namespace bluedbm

#endif // BLUEDBM_SIM_TYPES_HH
