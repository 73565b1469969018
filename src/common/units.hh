/**
 * @file
 * Physical units, conversions, and constants shared by the thermal,
 * power, and memory models. All internal computation is SI; helpers
 * exist for the unit mixes the paper reports in (µm, W/mK, °C, GB/s).
 */

#ifndef STACK3D_COMMON_UNITS_HH
#define STACK3D_COMMON_UNITS_HH

#include <cstdint>

namespace stack3d {

/** Simulation time/cycles. */
using Cycles = std::uint64_t;

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

namespace units {

/** Metres from micrometres. */
constexpr double fromMicrometres(double um) { return um * 1e-6; }

/** Metres from millimetres. */
constexpr double fromMillimetres(double mm) { return mm * 1e-3; }

/** Bytes per gigabyte (decimal, as used for bandwidth figures). */
constexpr double bytesPerGB = 1e9;

/** Bytes from mebibytes (cache capacities: 4 MB == 4 MiB here). */
constexpr std::uint64_t fromMiB(std::uint64_t mib) { return mib << 20; }

/** Bytes from kibibytes. */
constexpr std::uint64_t fromKiB(std::uint64_t kib) { return kib << 10; }

/** Gigabytes/second given bytes and elapsed seconds. */
constexpr double
toGBps(double bytes, double seconds)
{
    return seconds > 0.0 ? bytes / bytesPerGB / seconds : 0.0;
}

/** True if @p v is a non-zero power of two. */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)) for non-zero v. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

} // namespace units
} // namespace stack3d

#endif // STACK3D_COMMON_UNITS_HH
