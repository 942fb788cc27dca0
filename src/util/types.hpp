// Fundamental scalar types shared across Parallel Prophet.
#pragma once

#include <cstdint>

namespace pprophet {

/// Virtual cycle count. All simulated time in the project is expressed in
/// cycles of a nominal 1 GHz machine clock (so 1 cycle == 1 ns when the
/// real-time clock backend is used).
using Cycles = std::uint64_t;

/// Signed cycle delta, for overhead subtraction arithmetic that may go
/// transiently negative before clamping.
using CycleDelta = std::int64_t;

/// Identifier of a user-visible lock (annotation LOCK_BEGIN/END argument).
using LockId = std::uint32_t;

/// Number of hardware threads / cores under emulation.
using CoreCount = std::uint32_t;

/// Largest core or thread count a caller may ask for (serve request fields,
/// CLI flags). The simulator holds one core record per core and one thread
/// per requested thread, so untrusted counts are rejected above this bound
/// rather than narrowed to CoreCount.
inline constexpr CoreCount kMaxCoreCount = 4096;

/// Nominal clock frequency used to convert cycle counts to seconds and
/// cache-line traffic to MB/s in the memory model.
inline constexpr double kClockHz = 1.0e9;

/// Cache line size in bytes (Westmere-like).
inline constexpr std::uint64_t kCacheLineBytes = 64;

}  // namespace pprophet
