// OpenMP loop-iteration schedulers (paper Figure 5: precise modelling of
// scheduling policies is essential for accurate prediction).
//
// Supported policies, matching the paper's experiments:
//   schedule(static,1)  — cyclic, chunk 1
//   schedule(static)    — one contiguous block per thread
//   schedule(dynamic,1) — shared-counter first-come-first-served, chunk 1
// plus generalized chunk sizes, and schedule(guided) as an extension (the
// paper's framework supports any policy the scheduler interface can
// express; guided is the obvious next OpenMP policy).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace pprophet::runtime {

enum class OmpSchedule : std::uint8_t {
  StaticCyclic,  ///< schedule(static, chunk) with round-robin chunks
  StaticBlock,   ///< schedule(static) — default block partition
  Dynamic,       ///< schedule(dynamic, chunk)
  Guided,        ///< schedule(guided, chunk): shrinking shared chunks
};

const char* to_string(OmpSchedule s);

/// Half-open range of logical iteration indices.
struct IterRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t size() const { return end - begin; }
};

/// One team member's place in a schedule. Static policies keep their
/// per-rank progress here, so it lives with the rank; dynamic and guided
/// hand out from the team's shared counter and only read `rank`.
struct RankCursor {
  std::uint32_t rank = 0;
  /// static,c: index of the rank's next chunk; static: 1 once the rank's
  /// block was handed out.
  std::uint64_t next_chunk = 0;
};

/// Hands out iteration ranges to team members: a value type with no heap
/// state, holding the shared counter of dynamic and guided schedules. Not
/// thread-safe in the native sense — all calls happen at DES instants.
class IterScheduler {
 public:
  /// Throws std::invalid_argument when `num_threads` is 0.
  IterScheduler(OmpSchedule kind, std::uint64_t total_iters,
                std::uint32_t num_threads, std::uint64_t chunk);

  /// Fresh progress for team member `rank`.
  RankCursor cursor(std::uint32_t rank) const;

  /// Next chunk for the member `at` stands for (advancing it), or nullopt
  /// when the member is done.
  std::optional<IterRange> next(RankCursor& at);

 private:
  OmpSchedule kind_;
  std::uint64_t n_;
  std::uint32_t t_;
  std::uint64_t chunk_;     ///< at least 1
  std::uint64_t shared_ = 0;  ///< dynamic/guided: next unassigned iteration
};

}  // namespace pprophet::runtime
