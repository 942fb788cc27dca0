#include "runtime/iter_sched.hpp"

#include <algorithm>
#include <stdexcept>

namespace pprophet::runtime {

const char* to_string(OmpSchedule s) {
  switch (s) {
    case OmpSchedule::StaticCyclic: return "static,c";
    case OmpSchedule::StaticBlock: return "static";
    case OmpSchedule::Dynamic: return "dynamic,c";
    case OmpSchedule::Guided: return "guided";
  }
  return "?";
}

IterScheduler::IterScheduler(OmpSchedule kind, std::uint64_t total_iters,
                             std::uint32_t num_threads, std::uint64_t chunk)
    : kind_(kind),
      n_(total_iters),
      t_(num_threads),
      chunk_(std::max<std::uint64_t>(1, chunk)) {
  if (num_threads == 0) {
    throw std::invalid_argument("scheduler needs >= 1 thread");
  }
}

RankCursor IterScheduler::cursor(std::uint32_t rank) const {
  RankCursor c;
  c.rank = rank;
  // schedule(static, chunk): chunk k goes to thread k mod t.
  if (kind_ == OmpSchedule::StaticCyclic) c.next_chunk = rank;
  return c;
}

std::optional<IterRange> IterScheduler::next(RankCursor& at) {
  switch (kind_) {
    case OmpSchedule::StaticCyclic: {
      const std::uint64_t begin = at.next_chunk * chunk_;
      if (begin >= n_ || at.rank >= t_) return std::nullopt;
      at.next_chunk += t_;
      return IterRange{begin, std::min(n_, begin + chunk_)};
    }
    case OmpSchedule::StaticBlock: {
      // One contiguous block per thread, sized as OpenMP implementations
      // do (the first n%t threads get one extra iteration).
      if (at.next_chunk != 0 || at.rank >= t_) return std::nullopt;
      at.next_chunk = 1;
      const std::uint64_t base = n_ / t_;
      const std::uint64_t extra = n_ % t_;
      const std::uint64_t begin =
          at.rank * base + std::min<std::uint64_t>(at.rank, extra);
      const std::uint64_t size = base + (at.rank < extra ? 1 : 0);
      if (size == 0) return std::nullopt;
      return IterRange{begin, begin + size};
    }
    case OmpSchedule::Dynamic:
    case OmpSchedule::Guided: {
      // dynamic: first come first served, `chunk` at a time. guided: each
      // fetch takes remaining/num_threads iterations (at least `chunk`), so
      // early chunks are large and the tail is fine-grained — the standard
      // OpenMP guided self-scheduling.
      if (shared_ >= n_) return std::nullopt;
      const std::uint64_t take =
          kind_ == OmpSchedule::Dynamic
              ? chunk_
              : std::max(chunk_, (n_ - shared_) / t_);
      const std::uint64_t begin = shared_;
      shared_ = std::min(n_, shared_ + take);
      return IterRange{begin, shared_};
    }
  }
  throw std::invalid_argument("unknown schedule kind");
}

}  // namespace pprophet::runtime
