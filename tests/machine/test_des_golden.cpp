// Golden digests of the discrete-event machine: every MachineStats field of
// a few thousand Real and SYN runs, folded into one 64-bit FNV-1a digest per
// scenario family. Any change to event order, tie-breaking, progress
// accounting or bandwidth dilation moves a digest, so an event-loop rewrite
// that claims bit-identical predictions is checked here.
//
// The families cover every OpenMP schedule, the Cilk executor, core counts
// 1-12, oversubscription with a small quantum on cycle-aligned work (so
// quantum checks fall due in the same cycle as op completions), memory-bound
// sections above the saturation point (dilation changes mid-op) and
// lock-heavy trees (handoff order is observable).
//
// If a digest moves on purpose, the new value is printed by the failing
// assertion; list the change and why it is expected in CHANGES.md.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "../property/random_trees.hpp"
#include "runtime/cilk_executor.hpp"
#include "runtime/omp_executor.hpp"
#include "tree/builder.hpp"
#include "tree/compile.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace pprophet::runtime {
namespace {

using tree::CompiledTree;
using tree::ProgramTree;

constexpr OmpSchedule kSchedules[] = {
    OmpSchedule::StaticCyclic, OmpSchedule::StaticBlock, OmpSchedule::Dynamic,
    OmpSchedule::Guided};

void fold(util::Fnv64& h, const RunResult& r) {
  const machine::MachineStats& s = r.stats;
  h.u64(r.elapsed);
  h.u64(r.traversal_overhead);
  h.u64(s.finish_time);
  h.u64(s.context_switches);
  h.u64(s.preemptions);
  h.u64(s.lock_acquisitions);
  h.u64(s.lock_contentions);
  h.u64(s.total_busy);
  h.u64(s.total_lock_wait);
  h.u64(s.spawned_threads);
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

/// Sets a per-thread-count burden table on every top-level section so the
/// SYN runs stretch their FakeDelay ops.
void add_burdens(ProgramTree& t) {
  for (const auto& child : t.top_level()) {
    if (child->kind() != tree::NodeKind::Sec) continue;
    for (CoreCount c = 1; c <= 12; ++c) child->set_burden(c, 1.0 + 0.04 * c);
  }
}

/// Memory-bound counters on every top-level section: DRAM stall is
/// `mem_share` of the section's time; solo traffic (misses plus
/// write-backs) is 400 MB/s × mem_share.
void add_counters(ProgramTree& t, double mem_share) {
  for (const auto& child : t.top_level()) {
    if (child->kind() != tree::NodeKind::Sec) continue;
    tree::SectionCounters c;
    c.cycles = 200'000;
    c.instructions = 100'000;
    c.llc_misses = static_cast<std::uint64_t>(1'000 * mem_share);
    c.llc_writebacks = c.llc_misses / 4;
    child->set_counters(c);
  }
}

/// Cycle-aligned work: every leaf is a multiple of 250 cycles, so with zero
/// runtime overheads and a 1000-cycle quantum, op completions, preemptions
/// and lock handoffs keep landing on the same cycles.
ProgramTree aligned_tree(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  tree::TreeBuilder b;
  const int secs = static_cast<int>(rng.uniform_u64(1, 3));
  for (int s = 0; s < secs; ++s) {
    b.u(250 * rng.uniform_u64(1, 8));
    b.begin_sec("sec");
    const int tasks = static_cast<int>(rng.uniform_u64(2, 8));
    for (int t = 0; t < tasks; ++t) {
      b.begin_task("t");
      b.u(250 * rng.uniform_u64(1, 12));
      if (rng.bernoulli(0.3)) b.l(1, 250 * rng.uniform_u64(1, 4));
      if (rng.bernoulli(0.3)) {
        b.begin_sec("nested");
        const int inner = static_cast<int>(rng.uniform_u64(2, 4));
        for (int i = 0; i < inner; ++i) {
          b.begin_task("nt").u(250 * rng.uniform_u64(1, 8)).end_task();
        }
        b.end_sec();
      }
      b.end_task();
      if (rng.bernoulli(0.3)) b.repeat_last(rng.uniform_u64(2, 4));
    }
    b.end_sec();
  }
  return b.finish();
}

/// Lock-heavy work: most task time sits in critical sections on two locks.
ProgramTree lock_heavy_tree(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  tree::TreeBuilder b;
  const int secs = static_cast<int>(rng.uniform_u64(1, 3));
  for (int s = 0; s < secs; ++s) {
    b.begin_sec("sec");
    const int tasks = static_cast<int>(rng.uniform_u64(4, 16));
    for (int t = 0; t < tasks; ++t) {
      b.begin_task("t");
      b.u(rng.uniform_u64(1, 400));
      const int crits = static_cast<int>(rng.uniform_u64(1, 3));
      for (int c = 0; c < crits; ++c) {
        b.l(static_cast<LockId>(rng.uniform_u64(1, 2)),
            rng.uniform_u64(200, 2'000));
        b.u(rng.uniform_u64(1, 200));
      }
      b.end_task();
      if (rng.bernoulli(0.3)) b.repeat_last(rng.uniform_u64(2, 5));
    }
    b.end_sec();
  }
  return b.finish();
}

std::vector<CompiledTree> compile_all(std::vector<ProgramTree> trees) {
  std::vector<CompiledTree> out;
  for (const ProgramTree& t : trees) out.push_back(CompiledTree::compile(t));
  return out;
}

std::vector<CompiledTree> random_trees(std::uint64_t first, int count,
                                       bool burdens) {
  std::vector<ProgramTree> trees;
  for (int i = 0; i < count; ++i) {
    trees.push_back(tree::random_tree(first + static_cast<std::uint64_t>(i)));
    if (burdens) add_burdens(trees.back());
  }
  return compile_all(std::move(trees));
}

/// OMP over every schedule × chunk {1, 3} × 1-12 cores, plus Cilk over
/// 1-12 cores, for each tree.
std::uint64_t digest_sweep(const std::vector<CompiledTree>& trees,
                           const ExecMode& mode,
                           machine::MachineConfig base = {}) {
  util::Fnv64 h;
  for (const CompiledTree& ct : trees) {
    for (CoreCount cores = 1; cores <= 12; ++cores) {
      machine::MachineConfig m = base;
      m.cores = cores;
      for (const OmpSchedule sched : kSchedules) {
        for (const std::uint64_t chunk : {1u, 3u}) {
          OmpConfig o;
          o.num_threads = cores;
          o.schedule = sched;
          o.chunk = chunk;
          fold(h, run_tree_omp(ct, m, o, mode));
        }
      }
      CilkConfig c;
      c.num_workers = cores;
      fold(h, run_tree_cilk(ct, m, c, mode));
    }
  }
  return h.h;
}

TEST(DesGolden, RealAllSchedulesAndCilk) {
  const std::uint64_t d =
      digest_sweep(random_trees(101, 6, false), ExecMode::real());
  EXPECT_EQ(hex(d), "0x2de4f9eb7bdc73a3");
}

TEST(DesGolden, SynAllSchedulesAndCilk) {
  const std::uint64_t d =
      digest_sweep(random_trees(201, 6, true), ExecMode::synth_mode());
  EXPECT_EQ(hex(d), "0x1d4e204e129ac59e");
}

TEST(DesGolden, OversubscribedSmallQuantumTies) {
  // Three threads per core, a 1000-cycle quantum, no runtime overheads and
  // cycle-aligned leaves: quantum checks and completions share cycles.
  std::vector<ProgramTree> trees;
  for (std::uint64_t s = 0; s < 8; ++s) {
    trees.push_back(aligned_tree(301 + s));
  }
  const std::vector<CompiledTree> cts = compile_all(std::move(trees));
  util::Fnv64 h;
  for (const CompiledTree& ct : cts) {
    for (CoreCount cores = 1; cores <= 6; ++cores) {
      machine::MachineConfig m;
      m.cores = cores;
      m.quantum = 1'000;
      m.context_switch = 0;
      for (const OmpSchedule sched : kSchedules) {
        OmpConfig o;
        o.num_threads = 3 * cores;
        o.schedule = sched;
        o.overheads = OmpOverheads{0, 0, 0, 0, 0, 0, 0};
        fold(h, run_tree_omp(ct, m, o, ExecMode::real()));
      }
      CilkConfig c;
      c.num_workers = 3 * cores;
      c.overheads = CilkOverheads{0, 0, 0, 0, 0, 0};
      fold(h, run_tree_cilk(ct, m, c, ExecMode::real()));
      // A context-switch charge and the default runtime overheads move
      // later deadlines off the 250-cycle grid.
      m.context_switch = 250;
      OmpConfig o;
      o.num_threads = 2 * cores;
      fold(h, run_tree_omp(ct, m, o, ExecMode::real()));
    }
  }
  EXPECT_EQ(hex(h.h), "0x755621ee8cbfb289");
}

TEST(DesGolden, MemoryBoundAboveSaturation) {
  // Solo traffic of 200 or 360 MB/s per thread against a 400 MB/s knee:
  // from two threads on, every start and finish re-dilates the ops still
  // running.
  std::vector<ProgramTree> trees;
  for (std::uint64_t s = 0; s < 6; ++s) {
    trees.push_back(tree::random_tree(401 + s));
    add_counters(trees.back(), s % 2 == 0 ? 0.9 : 0.5);
  }
  machine::MachineConfig base;
  base.bandwidth.saturation_mbps = 400.0;
  const std::uint64_t d =
      digest_sweep(compile_all(std::move(trees)), ExecMode::real(), base);
  EXPECT_EQ(hex(d), "0x3613dcdd31cfa731");
}

TEST(DesGolden, LockHeavy) {
  std::vector<ProgramTree> trees;
  for (std::uint64_t s = 0; s < 6; ++s) {
    trees.push_back(lock_heavy_tree(501 + s));
  }
  const std::uint64_t d =
      digest_sweep(compile_all(std::move(trees)), ExecMode::real());
  EXPECT_EQ(hex(d), "0x0094b00b0e6eff19");
}

}  // namespace
}  // namespace pprophet::runtime
