// Property tests of the discrete-event machine: randomized thread programs
// must satisfy scheduling invariants regardless of configuration.
#include <gtest/gtest.h>

#include "machine/bodies.hpp"
#include "machine/machine.hpp"
#include "util/rng.hpp"

namespace pprophet::machine {
namespace {

struct Scenario {
  CoreCount cores;
  unsigned threads;
  bool with_locks;
  std::uint64_t seed;
};

class MachineProperty : public ::testing::TestWithParam<Scenario> {};

struct Program {
  std::vector<std::vector<Op>> bodies;
  Cycles total_exec = 0;
  Cycles longest_thread = 0;
};

Program random_program(const Scenario& sc) {
  util::Xoshiro256 rng(sc.seed);
  Program prog;
  for (unsigned t = 0; t < sc.threads; ++t) {
    std::vector<Op> ops;
    Cycles thread_work = 0;
    const int segments = static_cast<int>(rng.uniform_u64(1, 6));
    for (int s = 0; s < segments; ++s) {
      const Cycles len = rng.uniform_u64(100, 5'000);
      if (sc.with_locks && rng.bernoulli(0.4)) {
        const LockId lock = static_cast<LockId>(rng.uniform_u64(1, 3));
        ops.push_back(Op::acquire(lock));
        ops.push_back(Op::exec(len));
        ops.push_back(Op::release(lock));
      } else {
        ops.push_back(Op::exec(len));
      }
      thread_work += len;
      prog.total_exec += len;
    }
    prog.longest_thread = std::max(prog.longest_thread, thread_work);
    prog.bodies.push_back(std::move(ops));
  }
  return prog;
}

MachineStats run_program(const Scenario& sc, const Program& prog,
                         Cycles quantum = 1'000) {
  MachineConfig cfg;
  cfg.cores = sc.cores;
  cfg.quantum = quantum;
  cfg.context_switch = 0;
  Machine m(cfg);
  for (const auto& body : prog.bodies) {
    m.spawn_thread(std::make_unique<ScriptBody>(body));
  }
  return m.run();
}

TEST_P(MachineProperty, MakespanBoundedBelowByWorkAndCriticalPath) {
  const Scenario sc = GetParam();
  const Program prog = random_program(sc);
  const MachineStats s = run_program(sc, prog);
  // Lower bounds: work/P and the longest single thread.
  EXPECT_GE(s.finish_time,
            prog.total_exec / std::max<Cycles>(1, sc.cores));
  EXPECT_GE(s.finish_time, prog.longest_thread);
}

TEST_P(MachineProperty, MakespanBoundedAboveByTotalWork) {
  // Some thread always progresses (the scheduler is work-conserving and a
  // lock's owner is always runnable when others block), and progress is
  // exact, so the makespan never exceeds the total work.
  const Scenario sc = GetParam();
  const Program prog = random_program(sc);
  const MachineStats s = run_program(sc, prog);
  EXPECT_LE(s.finish_time, prog.total_exec);
}

TEST_P(MachineProperty, BusyAccountingMatchesSubmittedWork) {
  const Scenario sc = GetParam();
  const Program prog = random_program(sc);
  const MachineStats s = run_program(sc, prog);
  // Zero context-switch cost: busy time is exactly the submitted exec
  // cycles, however often the threads were preempted.
  EXPECT_EQ(s.total_busy, prog.total_exec);
}

TEST_P(MachineProperty, DeterministicReplay) {
  const Scenario sc = GetParam();
  const Program prog = random_program(sc);
  const MachineStats a = run_program(sc, prog);
  const MachineStats b = run_program(sc, prog);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.lock_contentions, b.lock_contentions);
}

TEST_P(MachineProperty, MoreCoresNeverSlower) {
  const Scenario sc = GetParam();
  const Program prog = random_program(sc);
  Scenario more = sc;
  more.cores = sc.cores * 2;
  const Cycles narrow = run_program(sc, prog).finish_time;
  const Cycles wide = run_program(more, prog).finish_time;
  // With zero context-switch cost and FIFO locks, adding cores can shift
  // lock-arrival order; allow a small tolerance instead of strict
  // monotonicity (real machines behave the same way).
  EXPECT_LE(wide, narrow + narrow / 4 + 8);
}

TEST_P(MachineProperty, QuantumDoesNotChangeTotalWork) {
  const Scenario sc = GetParam();
  const Program prog = random_program(sc);
  const MachineStats fine = run_program(sc, prog, /*quantum=*/200);
  const MachineStats coarse = run_program(sc, prog, /*quantum=*/1'000'000);
  EXPECT_EQ(fine.total_busy, prog.total_exec);
  EXPECT_EQ(coarse.total_busy, prog.total_exec);
  EXPECT_EQ(coarse.preemptions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MachineProperty,
    ::testing::Values(
        Scenario{1, 1, false, 11}, Scenario{1, 4, false, 12},
        Scenario{2, 2, false, 13}, Scenario{2, 8, false, 14},
        Scenario{4, 4, true, 15}, Scenario{4, 16, true, 16},
        Scenario{8, 8, true, 17}, Scenario{8, 24, true, 18},
        Scenario{12, 6, true, 19}, Scenario{3, 9, true, 20},
        Scenario{2, 12, true, 21}, Scenario{6, 6, false, 22}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      const Scenario& s = info.param;
      return "c" + std::to_string(s.cores) + "t" + std::to_string(s.threads) +
             (s.with_locks ? "locks" : "nolocks") + "s" +
             std::to_string(s.seed);
    });

}  // namespace
}  // namespace pprophet::machine
