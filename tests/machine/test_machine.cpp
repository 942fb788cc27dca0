#include "machine/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "machine/bodies.hpp"
#include "machine/timeline.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace pprophet::machine {
namespace {

MachineConfig cfg(CoreCount cores, Cycles quantum = 100'000,
                  Cycles ctx = 0) {
  MachineConfig c;
  c.cores = cores;
  c.quantum = quantum;
  c.context_switch = ctx;
  return c;
}

TEST(Machine, SingleThreadRunsToCompletion) {
  Machine m(cfg(1));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(1000), Op::exec(500)}));
  const MachineStats s = m.run();
  EXPECT_EQ(s.finish_time, 1500u);
  EXPECT_EQ(s.spawned_threads, 1u);
  EXPECT_EQ(s.preemptions, 0u);
}

TEST(Machine, EmptyMachineFinishesAtZero) {
  Machine m(cfg(2));
  const MachineStats s = m.run();
  EXPECT_EQ(s.finish_time, 0u);
}

TEST(Machine, RunTwiceThrows) {
  Machine m(cfg(1));
  m.run();
  EXPECT_THROW(m.run(), std::logic_error);
}

TEST(Machine, ZeroCoresRejected) {
  EXPECT_THROW(Machine(cfg(0)), std::invalid_argument);
}

TEST(Machine, TwoThreadsTwoCoresRunInParallel) {
  Machine m(cfg(2));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  EXPECT_EQ(m.run().finish_time, 1000u);
}

TEST(Machine, TwoThreadsOneCoreSerialize) {
  Machine m(cfg(1, /*quantum=*/1'000'000));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  EXPECT_EQ(m.run().finish_time, 2000u);
}

TEST(Machine, PreemptionTimeSlicesOversubscribedThreads) {
  // 2 threads, 1 core, quantum far smaller than work: both should finish at
  // ~the same (doubled) time instead of one finishing at 1000.
  Machine m(cfg(1, /*quantum=*/100));
  const ThreadId a = m.spawn_thread(
      std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  // Observe thread a's completion through its exit event.
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  struct Watcher : ThreadBody {
    WaitHandle evt;
    Cycles* done_at;
    explicit Watcher(WaitHandle e, Cycles* d) : evt(e), done_at(d) {}
    int phase = 0;
    std::optional<Op> next(Machine& m, ThreadId) override {
      if (phase == 0) {
        ++phase;
        return Op::wait(evt);
      }
      *done_at = m.now();
      return std::nullopt;
    }
  };
  // (watcher occupies no core while blocked)
  Cycles a_done = 0;
  m.spawn_thread(std::make_unique<Watcher>(m.exit_event(a), &a_done));
  const MachineStats s = m.run();
  EXPECT_GT(s.preemptions, 5u);
  // Progress is exact across preemptions: no cycle is lost or gained.
  EXPECT_EQ(s.finish_time, 2000u);
  // With time slicing, thread a cannot finish much before the end.
  EXPECT_GT(a_done, 1700u);
}

TEST(Machine, ContextSwitchCostCharged) {
  Machine with(cfg(1, 100, /*ctx=*/10));
  with.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  with.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  const MachineStats s = with.run();
  EXPECT_GT(s.context_switches, 0u);
  EXPECT_GT(s.finish_time, 2000u);  // 2000 + switching overhead
}

TEST(Machine, MutexSerializesCriticalSections) {
  Machine m(cfg(2));
  for (int i = 0; i < 2; ++i) {
    m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{
        Op::acquire(1), Op::exec(1000), Op::release(1)}));
  }
  const MachineStats s = m.run();
  EXPECT_EQ(s.finish_time, 2000u);  // fully serialized
  EXPECT_EQ(s.lock_acquisitions, 2u);
  EXPECT_EQ(s.lock_contentions, 1u);
  EXPECT_EQ(s.total_lock_wait, 1000u);
}

TEST(Machine, UncontendedLocksAreFree) {
  Machine m(cfg(2));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{
      Op::acquire(1), Op::exec(500), Op::release(1)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{
      Op::acquire(2), Op::exec(500), Op::release(2)}));
  const MachineStats s = m.run();
  EXPECT_EQ(s.finish_time, 500u);
  EXPECT_EQ(s.lock_contentions, 0u);
}

TEST(Machine, FifoLockHandoffIsFair) {
  // Three threads contend; completion order must follow arrival order.
  Machine m(cfg(4, 1'000'000));
  std::vector<Cycles> done(3, 0);
  for (int i = 0; i < 3; ++i) {
    struct Body : ThreadBody {
      int idx;
      Cycles* done_at;
      Cycles stagger;
      int phase = 0;
      Body(int i, Cycles* d, Cycles st) : idx(i), done_at(d), stagger(st) {}
      std::optional<Op> next(Machine& m, ThreadId) override {
        switch (phase++) {
          case 0: return Op::exec(stagger);  // arrive staggered
          case 1: return Op::acquire(7);
          case 2: return Op::exec(100);
          case 3: return Op::release(7);
          default:
            *done_at = m.now();
            return std::nullopt;
        }
      }
    };
    m.spawn_thread(std::make_unique<Body>(i, &done[i],
                                          static_cast<Cycles>(1 + i * 10)));
  }
  m.run();
  EXPECT_LT(done[0], done[1]);
  EXPECT_LT(done[1], done[2]);
}

TEST(Machine, ReleasingUnownedLockThrows) {
  Machine m(cfg(1));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(10), Op::release(3)}));
  EXPECT_THROW(m.run(), std::logic_error);
}

TEST(Machine, WaitOnNotifiedEventDoesNotBlock) {
  Machine m(cfg(1));
  const WaitHandle h = m.make_event();
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::notify(h), Op::wait(h), Op::exec(100)}));
  EXPECT_EQ(m.run().finish_time, 100u);
}

TEST(Machine, WaitBlocksUntilNotify) {
  Machine m(cfg(2));
  const WaitHandle h = m.make_event();
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::wait(h), Op::exec(10)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(500), Op::notify(h)}));
  EXPECT_EQ(m.run().finish_time, 510u);
}

TEST(Machine, DeadlockIsDetected) {
  Machine m(cfg(1));
  const WaitHandle h = m.make_event();  // never notified
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::wait(h)}));
  EXPECT_THROW(m.run(), std::logic_error);
}

TEST(Machine, SpawnFromRunningThread) {
  // A main thread forks a worker mid-run and joins it.
  struct Main : ThreadBody {
    int phase = 0;
    ThreadId child = kNoThread;
    std::optional<Op> next(Machine& m, ThreadId) override {
      switch (phase++) {
        case 0:
          return Op::exec(100);
        case 1:
          child = m.spawn_thread(
              std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(400)}));
          return Op::exec(50);
        case 2:
          return Op::wait(m.exit_event(child));
        default:
          return std::nullopt;
      }
    }
  };
  Machine m(cfg(2));
  m.spawn_thread(std::make_unique<Main>());
  // Child starts at t=100 on the idle core, finishes at 500; main waits.
  EXPECT_EQ(m.run().finish_time, 500u);
}

TEST(Machine, GreedySchedulingUsesAllCores) {
  // 4 unequal threads on 2 cores, non-preemptive sizes: makespan equals the
  // greedy list-scheduling bound.
  Machine m(cfg(2, 1'000'000));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(10)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(5)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(5)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(10)}));
  // Order: c0 <- 10, c1 <- 5; t=5: c1 <- 5; t=10: c0 <- 10; finish 20.
  EXPECT_EQ(m.run().finish_time, 20u);
}

TEST(Machine, PreemptionFixesNestedImbalance) {
  // The Figure-7 situation reduced to threads: lengths 10,5,5,10 (scaled),
  // 2 cores. Non-preemptive greedy gives 20 (speedup 1.5); preemptive RR
  // sharing gives ~15 (speedup 2.0).
  const Cycles k = 100'000;  // scale so the quantum is fine-grained
  Machine nonpre(cfg(2, /*quantum=*/1'000'000'000));
  for (const Cycles len : {10 * k, 5 * k, 5 * k, 10 * k}) {
    nonpre.spawn_thread(
        std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(len)}));
  }
  EXPECT_EQ(nonpre.run().finish_time, 20 * k);

  Machine pre(cfg(2, /*quantum=*/k / 10));
  for (const Cycles len : {10 * k, 5 * k, 5 * k, 10 * k}) {
    pre.spawn_thread(
        std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(len)}));
  }
  const Cycles t = pre.run().finish_time;
  EXPECT_LT(t, 16 * k);  // ~15k: the paper's "real speedup 2.0"
  EXPECT_GE(t, 15 * k);
}

TEST(Machine, LongOpEndsExactlyBesideManyShortOps) {
  // A long op runs beside a stream of short ops on the other core. Every
  // short completion is an event, but none of them may shift the long op's
  // deadline: it ends at exactly its length, and busy time is exactly the
  // submitted work.
  struct Shape {
    Cycles len;
    int count;
  };
  for (const Shape sh : {Shape{1'000, 1'000}, Shape{142'857, 7},
                         Shape{3'003, 333}}) {
    Machine m(cfg(2));
    m.spawn_thread(
        std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1'000'000)}));
    m.spawn_thread(std::make_unique<ScriptBody>(
        std::vector<Op>(static_cast<std::size_t>(sh.count),
                        Op::exec(sh.len))));
    const MachineStats s = m.run();
    EXPECT_EQ(s.finish_time, 1'000'000u) << sh.len << " x " << sh.count;
    EXPECT_EQ(s.total_busy, 1'000'000u + sh.len * sh.count)
        << sh.len << " x " << sh.count;
  }
}

TEST(Machine, ExactAcrossManyPreemptionsOfMixedWork) {
  // A one-cycle quantum preempts two ops of compute and memory work about
  // 100,000 times each. At dilation 1 every split of the elapsed cycles
  // between the two parts is exact, so nothing drifts however often the
  // ops are charged.
  Machine m(cfg(1, /*quantum=*/1));
  for (int i = 0; i < 2; ++i) {
    m.spawn_thread(std::make_unique<ScriptBody>(
        std::vector<Op>{Op::exec(30'000, 70'001)}));
  }
  const MachineStats s = m.run();
  EXPECT_GT(s.preemptions, 190'000u);
  EXPECT_EQ(s.finish_time, 200'002u);
  EXPECT_EQ(s.total_busy, 200'002u);
}

TEST(Machine, RejectsOpsBeyondFixedPointRange) {
  // Remaining work and summed traffic are fixed point; an op they cannot
  // hold is refused rather than wrapped (trees and counters can come from
  // uploads). The first op is fetched as its thread is spawned.
  const auto run_ops = [](const MachineConfig& c, const Op& op, int threads) {
    Machine m(c);
    for (int i = 0; i < threads; ++i) {
      m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{op}));
    }
    m.run();
  };
  const Cycles too_long = Cycles{1} << 46;
  for (const Op& op :
       {Op::exec(too_long), Op::exec(0, too_long, 100.0),
        Op::exec(10, 10, 5.0e9), Op::exec(10, 10, std::nan(""))}) {
    EXPECT_THROW(run_ops(cfg(2), op, 1), std::overflow_error);
  }
  EXPECT_NO_THROW(run_ops(cfg(2), Op::exec(too_long - 1, 0), 1));
  // A dilation that would push an op past 2^47 cycles is refused too.
  MachineConfig c = cfg(2);
  c.bandwidth.saturation_mbps = 1e-6;
  c.bandwidth.log_alpha = 0.0;
  EXPECT_THROW(run_ops(c, Op::exec(0, Cycles{1} << 40, 4.0e9), 2),
               std::overflow_error);
}

TEST(Machine, BusyAccountingMatchesWork) {
  Machine m(cfg(2, 1'000'000));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(300)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(700)}));
  EXPECT_EQ(m.run().total_busy, 1000u);
}

TEST(Machine, FuncBodyDrivesAdHocStateMachines) {
  Machine m(cfg(1));
  int phase = 0;
  m.spawn_thread(std::make_unique<FuncBody>(
      [&phase](Machine&, ThreadId) -> std::optional<Op> {
        switch (phase++) {
          case 0: return Op::exec(100);
          case 1: return Op::exec(50);
          default: return std::nullopt;
        }
      }));
  EXPECT_EQ(m.run().finish_time, 150u);
  EXPECT_EQ(phase, 3);
}

TEST(Machine, NotifyWakesEveryWaiter) {
  Machine m(cfg(4, 1'000'000));
  const WaitHandle h = m.make_event();
  for (int i = 0; i < 3; ++i) {
    m.spawn_thread(std::make_unique<ScriptBody>(
        std::vector<Op>{Op::wait(h), Op::exec(100)}));
  }
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(500), Op::notify(h)}));
  // All three waiters run their 100 cycles in parallel after the notify.
  EXPECT_EQ(m.run().finish_time, 600u);
}

TEST(Machine, EventStaysNotifiedForLateWaiters) {
  Machine m(cfg(2));
  const WaitHandle h = m.make_event();
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::notify(h)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(1'000), Op::wait(h), Op::exec(10)}));
  EXPECT_EQ(m.run().finish_time, 1'010u);  // wait is a no-op by then
}

TEST(Machine, MemOnlyExecUsesStallCycles) {
  Machine m(cfg(1));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(0, 5'000, 100.0)}));
  EXPECT_EQ(m.run().finish_time, 5'000u);  // below saturation: undilated
}

// --- bandwidth contention ---

TEST(Bandwidth, NoDilationBelowSaturation) {
  BandwidthModel bw({.saturation_mbps = 6000, .log_alpha = 0.2});
  EXPECT_DOUBLE_EQ(bw.dilation(3000), 1.0);
  EXPECT_DOUBLE_EQ(bw.dilation(6000), 1.0);
}

TEST(Bandwidth, DilationGrowsBeyondSaturation) {
  BandwidthModel bw({.saturation_mbps = 6000, .log_alpha = 0.2});
  const double d2 = bw.dilation(12000);
  const double d4 = bw.dilation(24000);
  EXPECT_GT(d2, 1.0);
  EXPECT_GT(d4, d2);
  // Effective bandwidth grows only logarithmically.
  EXPECT_LT(bw.effective_bandwidth(24000), 2 * bw.effective_bandwidth(12000));
}

TEST(Machine, MemoryContentionDilatesConcurrentThreads) {
  MachineConfig c = cfg(4);
  c.bandwidth.saturation_mbps = 4000;
  // One memory-heavy thread alone: mem cycles run at full speed.
  {
    Machine m(c);
    m.spawn_thread(std::make_unique<ScriptBody>(
        std::vector<Op>{Op::exec(0, 10000, 3000)}));
    EXPECT_EQ(m.run().finish_time, 10000u);
  }
  // Four such threads: 12000 MB/s demanded of 4000 → everyone dilates.
  {
    Machine m(c);
    for (int i = 0; i < 4; ++i) {
      m.spawn_thread(std::make_unique<ScriptBody>(
          std::vector<Op>{Op::exec(0, 10000, 3000)}));
    }
    const Cycles t = m.run().finish_time;
    EXPECT_GT(t, 15000u);  // clearly slower than the no-contention 10000
  }
}

TEST(Machine, ComputeOnlyThreadsUnaffectedByBandwidth) {
  MachineConfig c = cfg(2);
  c.bandwidth.saturation_mbps = 1000;
  Machine m(c);
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(10000, 0, 0)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(10000, 0, 0)}));
  EXPECT_EQ(m.run().finish_time, 10000u);
}

TEST(Machine, ContentionEndsWhenHeavyThreadFinishes) {
  // A short memory hog and a long memory task: after the hog exits, the
  // survivor speeds back up, so the finish time is between the all-dilated
  // and no-dilation extremes.
  MachineConfig c = cfg(2);
  c.bandwidth.saturation_mbps = 4000;
  c.bandwidth.log_alpha = 0.0;  // hard ceiling: dilation = demand/sat
  Machine m(c);
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(0, 2000, 4000)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(0, 10000, 4000)}));
  const Cycles t = m.run().finish_time;
  // Both dilate 2x while together. Hog: 2000 mem cycles at f=2 -> done 4000.
  // Survivor consumed 2000 of 10000 by then; remaining 8000 at f=1.
  EXPECT_EQ(t, 12000u);
}


// Same-cycle events are handled in a fixed order: quantum checks before op
// completions, quantum checks in the order they were armed, op completions
// by core index. The two tests below make that order observable.

TEST(Machine, SameCycleCompletionsHandOffLockByCoreIndex) {
  // T0 exits at 40 and T2 takes its core (core 0); T1 runs on core 1. Both
  // ops end at 100 and race for lock 1: core 0's completion is handled
  // first, so T2 (the higher thread id) wins the lock.
  Machine m(cfg(2));
  Cycles done[3] = {0, 0, 0};
  auto locker = [&done](int idx, Cycles lead) {
    return std::make_unique<FuncBody>(
        [&done, idx, lead, phase = 0](Machine& mm,
                                      ThreadId) mutable -> std::optional<Op> {
          switch (phase++) {
            case 0: return Op::exec(lead);
            case 1: return Op::acquire(1);
            case 2: return Op::exec(50);
            case 3: return Op::release(1);
            default:
              done[idx] = mm.now();
              return std::nullopt;
          }
        });
  };
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(40)}));
  m.spawn_thread(locker(1, 100));
  m.spawn_thread(locker(2, 60));
  const MachineStats s = m.run();
  EXPECT_EQ(done[2], 150u);
  EXPECT_EQ(done[1], 200u);
  EXPECT_EQ(s.lock_contentions, 1u);
  EXPECT_EQ(s.total_lock_wait, 50u);
}

TEST(Machine, QuantumCheckBeforeSameCycleCompletion) {
  // One core, quantum 100: T0's first op ends at 100, exactly when the
  // quantum check armed for the waiting T1 falls due. The check goes first
  // and preempts T0 with nothing left to run, so T0 only learns its op is
  // done when it is dispatched again at 200.
  Machine m(cfg(1, /*quantum=*/100));
  Cycles second_op_at = 0;
  m.spawn_thread(std::make_unique<FuncBody>(
      [&second_op_at, phase = 0](Machine& mm,
                                 ThreadId) mutable -> std::optional<Op> {
        switch (phase++) {
          case 0: return Op::exec(100);
          case 1:
            second_op_at = mm.now();
            return Op::exec(10);
          default: return std::nullopt;
        }
      }));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(400)}));
  const MachineStats s = m.run();
  EXPECT_EQ(second_op_at, 200u);
  EXPECT_EQ(s.preemptions, 2u);
  EXPECT_EQ(s.finish_time, 510u);
}


TEST(Machine, EventsCountCompletionsAndQuantumChecks) {
  {
    // One core, quantum 100, two 200-cycle threads: checks at 100, 200, 300
    // and 400 each preempt (the last two tie with a completion and go
    // first), then both zero-remaining ops complete at 400.
    Machine m(cfg(1, /*quantum=*/100));
    for (int i = 0; i < 2; ++i) {
      m.spawn_thread(
          std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(200)}));
    }
    const MachineStats s = m.run();
    EXPECT_EQ(s.preemptions, 4u);
    EXPECT_EQ(s.finish_time, 400u);
    EXPECT_EQ(s.events, 6u);
  }
  {
    // The check armed on core 0 for the waiting third thread falls due at
    // 100, after that thread has already taken core 1 at 50: it fires with
    // nobody waiting, preempts nothing, and still counts.
    Machine m(cfg(2, /*quantum=*/100));
    for (const Cycles len : {1000, 50, 50}) {
      m.spawn_thread(
          std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(len)}));
    }
    const MachineStats s = m.run();
    EXPECT_EQ(s.preemptions, 0u);
    EXPECT_EQ(s.finish_time, 1000u);
    EXPECT_EQ(s.events, 4u);  // completions at 50, 100, 1000 + the check
  }
}

TEST(Machine, RearmAndDilationCounters) {
  {
    // Zero traffic never changes the dilation. One core, quantum 100, two
    // 200-cycle threads: each of the five dispatches at 0-400 arms the op
    // slot, and T1's last dispatch after T0 exits at 400 is the sixth.
    Machine m(cfg(1, /*quantum=*/100));
    for (int i = 0; i < 2; ++i) {
      m.spawn_thread(
          std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(200)}));
    }
    const MachineStats s = m.run();
    EXPECT_EQ(s.dilation_changes, 0u);
    EXPECT_EQ(s.rearms, 6u);
  }
  {
    // Many zero-traffic ops over several cores and locks: still no change.
    Machine m(cfg(3, /*quantum=*/500));
    for (int i = 0; i < 7; ++i) {
      m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{
          Op::exec(300), Op::acquire(1), Op::exec(0, 200), Op::release(1),
          Op::exec(900)}));
    }
    const MachineStats s = m.run();
    EXPECT_EQ(s.dilation_changes, 0u);
    EXPECT_GE(s.rearms, 3u * 7u);
  }
  {
    // Two 4000 MB/s ops against a 4000 MB/s hard ceiling: the dilation goes
    // 1 -> 2 when both start and 2 -> 1 when the hog ends; the survivor's
    // exit leaves it at 1. Arms: two op starts, two re-arms at the first
    // change, one at the second.
    MachineConfig c = cfg(2);
    c.bandwidth.saturation_mbps = 4000;
    c.bandwidth.log_alpha = 0.0;
    Machine m(c);
    m.spawn_thread(std::make_unique<ScriptBody>(
        std::vector<Op>{Op::exec(0, 2000, 4000)}));
    m.spawn_thread(std::make_unique<ScriptBody>(
        std::vector<Op>{Op::exec(0, 10000, 4000)}));
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    auto& reg = obs::MetricsRegistry::global();
    const std::uint64_t rearms0 = reg.counter("machine.rearms").value();
    const std::uint64_t changes0 =
        reg.counter("machine.dilation_changes").value();
    const MachineStats s = m.run();
    obs::set_enabled(was_enabled);
    EXPECT_EQ(s.finish_time, 12000u);
    EXPECT_EQ(s.dilation_changes, 2u);
    EXPECT_EQ(s.rearms, 5u);
    // Flushed once per run into the metrics registry.
    EXPECT_EQ(reg.counter("machine.rearms").value() - rearms0, 5u);
    EXPECT_EQ(reg.counter("machine.dilation_changes").value() - changes0, 2u);
  }
}

TEST(OpQueue, FifoRewindsWhenDrainedAndRejectsOverflow) {
  // Exec ops with a memory part never coalesce, so each takes a slot.
  OpQueue q;
  EXPECT_TRUE(q.empty());
  for (Cycles c = 1; c <= OpQueue::kCapacity; ++c) q.push(Op::exec(c, 1));
  EXPECT_THROW(q.push(Op::exec(99, 1)), std::logic_error);
  for (Cycles c = 1; c <= OpQueue::kCapacity; ++c) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.pop().compute, c);
  }
  EXPECT_TRUE(q.empty());
  // Drained: the full capacity is available again.
  for (Cycles c = 1; c <= OpQueue::kCapacity; ++c) {
    q.push(Op::exec(10 * c, 1));
  }
  EXPECT_EQ(q.pop().compute, 10u);
}

TEST(OpQueue, CoalescesAdjacentPureComputeExecs) {
  const auto expect_exec = [](const Op& op, Cycles compute, Cycles mem,
                              double traffic) {
    EXPECT_EQ(op.kind, Op::Kind::Exec);
    EXPECT_EQ(op.compute, compute);
    EXPECT_EQ(op.mem, mem);
    EXPECT_EQ(op.traffic_mbps, traffic);
  };
  {
    // Only a compute-only Exec behind a compute-only Exec merges; a control
    // op, a memory part or traffic on either side keeps ops apart.
    OpQueue q;
    q.push(Op::exec(5));
    q.push(Op::exec(7));  // merges: 12
    q.push(Op::acquire(1));
    q.push(Op::exec(3));  // behind a control op
    q.push(Op::exec(4, 2));  // has a memory part
    q.push(Op::exec(6));  // behind an op with a memory part
    q.push(Op::exec(0));  // merges into the 6
    q.push(Op::exec(1, 0, 10.0));  // has traffic
    EXPECT_THROW(q.push(Op::release(1)), std::logic_error);  // 6 slots used
    expect_exec(q.pop(), 12, 0, 0.0);
    EXPECT_EQ(q.pop().kind, Op::Kind::Acquire);
    expect_exec(q.pop(), 3, 0, 0.0);
    expect_exec(q.pop(), 4, 2, 0.0);
    expect_exec(q.pop(), 6, 0, 0.0);
    expect_exec(q.pop(), 1, 0, 10.0);
    EXPECT_TRUE(q.empty());
  }
  {
    // Nothing merges into an op that was already popped.
    OpQueue q;
    q.push(Op::exec(5));
    expect_exec(q.pop(), 5, 0, 0.0);
    q.push(Op::exec(7));
    expect_exec(q.pop(), 7, 0, 0.0);
    q.push(Op::exec(1, 1));
    q.push(Op::exec(2));
    expect_exec(q.pop(), 1, 1, 0.0);
    q.push(Op::exec(3));  // the queued 2 is still the tail
    expect_exec(q.pop(), 5, 0, 0.0);
    EXPECT_TRUE(q.empty());
  }
  {
    // Parts whose sum would reach the machine's Exec limit stay separate.
    OpQueue q;
    q.push(Op::exec(kMaxOpCycles - 1));
    q.push(Op::exec(1));
    expect_exec(q.pop(), kMaxOpCycles - 1, 0, 0.0);
    expect_exec(q.pop(), 1, 0, 0.0);
    q.push(Op::exec(kMaxOpCycles - 2));
    q.push(Op::exec(1));
    expect_exec(q.pop(), kMaxOpCycles - 1, 0, 0.0);
    EXPECT_TRUE(q.empty());
  }
}

// One thread's program as segments, rendered either with every compute run
// split into back-to-back compute-only Execs (what a body queues) or with
// each run merged into one Exec (what OpQueue hands the machine).
struct Segment {
  enum class Kind : std::uint8_t { Compute, Memory, Locked } kind;
  std::vector<Cycles> parts;  ///< Compute: the run; Locked: the held run
  Cycles mem = 0;             ///< Memory
  double traffic = 0.0;       ///< Memory
};

std::vector<Op> render(const std::vector<Segment>& plan, bool split) {
  std::vector<Op> ops;
  const auto run = [&](const std::vector<Cycles>& parts) {
    if (split) {
      for (const Cycles c : parts) ops.push_back(Op::exec(c));
    } else {
      Cycles sum = 0;
      for (const Cycles c : parts) sum += c;
      ops.push_back(Op::exec(sum));
    }
  };
  for (const Segment& seg : plan) {
    switch (seg.kind) {
      case Segment::Kind::Compute:
        run(seg.parts);
        break;
      case Segment::Kind::Memory:
        ops.push_back(Op::exec(0, seg.mem, seg.traffic));
        break;
      case Segment::Kind::Locked:
        ops.push_back(Op::acquire(1));
        run(seg.parts);
        ops.push_back(Op::release(1));
        break;
    }
  }
  return ops;
}

struct RunOutcome {
  MachineStats stats;
  std::vector<TimelineSpan> spans;
};

RunOutcome run_plans(const MachineConfig& c,
                     const std::vector<std::vector<Segment>>& plans,
                     bool split) {
  Machine m(c);
  Timeline tl;
  m.set_timeline(&tl);
  for (const auto& plan : plans) {
    m.spawn_thread(std::make_unique<ScriptBody>(render(plan, split)));
  }
  RunOutcome out;
  out.stats = m.run();
  out.spans = tl.spans();
  return out;
}

TEST(Machine, CoalescedComputeOpsMatchSplitOnes) {
  // Oversubscribed cores, a 200-cycle quantum and 50-cycle-aligned compute
  // parts, so quantum checks keep landing exactly on the boundary between
  // two split parts; memory ops with traffic change the dilation while
  // compute runs are in flight, and a lock is handed over between threads.
  std::uint64_t events_split = 0;
  std::uint64_t events_merged = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Xoshiro256 rng(seed);
    MachineConfig c = cfg(static_cast<CoreCount>(rng.uniform_u64(1, 4)),
                          /*quantum=*/200, /*ctx=*/rng.uniform_u64(0, 2) * 25);
    c.bandwidth.saturation_mbps = 4000;
    c.bandwidth.log_alpha = 0.5;
    std::vector<std::vector<Segment>> plans(rng.uniform_u64(2, 7));
    for (auto& plan : plans) {
      const int segments = static_cast<int>(rng.uniform_u64(1, 6));
      for (int i = 0; i < segments; ++i) {
        Segment seg;
        const std::uint64_t pick = rng.uniform_u64(0, 5);
        if (pick == 0) {
          seg.kind = Segment::Kind::Memory;
          seg.mem = 50 * rng.uniform_u64(1, 8);
          seg.traffic = 1000.0 * static_cast<double>(rng.uniform_u64(1, 4));
        } else {
          seg.kind = pick == 1 ? Segment::Kind::Locked
                               : Segment::Kind::Compute;
          const int parts = static_cast<int>(rng.uniform_u64(2, 4));
          for (int k = 0; k < parts; ++k) {
            seg.parts.push_back(50 * rng.uniform_u64(0, 6));
          }
        }
        plan.push_back(seg);
      }
    }
    const RunOutcome a = run_plans(c, plans, /*split=*/true);
    const RunOutcome b = run_plans(c, plans, /*split=*/false);
    const MachineStats& x = a.stats;
    const MachineStats& y = b.stats;
    EXPECT_EQ(x.finish_time, y.finish_time) << "seed " << seed;
    EXPECT_EQ(x.context_switches, y.context_switches) << "seed " << seed;
    EXPECT_EQ(x.preemptions, y.preemptions) << "seed " << seed;
    EXPECT_EQ(x.lock_acquisitions, y.lock_acquisitions) << "seed " << seed;
    EXPECT_EQ(x.lock_contentions, y.lock_contentions) << "seed " << seed;
    EXPECT_EQ(x.total_busy, y.total_busy) << "seed " << seed;
    EXPECT_EQ(x.total_lock_wait, y.total_lock_wait) << "seed " << seed;
    EXPECT_EQ(x.spawned_threads, y.spawned_threads) << "seed " << seed;
    EXPECT_EQ(x.dilation_changes, y.dilation_changes) << "seed " << seed;
    ASSERT_EQ(a.spans.size(), b.spans.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
      EXPECT_EQ(a.spans[i].thread, b.spans[i].thread) << "seed " << seed;
      EXPECT_EQ(a.spans[i].begin, b.spans[i].begin) << "seed " << seed;
      EXPECT_EQ(a.spans[i].end, b.spans[i].end) << "seed " << seed;
      EXPECT_EQ(a.spans[i].kind, b.spans[i].kind) << "seed " << seed;
    }
    events_split += x.events;
    events_merged += y.events;
  }
  EXPECT_LT(events_merged, events_split);
}

TEST(Machine, QuantumCheckOnASplitBoundaryMatchesTheMergedOp) {
  // One core, quantum 100, context switch 10: the check that preempts T0
  // falls due at 100, exactly where its first part ends. Split or merged,
  // T0 has 50 cycles left when it is preempted, and both runs end at 570.
  for (const bool split : {true, false}) {
    Machine m(cfg(1, /*quantum=*/100, /*ctx=*/10));
    m.spawn_thread(std::make_unique<ScriptBody>(
        split ? std::vector<Op>{Op::exec(100), Op::exec(50)}
              : std::vector<Op>{Op::exec(150)}));
    m.spawn_thread(
        std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(400)}));
    const MachineStats s = m.run();
    EXPECT_EQ(s.finish_time, 570u) << "split " << split;
    EXPECT_EQ(s.preemptions, 2u) << "split " << split;
    EXPECT_EQ(s.context_switches, 2u) << "split " << split;
  }
}

TEST(Machine, MoreThan64CoresDispatchToTheLowestIdleCore) {
  // 70 cores, 75 threads. The main thread (core 0) and 69 fillers (filler
  // c on core c) start at 0. Some fillers end early, so idle cores appear
  // on both sides of the 64-core word boundary; the main thread then spawns
  // one child every 100 cycles from 500 to 900, and each child takes the
  // lowest idle core at that instant:
  //   idle {64, 69} -> 64;  {3, 69} -> 3;  {10, 69} -> 10;
  //   {65, 69} -> 65;  {2, 69} -> 2.
  // Every child ends at 2000, and same-cycle completions are handled by
  // core index, so the children's run spans are recorded in core order.
  constexpr CoreCount kCores = 70;
  Machine m(cfg(kCores, /*quantum=*/1'000'000));
  Timeline tl;
  m.set_timeline(&tl);
  m.spawn_thread(std::make_unique<FuncBody>(
      [phase = 0](Machine& mm, ThreadId) mutable -> std::optional<Op> {
        if (phase == 0) {
          ++phase;
          return Op::exec(500);
        }
        if (phase > 5) return std::nullopt;
        const Cycles now = mm.now();
        mm.spawn_thread(std::make_unique<ScriptBody>(
            std::vector<Op>{Op::exec(2000 - now)}));
        ++phase;
        return phase > 5 ? std::nullopt : std::optional<Op>(Op::exec(100));
      }));
  for (std::uint32_t c = 1; c < kCores; ++c) {
    Cycles len = 5000;
    switch (c) {
      case 69: len = 300; break;
      case 64: len = 400; break;
      case 3: len = 550; break;
      case 10: len = 650; break;
      case 65: len = 750; break;
      case 2: len = 850; break;
      default: break;
    }
    m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(len)}));
  }
  const MachineStats s = m.run();
  EXPECT_EQ(s.finish_time, 5000u);
  EXPECT_EQ(s.spawned_threads, 75u);
  EXPECT_EQ(s.preemptions, 0u);

  // Children are threads 70-74 in spawn order; at 2000 they end on cores
  // 2, 3, 10, 64 and 65.
  std::vector<std::uint32_t> at_2000;
  std::vector<std::uint32_t> at_5000;
  for (const TimelineSpan& span : tl.spans()) {
    if (span.end == 2000) at_2000.push_back(span.thread);
    if (span.end == 5000) at_5000.push_back(span.thread);
  }
  EXPECT_EQ(at_2000, (std::vector<std::uint32_t>{74, 71, 72, 70, 73}));
  // The long fillers end together, handled in core (= thread) order.
  ASSERT_EQ(at_5000.size(), 63u);
  EXPECT_TRUE(std::is_sorted(at_5000.begin(), at_5000.end()));
  EXPECT_EQ(at_5000.front(), 1u);
  EXPECT_EQ(at_5000.back(), 68u);
}

TEST(Machine, ThreadsSpawnedInsideNextSurviveStorageGrowth) {
  // One parent spawns 100 children from next(), one per op, across several
  // storage chunks; each child's exit event must still resolve.
  Machine m(cfg(3, 1'000));
  std::vector<ThreadId> kids;
  m.spawn_thread(std::make_unique<FuncBody>(
      [&kids](Machine& mm, ThreadId) -> std::optional<Op> {
        if (kids.size() < 100) {
          kids.push_back(mm.spawn_thread(std::make_unique<ScriptBody>(
              std::vector<Op>{Op::exec(10)})));
          return Op::exec(5);
        }
        if (!mm.event_notified(mm.exit_event(kids.back()))) {
          return Op::wait(mm.exit_event(kids.back()));
        }
        return std::nullopt;
      }));
  const MachineStats s = m.run();
  EXPECT_EQ(s.spawned_threads, 101u);
  EXPECT_EQ(s.total_busy, 100u * 5u + 100u * 10u);
  EXPECT_THROW(m.exit_event(101), std::out_of_range);
}

}  // namespace
}  // namespace pprophet::machine
