#include "machine/machine.hpp"

#include "machine/timeline.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace pprophet::machine {

namespace {
constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

// Remaining work is fixed point with kFrac fractional bits, so a charge at
// dilation 1 is exact integer arithmetic and only a dilated split rounds
// (each part by under one unit, 2^-kFrac cycle, for ops below 2^37 cycles).
// kMaxOpCycles (machine.hpp) leaves headroom for context-switch charges.
using Work = std::uint64_t;
constexpr unsigned kFrac = 16;
constexpr Work kOneCycle = Work{1} << kFrac;

// Traffic is summed in fixed point too, so removing an op's traffic
// restores the demand bit for bit. An op's traffic must stay below
// kMaxTrafficMbps (far beyond any DRAM) so the sum cannot wrap.
constexpr double kTrafficScale = 65536.0;  // units per MB/s
constexpr double kMaxTrafficMbps = 4294967296.0;  // 2^32
/// Exclusive bound on a dilated op's remaining time in fixed-point units
/// (2^47 cycles): keeps the conversion from double in range.
constexpr double kMaxDilatedWork = 9223372036854775808.0;  // 2^63

Work to_work(Cycles c) { return Work{c} << kFrac; }

constexpr std::uint32_t kChunkBits = 5;  // 32 threads per storage chunk
constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;
}  // namespace

// ---------------------------------------------------------------------------
// Internal state structures
// ---------------------------------------------------------------------------

struct Machine::SimThread {
  ThreadId id = 0;
  std::unique_ptr<ThreadBody> body;
  enum class State : std::uint8_t { Ready, Running, Blocked, Exited };
  State state = State::Ready;

  bool has_op = false;  // true while an Exec op is in flight
  Op op;
  Work compute_left = 0;  // fixed point, contention-immune
  Work mem_left = 0;      // fixed point, dilated by the bandwidth model
  std::uint64_t traffic = 0;  // the op's traffic, fixed point
  Cycles resume_time = 0;  // last time progress was charged

  std::uint32_t core = ~0u;   // valid while Running
  Cycles running_since = 0;    // dispatch time of the current run span
  bool was_preempted = false;  // charge context switch on next dispatch
  WaitHandle exit_evt = 0;
  Cycles blocked_since = 0;
  bool blocked_on_lock = false;
};

struct Machine::Core {
  ThreadId running = kNoThread;
  Cycles dispatched_at = 0;
  /// Op slot: when the running thread's Exec op completes; kNever while the
  /// core is idle. Written by arm() and cleared when the thread leaves.
  Cycles op_due = kNever;
  /// Quantum slot: when the armed preemption check falls due, and its
  /// arming sequence number (0 = not armed). Cleared when the core's thread
  /// leaves it.
  Cycles quantum_due = 0;
  std::uint64_t quantum_seq = 0;
};

struct Machine::WaitObject {
  bool notified = false;
  std::vector<ThreadId> waiters;
};

struct Machine::Mutex {
  ThreadId owner = kNoThread;
  std::deque<ThreadId> waiters;
};

// ---------------------------------------------------------------------------

Machine::Machine(const MachineConfig& cfg) : cfg_(cfg), bw_(cfg.bandwidth) {
  if (cfg_.cores == 0) throw std::invalid_argument("machine needs >= 1 core");
  cores_.resize(cfg_.cores);
  idle_.resize(cfg_.cores);
  running_.resize(cfg_.cores);
  unarmed_.resize(cfg_.cores);
  for (std::uint32_t i = 0; i < cfg_.cores; ++i) idle_.insert(i);
}

Machine::~Machine() = default;

Machine::SimThread& Machine::thread(ThreadId tid) const {
  return thread_chunks_[tid >> kChunkBits][tid & kChunkMask];
}

ThreadId Machine::spawn_thread(std::unique_ptr<ThreadBody> body) {
  assert(body != nullptr);
  const ThreadId tid = thread_count_++;
  if ((tid & kChunkMask) == 0) {
    thread_chunks_.push_back(std::make_unique<SimThread[]>(kChunkMask + 1));
  }
  SimThread& t = thread(tid);
  t.id = tid;
  t.body = std::move(body);
  t.exit_evt = make_event();
  t.resume_time = now_;
  ++stats_.spawned_threads;
  make_ready(tid);
  return tid;
}

WaitHandle Machine::make_event() {
  waits_.emplace_back();
  return static_cast<WaitHandle>(waits_.size() - 1);
}

bool Machine::event_notified(WaitHandle h) const {
  return waits_.at(h).notified;
}

WaitHandle Machine::exit_event(ThreadId tid) const {
  if (tid >= thread_count_) throw std::out_of_range("machine: no such thread");
  return thread(tid).exit_evt;
}

/// Charges the running thread's op for the cycles since its last charge, all
/// spent at `dilation`. Compute and memory work shrink in proportion. At
/// dilation 1 (or with no memory work) the split is exact integer arithmetic:
/// the two parts lose exactly the elapsed cycles.
void Machine::charge(SimThread& t, double dilation) {
  const Cycles dt = now_ - t.resume_time;
  t.resume_time = now_;
  if (dt == 0) return;
  stats_.total_busy += dt;
  const Work used = to_work(dt);
  if (dilation == 1.0 || t.mem_left == 0) {
    const Work total = t.compute_left + t.mem_left;
    if (used >= total) {
      t.compute_left = t.mem_left = 0;
      return;
    }
    const Work from_compute =
        t.mem_left == 0
            ? used
            : static_cast<Work>(static_cast<unsigned __int128>(t.compute_left) *
                                used / total);
    t.compute_left -= from_compute;
    t.mem_left -= used - from_compute;
    return;
  }
  const double compute = static_cast<double>(t.compute_left);
  const double mem = static_cast<double>(t.mem_left);
  const double total = compute + dilation * mem;
  if (static_cast<double>(used) >= total) {
    t.compute_left = t.mem_left = 0;
    return;
  }
  const double keep = 1.0 - static_cast<double>(used) / total;
  t.compute_left = static_cast<Work>(compute * keep);
  t.mem_left = static_cast<Work>(mem * keep);
}

/// Writes the op slot of the thread's core: the cycle its op completes at
/// the current dilation, charged from now.
void Machine::arm(const SimThread& t) {
  Work left = t.compute_left + t.mem_left;
  if (dilation_ != 1.0 && t.mem_left != 0) {
    const double dilated = std::ceil(static_cast<double>(t.compute_left) +
                                     dilation_ *
                                         static_cast<double>(t.mem_left));
    if (!(dilated < kMaxDilatedWork)) {
      throw std::overflow_error("machine: dilated Exec op of 2^47 cycles or more");
    }
    left = static_cast<Work>(dilated);
  }
  cores_[t.core].op_due = now_ + (left + kOneCycle - 1) / kOneCycle;
  ++stats_.rearms;
}

void Machine::add_demand(const SimThread& t) {
  if (t.traffic == 0) return;
  demand_ += t.traffic;
  demand_moved_ = true;
}

void Machine::remove_demand(const SimThread& t) {
  if (t.traffic == 0) return;
  demand_ -= t.traffic;
  demand_moved_ = true;
}

void Machine::schedule_quantum_checks() {
  unarmed_.for_each([this](std::uint32_t i) {
    Core& c = cores_[i];
    c.quantum_due = std::max(now_, c.dispatched_at + cfg_.quantum);
    c.quantum_seq = ++quantum_seq_;
    unarmed_.erase(i);
  });
}

void Machine::make_ready(ThreadId tid) {
  SimThread& t = thread(tid);
  if (t.state == SimThread::State::Blocked && t.blocked_on_lock) {
    stats_.total_lock_wait += now_ - t.blocked_since;
    if (timeline_ != nullptr) {
      timeline_->record(t.id, t.blocked_since, now_,
                        TimelineSpan::Kind::LockWait);
    }
  }
  t.state = SimThread::State::Ready;
  t.blocked_on_lock = false;
  ready_.push_back(tid);
  if (const std::uint32_t idle = idle_.first(); idle != ~0u) {
    dispatch(idle);
    return;
  }
  // No idle core: arm preemption so the queued thread eventually runs.
  schedule_quantum_checks();
}

void Machine::dispatch(std::uint32_t core_idx) {
  Core& core = cores_[core_idx];
  // The core may have been filled by a reentrant make_ready (e.g. a waiter
  // woken by finish_thread grabbed it); nothing to do then.
  if (core.running != kNoThread) return;
  if (ready_.empty()) return;
  const ThreadId tid = ready_.front();
  ready_.pop_front();
  SimThread& t = thread(tid);
  assert(t.state == SimThread::State::Ready);
  t.state = SimThread::State::Running;
  t.core = core_idx;
  t.resume_time = now_;
  t.running_since = now_;
  core.running = tid;
  core.dispatched_at = now_;
  idle_.erase(core_idx);
  running_.insert(core_idx);
  unarmed_.insert(core_idx);
  if (t.was_preempted) {
    // Re-dispatch cost: kernel path + cache refill, modelled as extra
    // compute prepended to whatever the thread was doing.
    t.compute_left += to_work(cfg_.context_switch);
    t.was_preempted = false;
    ++stats_.context_switches;
  }
  if (!ready_.empty()) schedule_quantum_checks();
  if (t.has_op) {
    add_demand(t);
    arm(t);
  } else {
    // Fresh thread or one that was blocked on a zero-time op: pull work.
    fetch_and_process_ops(tid);
  }
}

/// Takes a running thread off its core: closes its run span and clears the
/// core's op and quantum slots. The caller sets the thread's new state.
std::uint32_t Machine::vacate_core(SimThread& t) {
  assert(t.state == SimThread::State::Running);
  if (timeline_ != nullptr) {
    timeline_->record(t.id, t.running_since, now_, TimelineSpan::Kind::Run);
  }
  const std::uint32_t core_idx = t.core;
  t.core = ~0u;
  cores_[core_idx].running = kNoThread;
  cores_[core_idx].op_due = kNever;
  cores_[core_idx].quantum_seq = 0;
  idle_.insert(core_idx);
  running_.erase(core_idx);
  unarmed_.erase(core_idx);
  return core_idx;
}

void Machine::block_current(SimThread& t) {
  const std::uint32_t core_idx = vacate_core(t);
  t.state = SimThread::State::Blocked;
  t.blocked_since = now_;
  dispatch(core_idx);
}

void Machine::finish_thread(ThreadId tid) {
  SimThread& t = thread(tid);
  const std::uint32_t core_idx = vacate_core(t);
  t.state = SimThread::State::Exited;
  // Notify joiners.
  WaitObject& w = waits_[t.exit_evt];
  w.notified = true;
  std::vector<ThreadId> waiters = std::move(w.waiters);
  w.waiters.clear();
  for (const ThreadId wt : waiters) make_ready(wt);
  dispatch(core_idx);
}

void Machine::fetch_and_process_ops(ThreadId tid) {
  SimThread& t = thread(tid);
  while (true) {
    if (t.state != SimThread::State::Running) return;
    if (!t.has_op) {
      std::optional<Op> op = t.body->next(*this, tid);
      if (!op.has_value()) {
        finish_thread(tid);
        return;
      }
      t.op = *op;
      if (t.op.kind == Op::Kind::Exec) {
        if (t.op.compute >= kMaxOpCycles || t.op.mem >= kMaxOpCycles) {
          throw std::overflow_error("machine: Exec op of 2^46 cycles or more");
        }
        if (!(t.op.traffic_mbps < kMaxTrafficMbps)) {
          throw std::overflow_error("machine: Exec op traffic of 2^32 MB/s or more");
        }
        t.has_op = true;
        t.compute_left = to_work(t.op.compute);
        t.mem_left = to_work(t.op.mem);
        t.traffic = t.op.traffic_mbps > 0.0
                        ? static_cast<std::uint64_t>(std::llround(
                              t.op.traffic_mbps * kTrafficScale))
                        : 0;
        t.resume_time = now_;
        add_demand(t);
        arm(t);
        return;  // the op now runs until its op slot falls due
      }
    }
    // Zero-time control ops.
    const Op op = t.op;
    t.has_op = false;
    switch (op.kind) {
      case Op::Kind::Exec:
        // handled above; unreachable
        return;
      case Op::Kind::Acquire: {
        if (op.lock >= mutexes_.size()) mutexes_.resize(op.lock + 1);
        Mutex& m = mutexes_[op.lock];
        ++stats_.lock_acquisitions;
        if (m.owner == kNoThread) {
          m.owner = tid;
          continue;
        }
        ++stats_.lock_contentions;
        m.waiters.push_back(tid);
        t.blocked_on_lock = true;
        block_current(t);
        return;
      }
      case Op::Kind::Release: {
        if (op.lock >= mutexes_.size() || mutexes_[op.lock].owner != tid) {
          throw std::logic_error("machine: release of a lock not owned");
        }
        Mutex& m = mutexes_[op.lock];
        if (m.waiters.empty()) {
          m.owner = kNoThread;
        } else {
          const ThreadId next_owner = m.waiters.front();
          m.waiters.pop_front();
          m.owner = next_owner;
          make_ready(next_owner);
        }
        continue;
      }
      case Op::Kind::Wait: {
        WaitObject& w = waits_.at(op.wait_handle);
        if (w.notified) continue;
        w.waiters.push_back(tid);
        block_current(t);
        return;
      }
      case Op::Kind::Notify: {
        WaitObject& w = waits_.at(op.wait_handle);
        w.notified = true;
        std::vector<ThreadId> waiters = std::move(w.waiters);
        w.waiters.clear();
        for (const ThreadId wt : waiters) make_ready(wt);
        continue;
      }
    }
  }
}

void Machine::preempt(std::uint32_t core_idx) {
  const ThreadId tid = cores_[core_idx].running;
  assert(tid != kNoThread);
  SimThread& t = thread(tid);
  charge(t, dilation_);
  remove_demand(t);
  vacate_core(t);
  t.state = SimThread::State::Ready;
  t.was_preempted = true;
  ready_.push_back(tid);
  ++stats_.preemptions;
  dispatch(core_idx);
}

void Machine::on_op_complete(ThreadId tid) {
  SimThread& t = thread(tid);
  charge(t, dilation_);  // the op's slot fell due: this charges all of it
  t.has_op = false;
  remove_demand(t);
  cores_[t.core].op_due = kNever;
  fetch_and_process_ops(tid);
}

MachineStats Machine::run() {
  if (ran_) throw std::logic_error("Machine::run may only be called once");
  ran_ = true;
  while (true) {
    // A changed demand may change the dilation. Only then is every running
    // op charged at the old factor and re-armed, inside the slot scan.
    double charged_at = 0.0;
    bool rearm = false;
    if (demand_moved_) {
      demand_moved_ = false;
      const double d =
          bw_.dilation(static_cast<double>(demand_) / kTrafficScale);
      if (d != dilation_) {
        charged_at = dilation_;
        dilation_ = d;
        rearm = true;
        ++stats_.dilation_changes;
      }
    }
    // The earliest slot; a same-cycle tie goes to a quantum check (lowest
    // arming sequence first), else to the op slot of the lowest core index.
    // Idle cores hold neither slot, so only running cores are scanned.
    std::uint32_t next = ~0u;
    bool quantum = false;
    Cycles due = kNever;
    std::uint64_t seq = 0;
    running_.for_each([&](std::uint32_t i) {
      Core& c = cores_[i];
      if (rearm) {
        SimThread& t = thread(c.running);
        if (t.has_op) {
          charge(t, charged_at);
          arm(t);
        }
      }
      if (c.quantum_seq != 0 &&
          (c.quantum_due < due ||
           (c.quantum_due == due && (!quantum || c.quantum_seq < seq)))) {
        next = i;
        quantum = true;
        due = c.quantum_due;
        seq = c.quantum_seq;
      }
      if (c.op_due < due) {
        next = i;
        quantum = false;
        due = c.op_due;
      }
    });
    if (next == ~0u) break;
    assert(due >= now_);
    ++stats_.events;
    if (quantum) {
      cores_[next].quantum_seq = 0;
      unarmed_.insert(next);
      if (ready_.empty()) continue;  // nothing waiting; keep running
      now_ = due;
      preempt(next);
    } else {
      now_ = due;
      on_op_complete(cores_[next].running);
    }
  }
  stats_.finish_time = now_;
  for (ThreadId tid = 0; tid < thread_count_; ++tid) {
    if (thread(tid).state != SimThread::State::Exited) {
      throw std::logic_error(
          "machine: no pending events with live threads (deadlock: thread " +
          std::to_string(tid) + " is stuck)");
    }
  }
  if (obs::enabled()) {
    // Batched mirror of MachineStats: one flush per run keeps the event
    // loop itself free of metric updates.
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("machine.runs").add(1);
    reg.counter("machine.events").add(stats_.events);
    reg.counter("machine.rearms").add(stats_.rearms);
    reg.counter("machine.dilation_changes").add(stats_.dilation_changes);
    reg.counter("machine.context_switches").add(stats_.context_switches);
    reg.counter("machine.preemptions").add(stats_.preemptions);
    reg.counter("machine.lock_acquisitions").add(stats_.lock_acquisitions);
    reg.counter("machine.lock_contentions").add(stats_.lock_contentions);
    reg.counter("machine.spawned_threads").add(stats_.spawned_threads);
    reg.counter("machine.busy_cycles").add(stats_.total_busy);
    reg.counter("machine.lock_wait_cycles").add(stats_.total_lock_wait);
  }
  return stats_;
}

}  // namespace pprophet::machine
