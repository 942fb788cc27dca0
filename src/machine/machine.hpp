// Discrete-event simulator of an N-core shared-memory machine.
//
// This substrate replaces the paper's physical 12-core Westmere testbed.
// "Real" speedups in every experiment are produced by running the actual
// parallel task structure of a workload on this machine; the synthesizer
// emulator also executes its generated programs here.
//
// Modelled:
//  * N cores with a preemptive round-robin OS scheduler (time quantum,
//    context-switch cost, oversubscription — more threads than cores simply
//    time-share, which is exactly what the FF emulator fails to model in
//    the paper's Figure 7);
//  * futex-style mutexes with FIFO wait queues;
//  * wait/notify events (latches) for joins and barriers;
//  * a DRAM bandwidth-saturation model: each Exec op declares its memory
//    share and solo traffic; concurrent memory-bound execution dilates the
//    memory portion of every running op (see bandwidth.hpp).
//
// Threads are pull-model state machines: a ThreadBody yields one Op at a
// time. Exec ops take simulated time; Acquire/Release/Wait/Notify are
// instantaneous control ops (runtime models add explicit Exec overhead ops
// around them to charge costs).
//
// Pending events live in two deadline slots per core rather than a queue:
// the op slot (when the running thread's Exec op completes) and the quantum
// slot (when the armed preemption check falls due). run() takes the earliest
// slot; same-cycle events go quantum checks first, in arming order, then op
// completions by core index. The idle, running and quantum-unarmed cores are
// kept as bitsets, so the idle-core search, the quantum arming pass and the
// slot scan visit only the cores they concern, in ascending index order.
//
// Progress is charged lazily and exactly. A core's op slot is written only
// when its thread is dispatched, starts an Exec op or leaves the core, and
// when the bandwidth dilation changes (the one pass that charges and re-arms
// every running op). Remaining work is held in fixed-point cycles, so at
// dilation 1 an op ends at exactly its start plus its cycles, preemptions
// included.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "machine/bandwidth.hpp"
#include "util/types.hpp"

namespace pprophet::machine {

using ThreadId = std::uint32_t;
using WaitHandle = std::uint32_t;

inline constexpr ThreadId kNoThread = ~0u;

/// Exclusive bound on each part (compute, mem) of an Exec op: the machine
/// throws on a part of 2^46 cycles (about 20 hours at 1 GHz) or more, which
/// keeps its fixed-point progress arithmetic exact.
inline constexpr Cycles kMaxOpCycles = Cycles{1} << 46;

struct MachineConfig {
  CoreCount cores = 4;
  /// OS scheduling quantum. Relevant only under oversubscription.
  Cycles quantum = 100'000;
  /// Cost charged to a thread each time it is dispatched after having been
  /// preempted or migrated (cache refill + kernel path).
  Cycles context_switch = 1'500;
  BandwidthConfig bandwidth{};
};

/// One primitive operation of a simulated thread.
struct Op {
  enum class Kind : std::uint8_t {
    Exec,     ///< compute for `compute` + `mem` cycles (mem part dilates)
    Acquire,  ///< lock `lock`; blocks while held by another thread
    Release,  ///< unlock `lock`; must be the current owner
    Wait,     ///< block until `wait` is notified (no-op if already)
    Notify,   ///< notify `wait`, waking all current and future waiters
  };

  Kind kind = Kind::Exec;
  Cycles compute = 0;        ///< Exec: contention-immune cycles
  Cycles mem = 0;            ///< Exec: memory-stall cycles (dilatable)
  double traffic_mbps = 0;   ///< Exec: solo DRAM traffic while running
  LockId lock = 0;           ///< Acquire/Release
  WaitHandle wait_handle = 0;  ///< Wait/Notify

  static Op exec(Cycles compute_cycles, Cycles mem_cycles = 0,
                 double traffic = 0.0) {
    Op op;
    op.kind = Kind::Exec;
    op.compute = compute_cycles;
    op.mem = mem_cycles;
    op.traffic_mbps = traffic;
    return op;
  }
  static Op acquire(LockId id) {
    Op op;
    op.kind = Kind::Acquire;
    op.lock = id;
    return op;
  }
  static Op release(LockId id) {
    Op op;
    op.kind = Kind::Release;
    op.lock = id;
    return op;
  }
  static Op wait(WaitHandle h) {
    Op op;
    op.kind = Kind::Wait;
    op.wait_handle = h;
    return op;
  }
  static Op notify(WaitHandle h) {
    Op op;
    op.kind = Kind::Notify;
    op.wait_handle = h;
    return op;
  }
};

class Machine;

/// A simulated thread's program. next() is called when the thread starts
/// and after each completed op; returning nullopt exits the thread.
/// next() runs at simulated-time instants and may call Machine services
/// (spawn_thread, make_event, now) but must not block natively.
class ThreadBody {
 public:
  virtual ~ThreadBody() = default;
  virtual std::optional<Op> next(Machine& machine, ThreadId self) = 0;
};

struct MachineStats {
  Cycles finish_time = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_contentions = 0;  ///< acquisitions that had to wait
  Cycles total_busy = 0;               ///< Σ core busy cycles
  Cycles total_lock_wait = 0;          ///< Σ cycles threads spent blocked on locks
  std::uint64_t spawned_threads = 0;
  /// Events the loop handled: op completions plus quantum checks (including
  /// checks that found no waiting thread and left the core running).
  std::uint64_t events = 0;
  /// Op-slot writes: a deadline armed when a thread starts an Exec op, when
  /// a thread with an op in flight is dispatched, and for every running op
  /// when the dilation changes.
  std::uint64_t rearms = 0;
  /// Times the bandwidth dilation factor changed value; each one charges and
  /// re-arms every running op.
  std::uint64_t dilation_changes = 0;
};

/// The discrete-event machine. Typical use:
///   Machine m(cfg);
///   m.spawn_thread(std::make_unique<MainBody>(...));
///   MachineStats stats = m.run();
class Machine {
 public:
  explicit Machine(const MachineConfig& cfg = {});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Creates a thread; it becomes ready immediately. Callable before run()
  /// and from ThreadBody::next().
  ThreadId spawn_thread(std::unique_ptr<ThreadBody> body);

  /// Creates a wait event (latch). Starts un-notified.
  WaitHandle make_event();

  /// True once the event has been notified.
  bool event_notified(WaitHandle h) const;

  /// Event notified automatically when the thread exits.
  WaitHandle exit_event(ThreadId tid) const;

  Cycles now() const { return now_; }
  const MachineConfig& config() const { return cfg_; }

  /// Attaches a Timeline that receives run / lock-wait spans (must outlive
  /// run()). Null detaches. See machine/timeline.hpp.
  void set_timeline(class Timeline* timeline) { timeline_ = timeline; }

  /// Runs until every thread has exited. Returns statistics. May be called
  /// once per Machine.
  MachineStats run();

 private:
  struct SimThread;
  struct Core;

  /// A set of core indices, one bit per core, for any core count: members
  /// are visited in ascending index order and empty words cost one test.
  /// Up to 64 cores the bits live inline, so a machine run allocates
  /// nothing for its core sets.
  class CoreSet {
   public:
    void resize(std::uint32_t cores) {
      nwords_ = (cores + 63) / 64;
      inline_ = 0;
      if (nwords_ > 1) spill_.assign(nwords_, 0);
    }
    void insert(std::uint32_t i) { words()[i >> 6] |= bit(i); }
    void erase(std::uint32_t i) { words()[i >> 6] &= ~bit(i); }
    /// The lowest member, or ~0u when the set is empty.
    std::uint32_t first() const {
      const std::uint64_t* w = words();
      for (std::size_t k = 0; k < nwords_; ++k) {
        if (w[k] != 0) return index(k, w[k]);
      }
      return ~0u;
    }
    /// Calls f(i) for each member in ascending order. Each word is read
    /// once, before its members are visited, so f may erase the member it
    /// is given.
    template <class F>
    void for_each(F&& f) const {
      const std::uint64_t* w = words();
      for (std::size_t k = 0; k < nwords_; ++k) {
        for (std::uint64_t bits = w[k]; bits != 0; bits &= bits - 1) {
          f(index(k, bits));
        }
      }
    }

   private:
    std::uint64_t* words() { return nwords_ > 1 ? spill_.data() : &inline_; }
    const std::uint64_t* words() const {
      return nwords_ > 1 ? spill_.data() : &inline_;
    }
    static std::uint64_t bit(std::uint32_t i) {
      return std::uint64_t{1} << (i & 63);
    }
    static std::uint32_t index(std::size_t k, std::uint64_t bits) {
      return static_cast<std::uint32_t>(k * 64 + std::countr_zero(bits));
    }
    std::size_t nwords_ = 0;
    std::uint64_t inline_ = 0;           ///< the bits, up to 64 cores
    std::vector<std::uint64_t> spill_;  ///< the bits, above 64 cores
  };

  struct WaitObject;
  struct Mutex;

  SimThread& thread(ThreadId tid) const;
  void make_ready(ThreadId tid);
  void dispatch(std::uint32_t core_idx);
  std::uint32_t vacate_core(SimThread& t);
  void block_current(SimThread& t);
  void charge(SimThread& t, double dilation);
  void arm(const SimThread& t);
  void add_demand(const SimThread& t);
  void remove_demand(const SimThread& t);
  void fetch_and_process_ops(ThreadId tid);
  void finish_thread(ThreadId tid);
  void preempt(std::uint32_t core_idx);
  void on_op_complete(ThreadId tid);
  void schedule_quantum_checks();

  MachineConfig cfg_;
  BandwidthModel bw_;
  Cycles now_ = 0;
  std::uint64_t quantum_seq_ = 0;  // arming order of quantum checks
  bool ran_ = false;

  // Threads are stored by value in fixed-size chunks: a spawn from inside
  // next() never moves a thread that is being stepped.
  std::vector<std::unique_ptr<SimThread[]>> thread_chunks_;
  std::uint32_t thread_count_ = 0;
  std::vector<Core> cores_;
  // Core sets kept in step with each Core: idle (no thread), running, and
  // running with no quantum check armed. Every scan over cores walks one
  // of them.
  CoreSet idle_;
  CoreSet running_;
  CoreSet unarmed_;
  std::vector<WaitObject> waits_;
  std::vector<Mutex> mutexes_;  // indexed by LockId (grown on demand)
  std::deque<ThreadId> ready_;

  MachineStats stats_;
  /// Σ traffic of the running Exec ops, in fixed-point MB/s (exact under
  /// add/remove), and whether it moved since the dilation was last derived.
  std::uint64_t demand_ = 0;
  bool demand_moved_ = false;
  double dilation_ = 1.0;
  class Timeline* timeline_ = nullptr;
};

}  // namespace pprophet::machine
