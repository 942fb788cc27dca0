#include "emul/ff.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "machine/timeline.hpp"
#include "obs/metrics.hpp"
#include "runtime/tree_view.hpp"

namespace pprophet::emul {
namespace {

using runtime::IterScheduler;
using runtime::OmpSchedule;
using tree::NodeKind;

constexpr Cycles kInf = std::numeric_limits<Cycles>::max();

/// The fast-forwarding engine for one top-level section, written once over
/// a tree view (runtime/tree_view.hpp): PtrTreeView walks the Node heap,
/// FlatTreeView walks CompiledTree arrays. Every scheduling decision is
/// made in the same order under both, so results are bit-identical.
template <class View>
class FfEngine {
  using NodeRef = typename View::NodeRef;
  using ChildCursor = typename View::ChildCursor;
  using SectionHandle = typename View::SectionHandle;
  using LockTable = typename View::LockTable;

  struct Context;

  /// A (possibly suspended) walk over one task's children on a virtual CPU.
  struct Cursor {
    Context* ctx = nullptr;
    ChildCursor walk{};
    std::uint64_t rep_done = 0;
    Cycles ready_at = 0;
    bool charge_dispatch = true;  ///< per-iteration dispatch cost on start
  };

  /// One parallel-section instance being fast-forwarded.
  struct Context {
    NodeRef sec{};
    SectionHandle index;
    std::optional<IterScheduler> sched;  // dynamic contexts pull from this
    bool dynamic = false;
    Cycles spawn_time = 0;
    std::uint64_t outstanding = 0;  ///< iterations not yet completed
    std::uint64_t unassigned = 0;   ///< dynamic: iterations not yet pulled
    Cycles max_finish = 0;
    double burden = 1.0;
    /// Parent continuation to resume at the (implicit) barrier; nullopt for
    /// top-level sections and for nowait spawns.
    std::optional<Cursor> parent_cont;
    std::uint32_t parent_cpu = 0;
    bool done = false;

    Context(NodeRef s, SectionHandle h) : sec(s), index(std::move(h)) {}
  };

  /// A virtual CPU's FIFO of ready cursors; barrier continuations go in at
  /// the front. Unlike std::deque, which allocates as soon as it is built,
  /// it allocates only when first pushed to, and it rewinds whenever it
  /// drains.
  class CursorQueue {
   public:
    bool empty() const { return head_ == buf_.size(); }
    const Cursor& front() const { return buf_[head_]; }
    void pop_front() {
      if (++head_ == buf_.size()) {
        buf_.clear();
        head_ = 0;
      }
    }
    void push_back(const Cursor& c) {
      if (buf_.capacity() == 0) buf_.reserve(16);
      buf_.push_back(c);
    }
    void push_front(const Cursor& c) {
      if (head_ > 0) {
        buf_[--head_] = c;
      } else {
        buf_.insert(buf_.begin(), c);
      }
    }

   private:
    std::vector<Cursor> buf_;
    std::size_t head_ = 0;  ///< index of the front cursor
  };

  struct Cpu {
    Cycles free_at = 0;
    CursorQueue queue;
    std::optional<Cursor> current;
  };

 public:
  FfEngine(const View& view, const FfConfig& cfg)
      : view_(view),
        cfg_(cfg),
        cpus_(cfg.num_threads),
        lock_free_(view.make_lock_table()) {}

  /// Returns the section's projected parallel duration (excluding fork cost,
  /// including the final barrier).
  Cycles run_section(NodeRef sec) {
    Context* top =
        spawn_context(sec, /*time=*/0, /*parent=*/std::nullopt, 0, nullptr);
    loop();
    assert(top->done);
    // nowait-spawned nested contexts have no parent continuation; their
    // work still bounds the section's end.
    Cycles end = top->max_finish;
    for (const Context& ctx : contexts_) {
      end = std::max(end, ctx.max_finish);
    }
    if (obs::enabled()) {
      // One flush per section, so the hot step() loop stays free of
      // atomics even when metrics are on.
      auto& reg = obs::MetricsRegistry::global();
      reg.counter("ff.sections").add(1);
      reg.counter("ff.contexts").add(contexts_.size());
      reg.counter("ff.steps").add(steps_);
      reg.counter("ff.lock_wait_cycles").add(lock_waits_);
    }
    return end + cfg_.overheads.join_barrier;
  }

 private:
  double burden_of(NodeRef sec) const {
    return cfg_.apply_burden ? view_.burden(sec, cfg_.num_threads) : 1.0;
  }

  Context* spawn_context(NodeRef sec, Cycles time,
                         std::optional<Cursor> parent_cont,
                         std::uint32_t parent_cpu,
                         const Context* parent_ctx) {
    Context* ctx = &contexts_.emplace_back(sec, view_.section(sec));
    ctx->spawn_time = time;
    ctx->outstanding = view_.trip_count(ctx->index);
    ctx->unassigned = ctx->outstanding;
    ctx->max_finish = time;  // empty sections complete instantly
    // Burden: top-level sections own a burden factor; nested contexts
    // inherit the enclosing one.
    ctx->burden = parent_ctx != nullptr ? parent_ctx->burden : burden_of(sec);
    ctx->parent_cont = std::move(parent_cont);
    ctx->parent_cpu = parent_cpu;
    if (ctx->outstanding == 0) {
      complete_context(*ctx);
      return ctx;
    }
    if (cfg_.schedule == OmpSchedule::Dynamic ||
        cfg_.schedule == OmpSchedule::Guided) {
      ctx->dynamic = true;
      ctx->sched.emplace(cfg_.schedule, view_.trip_count(ctx->index),
                         cfg_.num_threads, cfg_.chunk);
      dynamic_stack_.push_back(ctx);
    } else {
      // Static policies: pre-assign iterations. Nested contexts map rank r
      // onto CPU (parent_cpu + r) mod t — a fixed round-robin that ignores
      // which CPUs are actually busy. This is the paper's documented FF
      // flaw (Figure 7): two sibling nested loops starting on different
      // CPUs can pile their long iterations onto the same CPU.
      IterScheduler sched(cfg_.schedule, view_.trip_count(ctx->index),
                          cfg_.num_threads, cfg_.chunk);
      for (std::uint32_t rank = 0; rank < cfg_.num_threads; ++rank) {
        const std::uint32_t cpu = (parent_cpu + rank) % cfg_.num_threads;
        runtime::RankCursor at = sched.cursor(rank);
        while (const auto range = sched.next(at)) {
          for (std::uint64_t i = range->begin; i < range->end; ++i) {
            Cursor c;
            c.ctx = ctx;
            c.walk = view_.children(view_.task_at(ctx->index, i));
            c.ready_at = time;
            cpus_[cpu].queue.push_back(c);
          }
        }
      }
    }
    return ctx;
  }

  /// Earliest time CPU `k` could take its next action; kInf if none.
  Cycles next_action_time(std::uint32_t k) const {
    const Cpu& cpu = cpus_[k];
    if (cpu.current.has_value()) return cpu.free_at;
    Cycles best = kInf;
    if (!cpu.queue.empty()) {
      best = std::max(cpu.free_at, cpu.queue.front().ready_at);
    }
    for (auto it = dynamic_stack_.rbegin(); it != dynamic_stack_.rend();
         ++it) {
      if (!(*it)->done && (*it)->unassigned > 0) {
        best = std::min(best, std::max(cpu.free_at, (*it)->spawn_time));
        break;
      }
    }
    return best;
  }

  void start_next(std::uint32_t k) {
    Cpu& cpu = cpus_[k];
    assert(!cpu.current.has_value());
    if (!cpu.queue.empty()) {
      const Cycles t = std::max(cpu.free_at, cpu.queue.front().ready_at);
      // Prefer whichever source is available sooner; queue wins ties.
      Cursor c = cpu.queue.front();
      cpu.queue.pop_front();
      cpu.free_at = t;
      if (c.charge_dispatch) {
        cpu.free_at += cfg_.schedule == OmpSchedule::Dynamic
                           ? cfg_.overheads.dynamic_dispatch
                           : cfg_.overheads.static_dispatch;
        c.charge_dispatch = false;
      }
      cpu.current = c;
      return;
    }
    // Dynamic pull from the innermost open dynamic context with iterations.
    for (auto it = dynamic_stack_.rbegin(); it != dynamic_stack_.rend();
         ++it) {
      Context* ctx = *it;
      if (ctx->done || ctx->unassigned == 0) continue;
      runtime::RankCursor at = ctx->sched->cursor(k);
      if (const auto range = ctx->sched->next(at)) {
        ctx->unassigned -= range->size();
        cpu.free_at = std::max(cpu.free_at, ctx->spawn_time) +
                      cfg_.overheads.dynamic_dispatch;
        Cursor c;
        c.ctx = ctx;
        c.walk = view_.children(view_.task_at(ctx->index, range->begin));
        c.charge_dispatch = false;
        // Chunks larger than one iteration: re-queue the rest.
        for (std::uint64_t i = range->begin + 1; i < range->end; ++i) {
          Cursor rest;
          rest.ctx = ctx;
          rest.walk = view_.children(view_.task_at(ctx->index, i));
          rest.ready_at = cpu.free_at;
          cpu.queue.push_back(rest);
        }
        cpu.current = c;
        return;
      }
    }
  }

  void complete_context(Context& ctx) {
    ctx.done = true;
    if (ctx.parent_cont.has_value()) {
      Cursor cont = *ctx.parent_cont;
      cont.ready_at = ctx.max_finish + cfg_.overheads.join_barrier;
      cont.charge_dispatch = false;
      cpus_[ctx.parent_cpu].queue.push_front(cont);
      ctx.parent_cont.reset();
    }
  }

  /// Executes one segment of the current cursor on CPU `k`.
  void step(std::uint32_t k) {
    Cpu& cpu = cpus_[k];
    Cursor& cur = *cpu.current;
    Context& ctx = *cur.ctx;
    ++steps_;

    if (view_.cursor_done(cur.walk)) {
      // Task complete.
      --ctx.outstanding;
      ctx.max_finish = std::max(ctx.max_finish, cpu.free_at);
      cpu.current.reset();
      if (ctx.outstanding == 0) complete_context(ctx);
      return;
    }
    const NodeRef c = view_.cursor_node(cur.walk);
    if (cur.rep_done >= view_.repeat(c)) {
      view_.cursor_advance(cur.walk);
      cur.rep_done = 0;
      return;
    }
    const auto scaled = [&](Cycles len) {
      return static_cast<Cycles>(static_cast<double>(len) * ctx.burden + 0.5);
    };
    switch (view_.kind(c)) {
      case NodeKind::U: {
        // Fast path: all repetitions of a plain U run back to back.
        const std::uint64_t reps = view_.repeat(c) - cur.rep_done;
        const Cycles start = cpu.free_at;
        cpu.free_at += scaled(view_.length(c)) * reps;
        cur.rep_done = view_.repeat(c);
        if (cfg_.timeline != nullptr && cpu.free_at > start) {
          cfg_.timeline->record(k, start, cpu.free_at,
                                machine::TimelineSpan::Kind::Run);
        }
        return;
      }
      case NodeKind::L: {
        ++cur.rep_done;
        cpu.free_at += cfg_.overheads.lock_acquire;
        Cycles& lock_free = view_.lock_cell(lock_free_, c);
        const Cycles acquired = std::max(cpu.free_at, lock_free);
        lock_waits_ += acquired - cpu.free_at;
        if (cfg_.timeline != nullptr && acquired > cpu.free_at) {
          cfg_.timeline->record(k, cpu.free_at, acquired,
                                machine::TimelineSpan::Kind::LockWait);
        }
        const Cycles body_end = acquired + scaled(view_.length(c));
        if (cfg_.timeline != nullptr && body_end > acquired) {
          cfg_.timeline->record(k, acquired, body_end,
                                machine::TimelineSpan::Kind::Run);
        }
        cpu.free_at = body_end;
        lock_free = cpu.free_at;
        cpu.free_at += cfg_.overheads.lock_release;
        return;
      }
      case NodeKind::Sec: {
        ++cur.rep_done;
        // Fork cost charged to the spawning CPU.
        cpu.free_at += cfg_.overheads.fork_base +
                       cfg_.overheads.fork_per_thread *
                           (cfg_.num_threads - 1);
        const Cycles spawn_time = cpu.free_at;
        if (view_.barrier_at_end(c)) {
          // Suspend this task; resume after the nested barrier.
          Cursor cont = cur;
          Context* parent_ctx = cur.ctx;
          cpu.current.reset();
          spawn_context(c, spawn_time, cont, k, parent_ctx);
        } else {
          // nowait: the nested iterations run concurrently; the parent
          // continues immediately.
          spawn_context(c, spawn_time, std::nullopt, k, cur.ctx);
        }
        return;
      }
      case NodeKind::Task:
      case NodeKind::Root:
        throw std::logic_error("ff: invalid child kind in task walk");
    }
  }

  void loop() {
    while (true) {
      std::uint32_t best_cpu = 0;
      Cycles best_time = kInf;
      for (std::uint32_t k = 0; k < cpus_.size(); ++k) {
        const Cycles t = next_action_time(k);
        if (t < best_time) {
          best_time = t;
          best_cpu = k;
        }
      }
      if (best_time == kInf) return;
      Cpu& cpu = cpus_[best_cpu];
      if (!cpu.current.has_value()) {
        start_next(best_cpu);
        if (!cpu.current.has_value()) return;  // defensive: no progress
        continue;
      }
      step(best_cpu);
    }
  }

  View view_;
  const FfConfig& cfg_;
  std::vector<Cpu> cpus_;
  /// Cursors and the dynamic stack point into it, so elements must never
  /// move; a deque guarantees that with one allocation per few contexts.
  std::deque<Context> contexts_;
  std::vector<Context*> dynamic_stack_;
  LockTable lock_free_;
  Cycles lock_waits_ = 0;
  std::uint64_t steps_ = 0;  ///< heap events processed (obs: ff.steps)
};

void check_cfg(const FfConfig& cfg) {
  if (cfg.num_threads == 0) {
    throw std::invalid_argument("emulate_ff_section: zero threads");
  }
}

Cycles fork_cost(const FfConfig& cfg) {
  return cfg.overheads.fork_base +
         cfg.overheads.fork_per_thread * (cfg.num_threads - 1);
}

}  // namespace

FfResult emulate_ff_section(const tree::Node& sec, const FfConfig& cfg) {
  if (sec.kind() != NodeKind::Sec) {
    throw std::invalid_argument("emulate_ff_section: node is not a Sec");
  }
  check_cfg(cfg);
  FfResult r;
  r.serial_cycles = sec.serial_work();
  FfEngine<runtime::PtrTreeView> engine(runtime::PtrTreeView{}, cfg);
  r.parallel_cycles = fork_cost(cfg) + engine.run_section(&sec);
  return r;
}

FfResult emulate_ff_section(const tree::CompiledTree& ct,
                            std::uint32_t section, const FfConfig& cfg) {
  if (section >= ct.section_count()) {
    throw std::invalid_argument("emulate_ff_section: section out of range");
  }
  check_cfg(cfg);
  const tree::NodeId sec = ct.section_node(section);
  FfResult r;
  // Node::serial_work multiplies by the node's own repeat; the aggregates
  // cover one repetition.
  r.serial_cycles =
      ct.section_aggregates(section).total_leaf_work * ct.repeat(sec);
  FfEngine<runtime::FlatTreeView> engine(runtime::FlatTreeView{&ct}, cfg);
  r.parallel_cycles = fork_cost(cfg) + engine.run_section(sec);
  return r;
}

FfResult emulate_ff(const tree::ProgramTree& tree, const FfConfig& cfg) {
  if (!tree.root) throw std::invalid_argument("emulate_ff: empty tree");
  FfResult total;
  for (const auto& child : tree.root->children()) {
    for (std::uint64_t rep = 0; rep < child->repeat(); ++rep) {
      if (child->kind() == NodeKind::U) {
        total.serial_cycles += child->length();
        total.parallel_cycles += child->length();
      } else if (child->kind() == NodeKind::Sec) {
        const FfResult r = emulate_ff_section(*child, cfg);
        total.serial_cycles += r.serial_cycles;
        total.parallel_cycles += r.parallel_cycles;
      }
    }
  }
  return total;
}

FfResult emulate_ff(const tree::CompiledTree& ct, const FfConfig& cfg) {
  FfResult total;
  std::uint32_t s = 0;
  for (tree::NodeId c = ct.first_child(ct.root()); c != tree::kNoNode;
       c = ct.next_sibling(c)) {
    for (std::uint64_t rep = 0; rep < ct.repeat(c); ++rep) {
      if (ct.kind(c) == NodeKind::U) {
        total.serial_cycles += ct.length(c);
        total.parallel_cycles += ct.length(c);
      } else if (ct.kind(c) == NodeKind::Sec) {
        const FfResult r = emulate_ff_section(ct, s, cfg);
        total.serial_cycles += r.serial_cycles;
        total.parallel_cycles += r.parallel_cycles;
      }
    }
    if (ct.kind(c) == NodeKind::Sec) ++s;
  }
  return total;
}

}  // namespace pprophet::emul
