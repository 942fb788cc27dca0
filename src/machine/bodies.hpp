// Convenience ThreadBody implementations for tests and simple runtime
// components.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "tree/compile.hpp"

namespace pprophet::machine {

/// Forward-only walk over a child range of a CompiledTree — the flat-array
/// replacement for a (parent, child-index) cursor into a Node's children
/// vector. Replay bodies hold one of these per traversal frame instead of a
/// Node pointer, so body generation allocates nothing per prediction.
struct FlatChildWalk {
  tree::NodeId cur = tree::kNoNode;
  tree::NodeId stop = tree::kNoNode;  ///< exclusive sibling bound

  /// All children of `n`, in order.
  static FlatChildWalk children_of(const tree::CompiledTree& ct,
                                   tree::NodeId n) {
    return {ct.first_child(n), tree::kNoNode};
  }
  /// Just `n` itself — lets a single top-level section replay in place
  /// where the pointer path would clone it under a synthetic root.
  static FlatChildWalk single(const tree::CompiledTree& ct, tree::NodeId n) {
    return {n, ct.next_sibling(n)};
  }

  bool done() const { return cur == stop || cur == tree::kNoNode; }
  void advance(const tree::CompiledTree& ct) { cur = ct.next_sibling(cur); }
};

/// Inline FIFO for bodies that queue a short burst of ops in one step and
/// drain it before taking the next: no allocation per thread, and it rewinds
/// to the front whenever it empties. A step that queues more than kCapacity
/// ops is a bug in the body and throws.
///
/// A compute-only Exec (no mem part, no traffic) pushed right behind another
/// compute-only Exec that is still queued merges into it. The machine charges
/// compute-only work in exact integer cycles at any dilation, and popping the
/// second op touches no shared state, so the merged op ends in the same cycle
/// as the pair with one event fewer. Parts whose sum would reach
/// kMaxOpCycles stay separate.
class OpQueue {
 public:
  static constexpr std::size_t kCapacity = 6;

  bool empty() const { return head_ == size_; }

  void push(const Op& op) {
    if (!empty() && compute_only(op)) {
      Op& tail = ops_[size_ - 1];
      if (compute_only(tail) && tail.compute < kMaxOpCycles &&
          op.compute < kMaxOpCycles - tail.compute) {
        tail.compute += op.compute;
        return;
      }
    }
    if (size_ == kCapacity) throw std::logic_error("OpQueue overflow");
    ops_[size_++] = op;
  }

  Op pop() {
    const Op op = ops_[head_++];
    if (head_ == size_) head_ = size_ = 0;
    return op;
  }

 private:
  static bool compute_only(const Op& op) {
    return op.kind == Op::Kind::Exec && op.mem == 0 && op.traffic_mbps == 0.0;
  }

  std::array<Op, kCapacity> ops_{};
  std::uint8_t head_ = 0;
  std::uint8_t size_ = 0;
};

/// Runs a fixed list of ops, then exits.
class ScriptBody final : public ThreadBody {
 public:
  explicit ScriptBody(std::vector<Op> ops) : ops_(std::move(ops)) {}

  std::optional<Op> next(Machine&, ThreadId) override {
    if (next_ >= ops_.size()) return std::nullopt;
    return ops_[next_++];
  }

 private:
  std::vector<Op> ops_;
  std::size_t next_ = 0;
};

/// Delegates to a callable; handy for ad-hoc state machines in tests.
class FuncBody final : public ThreadBody {
 public:
  using Fn = std::function<std::optional<Op>(Machine&, ThreadId)>;
  explicit FuncBody(Fn fn) : fn_(std::move(fn)) {}

  std::optional<Op> next(Machine& m, ThreadId self) override {
    return fn_(m, self);
  }

 private:
  Fn fn_;
};

}  // namespace pprophet::machine
