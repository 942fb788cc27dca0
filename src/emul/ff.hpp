// Fast-forwarding emulation (paper §IV-C/D).
//
// The FF is the *analytical* emulator: it traverses the program tree with a
// priority heap over idealized virtual CPUs, fast-forwarding a pseudo-clock
// from event to event. It models:
//  * OpenMP scheduling policies (static,1 / static / dynamic,c) exactly,
//  * lock waits (threads stall at contended critical sections, FIFO by
//    arrival time),
//  * fork/join/dispatch/lock overhead constants,
//  * optionally, burden factors from the memory model.
//
// Deliberately (faithfully to the paper) it does NOT model the OS:
//  * work is non-preemptive — a whole U/L node occupies its virtual CPU,
//  * nested sections map iterations round-robin onto CPUs starting at CPU 0
//    regardless of which CPUs are busy,
// which is precisely why it mispredicts the paper's Figure 7 (predicts 1.5
// where the real machine reaches 2.0). The synthesizer exists to fix this;
// the FF stays cheap and machine-independent.
#pragma once

#include "runtime/iter_sched.hpp"
#include "runtime/overheads.hpp"
#include "tree/compile.hpp"
#include "tree/node.hpp"

namespace pprophet::machine {
class Timeline;
}

namespace pprophet::emul {

struct FfConfig {
  CoreCount num_threads = 4;
  runtime::OmpSchedule schedule = runtime::OmpSchedule::StaticCyclic;
  std::uint64_t chunk = 1;
  runtime::OmpOverheads overheads{};
  /// Multiply node lengths of each top-level section by its burden factor
  /// (set by memmodel::annotate_burdens) — the "PredM" variant.
  bool apply_burden = false;
  /// Optional execution-timeline sink: records per-virtual-CPU run and
  /// lock-wait spans (the Figure-5 Gantt as the FF schedules it), in the
  /// section's local pseudo-clock. Must outlive the emulation; null = off.
  /// Dispatch/fork/join overhead cycles appear as gaps between spans.
  machine::Timeline* timeline = nullptr;
};

struct FfResult {
  Cycles parallel_cycles = 0;
  Cycles serial_cycles = 0;
  double speedup() const {
    return parallel_cycles == 0
               ? 0.0
               : static_cast<double>(serial_cycles) /
                     static_cast<double>(parallel_cycles);
  }
};

/// Emulates the whole tree: serial top-level U nodes run on the master;
/// each top-level section is fast-forwarded on `num_threads` virtual CPUs.
FfResult emulate_ff(const tree::ProgramTree& tree, const FfConfig& cfg);

/// Emulates a single top-level section. Returns its projected parallel
/// duration (serial_cycles is the section's serial work).
FfResult emulate_ff_section(const tree::Node& sec, const FfConfig& cfg);

/// Compiled-tree overloads: same engine over flat arrays, bit-identical
/// results (tests/tree/test_compile.cpp).
/// `section` indexes the compiled tree's top-level-section table.
FfResult emulate_ff(const tree::CompiledTree& ct, const FfConfig& cfg);
FfResult emulate_ff_section(const tree::CompiledTree& ct,
                            std::uint32_t section, const FfConfig& cfg);

}  // namespace pprophet::emul
