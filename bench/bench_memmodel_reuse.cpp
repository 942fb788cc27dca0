// Reuse-distance memory model benchmark (docs/MEMMODEL.md): profile a
// kernel ONCE with the reuse collector, then price it on every machine
// preset two ways — the analytical miss model (reuse/miss_model.hpp) vs a
// full cache-simulation replay per preset. Reports, per preset, the
// model-vs-simulation MPI error, and the cost of the single collected pass
// (+ projections) against N replay passes. Gates both contracts in-process
// (≤10% relative MPI error on at least 3 of the 5 presets, ≥2x cost
// reduction) and exits nonzero on violation, so it doubles as a ctest
// (labels: perf, reuse).
// Every cost is process CPU time (the kernels run on one thread), best of
// PP_SAMPLES runs per side, so other processes sharing the host do not move
// the cost ratio.
// Writes BENCH_reuse.json. PP_SMOKE=1 shrinks the kernel; the gates still
// run.
#include <time.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "machine/presets.hpp"
#include "report/experiment.hpp"
#include "reuse/miss_model.hpp"
#include "serve/json.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "workloads/ompscr.hpp"

using namespace pprophet;

namespace {

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

struct Mpi {
  std::uint64_t instructions = 0;
  std::uint64_t misses = 0;
  double value() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(instructions);
  }
};

Mpi section_mpi(const tree::ProgramTree& t) {
  Mpi m;
  for (const auto& c : t.root->children()) {
    if (c->kind() != tree::NodeKind::Sec) continue;
    if (const tree::SectionCounters* cnt = c->counters()) {
      m.instructions += cnt->instructions;
      m.misses += cnt->llc_misses;
    }
  }
  return m;
}

}  // namespace

int main() {
  const bool smoke = util::env_long("PP_SMOKE", 0) != 0;
  // Min-of-N for the profiled pass, every replay and every projection: the
  // cost contract compares steady-state work, not scheduler noise.
  const long samples = util::env_long("PP_SAMPLES", 3);
  // Every preset runs a 64x-scaled hierarchy (MachinePreset::scaled_cache),
  // preserving each preset's footprint:LLC ratio at a feasible kernel size.
  const unsigned kShift = 6;
  workloads::JacobiParams params;
  params.n = smoke ? 96 : 160;
  params.sweeps = smoke ? 3 : 4;
  report::print_header(
      std::cout,
      "Reuse-distance model — one profiling pass vs per-machine replay "
      "(jacobi n=" + std::to_string(params.n) + ")" + (smoke ? " [smoke]" : ""));

  const auto& presets = machine::machine_presets();
  const machine::MachinePreset& home = presets.front();  // westmere

  // Untimed warm-up: the profiled pass runs first in-process and would
  // otherwise pay the allocator/page-fault cold start that the later
  // replay passes never see.
  {
    workloads::KernelConfig warm;
    warm.cache = home.scaled_cache(kShift);
    (void)workloads::run_jacobi(params, warm);
  }

  // One profiling pass on the home machine: cache simulation + reuse
  // collector in the same run.
  double profile_ms = 0.0;
  workloads::KernelRun profiled;
  for (long s = 0; s < samples; ++s) {
    workloads::KernelConfig cfg;
    cfg.cache = home.scaled_cache(kShift);
    cfg.cost.dram = home.cost.dram;
    cfg.collect_reuse = true;
    const double t0 = cpu_ms();
    workloads::KernelRun run = workloads::run_jacobi(params, cfg);
    const double ms = cpu_ms() - t0;
    if (s == 0 || ms < profile_ms) profile_ms = ms;
    profiled = std::move(run);
  }

  // The replay baseline: what predicting every machine WITHOUT the model
  // costs — one full cache-simulated run per preset.
  util::Table table({"preset", "sim MPI", "model MPI", "rel err", "replay ms",
                     "project ms"});
  serve::JsonValue::Array rows;
  double replay_total_ms = 0.0;
  double project_total_ms = 0.0;
  std::size_t within_10pct = 0;
  for (const machine::MachinePreset& preset : presets) {
    double replay_ms = 0.0;
    Mpi sim;
    for (long s = 0; s < samples; ++s) {
      workloads::KernelConfig cfg;
      cfg.cache = preset.scaled_cache(kShift);
      cfg.cost.dram = preset.cost.dram;
      const double t0 = cpu_ms();
      const workloads::KernelRun run = workloads::run_jacobi(params, cfg);
      const double ms = cpu_ms() - t0;
      if (s == 0 || ms < replay_ms) replay_ms = ms;
      sim = section_mpi(run.tree);
    }
    replay_total_ms += replay_ms;

    double project_ms = 0.0;
    tree::ProgramTree priced;
    for (long s = 0; s < samples; ++s) {
      const double t0 = cpu_ms();
      priced.root = profiled.tree.root->clone();
      reuse::project_tree(priced, preset.scaled_cache(kShift),
                          preset.cost.dram);
      const double ms = cpu_ms() - t0;
      if (s == 0 || ms < project_ms) project_ms = ms;
    }
    project_total_ms += project_ms;
    const Mpi model = section_mpi(priced);

    const double err = sim.value() > 0.0
                           ? std::abs(model.value() - sim.value()) / sim.value()
                           : 0.0;
    if (err <= 0.10) ++within_10pct;
    table.add_row({preset.name, util::fmt_f(sim.value() * 1000.0, 3) + "e-3",
                   util::fmt_f(model.value() * 1000.0, 3) + "e-3",
                   util::fmt_pct(err), util::fmt_f(replay_ms, 1),
                   util::fmt_f(project_ms, 2)});
    serve::JsonValue row;
    row.set("preset", serve::JsonValue(preset.name));
    row.set("sim_mpi", serve::JsonValue(sim.value()));
    row.set("model_mpi", serve::JsonValue(model.value()));
    row.set("rel_err", serve::JsonValue(err));
    row.set("within_10pct", serve::JsonValue(err <= 0.10));
    row.set("replay_ms", serve::JsonValue(replay_ms));
    row.set("project_ms", serve::JsonValue(project_ms));
    rows.push_back(std::move(row));
  }
  table.print(std::cout);

  // Cost contract: profiling once + projecting everywhere must beat running
  // the cache simulator once per machine by at least 2x.
  const double one_pass_ms = profile_ms + project_total_ms;
  const double reduction =
      one_pass_ms > 0.0 ? replay_total_ms / one_pass_ms : 0.0;
  std::cout << "one profiled pass " << util::fmt_f(profile_ms, 1) << " ms + "
            << util::fmt_f(project_total_ms, 2) << " ms of projections vs "
            << presets.size() << " replays " << util::fmt_f(replay_total_ms, 1)
            << " ms: " << util::fmt_f(reduction, 2) << "x cheaper\n";
  // Which presets sit in the well-modelled capacity regime (LLC clearly
  // below or clearly above the footprint) vs the conflict-dominated
  // mid-regime shifts with the kernel scale, so the gate counts presets
  // instead of naming them: the capacity regimes always cover at least 3
  // of the 5 (see tests/reuse/test_model_goldens.cpp for the per-preset
  // regime-split contract at a fixed scale).
  std::cout << within_10pct << "/" << presets.size()
            << " presets within the 10% MPI tolerance (gate: >= 3)\n";

  serve::JsonValue out;
  out.set("bench", serve::JsonValue("memmodel_reuse"));
  out.set("kernel", serve::JsonValue("jacobi"));
  out.set("n", serve::JsonValue(static_cast<std::uint64_t>(params.n)));
  out.set("sweeps", serve::JsonValue(static_cast<std::int64_t>(params.sweeps)));
  out.set("cache_shift", serve::JsonValue(static_cast<std::uint64_t>(kShift)));
  out.set("presets", serve::JsonValue(std::move(rows)));
  out.set("profile_ms", serve::JsonValue(profile_ms));
  out.set("project_total_ms", serve::JsonValue(project_total_ms));
  out.set("replay_total_ms", serve::JsonValue(replay_total_ms));
  out.set("cost_reduction", serve::JsonValue(reduction));
  out.set("presets_within_10pct",
          serve::JsonValue(static_cast<std::uint64_t>(within_10pct)));
  out.set("mpi_gate_ok", serve::JsonValue(within_10pct >= 3));
  out.set("reduction_at_least_2x", serve::JsonValue(reduction >= 2.0));
  std::ofstream f("BENCH_reuse.json");
  f << serve::json_dump(out) << "\n";
  f.close();
  std::cout << "wrote BENCH_reuse.json\n";

  if (within_10pct < 3) {
    std::cerr << "FAIL: model MPI within 10% on only " << within_10pct
              << " presets (need >= 3)\n";
    return 1;
  }
  if (reduction < 2.0) {
    std::cerr << "FAIL: one-pass profiling did not beat per-machine replay "
                 "2x (got " << util::fmt_f(reduction, 2) << "x)\n";
    return 1;
  }
  return 0;
}
