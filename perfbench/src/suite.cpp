// `suite` workload: the paper's eight kernels through the whole Figure-3
// pipeline. Each kernel is profiled on the vcpu with reuse collection on,
// compressed, burden-annotated and compiled; then come its Figure-12 curves
// (Real / Pred / PredM / Suit at the paper core counts), a core::advise, and
// a core::sweep_machines projection onto the machine presets. One kernel
// through all of that is one work unit; the eight kernels in order are one
// pass.
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/advise.hpp"
#include "core/machine_sweep.hpp"
#include "kernel_suite.hpp"
#include "memmodel/calibration.hpp"
#include "reuse/miss_model.hpp"
#include "tree/compile.hpp"
#include "util/fnv.hpp"

namespace perfbench {

using namespace pprophet;

namespace {

using KernelFn = std::function<workloads::KernelRun(
    const workloads::KernelConfig& plain,
    const workloads::KernelConfig& scaled, std::uint64_t seed)>;

/// The bench::paper_suite kernels with the same cache configurations, at
/// the sizes this benchmark runs them and with caller-chosen data seeds and
/// reuse collection (paper_suite fixes both). Sizes, as multiples of
/// paper_suite(1): MG and FT 2x (their grid edges are powers of two), FFT
/// 4x, LU 2/3 (its DES sweeps already outweigh its profile), the rest 3x.
/// Profiling is then about two thirds of a pass, and a pass takes about
/// two seconds on a 4-core host. `tiny` is the smoke-test size.
std::vector<KernelFn> kernel_runs(bool tiny) {
  const std::size_t s = tiny ? 1 : 3;
  const std::size_t d = tiny ? 2 : 1;  // divisor for the smoke-test sizes
  std::vector<KernelFn> k;
  k.push_back([=](const auto& plain, const auto&, std::uint64_t seed) {
    workloads::MdParams p;
    p.particles = 160 * s / d;
    p.steps = 2;
    p.seed = seed;
    return workloads::run_md(p, plain);
  });
  k.push_back([=](const auto& plain, const auto&, std::uint64_t seed) {
    workloads::LuParams p;
    p.n = 64 / d;
    p.seed = seed;
    return workloads::run_lu(p, plain);
  });
  k.push_back([=](const auto&, const auto& scaled, std::uint64_t seed) {
    workloads::FftParams p;
    p.n = 2048 * (tiny ? 1 : 4) / d;
    p.parallel_cutoff = 128;
    p.seed = seed;
    return workloads::run_fft(p, scaled);
  });
  k.push_back([=](const auto& plain, const auto&, std::uint64_t seed) {
    workloads::QsortParams p;
    p.n = 16384 * s / d;
    p.parallel_cutoff = 512;
    p.seed = seed;
    return workloads::run_qsort(p, plain);
  });
  k.push_back([=](const auto& plain, const auto&, std::uint64_t seed) {
    workloads::EpParams p;
    p.log2_pairs = tiny ? 12 : 16;
    p.blocks = 48;
    p.seed = seed;
    return workloads::run_ep(p, plain);
  });
  k.push_back([=](const auto&, const auto& scaled, std::uint64_t seed) {
    workloads::FtParams p;
    p.nx = tiny ? 32 : 128;  // a power of two
    p.ny = 32;
    p.nz = 16;
    p.iterations = 2;
    p.seed = seed;
    return workloads::run_ft(p, scaled);
  });
  k.push_back([=](const auto&, const auto& scaled, std::uint64_t seed) {
    workloads::CgParams p;
    p.n = 1400 * s / d;
    p.iterations = 6;
    p.seed = seed;
    return workloads::run_cg(p, scaled);
  });
  k.push_back([=](const auto&, const auto& scaled, std::uint64_t seed) {
    workloads::MgParams p;
    p.n = tiny ? 16 : 64;
    p.vcycles = 2;
    p.seed = seed;
    return workloads::run_mg(p, scaled);
  });
  return k;
}

struct Setup {
  std::vector<bench::SuiteEntry> entries;  ///< names, paradigm, schedule
  std::vector<KernelFn> runs;
  std::vector<std::uint64_t> seeds;
  memmodel::BurdenModel model;
  std::vector<machine::MachinePreset> presets;
};

Setup make_setup(const RunOptions& opt) {
  memmodel::CalibrationOptions copts;
  copts.machine = report::paper_machine();
  Setup s{bench::paper_suite(1), kernel_runs(opt.tiny), {},
          memmodel::BurdenModel(memmodel::calibrate(copts)),
          machine::machine_presets()};
  if (s.entries.size() != s.runs.size()) {
    throw std::logic_error("suite: kernel table out of step with paper_suite");
  }
  for (std::size_t i = 0; i < s.runs.size(); ++i) {
    s.seeds.push_back(derive_seed(opt.seed, 100 + i));
  }
  return s;
}

/// Everything one kernel unit produced that the checks and metrics read.
struct UnitResult {
  workloads::KernelRun raw;  ///< the profile, when kept for re-pricing
  double checksum = 0.0;
  std::vector<double> real, predm;
  std::uint64_t digest = 0;  ///< every priced cell, bit for bit
  double wall_ms = 0.0, cpu_ms = 0.0;
  double profile_ms = 0.0;
  std::uint64_t instructions = 0, llc_misses = 0;
  std::size_t raw_nodes = 0, nodes = 0;
  SweepTotals sweep;  ///< curve and projection sweeps
  std::size_t syn_evals = 0;
  std::size_t advise_evals = 0;
  /// Traced units only: the tree the machine projection priced, the
  /// projection's cells (digest) and the spelled-out projection's time.
  tree::ProgramTree projected;
  std::uint64_t projection_digest = 0;
  double projection_ms = 0.0;
};

void hash_cells(util::Fnv64& h, const std::vector<core::SweepCell>& cells) {
  for (const core::SweepCell& c : cells) {
    h.u64(c.estimate.parallel_cycles);
    h.u64(c.estimate.serial_cycles);
    h.f64(c.estimate.speedup);
  }
}

/// The machine-projection grid of one kernel: PredM at the paper core
/// counts, on the kernel's own paradigm and schedule.
core::SweepGrid projection_grid(const bench::SuiteEntry& e) {
  core::SweepGrid grid;
  grid.methods = {core::Method::Synthesizer};
  grid.paradigms = {e.paradigm};
  grid.schedules = {e.schedule};
  grid.chunks = {1};
  grid.thread_counts = report::paper_core_counts();
  grid.memory_models = {true};
  grid.base = report::paper_options(core::Method::Synthesizer);
  return grid;
}

core::SweepOptions sweep_options() { return {.workers = pool_workers(2)}; }

/// Figure-12 points of one core count: Real, Pred, PredM, Suit.
std::vector<core::SweepPoint> curve_points(const bench::SuiteEntry& e,
                                           core::Method m, bool mm) {
  std::vector<core::SweepPoint> pts;
  for (const CoreCount t : report::paper_core_counts()) {
    core::SweepPoint p;
    p.method = m;
    p.paradigm = e.paradigm;
    p.schedule = e.schedule;
    p.threads = t;
    p.memory_model = mm;
    pts.push_back(p);
  }
  return pts;
}

workloads::KernelRun copy_run(const workloads::KernelRun& r) {
  workloads::KernelRun c;
  c.tree.root = r.tree.root->clone();
  c.checksum = r.checksum;
  c.instructions = r.instructions;
  c.llc_misses = r.llc_misses;
  c.cycles = r.cycles;
  return c;
}

/// One kernel through the pipeline. With `raw` set, profiling is skipped
/// and a copy of that earlier profile is priced instead (the re-pricing
/// check); with `keep_raw` set, a copy of the fresh profile is kept in
/// `UnitResult::raw`, untimed.
UnitResult run_unit(const Setup& s, std::size_t k, Tracer& tracer,
                    const workloads::KernelRun* raw = nullptr,
                    bool keep_raw = false) {
  const bench::SuiteEntry& e = s.entries[k];
  const auto& cores = report::paper_core_counts();
  const core::SweepOptions sopts = sweep_options();
  UnitResult u;
  Stopwatch unit_time;
  auto unit = tracer.scope("suite.kernel");

  workloads::KernelConfig plain{};
  plain.collect_reuse = true;
  workloads::KernelConfig scaled{.cache = workloads::scaled_cache()};
  scaled.collect_reuse = true;
  workloads::KernelRun run;
  if (raw != nullptr) {
    run = copy_run(*raw);
  } else {
    auto sp = tracer.scope("trace.profile");
    const auto p0 = Clock::now();
    run = s.runs[k](plain, scaled, s.seeds[k]);
    u.profile_ms = ms_between(p0, Clock::now());
  }
  if (keep_raw) {
    const Stopwatch copy;
    u.raw = copy_run(run);
    unit_time.exclude(copy);  // the copy is not part of the unit
  }
  u.checksum = run.checksum;
  u.instructions = run.instructions;
  u.llc_misses = run.llc_misses;
  u.raw_nodes = run.tree.node_count();
  {
    auto sp = tracer.scope("tree.compress");
    tree::compress(run.tree);
  }
  u.nodes = run.tree.node_count();
  {
    auto sp = tracer.scope("memmodel.annotate");
    memmodel::annotate_burdens(run.tree, s.model, cores);
  }
  std::optional<tree::CompiledTree> compiled;
  {
    auto sp = tracer.scope("tree.compile");
    compiled.emplace(tree::CompiledTree::compile(run.tree));
  }

  // Figure-12 curves. The traced run prices each method in its own sweep
  // (the memo never shares entries across methods, so the work is the same)
  // to give every emulator its own span.
  core::PredictOptions base = report::paper_options(core::Method::GroundTruth);
  base.paradigm = e.paradigm;
  base.schedule = e.schedule;
  const auto real_pts = curve_points(e, core::Method::GroundTruth, false);
  const auto pred_pts = curve_points(e, core::Method::Synthesizer, false);
  const auto predm_pts = curve_points(e, core::Method::Synthesizer, true);
  const auto suit_pts = curve_points(e, core::Method::Suitability, false);
  util::Fnv64 h;
  {
    auto sp = tracer.scope("core.sweep");
    const auto price = [&](const char* span,
                           std::vector<std::vector<core::SweepPoint>> groups) {
      std::vector<core::SweepPoint> pts;
      for (auto& g : groups) pts.insert(pts.end(), g.begin(), g.end());
      auto m = tracer.scope(span);
      core::SweepResult r = core::sweep_points(*compiled, pts, base, sopts);
      u.sweep.add(r.stats);
      return r;
    };
    std::vector<core::SweepCell> cells;
    if (tracer.enabled()) {
      core::SweepResult real = price("machine.real", {real_pts});
      core::SweepResult syn = price("machine.syn", {pred_pts, predm_pts});
      core::SweepResult suit = price("emul.suit", {suit_pts});
      u.syn_evals += syn.stats.section_evals;
      cells = real.cells;
      cells.insert(cells.end(), syn.cells.begin(), syn.cells.end());
      cells.insert(cells.end(), suit.cells.begin(), suit.cells.end());
    } else {
      core::SweepResult all =
          price("core.sweep", {real_pts, pred_pts, predm_pts, suit_pts});
      cells = std::move(all.cells);
    }
    hash_cells(h, cells);
    for (std::size_t i = 0; i < cores.size(); ++i) {
      u.real.push_back(cells[i].estimate.speedup);
      u.predm.push_back(cells[2 * cores.size() + i].estimate.speedup);
    }
  }

  {
    auto sp = tracer.scope("core.advise");
    core::AdviseOptions ao;
    ao.base = report::paper_options(core::Method::Synthesizer);
    ao.base.paradigm = e.paradigm;
    ao.base.schedule = e.schedule;
    ao.base.memory_model = true;
    ao.grid.paradigms = {e.paradigm};
    ao.grid.thread_counts = cores;
    ao.sweep = sopts;
    const core::Advice advice = core::advise(*compiled, ao);
    u.advise_evals = advice.stats.section_evals;
    h.f64(advice.best.speedup);
    h.f64(advice.economical.speedup);
    for (const core::Action& a : advice.actions) h.f64(a.speedup_after);
  }

  // One profile priced on every machine preset (PredM at the paper core
  // counts). The traced run spells out core::sweep_machines' steps so that
  // projection and calibration get spans: the loop below is a replica of
  // core/machine_sweep.cpp and must follow it. The caller checks that the
  // replica prices the same cells as the library call and takes about as
  // long (suite.projection_replica_*).
  {
    auto sp = tracer.scope("core.sweep_machines");
    const core::SweepGrid grid = projection_grid(e);
    if (tracer.enabled()) {
      const Stopwatch copy;
      u.projected.root = run.tree.root->clone();
      unit_time.exclude(copy);  // the copy is not part of the unit
      const Stopwatch projection;
      util::Fnv64 ph;
      for (const machine::MachinePreset& preset : s.presets) {
        tree::ProgramTree priced;
        priced.root = run.tree.root->clone();
        {
          auto p = tracer.scope("reuse.project");
          reuse::project_tree(priced, preset.cache, preset.cost.dram);
        }
        core::SweepGrid g = grid;
        g.base.machine = preset.machine;
        g.base.dram_stall = preset.cost.dram;
        std::optional<memmodel::BurdenModel> model;
        {
          auto c = tracer.scope("memmodel.calibrate");
          memmodel::CalibrationOptions copts;
          copts.machine = preset.machine;
          copts.dram_stall = preset.cost.dram;
          model.emplace(memmodel::calibrate(copts));
        }
        {
          auto a = tracer.scope("memmodel.annotate");
          memmodel::annotate_burdens(priced, *model, g.thread_counts);
        }
        auto sw = tracer.scope("core.sweep");
        auto m = tracer.scope("machine.syn");
        const core::SweepResult r = core::sweep(priced, g, sopts);
        u.sweep.add(r.stats);
        hash_cells(h, r.cells);
        hash_cells(ph, r.cells);
      }
      u.projection_ms = projection.cpu_ms();
      u.projection_digest = ph.h;
    } else {
      const core::MachineSweepResult r =
          core::sweep_machines(run.tree, s.presets, grid, sopts);
      for (const core::MachineSweepEntry& m : r.machines) {
        u.sweep.add(m.result.stats);
        hash_cells(h, m.result.cells);
      }
    }
  }
  h.f64(u.checksum);
  u.digest = h.h;
  u.wall_ms = unit_time.wall_ms();
  u.cpu_ms = unit_time.cpu_ms();
  return u;
}

}  // namespace

Outcome run_suite(const RunOptions& opt, Tracer& tracer) {
  Outcome out;
  // Set-up (calibrating the paper machine's memory model, building the
  // kernel table, one untimed warm-up unit so lazy initialisation is done
  // before timing) is repeated kSetupRepeats times; the median is setup_s.
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Stopwatch sw;
    setup.emplace(make_setup(opt));
    run_unit(*setup, 0, tracer);
    setup_s.push_back(sw.cpu_ms() / 1000.0);
  }
  const Setup& s = *setup;
  const std::size_t n = s.entries.size();

  // The first pass's results per kernel. Later passes must repeat its
  // checksums and instruction counts exactly. Their cycle and miss counts
  // may differ: the simulated caches see the host addresses of the kernel's
  // arrays, which move between passes. So the cells are checked by pricing
  // the first pass's own profile again, after the timed phase.
  std::vector<UnitResult> first(n);
  std::vector<bool> have_first(n, false);
  std::vector<bool> cells_moved(n, false);
  // Untraced CPU and wall times per kernel.
  std::vector<std::vector<double>> unit_ms(n), unit_wall_ms(n);
  std::vector<double> pass_ms_untraced, pass_ms_traced;
  std::vector<UnitResult> traced_units;
  double reuse_off_ms = 0.0, reuse_on_ms = 0.0;
  double replica_ms = 0.0, library_ms = 0.0;

  // Traced runs alternate untraced and traced passes; the pass-time
  // difference is the tracing overhead.
  const auto start = Clock::now();
  std::uint64_t unit_id = 0;
  for (int pass = 0;; ++pass) {
    const bool traced = opt.trace && pass % 2 == 1;
    if (ms_between(start, Clock::now()) / 1000.0 >= opt.seconds && pass >= 2) break;
    double pass_ms = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      double off_checksum = 0.0;
      if (traced) {
        // Reuse collection cost: the same kernel profiled without the
        // collector, outside the unit's span.
        const workloads::KernelConfig plain{};
        const workloads::KernelConfig scaled{.cache = workloads::scaled_cache()};
        const auto r0 = Clock::now();
        off_checksum = s.runs[k](plain, scaled, s.seeds[k]).checksum;
        reuse_off_ms += ms_between(r0, Clock::now());
      }
      tracer.set_enabled(traced);
      tracer.set_query(++unit_id);
      UnitResult u = run_unit(s, k, tracer, nullptr, !have_first[k]);
      tracer.set_enabled(false);
      pass_ms += u.wall_ms;
      if (traced) {
        reuse_on_ms += u.profile_ms;
        out.check("suite.reuse_off_checksum_identical", off_checksum == u.checksum);
        // The library's own machine projection on the same tree, right
        // after the unit's spelled-out copy of it (outside the unit).
        const Stopwatch library;
        const core::MachineSweepResult lib = core::sweep_machines(
            u.projected, s.presets, projection_grid(s.entries[k]), sweep_options());
        library_ms += library.cpu_ms();
        replica_ms += u.projection_ms;
        util::Fnv64 ph;
        for (const core::MachineSweepEntry& m : lib.machines) hash_cells(ph, m.result.cells);
        out.check("suite.projection_replica_identical", ph.h == u.projection_digest);
      } else {
        unit_ms[k].push_back(u.cpu_ms);
        unit_wall_ms[k].push_back(u.wall_ms);
      }
      if (!have_first[k]) {
        out.check("suite.checksum_finite", std::isfinite(u.checksum));
        have_first[k] = true;
        first[k] = std::move(u);
      } else {
        out.check("suite.checksum_and_instructions_repeat",
                  u.checksum == first[k].checksum &&
                      u.instructions == first[k].instructions);
        if (u.digest != first[k].digest) cells_moved[k] = true;
        if (traced) traced_units.push_back(std::move(u));
      }
    }
    (traced ? pass_ms_traced : pass_ms_untraced).push_back(pass_ms);
  }
  for (std::size_t k = 0; k < n; ++k) {
    const UnitResult again = run_unit(s, k, tracer, &first[k].raw);
    out.check("suite.reprice_identical", again.digest == first[k].digest);
    if (opt.trace) {
      // The traced run's one-sweep-per-method split and spelled-out machine
      // projection must price exactly what the untraced calls price. A
      // scratch tracer keeps these spans out of the layer metrics.
      Tracer scratch;
      scratch.set_enabled(true);
      const UnitResult split = run_unit(s, k, scratch, &first[k].raw);
      out.check("suite.traced_split_identical", split.digest == first[k].digest);
    }
  }
  if (library_ms > 0.0) {
    // The spelled-out projection must take what the library call takes, or
    // the per-layer times it feeds no longer describe the program. The
    // bound matches the end-to-end time bounds.
    const double ratio = replica_ms / library_ms;
    out.check("suite.projection_replica_time", ratio >= 0.8 && ratio <= 1.25);
    out.notes.push_back("suite.projection_replica_time " + std::to_string(replica_ms) +
                        " CPU ms spelled out vs " + std::to_string(library_ms) +
                        " ms in core::sweep_machines (ratio " + std::to_string(ratio) +
                        ", allowed 0.8 to 1.25)");
  }
  std::size_t moved = 0;
  for (bool m : cells_moved) moved += m ? 1 : 0;
  out.notes.push_back("suite.profile_repeat " + std::to_string(moved) + " of " +
                      std::to_string(n) +
                      " kernels priced differently in a later pass (their cycle and "
                      "miss counts follow the host heap addresses)");

  // |PredM - Real| / Real over kernels x core counts, from the first pass.
  std::vector<double> errs;
  util::Fnv64 all;
  for (const UnitResult& u : first) {
    for (std::size_t i = 0; i < u.real.size(); ++i) {
      errs.push_back(100.0 * std::abs(u.predm[i] - u.real[i]) / u.real[i]);
    }
    all.u64(u.digest);
  }
  std::ostringstream note;
  note << "suite.cells_digest " << std::hex << all.h;
  out.notes.push_back(note.str());
  out.notes.push_back("suite.passes " + std::to_string(pass_ms_untraced.size()) +
                      " untraced, " + std::to_string(pass_ms_traced.size()) +
                      " traced; " + std::to_string(n) + " kernels per pass");

  out.add("setup_s", median(setup_s), "s");
  // Each kernel's time is its fastest over the passes; throughput is
  // kernels per second of a pass made of those times.
  const std::vector<double> best_wall = best_times(unit_wall_ms);
  out.notes.push_back(
      "suite.wall " +
      std::to_string(best_wall.size() /
                     (std::accumulate(best_wall.begin(), best_wall.end(), 0.0) / 1000.0)) +
      " kernels per wall second, p50 " + std::to_string(quantile(best_wall, 0.5)) + " ms, p90 " +
      std::to_string(quantile(best_wall, 0.9)) + " ms, p99 " +
      std::to_string(quantile(best_wall, 0.99)) + " ms");
  const std::vector<double> best = best_times(unit_ms);
  const double best_pass_ms = std::accumulate(best.begin(), best.end(), 0.0);
  out.add("ops_per_s", static_cast<double>(best.size()) / (best_pass_ms / 1000.0), "1/s");
  out.add("latency_ms.p50", quantile(best, 0.50), "ms");
  out.add("latency_ms.p90", quantile(best, 0.90), "ms");
  out.add("latency_ms.p99", quantile(best, 0.99), "ms");
  add_accuracy(out, errs);

  if (opt.trace && !traced_units.empty()) {
    const double units = static_cast<double>(traced_units.size());
    add_layer_times(out, tracer, units);
    double instr = 0, misses = 0, raw = 0, nodes = 0, profile_ms = 0;
    SweepTotals sweeps;
    double syn_evals = 0, advise_evals = 0;
    for (const UnitResult& u : traced_units) {
      instr += static_cast<double>(u.instructions);
      misses += static_cast<double>(u.llc_misses);
      raw += static_cast<double>(u.raw_nodes);
      nodes += static_cast<double>(u.nodes);
      profile_ms += u.profile_ms;
      sweeps.add(u.sweep);
      syn_evals += static_cast<double>(u.syn_evals);
      advise_evals += static_cast<double>(u.advise_evals);
    }
    add_sweep_layers(out, sweeps, units);
    out.layer["vcpu.instructions"] = instr / units;
    out.layer["vcpu.minstr_per_s"] = instr / 1e6 / (profile_ms / 1000.0);
    out.layer["cachesim.llc_misses"] = misses / units;
    out.layer["trace.raw_nodes"] = raw / units;
    out.layer["reuse.collect_ms"] = (reuse_on_ms - reuse_off_ms) / units;
    out.layer["tree.compress_ratio"] = raw / nodes;
    out.layer["tree.compressed_nodes"] = nodes / units;
    out.layer["core.advise_cost_sweeps"] = syn_evals > 0 ? advise_evals / syn_evals : 0.0;
    out.layer["trace.overhead_pct"] =
        100.0 * (median(pass_ms_traced) / median(pass_ms_untraced) - 1.0);
  }
  return out;
}

}  // namespace perfbench
