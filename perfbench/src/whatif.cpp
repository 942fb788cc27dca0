// `whatif` workload: interactive what-if queries over already-profiled
// trees. Set-up generates a seeded set of trees — random_test2 programs
// (nested OpenMP loops with locks, profiled on the virtual clock) and nested
// Cilk recursions — compresses them, attaches section counters and burden
// factors. One query per tree is one work unit: compile, sweep the 576-point
// grid, then core::advise. No profiling happens here; SYN and Real on the
// DES take most of the time.
#include <cmath>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/advise.hpp"
#include "memmodel/calibration.hpp"
#include "report/experiment.hpp"
#include "tree/builder.hpp"
#include "tree/compile.hpp"
#include "tree/compress.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "workloads/test_patterns.hpp"

namespace perfbench {

using namespace pprophet;

namespace {

void cilk_level(tree::TreeBuilder& b, util::Xoshiro256& rng, int depth,
                Cycles leaf, bool locks) {
  b.begin_sec("spawn");
  for (int c = 0; c < 2; ++c) {
    b.begin_task("half");
    b.u(leaf / 8);
    if (depth > 1) {
      cilk_level(b, rng, depth - 1, leaf, locks);
    } else {
      // Leaf work in quarter steps, so equal siblings exist to compress.
      b.u(leaf + leaf / 4 * rng.uniform_u64(0, 3));
      if (locks && rng.bernoulli(0.3)) b.l(1, leaf / 10);
    }
    b.end_task();
  }
  b.end_sec(true);
}

/// Divide-and-conquer recursion `depth` levels deep (2^depth leaves).
tree::ProgramTree cilk_tree(util::Xoshiro256& rng, int depth, bool locks) {
  tree::TreeBuilder b;
  const Cycles leaf = rng.uniform_u64(20'000, 80'000);
  b.u(leaf * 2);
  cilk_level(b, rng, depth, leaf, locks);
  b.u(leaf);
  return b.finish();
}

struct Setup {
  std::vector<tree::ProgramTree> trees;
  std::size_t raw_nodes = 0, nodes = 0;
};

/// The tree set: a fixed size ladder (so the cost mix is the same for every
/// seed) with seeded contents, each size drawn kDraws times so that the
/// percentiles over the set move little with the seed.
constexpr int kDraws = 2;

Setup make_setup(const RunOptions& opt) {
  util::Xoshiro256 rng(derive_seed(opt.seed, 200));
  Setup s;
  std::vector<tree::ProgramTree> raw;
  const std::vector<std::uint64_t> outer =
      opt.tiny ? std::vector<std::uint64_t>{4} : std::vector<std::uint64_t>{6, 8, 10, 12};
  const std::vector<std::uint64_t> inner =
      opt.tiny ? std::vector<std::uint64_t>{4} : std::vector<std::uint64_t>{6, 10};
  const std::vector<int> depths = opt.tiny ? std::vector<int>{3} : std::vector<int>{4, 5, 6, 7};
  for (int draw = 0; draw < (opt.tiny ? 1 : kDraws); ++draw) {
    for (const std::uint64_t k : outer) {
      for (const std::uint64_t i : inner) {
        // Irregular work in every iteration, so compression leaves the
        // ladder's sizes the same for every seed. Every outer iteration
        // nests the inner loop, and half the inner iterations take one
        // lock, so the node count (and so the query cost) follows the
        // ladder too; the work split and lock share stay seeded.
        workloads::Test2Params p = workloads::random_test2(rng);
        p.k_max = k;
        p.inner.i_max = i;
        p.nested_prob = 1.0;
        p.shape = p.inner.shape = workloads::WorkShape::Random;
        p.spread = p.inner.spread = 0.5;
        p.inner.ratio_delay_3 += p.inner.ratio_lock_2;
        p.inner.ratio_lock_2 = 0.0;
        p.inner.lock2_prob = 0.0;
        p.inner.lock1_prob = 0.5;
        raw.push_back(workloads::run_test2(p));
      }
    }
    for (const int d : depths) {
      for (const bool locks : {false, true}) raw.push_back(cilk_tree(rng, d, locks));
    }
  }
  memmodel::CalibrationOptions copts;
  copts.machine = report::paper_machine();
  const memmodel::BurdenModel model(memmodel::calibrate(copts));
  for (std::size_t i = 0; i < raw.size(); ++i) {
    tree::ProgramTree& t = raw[i];
    s.raw_nodes += t.node_count();
    tree::compress(t);
    s.nodes += t.node_count();
    attach_counters(t, rng, i, copts.dram_stall);
    memmodel::annotate_burdens(t, model, report::paper_core_counts());
    s.trees.push_back(std::move(t));
  }
  return s;
}

/// The 576-point grid: 4 methods x 2 paradigms x 3 schedules x 2 chunks x
/// memory model on/off x 6 core counts.
core::SweepGrid what_if_grid(std::vector<core::Method> methods) {
  core::SweepGrid grid;
  grid.methods = std::move(methods);
  grid.paradigms = {core::Paradigm::OpenMP, core::Paradigm::CilkPlus};
  grid.schedules = {runtime::OmpSchedule::StaticCyclic,
                    runtime::OmpSchedule::StaticBlock,
                    runtime::OmpSchedule::Dynamic};
  grid.chunks = {1, 4};
  grid.thread_counts = report::paper_core_counts();
  grid.memory_models = {false, true};
  grid.base = report::paper_options(core::Method::Synthesizer);
  return grid;
}

const std::vector<core::Method> kMethods = {
    core::Method::FastForward, core::Method::Synthesizer,
    core::Method::Suitability, core::Method::GroundTruth};
const char* const kMethodSpan[] = {"emul.ff", "machine.syn", "emul.suit",
                                   "machine.real"};

struct QueryResult {
  std::vector<core::SweepCell> cells;
  std::uint64_t digest = 0;
  double wall_ms = 0.0, cpu_ms = 0.0;
  SweepTotals sweep;
  std::size_t syn_evals = 0, advise_evals = 0;
};

QueryResult run_query(const tree::ProgramTree& t, Tracer& tracer) {
  const core::SweepOptions sopts{.workers = pool_workers(2)};
  QueryResult q;
  const Stopwatch query_time;
  auto unit = tracer.scope("whatif.query");
  std::optional<tree::CompiledTree> compiled;
  {
    auto sp = tracer.scope("tree.compile");
    compiled.emplace(tree::CompiledTree::compile(t));
  }
  {
    auto sp = tracer.scope("core.sweep");
    if (tracer.enabled()) {
      // One sweep per method: grid order is method-major, so concatenating
      // the four results gives the full grid's cells in order.
      for (std::size_t m = 0; m < kMethods.size(); ++m) {
        auto ms = tracer.scope(kMethodSpan[m]);
        core::SweepResult r = core::sweep(*compiled, what_if_grid({kMethods[m]}), sopts);
        q.sweep.add(r.stats);
        if (kMethods[m] == core::Method::Synthesizer) q.syn_evals = r.stats.section_evals;
        q.cells.insert(q.cells.end(), r.cells.begin(), r.cells.end());
      }
    } else {
      core::SweepResult r = core::sweep(*compiled, what_if_grid(kMethods), sopts);
      q.sweep.add(r.stats);
      q.cells = std::move(r.cells);
    }
  }
  util::Fnv64 h;
  for (const core::SweepCell& c : q.cells) {
    h.u64(c.estimate.parallel_cycles);
    h.f64(c.estimate.speedup);
  }
  {
    auto sp = tracer.scope("core.advise");
    core::AdviseOptions ao;
    ao.base = report::paper_options(core::Method::Synthesizer);
    ao.base.memory_model = true;
    ao.sweep = sopts;
    const core::Advice advice = core::advise(*compiled, ao);
    q.advise_evals = advice.stats.section_evals;
    h.f64(advice.best.speedup);
    for (const core::Action& a : advice.actions) h.f64(a.speedup_after);
  }
  q.digest = h.h;
  q.wall_ms = query_time.wall_ms();
  q.cpu_ms = query_time.cpu_ms();
  return q;
}

/// Re-prices `samples` seeded cells of the query with a sequential
/// core::predict; every one must match the sweep bit for bit.
bool predict_matches(const tree::ProgramTree& t, const QueryResult& q,
                     util::Xoshiro256& rng, int samples) {
  const tree::CompiledTree compiled = tree::CompiledTree::compile(t);
  const core::SweepGrid grid = what_if_grid(kMethods);
  for (int i = 0; i < samples; ++i) {
    const core::SweepCell& c = q.cells[rng.uniform_u64(0, q.cells.size() - 1)];
    core::PredictOptions o = grid.base;
    o.method = c.point.method;
    o.paradigm = c.point.paradigm;
    o.schedule = c.point.schedule;
    o.chunk = c.point.chunk;
    o.memory_model = c.point.memory_model;
    const core::SpeedupEstimate e = core::predict(compiled, c.point.threads, o);
    if (e.parallel_cycles != c.estimate.parallel_cycles ||
        e.serial_cycles != c.estimate.serial_cycles ||
        e.speedup != c.estimate.speedup) {
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome run_whatif(const RunOptions& opt, Tracer& tracer) {
  Outcome out;
  // Set-up (the tree set, plus one untimed warm-up query on the deepest
  // Cilk tree so lazy initialisation is done before timing) kSetupRepeats
  // times; the median is setup_s.
  std::vector<double> setup_s;
  std::optional<Setup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Stopwatch sw;
    setup.emplace(make_setup(opt));
    run_query(setup->trees.back(), tracer);
    setup_s.push_back(sw.cpu_ms() / 1000.0);
  }
  const Setup& s = *setup;
  const std::size_t n = s.trees.size();
  const std::size_t points = what_if_grid(kMethods).size();

  util::Xoshiro256 check_rng(derive_seed(opt.seed, 201));
  std::vector<std::uint64_t> first_digest(n, 0);
  std::vector<double> errs;
  // CPU times per tree, untraced and traced, and untraced wall times.
  std::vector<std::vector<double>> untraced_ms(n), traced_ms(n), wall_ms(n);
  std::size_t untraced_queries = 0, traced_queries = 0;
  SweepTotals sweeps;
  double syn_evals = 0, advise_evals = 0;

  // Traced runs alternate untraced and traced queries (each tree gets both
  // across two rounds); the query-time difference is the tracing overhead.
  const auto start = Clock::now();
  std::uint64_t query_id = 0;
  for (std::size_t round = 0;; ++round) {
    if (ms_between(start, Clock::now()) / 1000.0 >= opt.seconds && round >= 2) break;
    for (std::size_t i = 0; i < n; ++i) {
      const bool traced = opt.trace && (round + i) % 2 == 1;
      tracer.set_enabled(traced);
      tracer.set_query(++query_id);
      const QueryResult q = run_query(s.trees[i], tracer);
      tracer.set_enabled(false);
      (traced ? traced_ms : untraced_ms)[i].push_back(q.cpu_ms);
      if (!traced) wall_ms[i].push_back(q.wall_ms);
      ++(traced ? traced_queries : untraced_queries);
      if (traced) {
        sweeps.add(q.sweep);
        syn_evals += static_cast<double>(q.syn_evals);
        advise_evals += static_cast<double>(q.advise_evals);
      }
      out.check("whatif.sampled_predict_identical",
                predict_matches(s.trees[i], q, check_rng, 4));
      if (round == 0) {
        first_digest[i] = q.digest;
        // PredM (SYN, memory model on) against Real, cell by cell: the
        // grid's GroundTruth block at memory model off, same configuration.
        // Threads vary fastest, right after the memory-model axis.
        const std::size_t per_method = points / kMethods.size();
        const std::size_t tcount = report::paper_core_counts().size();
        for (std::size_t c = 0; c < per_method; ++c) {
          const core::SweepCell& syn = q.cells[per_method + c];
          if (!syn.point.memory_model) continue;
          const core::SweepCell& real = q.cells[3 * per_method + c - tcount];
          if (real.point.paradigm != syn.point.paradigm ||
              real.point.schedule != syn.point.schedule || real.point.chunk != syn.point.chunk ||
              real.point.threads != syn.point.threads || real.point.memory_model) {
            throw std::logic_error("whatif: grid order is not method-major");
          }
          errs.push_back(100.0 * std::abs(syn.estimate.speedup - real.estimate.speedup) /
                         real.estimate.speedup);
        }
      } else {
        out.check("whatif.repeat_across_rounds", q.digest == first_digest[i]);
      }
    }
  }

  util::Fnv64 all;
  for (std::uint64_t d : first_digest) all.u64(d);
  std::ostringstream note;
  note << "whatif.cells_digest " << std::hex << all.h;
  out.notes.push_back(note.str());
  out.notes.push_back("whatif.trees " + std::to_string(n) + ", " +
                      std::to_string(points) + " grid points per query, " +
                      std::to_string(untraced_queries) + " untraced queries");

  out.add("setup_s", median(setup_s), "s");
  // Each tree's query time is its fastest over the rounds; the percentiles
  // run over the trees, and throughput prices one round of those queries.
  const std::vector<double> best_wall = best_times(wall_ms);
  out.notes.push_back(
      "whatif.wall " +
      std::to_string(static_cast<double>(points * best_wall.size()) /
                     (std::accumulate(best_wall.begin(), best_wall.end(), 0.0) / 1000.0)) +
      " points per wall second, p50 " + std::to_string(quantile(best_wall, 0.5)) + " ms, p90 " +
      std::to_string(quantile(best_wall, 0.9)) + " ms, p99 " +
      std::to_string(quantile(best_wall, 0.99)) + " ms");
  const std::vector<double> best = best_times(untraced_ms);
  const double round_ms = std::accumulate(best.begin(), best.end(), 0.0);
  out.add("ops_per_s",
          static_cast<double>(points * best.size()) / (round_ms / 1000.0), "1/s");
  out.add("latency_ms.p50", quantile(best, 0.50), "ms");
  out.add("latency_ms.p90", quantile(best, 0.90), "ms");
  out.add("latency_ms.p99", quantile(best, 0.99), "ms");
  add_accuracy(out, errs);

  if (opt.trace && traced_queries > 0) {
    const double units = static_cast<double>(traced_queries);
    add_layer_times(out, tracer, units);
    out.layer["tree.compress_ratio"] =
        static_cast<double>(s.raw_nodes) / static_cast<double>(s.nodes);
    out.layer["tree.compressed_nodes"] =
        static_cast<double>(s.nodes) / static_cast<double>(n);
    add_sweep_layers(out, sweeps, units);
    out.layer["core.advise_cost_sweeps"] = syn_evals > 0 ? advise_evals / syn_evals : 0.0;
    const std::vector<double> best_traced = best_times(traced_ms);
    out.layer["trace.overhead_pct"] =
        100.0 * (std::accumulate(best_traced.begin(), best_traced.end(), 0.0) /
                     round_ms -
                 1.0);
  }
  return out;
}

}  // namespace perfbench
