// Table III reproduction: FF vs synthesizer comparison — per-estimate
// emulation cost (process CPU time here, where the paper reports slowdown
// factors on its machine), accuracy against ground truth, and the regimes
// where each wins. Run on a batch of Test1 (flat) and Test2 (nested)
// samples. Each estimate batch is timed on process CPU time (a one-point
// sweep runs on the calling thread) and the best of kPasses passes is
// kept, so other processes sharing the host do not move the cost rows.
#include <time.h>

#include <iostream>

#include "core/sweep.hpp"
#include "report/experiment.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/test_patterns.hpp"

using namespace pprophet;

namespace {

constexpr int kPasses = 5;

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

int main() {
  const long samples = util::env_long("PP_SAMPLES", 30);
  report::print_header(std::cout,
                       "Table III — FF vs synthesizer: accuracy and "
                       "per-estimate cost (" + std::to_string(samples) +
                       " samples each, CPU time best of " +
                       std::to_string(kPasses) +
                       " passes; PP_SAMPLES to change)");

  for (const bool nested : {false, true}) {
    util::Xoshiro256 rng(nested ? 77 : 33);
    std::vector<tree::ProgramTree> trees;
    std::vector<double> real;
    core::PredictOptions o = report::paper_options(core::Method::GroundTruth);
    for (long s = 0; s < samples; ++s) {
      trees.push_back(nested
                          ? workloads::run_test2(workloads::random_test2(rng))
                          : workloads::run_test1(workloads::random_test1(rng)));
      real.push_back(core::predict(trees.back(), 8, o).speedup);
    }

    util::Table table({"emulator", "avg err", "max err", "sec/estimate",
                       "paper note"});
    for (const core::Method m : {core::Method::FastForward,
                                 core::Method::Synthesizer}) {
      // Per-tree estimates run through the sweep engine — a one-point
      // sweep is bit-identical to core::predict (see
      // tests/core/test_sweep.cpp), so the timing it reports is the
      // engine's own per-estimate cost.
      core::SweepPoint point;
      point.method = m;
      point.threads = 8;
      std::vector<double> pred;
      double best_ms = 0.0;
      for (int pass = 0; pass < kPasses; ++pass) {
        pred.clear();
        const double t0 = cpu_ms();
        for (const auto& t : trees) {
          pred.push_back(core::sweep_points(t, {&point, 1}, o)
                             .cells.front()
                             .estimate.speedup);
        }
        const double ms = cpu_ms() - t0;
        if (pass == 0 || ms < best_ms) best_ms = ms;
      }
      const double secs = best_ms / 1000.0 / static_cast<double>(samples);
      const util::ErrorStats es = util::error_stats(pred, real);
      table.add_row(
          {core::to_string(m), util::fmt_pct(es.mean_error),
           util::fmt_pct(es.max_error), util::fmt_f(secs * 1000, 2) + " ms",
           m == core::Method::FastForward
               ? "analytical; 1.1-3x slowdown; weak on nested"
               : "runs on the machine model; 1.1-2x; very accurate"});
    }
    std::cout << "\n--- " << (nested ? "Test2 (nested parallelism)"
                                     : "Test1 (single-level loops)")
              << " ---\n";
    table.print(std::cout);
  }
  std::cout <<
      "\nTable III qualitative checks: the FF is cheaper per estimate; the\n"
      "synthesizer is the accurate one on nested parallelism; both handle\n"
      "flat loops well (paper SS IV-E, Table III).\n";
  return 0;
}
