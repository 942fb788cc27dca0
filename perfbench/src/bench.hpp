// Shared plumbing of the perfbench runner: run options, the metric/outcome
// records every workload returns, the in-memory span tracer, and small
// statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "tree/node.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time this process has used so far, over all its threads, in ms.
double cpu_ms_now();

/// Wall time and CPU time (this process, all threads) since construction.
///
/// The benchmark's time metrics are CPU times: on a shared host the wall
/// time of the same work follows the other tenants' load (it doubled under
/// four spinning processes on a 4-core host), its CPU time does not. Wall
/// times are printed beside them.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = cpu_ms_now();

  double wall_ms() const { return ms_between(wall0, Clock::now()); }
  double cpu_ms() const { return cpu_ms_now() - cpu0; }
  /// Leaves what `inner` has timed so far out of this stopwatch's times.
  void exclude(const Stopwatch& inner) {
    wall0 += Clock::now() - inner.wall0;
    cpu0 += inner.cpu_ms();
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     ///< smoke-test sizes (perfbench/smoke_test.py)
  std::string out_dir;   ///< result, span and socket files
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the end-to-end metrics in print order,
/// and in a traced run the per-layer metrics too.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness checks that ran: name -> {operations checked, failed}.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> checks;
  /// Per-layer metrics of the traced run, by catalog name (see
  /// per_layer_catalog); names a workload does not set print as 0.
  std::map<std::string, double> layer;
  /// Whether the traced run fails below 95% span coverage; a workload with
  /// a part it cannot time from outside the program says so in the note.
  bool coverage_gated = true;
  std::string coverage_note;
  /// Extra human-readable context lines (load-generator state, digests).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation against `check`; a false `ok` is a
  /// failure.
  void check(const std::string& name, bool ok) {
    auto& [ops, bad] = checks[name];
    ++ops;
    ++attempted;
    if (!ok) {
      ++bad;
      ++failed;
    }
  }
};

/// Spans recorded around the calls into each layer. Kept in memory and
/// written once at the end; a disabled tracer records nothing, so the
/// untraced run pays one branch per call site.
///
/// Only the thread that owns the tracer may open spans (the workloads call
/// into the layers from one thread; the layers' own worker pools stay
/// inside a span).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::uint64_t query = 0;
  };

  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t) {
      if (t_ != nullptr) index_ = t_->open(name);
    }
    ~Scope() {
      if (t_ != nullptr) t_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  Tracer() : epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Query (work unit) id stamped on spans opened from now on.
  void set_query(std::uint64_t q) { query_ = q; }

  /// Opens a span when enabled; usage: `auto s = tracer.scope("tree.compile")`.
  Scope scope(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  /// Records an already-measured interval as a span (the load generator
  /// knows its intervals only after the fact).
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              int parent = -1);
  int last_index() const { return static_cast<int>(spans_.size()) - 1; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name (duration minus the part covered by direct
  /// children), in ms, over every recorded span.
  std::map<std::string, double> self_ms() const;
  /// Inclusive time per span name, in ms.
  std::map<std::string, double> total_ms() const;

  /// Share of the root spans' wall time covered by their descendants.
  double coverage() const;

  /// Writes every span as one JSON document (written once, at exit).
  bool write(const std::string& path, const std::string& header_json) const;

 private:
  int open(const char* name);
  void close(int index);
  double now_us() const;
  double us(Clock::time_point t) const;

  Clock::time_point epoch_;
  bool enabled_ = false;
  std::uint64_t query_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Quantile by linear interpolation between order statistics (the same
/// rule as numpy's default); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

// Workload entry points (one translation unit each).
Outcome run_suite(const RunOptions& opt, Tracer& tracer);
Outcome run_whatif(const RunOptions& opt, Tracer& tracer);
Outcome run_serve(const RunOptions& opt, Tracer& tracer);

/// Sweep statistics summed over a work unit's sweeps, plus each
/// multi-worker sweep's skew (slowest worker over the mean worker).
struct SweepTotals {
  std::size_t lookups = 0, hits = 0, evals = 0;
  std::vector<double> skews;
  void add(const pprophet::core::SweepStats& s);
  void add(const SweepTotals& t);
};

/// Adds predm_err_pct.mean and .max over `errs` (|PredM - Real| / Real, %).
void add_accuracy(Outcome& out, const std::vector<double>& errs);

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// Fastest of each work unit's repeated times, for units timed more than
/// once in a run (the same kernel every pass, the same tree every round).
/// Other load on a shared host only ever adds time, so the fastest repeat
/// is the one it disturbed least; a median still moves with how busy the
/// host was for half the run.
std::vector<double> best_times(const std::vector<std::vector<double>>& per_unit);

/// Effective sweep/serve worker count: at most the host's cores.
std::size_t pool_workers(std::size_t wanted);

/// Derives an independent 64-bit seed for stream `stream` of run seed
/// `seed` (splitmix64), so each input family has its own sequence.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Attaches seeded memory counters to every top-level section of `t`, so
/// burden factors and the DES ground truth see memory traffic. The counters
/// agree with the section's length: a share of its cycles are DRAM stalls
/// at the unloaded stall `omega`, the rest compute at a seeded CPI. The
/// share follows a fixed ladder over `index` (5% to 50%), so every seed
/// draws the same mix of compute- and memory-bound programs.
void attach_counters(pprophet::tree::ProgramTree& t, pprophet::util::Xoshiro256& rng,
                     std::size_t index, pprophet::Cycles omega);

/// Fills the span-derived per-layer metrics shared by every workload's
/// traced run: each layer's time per work unit (`units` work units were
/// traced) and the span coverage of the work units' wall time.
void add_layer_times(Outcome& out, const Tracer& tracer, double units);

/// Fills the core.sweep_* / core.section_* / core.worker_skew per-layer
/// metrics from the traced units' sweeps.
void add_sweep_layers(Outcome& out, const SweepTotals& t, double units);

/// The fixed list of per-layer metric names (every traced run prints all of
/// them, 0 where the workload does not exercise the layer) with units.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

}  // namespace perfbench
