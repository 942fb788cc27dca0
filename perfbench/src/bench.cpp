#include "bench.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <thread>

#include "util/json_escape.hpp"

namespace perfbench {

int Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.start_us = now_us();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.query = query_;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  stack_.pop_back();
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, int parent) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start_us = us(start);
  s.end_us = us(end);
  s.parent = parent;
  s.query = query_;
  spans_.push_back(std::move(s));
}

double Tracer::us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

double Tracer::now_us() const { return us(Clock::now()); }

namespace {

std::vector<double> child_us(const std::vector<Tracer::Span>& spans) {
  std::vector<double> covered(spans.size(), 0.0);
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, double> Tracer::self_ms() const {
  const std::vector<double> covered = child_us(spans_);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += (s.end_us - s.start_us - covered[i]) / 1000.0;
  }
  return out;
}

std::map<std::string, double> Tracer::total_ms() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += (s.end_us - s.start_us) / 1000.0;
  return out;
}

double Tracer::coverage() const {
  const std::vector<double> covered = child_us(spans_);
  double wall = 0.0, inside = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) continue;
    wall += spans_[i].end_us - spans_[i].start_us;
    inside += covered[i];
  }
  return wall > 0.0 ? inside / wall : 0.0;
}

bool Tracer::write(const std::string& path,
                   const std::string& header_json) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"context\":" << header_json << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) f << ",";
    f << "{\"name\":" << pprophet::util::json_quote(s.name)
      << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
      << ",\"parent\":" << s.parent << ",\"query\":" << s.query << "}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void SweepTotals::add(const pprophet::core::SweepStats& s) {
  lookups += s.section_lookups;
  hits += s.cache_hits;
  evals += s.section_evals;
  if (s.worker_wall_ms.size() < 2) return;
  double sum = 0.0, slowest = 0.0;
  for (const double w : s.worker_wall_ms) {
    sum += w;
    slowest = std::max(slowest, w);
  }
  if (sum > 0.0) skews.push_back(slowest * static_cast<double>(s.worker_wall_ms.size()) / sum);
}

void SweepTotals::add(const SweepTotals& t) {
  lookups += t.lookups;
  hits += t.hits;
  evals += t.evals;
  skews.insert(skews.end(), t.skews.begin(), t.skews.end());
}

void add_accuracy(Outcome& out, const std::vector<double>& errs) {
  double sum = 0.0, worst = 0.0;
  for (const double e : errs) {
    sum += e;
    worst = std::max(worst, e);
  }
  out.add("predm_err_pct.mean", errs.empty() ? 0.0 : sum / static_cast<double>(errs.size()), "%");
  out.add("predm_err_pct.max", worst, "%");
}

std::vector<double> best_times(const std::vector<std::vector<double>>& per_unit) {
  std::vector<double> out;
  for (const std::vector<double>& t : per_unit) {
    if (!t.empty()) out.push_back(*std::min_element(t.begin(), t.end()));
  }
  return out;
}

double cpu_ms_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::size_t pool_workers(std::size_t wanted) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(wanted, 1, cores);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void attach_counters(pprophet::tree::ProgramTree& t, pprophet::util::Xoshiro256& rng,
                     std::size_t index, pprophet::Cycles omega) {
  static constexpr double kStallShare[] = {0.05, 0.2, 0.35, 0.5};
  const double share = kStallShare[index % std::size(kStallShare)];
  for (const pprophet::tree::NodePtr& n : t.top_level()) {
    if (n->kind() != pprophet::tree::NodeKind::Sec) continue;
    pprophet::tree::SectionCounters c;
    c.cycles = n->length() * n->repeat();
    const double stall =
        static_cast<double>(c.cycles) * (share + rng.uniform_double(-0.04, 0.04));
    c.llc_misses = static_cast<std::uint64_t>(stall / static_cast<double>(omega));
    c.instructions = static_cast<std::uint64_t>(
        (static_cast<double>(c.cycles) - stall) / rng.uniform_double(0.5, 1.5));
    c.llc_writebacks = c.llc_misses / 3;
    n->set_counters(c);
  }
}

void add_layer_times(Outcome& out, const Tracer& tracer, double units) {
  if (units <= 0.0) return;
  const std::map<std::string, double> self = tracer.self_ms();
  // Span names are the layer-metric prefixes; the sweep is reported
  // inclusive of its per-method children, every other layer as self time.
  static const char* kLayers[] = {
      "trace.profile",  "reuse.project",  "tree.compress", "tree.compile",
      "memmodel.calibrate", "memmodel.annotate", "machine.syn",
      "machine.real",   "emul.ff",        "emul.suit",     "core.advise"};
  for (const char* name : kLayers) {
    const auto it = self.find(name);
    if (it != self.end()) out.layer[std::string(name) + "_ms"] = it->second / units;
  }
  const std::map<std::string, double> total = tracer.total_ms();
  if (const auto it = total.find("core.sweep"); it != total.end()) {
    out.layer["core.sweep_ms"] = it->second / units;
  }
  out.layer["trace.coverage"] = tracer.coverage();
  out.layer["trace.units"] = units;
}

void add_sweep_layers(Outcome& out, const SweepTotals& t, double units) {
  out.layer["core.sweep_hit_rate"] =
      t.lookups == 0 ? 0.0 : static_cast<double>(t.hits) / static_cast<double>(t.lookups);
  out.layer["core.section_lookups"] = static_cast<double>(t.lookups) / units;
  out.layer["core.section_evals"] = static_cast<double>(t.evals) / units;
  out.layer["core.worker_skew"] = median(t.skews);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"trace.profile_ms", "ms"},
      {"vcpu.minstr_per_s", "Minstr/s"},
      {"vcpu.instructions", "count"},
      {"cachesim.llc_misses", "count"},
      {"trace.raw_nodes", "count"},
      {"reuse.collect_ms", "ms"},
      {"reuse.project_ms", "ms"},
      {"tree.compress_ms", "ms"},
      {"tree.compress_ratio", "ratio"},
      {"tree.compressed_nodes", "count"},
      {"tree.compile_ms", "ms"},
      {"memmodel.calibrate_ms", "ms"},
      {"memmodel.annotate_ms", "ms"},
      {"machine.syn_ms", "ms"},
      {"machine.real_ms", "ms"},
      {"emul.ff_ms", "ms"},
      {"emul.suit_ms", "ms"},
      {"core.sweep_ms", "ms"},
      {"core.sweep_hit_rate", "ratio"},
      {"core.section_lookups", "count"},
      {"core.section_evals", "count"},
      {"core.worker_skew", "ratio"},
      {"core.advise_ms", "ms"},
      {"core.advise_cost_sweeps", "ratio"},
      {"serve.queue_wait_us.p50", "us"},
      {"serve.queue_wait_us.p99", "us"},
      {"serve.compute_us.hit.p50", "us"},
      {"serve.compute_us.miss.p50", "us"},
      {"serve.compute_us.miss.p99", "us"},
      {"serve.read_us.p99", "us"},
      {"serve.write_us.p99", "us"},
      {"serve.upload_us.p50", "us"},
      {"serve.cache_hit_rate", "ratio"},
      {"serve.shed", "count"},
      {"loadgen.late_ms.p99", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_pct", "%"},
      {"trace.units", "count"},
  };
  return kCatalog;
}

}  // namespace perfbench
