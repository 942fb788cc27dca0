// perfbench runner: one workload per invocation.
//
//   pp_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//
// Run from the repository root: result and span files go to .bench_out/.
// Prints host context, every correctness check, and every metric as
// human-readable lines, then as its last line one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). perfbench/README.md explains the workloads.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/json_escape.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using pprophet::util::json_quote;

struct HostContext {
  unsigned nproc = 1;
  double spin_slowdown = 1.0;  ///< nproc spinning threads vs one, wall ratio
  double effective_parallelism = 1.0;
  std::string compiler = __VERSION__;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string commit;
  std::string source_digest;
};

double spin_ms(unsigned threads) {
  const auto work = [] {
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return ms_between(t0, Clock::now());
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

/// Effective parallelism from a spin probe: the same fixed spin on one
/// thread, then on every core at once. On an idle host the two take equal
/// time; a shared host shows its contention as a slowdown.
HostContext probe_host() {
  HostContext h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  const double one = std::min(spin_ms(1), spin_ms(1));
  const double all = spin_ms(h.nproc);
  h.spin_slowdown = all / one;
  h.effective_parallelism = static_cast<double>(h.nproc) / h.spin_slowdown;
  h.commit = env_or("PERFBENCH_COMMIT", "unknown");
  h.source_digest = env_or("PERFBENCH_SOURCE_DIGEST", "unknown");
  return h;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string host_json(const HostContext& h, const RunOptions& o) {
  std::ostringstream s;
  s << "{\"nproc\":" << h.nproc << ",\"spin_slowdown\":" << num(h.spin_slowdown)
    << ",\"effective_parallelism\":" << num(h.effective_parallelism)
    << ",\"compiler\":" << json_quote(h.compiler)
    << ",\"build_type\":" << json_quote(h.build_type)
    << ",\"commit\":" << json_quote(h.commit)
    << ",\"source_digest\":" << json_quote(h.source_digest)
    << ",\"workload\":" << json_quote(o.workload) << ",\"seed\":" << o.seed
    << ",\"seconds\":" << num(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
    << ",\"tiny\":" << (o.tiny ? 1 : 0) << "}";
  return s.str();
}

/// The names the end-to-end metrics carry in the benchmark's documentation
/// (workload-qualified), printed beside the generic ones.
std::string doc_name(const std::string& workload, const std::string& metric) {
  if (metric == "ops_per_s") {
    if (workload == "suite") return "suite.kernels_per_s";
    if (workload == "whatif") return "whatif.points_per_s";
    return workload + ".requests_per_s";
  }
  if (workload == "serve" && metric.rfind("latency_ms.", 0) == 0) {
    return workload + "." + metric.substr(11) + "_ms";
  }
  return workload + "." + metric;
}

int usage(const char* why) {
  std::cerr << "pp_perfbench: " << why << "\n"
            << "usage: pp_perfbench --workload suite|whatif|serve"
               " --seed N --seconds S --trace 0|1 [--tiny]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  opt.out_dir = ".bench_out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  std::filesystem::create_directories(opt.out_dir);

  std::cout << "run workload " << opt.workload << ", seed " << opt.seed << ", "
            << num(opt.seconds) << " s, trace " << (opt.trace ? 1 : 0) << std::endl;
  Tracer tracer;
  Outcome out;
  try {
    if (opt.workload == "suite") {
      out = run_suite(opt, tracer);
    } else if (opt.workload == "whatif") {
      out = run_whatif(opt, tracer);
    } else if (opt.workload == "serve") {
      out = run_serve(opt, tracer);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "pp_perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  if (std::none_of(out.metrics.begin(), out.metrics.end(),
                   [](const Metric& m) { return m.name == "peak_rss_mb"; })) {
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
  }

  // Probed after the measurement: the all-core spin would otherwise eat
  // into the CPU time the host grants the first seconds of the run.
  const HostContext host = probe_host();
  std::cout << "host nproc " << host.nproc << ", spin probe " << host.nproc
            << " threads " << num(host.spin_slowdown)
            << "x the time of 1 (effective parallelism "
            << num(host.effective_parallelism) << ")\n"
            << "host compiler " << host.compiler << ", build " << host.build_type
            << ", commit " << host.commit << ", source " << host.source_digest << "\n";

  for (const std::string& note : out.notes) std::cout << note << "\n";
  for (const auto& [name, counts] : out.checks) {
    std::cout << "check " << name << ": " << counts.first << " checked, "
              << counts.second << " failed\n";
  }
  std::cout << "failed_share " << opt.workload << " "
            << num(out.attempted == 0 ? 1.0
                                      : static_cast<double>(out.failed) /
                                            static_cast<double>(out.attempted))
            << " (" << out.failed << " of " << out.attempted << ")\n";

  bool correct = out.failed == 0 && out.attempted > 0 && !out.checks.empty();
  std::vector<Metric> printed;
  if (opt.trace) {
    for (const auto& [name, unit] : per_layer_catalog()) {
      const auto it = out.layer.find(name);
      printed.push_back({name, it == out.layer.end() ? 0.0 : it->second, unit});
    }
    const double coverage = out.layer["trace.coverage"];
    if (out.coverage_gated) {
      const bool covered = coverage >= 0.95;
      std::cout << "check trace.coverage: layer spans cover " << num(100.0 * coverage)
                << "% of the work units' wall time (gate 95%): "
                << (covered ? "ok" : "FAILED") << "\n";
      correct = correct && covered;
    } else {
      std::cout << "trace.coverage: timed layers cover " << num(100.0 * coverage)
                << "% of the work units' wall time (reported, not gated: "
                << out.coverage_note << ")\n";
    }
  } else {
    printed = out.metrics;
  }
  for (const Metric& m : printed) {
    if (!std::isfinite(m.value)) correct = false;
    std::cout << "metric " << (opt.trace ? m.name : doc_name(opt.workload, m.name))
              << " " << num(m.value) << " " << m.unit << "\n";
  }

  const std::string context = host_json(host, opt);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0");
  std::ostringstream result;
  result << "{\"correct\":" << (correct ? "true" : "false")
         << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
         << ",\"metrics\":{";
  for (std::size_t i = 0; i < printed.size(); ++i) {
    const Metric& m = printed[i];
    if (i > 0) result << ",";
    result << json_quote(m.name) << ":{\"value\":"
           << num(std::isfinite(m.value) ? m.value : 0.0)
           << ",\"unit\":" << json_quote(m.unit) << "}";
  }
  result << "}}";
  // Host context beside every result, and the spans of a traced run.
  std::ofstream(stem + ".json") << "{\"context\":" << context
                                << ",\"result\":" << result.str() << "}\n";
  if (opt.trace && !tracer.write(stem + "-spans.json", context)) {
    std::cerr << "pp_perfbench: could not write " << stem << "-spans.json\n";
  }
  std::cout << result.str() << std::endl;
  return 0;
}
