// Load bench for the prediction service (docs/SERVE.md): an in-process
// daemon serving both transports (unix-domain socket + 127.0.0.1 TCP), hit
// by PP_CLIENTS concurrent client threads per transport, each firing
// PP_REQS requests drawn from a small sweep-request mix so the result cache
// sees both cold misses and steady-state hits. Reports throughput and
// latency percentiles per transport, writes BENCH_serve.json (including the
// server-side per-stage breakdown), and self-checks every response
// against an in-process core::sweep over the same tree — exiting nonzero on
// any mismatch, so it doubles as a ctest.
//
// Client-observed latency uses obs::Histogram — one per client thread,
// merged at the end (the same mergeable-quantile substrate the serve path
// records into) — instead of collecting and sorting every sample.
//
// Env knobs: PP_CLIENTS (default 128 per transport), PP_REQS (default 8 per
// client), PP_SERVE_WORKERS (default 4), PP_SEED. PP_SMOKE=1 shrinks the
// fleet to 16 clients for `ctest -L perf`; the bit-identity and
// stage-reconciliation gates still run in full.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "obs/histogram.hpp"
#include "report/experiment.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tree/binary.hpp"
#include "tree/compress.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads/test_patterns.hpp"

using namespace pprophet;

namespace {

struct RequestKind {
  const char* label;
  std::vector<core::Method> methods;
  std::vector<runtime::OmpSchedule> schedules;
  std::vector<CoreCount> threads;
};

serve::JsonValue build_request(const RequestKind& kind,
                               const std::string& key) {
  serve::JsonValue req;
  req.set("op", serve::JsonValue("sweep"));
  req.set("key", serve::JsonValue(key));
  serve::JsonValue::Array methods, schedules, threads;
  for (const auto m : kind.methods) {
    methods.emplace_back(serve::wire_name(m));
  }
  for (const auto s : kind.schedules) {
    schedules.emplace_back(serve::wire_name(s));
  }
  for (const auto t : kind.threads) {
    threads.emplace_back(static_cast<std::uint64_t>(t));
  }
  req.set("methods", serve::JsonValue(std::move(methods)));
  req.set("schedules", serve::JsonValue(std::move(schedules)));
  req.set("threads", serve::JsonValue(std::move(threads)));
  req.set("cores", serve::JsonValue(std::uint64_t{12}));
  return req;
}

core::SweepResult reference_sweep(const tree::ProgramTree& tree,
                                  const RequestKind& kind) {
  core::SweepGrid grid;
  grid.methods = kind.methods;
  grid.paradigms = {core::Paradigm::OpenMP};
  grid.schedules = kind.schedules;
  grid.chunks = {1};
  grid.thread_counts = kind.threads;
  grid.memory_models = {false};
  grid.base = report::paper_options(kind.methods.front());
  grid.base.machine.cores = 12;
  return core::sweep(tree, grid);
}

bool matches(const serve::JsonValue& response,
             const core::SweepResult& expected) {
  const serve::JsonValue* ok = response.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return false;
  const serve::JsonValue::Array& cells =
      response.at("result").at("cells").as_array();
  if (cells.size() != expected.cells.size()) return false;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& want = expected.cells[i].estimate;
    if (cells[i].at("parallel_cycles").as_u64() != want.parallel_cycles ||
        cells[i].at("serial_cycles").as_u64() != want.serial_cycles ||
        cells[i].at("speedup").as_double() != want.speedup) {
      return false;
    }
  }
  return true;
}

double us_to_ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

/// Quantile summary of a server-side stage histogram as a JSON object
/// (counts + microsecond quantiles), for the per-stage section of
/// BENCH_serve.json.
serve::JsonValue stage_json(const obs::HistogramSnapshot& h) {
  serve::JsonValue v;
  v.set("count", serve::JsonValue(h.count));
  v.set("total_us", serve::JsonValue(h.total));
  v.set("p50_us", serve::JsonValue(h.quantile(0.50)));
  v.set("p90_us", serve::JsonValue(h.quantile(0.90)));
  v.set("p99_us", serve::JsonValue(h.quantile(0.99)));
  v.set("max_us", serve::JsonValue(h.max));
  return v;
}

/// One full load round against `endpoint` (unix path or HOST:PORT — the
/// client dispatches on shape): its own server instance so stats, cache
/// state, and the stage-reconciliation gate are per-transport.
struct TransportResult {
  std::string name;
  double rps = 0.0;
  double p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0, max_ms = 0.0;
  std::uint64_t requests = 0;
  long mismatches = 0;
  serve::ServerStatsSnapshot stats;
  serve::JsonValue stage_obj;
  bool stages_reconcile = false;
  bool uploads_deduped = false;
};

TransportResult run_transport(const char* name, bool use_tcp, long clients,
                              long reqs, long workers,
                              const std::string& pptb,
                              const std::vector<RequestKind>& kinds,
                              const std::vector<core::SweepResult>& expected) {
  serve::ServerConfig cfg;
  cfg.socket_path = std::string("/tmp/pp_bench_serve_") + name + ".sock";
  if (use_tcp) cfg.listen_tcp = "127.0.0.1:0";
  cfg.workers = static_cast<std::size_t>(workers);
  cfg.sweep_workers = 1;
  // Headroom above the client count: this bench measures latency under
  // load, not the shedding tiers (test_reactor.cpp covers those).
  cfg.queue_limit = static_cast<std::size_t>(clients) * 4;
  serve::Server server(cfg);
  server.start();
  const std::string endpoint =
      use_tcp ? "127.0.0.1:" + std::to_string(server.tcp_port())
              : cfg.socket_path;

  std::vector<obs::Histogram> local_hist(static_cast<std::size_t>(clients));
  std::vector<long> local_bad(static_cast<std::size_t>(clients), 0);
  const auto bench_start = std::chrono::steady_clock::now();

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (long c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      serve::Client client;
      client.connect_endpoint(endpoint);
      const std::string key = client.upload(pptb);
      obs::Histogram& hist = local_hist[static_cast<std::size_t>(c)];
      long bad = 0;
      for (long r = 0; r < reqs; ++r) {
        const std::size_t k = static_cast<std::size_t>(c + r) % kinds.size();
        const auto t0 = std::chrono::steady_clock::now();
        const serve::JsonValue resp =
            client.call(build_request(kinds[k], key));
        hist.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
        if (!matches(resp, expected[k])) ++bad;
      }
      local_bad[static_cast<std::size_t>(c)] = bad;
    });
  }
  for (auto& th : pool) th.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  TransportResult out;
  out.name = name;
  // Snapshot stats only after stop(): a client can read its last response
  // bytes before the reactor thread finishes recording that request's stage
  // histograms, and a mid-record snapshot breaks the exact stage
  // reconciliation gated below. stop() joins the reactor and workers.
  server.stop();
  out.stats = server.stats();

  obs::Histogram merged;
  for (long c = 0; c < clients; ++c) {
    merged.merge(local_hist[static_cast<std::size_t>(c)]);
    out.mismatches += local_bad[static_cast<std::size_t>(c)];
  }
  const obs::HistogramSnapshot lat = merged.snapshot();
  out.requests = lat.count;
  out.p50_ms = us_to_ms(lat.quantile(0.50));
  out.p90_ms = us_to_ms(lat.quantile(0.90));
  out.p99_ms = us_to_ms(lat.quantile(0.99));
  out.max_ms = us_to_ms(lat.max);
  out.rps = wall_s > 0.0 ? static_cast<double>(lat.count) / wall_s : 0.0;
  out.uploads_deduped = out.stats.stored_trees == 1;

  std::uint64_t stage_sum = 0, total_sum = 0;
  for (const auto& [hname, h] : out.stats.metrics.histograms) {
    if (hname.rfind("serve.", 0) == 0 && h.count > 0) {
      out.stage_obj.set(hname, stage_json(h));
    }
    if (hname == "serve.total_us") total_sum = h.total;
    if (hname == "serve.read_us" || hname == "serve.queue_wait_us" ||
        hname == "serve.compute_us" || hname == "serve.write_us" ||
        hname == "serve.other_us") {
      stage_sum += h.total;
    }
  }
  out.stages_reconcile = stage_sum == total_sum;
  return out;
}

serve::JsonValue transport_json(const TransportResult& t) {
  serve::JsonValue v;
  v.set("requests", serve::JsonValue(t.requests));
  v.set("throughput_rps", serve::JsonValue(t.rps));
  v.set("p50_ms", serve::JsonValue(t.p50_ms));
  v.set("p90_ms", serve::JsonValue(t.p90_ms));
  v.set("p99_ms", serve::JsonValue(t.p99_ms));
  v.set("max_ms", serve::JsonValue(t.max_ms));
  v.set("cache_hits", serve::JsonValue(t.stats.cache.hits));
  v.set("cache_misses", serve::JsonValue(t.stats.cache.misses));
  v.set("cache_hit_rate", serve::JsonValue(t.stats.cache.hit_rate()));
  v.set("uploads_deduped", serve::JsonValue(t.uploads_deduped));
  v.set("mismatches", serve::JsonValue(t.mismatches));
  v.set("stages", serve::JsonValue(t.stage_obj));
  return v;
}

}  // namespace

int main() {
  const bool smoke = util::env_long("PP_SMOKE", 0) != 0;
  const long clients = util::env_long("PP_CLIENTS", smoke ? 16 : 128);
  const long reqs = util::env_long("PP_REQS", smoke ? 4 : 8);
  const long workers = util::env_long("PP_SERVE_WORKERS", 4);
  const long seed = util::env_long("PP_SEED", 2012);
  report::print_header(
      std::cout, "Prediction service throughput (PP_CLIENTS=" +
                     std::to_string(clients) + " per transport, PP_REQS=" +
                     std::to_string(reqs) + " per client)");

  util::Xoshiro256 rng(static_cast<std::uint64_t>(seed));
  tree::ProgramTree t = workloads::run_test2(workloads::random_test2(rng));
  tree::compress(t);
  const std::string pptb = tree::to_binary(tree::pack(t));
  std::cout << "tree: " << t.node_count() << " nodes, upload "
            << pptb.size() << " bytes\n";

  // A small request mix: distinct cache keys, so the steady state is a
  // blend of hits (repeat kinds) and misses (first touch per kind).
  const std::vector<RequestKind> kinds = {
      {"syn-static1", {core::Method::Synthesizer},
       {runtime::OmpSchedule::StaticCyclic}, {2, 4, 8, 12}},
      {"ff-dynamic", {core::Method::FastForward},
       {runtime::OmpSchedule::Dynamic}, {2, 4, 8}},
      {"multi-method", {core::Method::FastForward, core::Method::Synthesizer},
       {runtime::OmpSchedule::StaticCyclic, runtime::OmpSchedule::StaticBlock},
       {2, 4, 6, 8, 10, 12}},
      {"suit-guided", {core::Method::Suitability},
       {runtime::OmpSchedule::Guided}, {4, 8}},
  };
  const tree::ProgramTree reference = tree::unpack(tree::from_binary(pptb));
  std::vector<core::SweepResult> expected;
  expected.reserve(kinds.size());
  for (const RequestKind& kind : kinds) {
    expected.push_back(reference_sweep(reference, kind));
  }

  const TransportResult runs[2] = {
      run_transport("unix", false, clients, reqs, workers, pptb, kinds,
                    expected),
      run_transport("tcp", true, clients, reqs, workers, pptb, kinds,
                    expected),
  };

  util::Table table({"transport", "requests", "req/s", "p50 ms", "p90 ms",
                     "p99 ms", "cache hit", "mismatches"});
  for (const TransportResult& r : runs) {
    table.add_row({r.name, std::to_string(r.requests), util::fmt_f(r.rps, 1),
                   util::fmt_f(r.p50_ms, 3), util::fmt_f(r.p90_ms, 3),
                   util::fmt_f(r.p99_ms, 3),
                   util::fmt_pct(r.stats.cache.hit_rate()),
                   std::to_string(r.mismatches)});
  }
  table.print(std::cout);

  serve::JsonValue out;
  out.set("bench", serve::JsonValue("serve_throughput"));
  out.set("clients_per_transport", serve::JsonValue(clients));
  out.set("requests_per_client", serve::JsonValue(reqs));
  out.set("serve_workers", serve::JsonValue(workers));
  out.set("smoke", serve::JsonValue(smoke));
  for (const TransportResult& r : runs) {
    out.set(r.name, transport_json(r));
  }
  std::ofstream f("BENCH_serve.json");
  f << serve::json_dump(out) << "\n";
  f.close();
  std::cout << "wrote BENCH_serve.json\n";

  int rc = 0;
  for (const TransportResult& r : runs) {
    if (r.mismatches > 0) {
      std::cerr << "FAIL: " << r.name << ": " << r.mismatches
                << " responses differed from in-process core::sweep\n";
      rc = 1;
    }
    if (!r.uploads_deduped) {
      std::cerr << "FAIL: " << r.name << ": " << r.stats.stored_trees
                << " stored trees after identical uploads (expected 1)\n";
      rc = 1;
    }
    if (r.stats.cache.hits == 0) {
      std::cerr << "FAIL: " << r.name
                << ": result cache never hit under a repeating mix\n";
      rc = 1;
    }
    // The serve-path stage histograms must reconcile exactly: every
    // finished request's stages partition its total (request_trace.hpp).
    if (!r.stages_reconcile) {
      std::cerr << "FAIL: " << r.name
                << ": stage totals do not reconcile with serve.total_us\n";
      rc = 1;
    }
  }
  if (rc == 0) {
    std::cout << "OK: all responses on both transports bit-identical to "
                 "in-process sweep; stage totals reconcile\n";
  }
  return rc;
}
