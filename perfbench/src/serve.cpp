// `serve` workload: an in-process daemon on a unix socket (two request
// workers plus the reactor) driven by one load-generator thread in a closed
// loop: one request is in flight at a time, sent on the two connections in
// turn, and the next one goes out as soon as the answer is back.
//
// Each request is timed by the CPU time the process spent from its send to
// its answer: with one request in flight that is the reactor's and the
// worker's work on it alone. On a shared host the wall time of the same
// request follows the other tenants' load through every thread wake-up on
// its way (the median ranged 0.2 to 1.1 ms between ten runs); its CPU time
// does not. Wall-clock figures are printed beside the result.
//
// The request schedule is drawn from the seed before the run (the same seed
// sends the same requests in the same order). Every block of 20 requests
// holds, in seeded order:
//   3 uploads of fresh trees (a profile-store write plus a compile)
//   4 sweeps that miss the result cache (a new tree x grid pair)
//  10 repeat sweeps that hit it
//   3 advise calls on a tree not advised before (the expensive tier)
// Uploads and hits are the cheap 65%, misses the next 20%, advise calls the
// top 15%: the median request is a cheap one and the p90 and p99 fall
// inside the advise calls, none of them on the boundary between two kinds.
// Set-up stores the first trees and caches one sweep of each, so the run
// starts in its steady mix. After the run every response is checked bit for
// bit against an in-process core::sweep / core::advise on the same tree.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/advise.hpp"
#include "memmodel/calibration.hpp"
#include "report/experiment.hpp"
#include "serve/profile_store.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tree/binary.hpp"
#include "tree/compress.hpp"
#include "util/rng.hpp"
#include "workloads/test_patterns.hpp"

namespace perfbench {

using namespace pprophet;

namespace {

enum class Kind : std::uint8_t { Upload, Miss, Hit, Advise };

/// The mix holds exactly in every block of kBlock requests.
constexpr std::array<Kind, 20> kBlock = {
    Kind::Upload, Kind::Upload, Kind::Upload, Kind::Miss,   Kind::Miss,
    Kind::Miss,   Kind::Miss,   Kind::Advise, Kind::Advise, Kind::Advise,
    Kind::Hit,    Kind::Hit,    Kind::Hit,    Kind::Hit,    Kind::Hit,
    Kind::Hit,    Kind::Hit,    Kind::Hit,    Kind::Hit,    Kind::Hit};
constexpr double kUploadShare = 3.0 / 20.0;
/// Upper bound on the requests per second the schedule is drawn for (near
/// 450 on an idle 4-core host); a run that gets through it stops early.
constexpr double kMaxRps = 1000.0;
/// Set-up stores this many trees, each with one cached sweep.
constexpr std::size_t kInitialTrees = 16;
/// Distinct tree shapes; upload i is shape i % kShapes with fresh counters.
/// Each of the 16 sizes of the shape ladder is drawn 16 times, so the
/// pool's cost mix and model accuracy barely move with the seed.
constexpr std::size_t kShapes = 256;
/// predm_err_pct is taken over the first this many sweeps of the schedule
/// (a fixed set per seed, however far the run gets; it spans every shape).
constexpr std::size_t kErrSweeps = 1024;
/// peak_rss_mb is read when this many requests have been answered: the
/// profile store and the result cache grow with every request, so a peak
/// at the end of the run would follow the server's speed.
constexpr std::size_t kRssAt = 3000;
constexpr CoreCount kCores = 12;
constexpr std::size_t kConns = 2;  ///< used in turn

/// The sweep grids a request can ask for (all PredM + Real at the paper
/// core counts, so every sweep response carries an accuracy sample).
struct Variant {
  core::Paradigm paradigm;
  runtime::OmpSchedule schedule;
};
const Variant kVariants[] = {
    {core::Paradigm::OpenMP, runtime::OmpSchedule::StaticCyclic},
    {core::Paradigm::OpenMP, runtime::OmpSchedule::Dynamic},
    {core::Paradigm::OpenMP, runtime::OmpSchedule::StaticBlock},
    {core::Paradigm::CilkPlus, runtime::OmpSchedule::StaticCyclic},
};
constexpr std::size_t kVariantCount = std::size(kVariants);

/// The load runs this long before the measured `seconds`: its requests are
/// sent and checked like the others but left out of the figures, so a slow
/// start (a host still busy from the previous run) does not land in them.
double warmup_s(const RunOptions& opt) { return std::min(2.0, opt.seconds / 5.0); }
/// The measured window is cut into this many equal parts; each figure is
/// the median of its value over the parts.
constexpr std::size_t kWindows = 5;

struct Request {
  Kind kind = Kind::Hit;
  std::size_t tree = 0;
  std::size_t variant = 0;
};

struct UploadTree {
  std::string pptb;
  std::string key;
};

/// A seeded tree small enough that an advise call stays in the tens of ms.
tree::ProgramTree serve_shape(util::Xoshiro256& rng, std::size_t i, bool tiny) {
  // Fixed shapes: every outer iteration nests an irregular inner loop, so
  // the tree's size (and so its pricing cost) follows the ladder over `i`,
  // not the seed.
  workloads::Test2Params p = workloads::random_test2(rng);
  p.k_max = tiny ? 3 : 4 + i % 4;
  p.inner.i_max = tiny ? 3 : 4 + (i / 4) % 4;
  p.nested_prob = 1.0;
  p.shape = p.inner.shape = workloads::WorkShape::Random;
  p.spread = p.inner.spread = 0.5;
  tree::ProgramTree t = workloads::run_test2(p);
  tree::compress(t);
  return t;
}

/// Draws the whole request schedule up front: `n` requests over `pool`
/// trees, the first kInitialTrees of them stored (and swept at variant 0)
/// by set-up. A request only names trees and sweeps of earlier requests,
/// which are answered before it is sent.
std::vector<Request> make_schedule(util::Xoshiro256& rng, std::size_t n, std::size_t pool) {
  std::vector<Request> out;
  out.reserve(n);
  std::size_t trees = kInitialTrees;  // stored so far
  std::vector<std::size_t> next_variant(pool, 0);
  std::vector<bool> advised(pool, false);
  // (tree, variant) pairs swept so far; set-up swept every initial tree at
  // its first variant.
  std::vector<std::pair<std::size_t, std::size_t>> swept;
  for (std::size_t t = 0; t < kInitialTrees; ++t) {
    swept.emplace_back(t, 0);
    next_variant[t] = 1;
  }
  std::array<Kind, kBlock.size()> block{};
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kBlock.size() == 0) {
      block = kBlock;
      for (std::size_t j = block.size() - 1; j > 0; --j) {
        std::swap(block[j], block[rng.uniform_u64(0, j)]);
      }
    }
    Request r;
    r.kind = block[i % block.size()];
    if (r.kind == Kind::Advise) {
      // The newest tree not advised yet.
      std::size_t t = trees;
      while (t > 0 && advised[t - 1]) --t;
      if (t == 0) throw std::logic_error("serve: no tree left to advise");
      r.tree = t - 1;
      advised[r.tree] = true;
    } else if (r.kind == Kind::Miss) {
      // The newest tree with a grid not swept yet.
      std::size_t t = trees;
      while (t > 0 && next_variant[t - 1] == kVariantCount) --t;
      if (t == 0) throw std::logic_error("serve: no sweep left to miss");
      r.tree = t - 1;
      r.variant = next_variant[r.tree]++;
      swept.emplace_back(r.tree, r.variant);
    } else if (r.kind == Kind::Upload) {
      if (trees == pool) throw std::logic_error("serve: upload pool exhausted");
      r.tree = trees++;
    } else {
      const auto& [t, v] = swept[rng.uniform_u64(0, swept.size() - 1)];
      r.tree = t;
      r.variant = v;
    }
    out.push_back(r);
  }
  return out;
}

serve::JsonValue sweep_request(const std::string& key, const Variant& v) {
  serve::JsonValue req;
  req.set("op", serve::JsonValue("sweep"));
  req.set("v", serve::JsonValue(serve::kProtocolVersion));
  req.set("key", serve::JsonValue(key));
  req.set("methods", serve::JsonValue(serve::JsonValue::Array{
                         serve::JsonValue("syn"), serve::JsonValue("real")}));
  req.set("paradigm", serve::JsonValue(serve::wire_name(v.paradigm)));
  req.set("schedule", serve::JsonValue(serve::wire_name(v.schedule)));
  serve::JsonValue::Array threads;
  for (const CoreCount t : report::paper_core_counts()) {
    threads.emplace_back(static_cast<std::uint64_t>(t));
  }
  req.set("threads", serve::JsonValue(std::move(threads)));
  req.set("cores", serve::JsonValue(static_cast<std::uint64_t>(kCores)));
  req.set("memory_model", serve::JsonValue(true));
  return req;
}

serve::JsonValue advise_request(const std::string& key) {
  serve::JsonValue req;
  req.set("op", serve::JsonValue("advise"));
  req.set("v", serve::JsonValue(serve::kProtocolVersion));
  req.set("key", serve::JsonValue(key));
  req.set("cores", serve::JsonValue(static_cast<std::uint64_t>(kCores)));
  req.set("memory_model", serve::JsonValue(true));
  return req;
}

serve::JsonValue upload_request(const UploadTree& t) {
  serve::JsonValue req;
  req.set("op", serve::JsonValue("upload"));
  req.set("v", serve::JsonValue(serve::kProtocolVersion));
  req.set("pptb", serve::JsonValue(serve::base64_encode(t.pptb)));
  return req;
}

/// A nonblocking unix-socket connection owned by the load generator.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("serve: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("serve: socket path too long");
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("serve: connect failed: " + std::string(std::strerror(errno)));
    }
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  bool wants_write() const { return !out_.empty(); }

  void send(std::string_view frame) {
    out_.append(frame);
    flush();
  }
  void flush() {
    while (!out_.empty()) {
      const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        throw std::runtime_error("serve: send failed");
      }
      out_.erase(0, static_cast<std::size_t>(n));
    }
  }
  /// Reads what is available; returns false when the server hung up.
  bool drain_input() {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        decoder_.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }
  bool next(std::string& payload) { return decoder_.next(payload); }

 private:
  int fd_ = -1;
  std::string out_;
  serve::FrameDecoder decoder_;
};

/// Blocking request/response on a Conn (set-up and the final stats read).
std::string call(Conn& c, const serve::JsonValue& req) {
  c.send(serve::encode_frame(serve::json_dump(req)));
  std::string payload;
  while (!c.next(payload)) {
    pollfd p{c.fd(), static_cast<short>(POLLIN | (c.wants_write() ? POLLOUT : 0)), 0};
    ::poll(&p, 1, 1000);
    c.flush();
    if (!c.drain_input()) throw std::runtime_error("serve: server hung up");
  }
  return payload;
}

struct Setup {
  std::vector<UploadTree> trees;
  std::vector<Request> schedule;
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<Conn>> conns;
};

Setup make_setup(const RunOptions& opt, const std::string& sock) {
  Setup s;
  const auto n = static_cast<std::size_t>(
      std::ceil(kMaxRps * (warmup_s(opt) + opt.seconds)));
  const std::size_t pool =
      kInitialTrees + static_cast<std::size_t>(std::ceil(static_cast<double>(n) * kUploadShare));
  util::Xoshiro256 rng(derive_seed(opt.seed, 300));
  std::vector<tree::ProgramTree> shapes;
  for (std::size_t i = 0; i < kShapes; ++i) shapes.push_back(serve_shape(rng, i, opt.tiny));
  // Tree i is shape i % kShapes with counters of its own, so every upload
  // is new content (a new store entry and new sweeps), at a cost that
  // follows the shape ladder.
  s.trees.reserve(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    tree::ProgramTree t;
    t.root = shapes[i % kShapes].root->clone();
    attach_counters(t, rng, i, memmodel::CalibrationOptions{}.dram_stall);
    UploadTree u;
    u.pptb = tree::to_binary(tree::pack(t));
    u.key = serve::content_key(u.pptb);
    s.trees.push_back(std::move(u));
  }
  util::Xoshiro256 mix(derive_seed(opt.seed, 301));
  s.schedule = make_schedule(mix, n, pool);

  serve::ServerConfig cfg;
  cfg.socket_path = sock;
  cfg.workers = pool_workers(2);
  cfg.sweep_workers = 1;
  cfg.default_cores = kCores;
  s.server = std::make_unique<serve::Server>(cfg);
  s.server->start();
  for (std::size_t i = 0; i < kConns; ++i) s.conns.push_back(std::make_unique<Conn>(sock));
  // Warm start: the initial trees are stored and each has one cached sweep,
  // so the run opens in its steady mix rather than with a cold cache.
  for (std::size_t i = 0; i < kInitialTrees; ++i) {
    const serve::JsonValue r = serve::json_parse(call(*s.conns[0], upload_request(s.trees[i])));
    if (!r.at("ok").as_bool() || r.at("key").as_string() != s.trees[i].key) {
      throw std::runtime_error("serve: set-up upload rejected");
    }
    const serve::JsonValue w =
        serve::json_parse(call(*s.conns[0], sweep_request(s.trees[i].key, kVariants[0])));
    if (!w.at("ok").as_bool()) throw std::runtime_error("serve: set-up sweep rejected");
  }
  return s;
}

void stop(Setup& s) {
  s.conns.clear();
  if (s.server) s.server->stop();
  s.server.reset();
}

/// In-process answers, computed the way the server computes them.
class Reference {
 public:
  explicit Reference(const std::vector<UploadTree>& trees) : trees_(trees) {}

  tree::ProgramTree annotated(std::size_t t, std::span<const CoreCount> threads,
                              const core::PredictOptions& base) const {
    tree::ProgramTree fresh = tree::unpack(tree::from_binary(trees_[t].pptb));
    memmodel::CalibrationOptions copts;
    copts.machine = base.machine;
    const memmodel::BurdenModel model(memmodel::calibrate(copts));
    memmodel::annotate_burdens(fresh, model, threads);
    return fresh;
  }

  const core::SweepResult& sweep(std::size_t t, std::size_t v) {
    auto it = sweeps_.find({t, v});
    if (it != sweeps_.end()) return it->second;
    core::SweepGrid grid;
    grid.methods = {core::Method::Synthesizer, core::Method::GroundTruth};
    grid.paradigms = {kVariants[v].paradigm};
    grid.schedules = {kVariants[v].schedule};
    grid.chunks = {1};
    grid.thread_counts = report::paper_core_counts();
    grid.memory_models = {true};
    grid.base = report::paper_options(core::Method::Synthesizer);
    grid.base.machine.cores = kCores;
    const tree::ProgramTree fresh = annotated(t, grid.thread_counts, grid.base);
    core::SweepOptions so;
    so.workers = pool_workers(2);  // cells do not depend on the worker count
    return sweeps_.emplace(std::make_pair(t, v), core::sweep(fresh, grid, so)).first->second;
  }

  core::Advice advise(std::size_t t) const {
    core::AdviseOptions ao;
    ao.base = report::paper_options(core::Method::Synthesizer);
    ao.grid.thread_counts = report::paper_core_counts();
    ao.grid.chunks.clear();
    ao.base.machine.cores = kCores;
    ao.base.memory_model = true;
    ao.sweep.workers = pool_workers(2);
    const tree::ProgramTree fresh = annotated(t, ao.grid.thread_counts, ao.base);
    return core::advise(fresh, ao);
  }

  const tree::ProgramTree& tree_at(std::size_t t) {
    auto it = unpacked_.find(t);
    if (it == unpacked_.end()) {
      it = unpacked_.emplace(t, tree::unpack(tree::from_binary(trees_[t].pptb))).first;
    }
    return it->second;
  }

 private:
  const std::vector<UploadTree>& trees_;
  std::map<std::pair<std::size_t, std::size_t>, core::SweepResult> sweeps_;
  std::map<std::size_t, tree::ProgramTree> unpacked_;
};

bool ok_response(const serve::JsonValue& r) {
  const serve::JsonValue* ok = r.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

bool sweep_matches(const serve::JsonValue& r, const core::SweepResult& want) {
  const serve::JsonValue::Array& cells = r.at("result").at("cells").as_array();
  if (cells.size() != want.cells.size()) return false;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const core::SpeedupEstimate& e = want.cells[i].estimate;
    if (cells[i].at("parallel_cycles").as_u64() != e.parallel_cycles ||
        cells[i].at("serial_cycles").as_u64() != e.serial_cycles ||
        cells[i].at("speedup").as_double() != e.speedup) {
      return false;
    }
  }
  return true;
}

bool candidate_matches(const serve::JsonValue& j, const core::Candidate& c) {
  return j.at("speedup").as_double() == c.speedup &&
         j.at("threads").as_u64() == c.threads &&
         j.at("paradigm").as_string() == serve::wire_name(c.paradigm) &&
         j.at("schedule").as_string() == serve::wire_name(c.schedule);
}

bool advise_matches(const serve::JsonValue& r, const core::Advice& a) {
  const serve::JsonValue& res = r.at("result");
  if (!candidate_matches(res.at("best"), a.best) ||
      !candidate_matches(res.at("economical"), a.economical) ||
      !candidate_matches(res.at("baseline"), a.baseline)) {
    return false;
  }
  const serve::JsonValue::Array& sweep = res.at("sweep").as_array();
  if (sweep.size() != a.configurations.size()) return false;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (!candidate_matches(sweep[i], a.configurations[i])) return false;
  }
  const serve::JsonValue::Array& actions = res.at("actions").as_array();
  if (actions.size() != a.actions.size()) return false;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (actions[i].at("kind").as_string() != core::to_string(a.actions[i].kind) ||
        actions[i].at("speedup_before").as_double() != a.actions[i].speedup_before ||
        actions[i].at("speedup_after").as_double() != a.actions[i].speedup_after) {
      return false;
    }
  }
  return true;
}

double hist_field(const serve::JsonValue& hists, const char* name, const char* field) {
  const serve::JsonValue* h = hists.find(name);
  if (h == nullptr) return 0.0;
  const serve::JsonValue* v = h->find(field);
  return v == nullptr ? 0.0 : v->as_double();
}

double counter(const serve::JsonValue& counters, const char* name) {
  const serve::JsonValue* v = counters.find(name);
  return v == nullptr ? 0.0 : v->as_double();
}

}  // namespace

Outcome run_serve(const RunOptions& opt, Tracer& tracer) {
  Outcome out;
  const std::string sock = opt.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  // Set-up (tree pool, schedule, daemon start, two connections, the initial
  // uploads) kSetupRepeats times; the last one serves the run.
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stop(s);
    const Stopwatch sw;
    s = make_setup(opt, sock);
    setup_s.push_back(sw.cpu_ms() / 1000.0);
  }

  const std::vector<Request>& sched = s.schedule;
  const std::size_t n = sched.size();
  // ready: when the request could have been sent (the previous answer was
  // in); sent and done: when it went out and when its answer was read.
  std::vector<Clock::time_point> ready(n), sent(n), done(n);
  std::vector<double> cpu_ms(n, 0.0);
  std::vector<bool> answered(n, false);
  std::vector<std::string> responses(n);
  std::optional<double> rss_mb;

  const auto start = Clock::now();
  const auto at = [&](double s_after) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s_after));
  };
  const double warmup = warmup_s(opt);
  const Clock::time_point measured_from = at(warmup), measured_to = at(warmup + opt.seconds);
  const Clock::time_point give_up = at(warmup + opt.seconds + 60.0);
  Clock::time_point free_since = start;
  std::size_t next = 0;  // the request in flight, or the next to send
  bool in_flight = false;
  double cpu_at_send = 0.0;
  for (;;) {
    const auto now = Clock::now();
    if (now > give_up) break;  // an unanswered request counts as failed
    Conn& conn = *s.conns[next % s.conns.size()];
    if (!in_flight) {
      if (now >= measured_to || next == n) break;
      const Request& r = sched[next];
      const UploadTree& t = s.trees[r.tree];
      const serve::JsonValue req = r.kind == Kind::Upload   ? upload_request(t)
                                   : r.kind == Kind::Advise ? advise_request(t.key)
                                                            : sweep_request(t.key, kVariants[r.variant]);
      const std::string frame = serve::encode_frame(serve::json_dump(req));
      ready[next] = free_since;
      // Stamped before the write: once the bytes are out, the server may
      // run before this thread does again.
      cpu_at_send = cpu_ms_now();
      sent[next] = Clock::now();
      conn.send(frame);
      in_flight = true;
    }
    pollfd p{conn.fd(), static_cast<short>(POLLIN | (conn.wants_write() ? POLLOUT : 0)), 0};
    const timespec wait{0, 50'000'000};
    ::ppoll(&p, 1, &wait, nullptr);
    if (p.revents & POLLOUT) conn.flush();
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      const bool alive = conn.drain_input();
      std::string payload;
      if (conn.next(payload)) {
        cpu_ms[next] = cpu_ms_now() - cpu_at_send;
        done[next] = free_since = Clock::now();
        answered[next] = true;
        responses[next] = std::move(payload);
        if (next + 1 == kRssAt) rss_mb = peak_rss_mb();
        ++next;
        in_flight = false;
      }
      if (!alive) throw std::runtime_error("serve: server hung up mid-run");
    }
  }
  const std::size_t issued = next + (in_flight ? 1 : 0);

  // Server-side stage histograms, read from outside through the stats op on
  // a connection of its own.
  serve::JsonValue stats_request;
  stats_request.set("op", serve::JsonValue("stats"));
  Conn stats_conn(sock);
  const serve::JsonValue stats = serve::json_parse(call(stats_conn, stats_request));
  // A run too short to reach kRssAt answers (the smoke test's) reads the
  // peak here, before the in-process reference adds its own.
  if (!rss_mb) rss_mb = peak_rss_mb();
  // Done with the server before the reference runs, so the reference does
  // not compete with the load for cores.
  stop(s);

  Reference ref(s.trees);
  int failures_shown = 0;
  static const char* const kKindName[] = {"upload", "sweep-miss", "sweep-hit", "advise"};
  for (std::size_t i = 0; i < issued; ++i) {
    const Request& r = sched[i];
    bool ok = answered[i];
    serve::JsonValue resp;
    if (ok) {
      resp = serve::json_parse(responses[i]);
      ok = ok_response(resp);
    }
    if (ok) {
      switch (r.kind) {
        case Kind::Upload: {
          const tree::ProgramTree& t = ref.tree_at(r.tree);
          ok = resp.at("key").as_string() == s.trees[r.tree].key &&
               resp.at("nodes").as_u64() == t.node_count() &&
               resp.at("serial_cycles").as_u64() == t.total_serial_cycles();
          break;
        }
        case Kind::Miss:
        case Kind::Hit:
          ok = sweep_matches(resp, ref.sweep(r.tree, r.variant));
          break;
        case Kind::Advise:
          ok = advise_matches(resp, ref.advise(r.tree));
          break;
      }
    }
    out.check("serve.response_identical", ok);
    if (!ok && ++failures_shown <= 5) {
      out.notes.push_back(std::string("serve.failure request ") + std::to_string(i) + " (" +
                          kKindName[static_cast<int>(r.kind)] + "): " +
                          (answered[i] ? responses[i].substr(0, 160) : "no response"));
    }
  }

  // |PredM - Real| / Real over the schedule's first kErrSweeps sweeps: a
  // fixed set per seed, priced in process whether or not the run got to
  // them.
  std::vector<double> errs;
  std::size_t err_sweeps = 0;
  for (std::size_t i = 0; i < n && err_sweeps < kErrSweeps; ++i) {
    if (sched[i].kind != Kind::Miss) continue;
    ++err_sweeps;
    const core::SweepResult& want = ref.sweep(sched[i].tree, sched[i].variant);
    // Cells: SYN (PredM) at each core count, then Real.
    const std::size_t tc = want.cells.size() / 2;
    for (std::size_t c = 0; c < tc; ++c) {
      const double predm = want.cells[c].estimate.speedup;
      const double real = want.cells[tc + c].estimate.speedup;
      errs.push_back(100.0 * std::abs(predm - real) / real);
    }
  }

  // The measured window, cut into kWindows parts by send time.
  const double window_s = opt.seconds / static_cast<double>(kWindows);
  struct Window {
    std::vector<double> cpu_ms, wall_ms;
  };
  std::array<Window, kWindows> windows;
  std::array<std::vector<double>, 4> kind_cpu, kind_wall;
  std::vector<double> late_ms, traced_cpu, untraced_cpu;
  double sum_span = 0.0, sum_late = 0.0;
  for (std::size_t i = 0; i < issued; ++i) {
    if (!answered[i]) continue;
    const double wall = ms_between(sent[i], done[i]);
    const double late = ms_between(ready[i], sent[i]);
    // Coverage sums run over every request, as the server's totals do.
    sum_span += ms_between(ready[i], done[i]);
    sum_late += late;
    if (sent[i] < measured_from || sent[i] >= measured_to) continue;
    const auto w = static_cast<std::size_t>(ms_between(measured_from, sent[i]) / 1000.0 / window_s);
    windows[std::min(w, kWindows - 1)].cpu_ms.push_back(cpu_ms[i]);
    windows[std::min(w, kWindows - 1)].wall_ms.push_back(wall);
    kind_cpu[static_cast<int>(sched[i].kind)].push_back(cpu_ms[i]);
    kind_wall[static_cast<int>(sched[i].kind)].push_back(wall);
    late_ms.push_back(late);
    // Traced runs record spans for every other block of the schedule, so
    // traced and untraced requests hold the same mix.
    const bool traced = opt.trace && (i / kBlock.size()) % 2 == 1;
    (traced ? traced_cpu : untraced_cpu).push_back(cpu_ms[i]);
    if (traced) {
      tracer.set_enabled(true);
      tracer.set_query(i + 1);
      tracer.record("serve.request", ready[i], done[i]);
      tracer.record("loadgen.late", ready[i], sent[i], tracer.last_index());
      tracer.set_enabled(false);
    }
  }

  const serve::JsonValue& metrics = stats.at("stats").at("metrics");
  const serve::JsonValue& hists = metrics.at("histograms");
  const serve::JsonValue& counters = metrics.at("counters");
  const double hits = counter(counters, "serve.cache.hits");
  const double misses = counter(counters, "serve.cache.misses");
  const auto pcts = [](const std::vector<double>& v) {
    return "p50 " + std::to_string(quantile(v, 0.5)) + " ms, p90 " +
           std::to_string(quantile(v, 0.9)) + " ms, p99 " + std::to_string(quantile(v, 0.99)) +
           " ms";
  };
  for (int k = 0; k < 4; ++k) {
    out.notes.push_back(std::string("serve.latency ") + kKindName[k] + ": " +
                        std::to_string(kind_cpu[k].size()) + " requests, CPU " +
                        pcts(kind_cpu[k]) + "; wall " + pcts(kind_wall[k]));
  }
  // Each figure is the median of its value over the windows.
  const auto windowed = [&](auto value) {
    std::vector<double> per;
    for (const Window& w : windows) {
      if (!w.cpu_ms.empty()) per.push_back(value(w));
    }
    return median(per);
  };
  const auto cpu_q = [&](double q) {
    return windowed([q](const Window& w) { return quantile(w.cpu_ms, q); });
  };
  const auto wall_q = [&](double q) {
    return windowed([q](const Window& w) { return quantile(w.wall_ms, q); });
  };
  std::size_t measured = 0;
  for (const Window& w : windows) measured += w.cpu_ms.size();
  const double wall_rps = windowed([&](const Window& w) {
    return static_cast<double>(w.wall_ms.size()) / window_s;
  });
  out.notes.push_back("serve.load closed loop, one request in flight on " +
                      std::to_string(kConns) + " connections in turn: " +
                      std::to_string(issued) + " requests sent, " + std::to_string(measured) +
                      " in the measured window after the " + std::to_string(warmup) +
                      " s warm-up" + (issued == n ? " (schedule used up: the run ended early)" : ""));
  out.notes.push_back("serve.wall send-to-answer p50 " + std::to_string(wall_q(0.5)) + " ms, p90 " +
                      std::to_string(wall_q(0.9)) + " ms, p99 " + std::to_string(wall_q(0.99)) +
                      " ms; " + std::to_string(wall_rps) + " requests per wall second");
  out.notes.push_back("serve.cache_hit_rate " + std::to_string(hits / std::max(1.0, hits + misses)) +
                      " (mix: 50% repeat sweeps of all requests)");
  // A closed loop cannot build a backlog: one request waits at a time.
  out.notes.push_back("loadgen.late_ms.p99 " + std::to_string(quantile(late_ms, 0.99)) +
                      ", backlog_growing no (closed loop, one request in flight)");

  out.add("setup_s", median(setup_s), "s");
  // Requests answered per second of the process's CPU time.
  out.add("ops_per_s", windowed([](const Window& w) {
            double sum = 0.0;
            for (const double c : w.cpu_ms) sum += c;
            return static_cast<double>(w.cpu_ms.size()) / (sum / 1000.0);
          }),
          "1/s");
  out.add("latency_ms.p50", cpu_q(0.50), "ms");
  out.add("latency_ms.p90", cpu_q(0.90), "ms");
  out.add("latency_ms.p99", cpu_q(0.99), "ms");
  add_accuracy(out, errs);
  out.add("peak_rss_mb", *rss_mb, "MB");

  if (opt.trace) {
    // The stage histograms partition each request's daemon time exactly, so
    // the timed layers account for the client-observed time up to the
    // socket hops and thread wake-ups between the load generator and the
    // reactor: coverage = (lateness + daemon total) / (answer - ready),
    // summed. Those hops can only be timed from inside the daemon, so this
    // coverage is reported but not gated.
    const double server_total_ms = hist_field(hists, "serve.total_us", "total") / 1000.0;
    out.layer["trace.coverage"] = (sum_late + server_total_ms) / sum_span;
    out.coverage_gated = false;
    out.coverage_note =
        "the rest is the socket hop and wake-ups between the load generator and the "
        "reactor, which only spans inside the daemon can time";
    out.layer["trace.units"] = static_cast<double>(traced_cpu.size());
    out.layer["trace.overhead_pct"] = 100.0 * (median(traced_cpu) / median(untraced_cpu) - 1.0);
    out.layer["serve.queue_wait_us.p50"] = hist_field(hists, "serve.queue_wait_us", "p50");
    out.layer["serve.queue_wait_us.p99"] = hist_field(hists, "serve.queue_wait_us", "p99");
    out.layer["serve.compute_us.hit.p50"] = hist_field(hists, "serve.compute_us.hit", "p50");
    out.layer["serve.compute_us.miss.p50"] = hist_field(hists, "serve.compute_us.miss", "p50");
    out.layer["serve.compute_us.miss.p99"] = hist_field(hists, "serve.compute_us.miss", "p99");
    out.layer["serve.read_us.p99"] = hist_field(hists, "serve.read_us", "p99");
    out.layer["serve.write_us.p99"] = hist_field(hists, "serve.write_us", "p99");
    out.layer["serve.upload_us.p50"] = hist_field(hists, "serve.total_us.upload", "p50");
    out.layer["serve.cache_hit_rate"] = hits / std::max(1.0, hits + misses);
    out.layer["serve.shed"] =
        counter(counters, "serve.shed.expensive") + counter(counters, "serve.shed.full");
    out.layer["loadgen.late_ms.p99"] = quantile(late_ms, 0.99);
  }
  return out;
}

}  // namespace perfbench
