// edge_serve: net::EdgeServer on loopback (Cafe, 1 paper-TB, 2 shards,
// 1 event loop, 1 pool worker) fed the Europe profile at a pinned 0.25
// req/s over 30 days (the bench_net_loopback trace, 650K requests) over one
// connection. A run draws that trace kDraws times from seeds split off its
// own seed.
//
//   capacity  net::RunClosedLoop, pipeline 1024: each daemon serves one whole
//             draw in windows of 25K requests, daemon and client on one CPU.
//             Closed-loop responses over the summed wall of every window
//             but each daemon's first, which warms its cache.
//   ladder    open loop from the benchmark's own client on one fresh daemon:
//             fixed offered rates, each request timed from when it was due,
//             so a stall is charged to every request it delays. The limit
//             is p90 <= 1 ms (p99 does not repeat on a virtual machine); a
//             rung whose backlog grows fails it whatever its latency.
//   fixed     the low and the high fixed rates, repeated on the ladder's
//             daemon after the ladder (warm cache).
//
// Independent viewers arrive open-loop; at the low rate every drain holds
// about one request, so the cache's batch path is bypassed there.
#include <sched.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "probes.h"
#include "src/core/cache_factory.h"
#include "src/exec/thread_pool.h"
#include "src/net/edge_server.h"
#include "src/net/load_gen.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/obs/metrics.h"
#include "src/sim/decision_digest.h"
#include "src/sim/replay.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace vcdn;

constexpr size_t kShards = 2;
// Deep enough that the daemon never waits for the client: at pipeline 32 the
// closed loop is bound by thread wake-ups, and on a virtual machine its
// throughput swung 4x with the host's load while CPU per request moved 15%.
constexpr size_t kPipeline = 1024;
constexpr int kSetupRepeats = 3;
// Independent draws of the Europe trace per run: the cost of a Cafe decision
// depends on the draw (one draw's offline replay took 0.73-1.03x another's
// over twelve seeds), so a run averages several.
constexpr size_t kDraws = 4;
// At least one capacity turn per draw.
constexpr size_t kMinCapacityTurns = kDraws;
constexpr int kFixedRepeats = 3;
// Share of --seconds spent on the closed-loop capacity phase; the open-loop
// ladder and the fixed rates take a few seconds after it. Capacity swings
// with the host's load, so it is taken over as long a window as the run
// allows.
constexpr double kCapacityShare = 0.8;

// Each closed-loop call serves this many consecutive requests of a draw.
constexpr size_t kWindowRequests = 25000;
// The latency limit, on p90: p99 does not repeat within a tenth on a
// virtual machine (host preemption puts it at several ms at any rate).
constexpr double kLatencyLimitUs = 1000.0;
constexpr double kLowRate = 5000.0;
constexpr double kHighRate = 25000.0;  // below closed-loop capacity
constexpr double kFixedSeconds = 0.5;
// Ladder: geometric rates up to 1.6M req/s, past what one connection can
// carry. Each rung lasts kRungSeconds but sends between kMinRungRequests
// (so its p99 has 20 samples beyond it) and kMaxRungRequests (so the whole
// schedule fits in the trace).
constexpr double kLadderFirst = 2500.0;
constexpr double kLadderRatio = 1.5;
constexpr int kLadderRungs = 17;
constexpr double kRungSeconds = 0.25;
constexpr size_t kMinRungRequests = 2000;
constexpr size_t kMaxRungRequests = 60000;

trace::Trace MakeEuropeTrace(uint64_t seed) {
  trace::WorkloadConfig config;
  config.profile = trace::PaperServerProfiles(1.0)[0];  // Europe
  config.profile.base_request_rate = 0.25;
  config.seed = seed;
  config.duration_seconds = 30.0 * 86400.0;
  return trace::WorkloadGenerator(config).Generate().trace;
}

core::CacheConfig EdgeCacheConfig() {
  core::CacheConfig config;
  config.chunk_bytes = core::kDefaultChunkBytes;
  config.disk_capacity_chunks = 4096;  // 1 paper-TB at 4096 chunks per TB
  config.alpha_f2r = 2.0;
  return config;
}

size_t ShardOf(const trace::Request& request) {
  return static_cast<size_t>(request.video % kShards);
}

// The requests of trace[0, count) that the daemon routes to `shard`.
trace::Trace ShardSubsequence(const trace::Trace& trace, size_t count, size_t shard) {
  trace::Trace sub;
  sub.duration = trace.duration;
  for (size_t i = 0; i < count; ++i) {
    if (ShardOf(trace.requests[i]) == shard) {
      sub.requests.push_back(trace.requests[i]);
    }
  }
  return sub;
}

// Confines the calling thread, and every thread it starts while this object
// lives, to one CPU; restores the thread's CPU set on destruction. Each
// capacity daemon runs with its client this way: on a virtual machine,
// handing a request between CPUs costs a wake-up whose latency follows the
// host's load (it swung capacity 1.5-4x between runs), while on one CPU the
// closed loop is bound by the serve path's own work. Daemons rotate over the
// allowed CPUs, because one CPU's speed also drifts with what shares its
// host core.
class OneCpu {
 public:
  explicit OneCpu(size_t turn) {
    sched_getaffinity(0, sizeof(saved_), &saved_);
    std::vector<int> allowed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        allowed.push_back(cpu);
      }
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(allowed[turn % allowed.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  ~OneCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

struct Daemon {
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<net::EdgeServer> server;
};

Daemon StartDaemon(obs::MetricsRegistry* metrics, Report& report) {
  Daemon daemon;
  exec::ThreadPoolOptions pool_options;
  pool_options.num_threads = 1;
  pool_options.metrics = metrics;
  daemon.pool = std::make_unique<exec::ThreadPool>(pool_options);
  net::EdgeServerOptions options;
  options.num_shards = kShards;
  options.cache_kind = core::CacheKind::kCafe;
  options.cache_config = EdgeCacheConfig();
  options.idle_timeout = std::chrono::milliseconds(0);  // no sweep, no timer thread
  options.metrics = metrics;
  daemon.server = std::make_unique<net::EdgeServer>(*daemon.pool, options);
  const util::Status started = daemon.server->Start();
  if (!started.ok()) {
    report.Fail("edge server failed to start: " + started.ToString());
    daemon.server.reset();
  }
  return daemon;
}

void StopDaemon(Daemon& daemon) {
  if (daemon.server) {
    daemon.server->Stop();
  }
  if (daemon.pool) {
    daemon.pool->Shutdown();
  }
}

// What one shard must have served: sim::ReplayOutcomeDigest of its
// subsequence, and that subsequence's length.
struct ShardReference {
  uint64_t value = 0;
  uint64_t count = 0;
};

std::vector<ShardReference> OfflineDigests(const trace::Trace& trace, size_t count) {
  std::vector<ShardReference> refs;
  for (size_t s = 0; s < kShards; ++s) {
    const trace::Trace sub = ShardSubsequence(trace, count, s);
    refs.push_back({sim::ReplayOutcomeDigest(core::CacheKind::kCafe, EdgeCacheConfig(), sub),
                    sub.requests.size()});
  }
  return refs;
}

// Each shard's digest of the decisions a stopped daemon served.
std::vector<ShardReference> ServedDigests(const net::EdgeServer& server) {
  std::vector<ShardReference> served;
  for (size_t s = 0; s < kShards; ++s) {
    const net::EdgeServer::DigestSnapshot got = server.ShardDigest(s);
    served.push_back({got.value, got.count});
  }
  return served;
}

// Checks each shard's served-decision digest against the offline replay.
bool ShardDigestsMatch(const std::vector<ShardReference>& got,
                       const std::vector<ShardReference>& want, const char* what,
                       Report& report) {
  bool ok = true;
  for (size_t s = 0; s < kShards; ++s) {
    if (got[s].value != want[s].value || got[s].count != want[s].count) {
      report.Fail(std::string(what) + ": shard " + std::to_string(s) +
                  " digest differs from the offline replay");
      ok = false;
    }
  }
  return ok;
}

struct Rung {
  double rate = 0.0;
  size_t requests = 0;
  size_t answered = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double late_p99_us = 0.0;
  double backlog_max = 0.0;
  bool backlog_grows = false;
  double send_s = 0.0;
  double recv_s = 0.0;
  bool Meets() const {
    return answered == requests && !backlog_grows && p90_us <= kLatencyLimitUs;
  }
};

// One open-loop connection to the ladder daemon, driven by a single thread
// that busy-polls: it writes every request whose due time has passed and
// reads whatever responses have arrived, never sleeping (a sleeping thread
// wakes late on a virtual machine, and that lateness is charged to the
// request). Requests are taken from the trace in order, so the daemon's input
// is the same at every rate.
class OpenLoopClient {
 public:
  OpenLoopClient(net::Socket sock, const trace::Trace& trace)
      : sock_(std::move(sock)), trace_(trace), wire_(kShards) {}

  size_t cursor() const { return cursor_; }
  size_t remaining() const { return trace_.requests.size() - cursor_; }
  const std::vector<sim::OutcomeDigest>& wire_digests() const { return wire_; }

  Rung Run(double rate, size_t count);

 private:
  // Decodes the responses in in_; returns how many it matched.
  size_t Consume(size_t first, size_t count, Clock::time_point now);

  net::Socket sock_;
  const trace::Trace& trace_;
  size_t cursor_ = 0;
  // Per-shard digests of the responses as they arrive on the wire; the
  // daemon keeps each shard's responses in its decision order.
  std::vector<sim::OutcomeDigest> wire_;
  std::vector<Clock::time_point> due_;
  std::vector<double> latency_us_;
  net::WireBuffer in_{1 << 16};
  net::WireBuffer out_{1 << 14};
};

Rung OpenLoopClient::Run(double rate, size_t count) {
  Rung rung;
  rung.rate = rate;
  rung.requests = count;
  const size_t first = cursor_;
  due_.assign(count, Clock::time_point{});
  latency_us_.assign(count, 0.0);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  for (size_t i = 0; i < count; ++i) {
    due_[i] = start + std::chrono::nanoseconds(
                          static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate));
  }
  // A response that has not arrived 5 s after its request was due fails the
  // rung instead of hanging it.
  const Clock::time_point give_up = due_.back() + std::chrono::seconds(5);
  std::vector<double> late_us;
  late_us.reserve(count);
  std::vector<double> backlog;  // requests in flight at each write
  size_t sent = 0;
  size_t answered = 0;
  while (answered < count) {
    Clock::time_point now = Clock::now();
    if (now > give_up) {
      break;
    }
    if (sent < count && due_[sent] <= now) {
      while (sent < count && due_[sent] <= now) {
        const trace::Request& r = trace_.requests[first + sent];
        net::RequestFrame frame;
        frame.request_id = first + sent;
        frame.video = r.video;
        frame.byte_begin = r.byte_begin;
        frame.byte_end = r.byte_end;
        frame.arrival_time = r.arrival_time;
        net::AppendRequest(out_, frame);
        late_us.push_back(std::chrono::duration<double, std::micro>(now - due_[sent]).count());
        ++sent;
      }
      backlog.push_back(static_cast<double>(sent - answered));
      rung.backlog_max = std::max(rung.backlog_max, backlog.back());
    }
    if (out_.ReadableBytes() > 0) {
      const Clock::time_point t = Clock::now();
      const ssize_t n = ::send(sock_.fd(), out_.ReadPtr(), out_.ReadableBytes(),
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      rung.send_s += SecondsSince(t);
      if (n > 0) {
        out_.ConsumeRead(static_cast<size_t>(n));
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        break;
      }
    }
    in_.EnsureWritable(1 << 15);
    const Clock::time_point t = Clock::now();
    const ssize_t n = ::recv(sock_.fd(), in_.WritePtr(), in_.WritableBytes(), MSG_DONTWAIT);
    now = Clock::now();
    rung.recv_s += std::chrono::duration<double>(now - t).count();
    if (n > 0) {
      in_.CommitWrite(static_cast<size_t>(n));
      answered += Consume(first, count, now);
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      break;  // closed or reset: the rest stay unanswered
    }
  }
  rung.answered = answered;
  cursor_ = first + count;

  rung.p50_us = Quantile(latency_us_, 0.50);
  rung.p90_us = Quantile(latency_us_, 0.90);
  rung.p99_us = Quantile(latency_us_, 0.99);
  rung.late_p99_us = Quantile(late_us, 0.99);
  // The backlog grows when the last quarter of the rung holds clearly more
  // requests in flight than its first quarter: responses fall behind the
  // schedule instead of settling at rate x latency.
  const size_t quarter = backlog.size() / 4;
  if (quarter > 0) {
    double head = 0.0;
    double tail = 0.0;
    for (size_t i = 0; i < quarter; ++i) {
      head += backlog[i];
      tail += backlog[backlog.size() - 1 - i];
    }
    rung.backlog_grows = tail / static_cast<double>(quarter) >
                         2.0 * head / static_cast<double>(quarter) + 16.0;
  }
  return rung;
}

size_t OpenLoopClient::Consume(size_t first, size_t count, Clock::time_point now) {
  size_t matched = 0;
  net::DecodedFrame frame;
  for (;;) {
    const util::Result<size_t> decoded = net::DecodeFrame(in_, &frame);
    if (!decoded.ok() || decoded.value() == 0) {
      return matched;
    }
    const net::ResponseFrame& response = frame.response;
    if (frame.type != net::FrameType::kResponse || response.request_id < first ||
        response.request_id >= first + count) {
      continue;
    }
    const size_t i = response.request_id - first;
    latency_us_[i] = std::chrono::duration<double, std::micro>(now - due_[i]).count();
    wire_[ShardOf(trace_.requests[response.request_id])].FoldFields(
        response.decision, response.tier, response.requested_bytes, response.hit_chunks,
        response.filled_chunks, response.evicted_chunks);
    ++matched;
  }
}

size_t RungRequests(double rate, double seconds) {
  return std::clamp(static_cast<size_t>(rate * seconds), kMinRungRequests, kMaxRungRequests);
}

void PrintRung(const char* label, const Rung& r) {
  std::printf("%-8s %9.0f req/s  n=%-6zu p50 %8.1f us  p90 %8.1f us  p99 %8.1f us  "
              "late p99 %7.1f us  backlog max %5.0f%s  %s\n",
              label, r.rate, r.requests, r.p50_us, r.p90_us, r.p99_us, r.late_p99_us,
              r.backlog_max, r.backlog_grows ? " (grows)" : "", r.Meets() ? "ok" : "MISSES LIMIT");
}

}  // namespace

void RunEdgeServe(const Args& args, Report& report) {
  // Event loop + 1 pool worker + one client thread: RunClosedLoop's
  // connection thread, or the open-loop client (this thread).
  report.threads = 3;

  // ---- set-up, repeated: trace generation and daemon start ----
  std::vector<double> setup_s;
  std::vector<trace::Trace> traces;
  double catalog_mib = 0.0;
  double cache_mib = 0.0;
  for (int k = 0; k < kSetupRepeats; ++k) {
    traces.clear();
    const Clock::time_point start = Clock::now();
    const double rss0 = CurrentRssMib();
    for (size_t d = 0; d < kDraws; ++d) {
      traces.push_back(MakeEuropeTrace(util::SplitSeed(args.seed, d)));
    }
    const double rss1 = CurrentRssMib();
    Daemon daemon = StartDaemon(nullptr, report);
    setup_s.push_back(SecondsSince(start));
    if (k == 0) {
      catalog_mib = rss1 - rss0;
      cache_mib = CurrentRssMib() - rss1;
    }
    StopDaemon(daemon);
    if (!report.correct) {
      return;
    }
  }

  // ---- closed-loop capacity: one daemon per turn, each serving one draw
  // window by window ----
  // Summed over the timed windows of untraced daemons.
  double capacity_requests = 0.0;
  double capacity_wall_s = 0.0;
  double traced_requests = 0.0;
  double traced_wall_s = 0.0;
  std::vector<double> drains;  // requests per strand drain (traced daemons)
  // Offline Cafe cost on the same requests, measured after each traced
  // daemon on its CPU so net.overhead_ns_per_req compares like with like.
  std::vector<double> core_ns_per_req;
  double protocol_errors = 0.0;
  double serve_allocs = 0.0;
  double bytes_per_req = 0.0;
  // What each capacity daemon served, by draw; checked after the run.
  std::vector<std::pair<size_t, std::vector<ShardReference>>> served;
  size_t daemons = 0;
  trace::Trace window;
  const Clock::time_point measure_start = Clock::now();
  // Successive turns take the next draw and the next CPU; the CPU skips one
  // every kDraws turns so each draw meets every CPU. A traced daemon repeats
  // its turn's draw and CPU.
  auto closed_loop = [&](size_t turn, bool traced) {
    ++daemons;
    const trace::Trace& draw = traces[turn % kDraws];
    const OneCpu pin(turn + turn / kDraws);
    obs::MetricsRegistry registry;
    Daemon daemon = StartDaemon(traced ? &registry : nullptr, report);
    if (!daemon.server) {
      return false;
    }
    net::LoadGenOptions load;
    load.port = daemon.server->port();
    load.connections = 1;
    load.pipeline_depth = kPipeline;
    window.duration = draw.duration;
    for (size_t begin = 0; begin < draw.requests.size(); begin += kWindowRequests) {
      const size_t end = std::min(begin + kWindowRequests, draw.requests.size());
      window.requests.assign(draw.requests.begin() + static_cast<ptrdiff_t>(begin),
                             draw.requests.begin() + static_cast<ptrdiff_t>(end));
      const size_t count = end - begin;
      const util::Result<net::LoadGenResult> result = net::RunClosedLoop(window, load);
      report.attempted += count;
      if (!result.ok() || result.value().responses_received != count) {
        report.failed += count - (result.ok() ? result.value().responses_received : 0);
        report.Fail("closed loop left requests unanswered");
        StopDaemon(daemon);
        return false;
      }
      // The first window warms the daemon's cache.
      if (begin > 0) {
        (traced ? traced_requests : capacity_requests) += static_cast<double>(count);
        (traced ? traced_wall_s : capacity_wall_s) += result.value().elapsed_seconds;
      }
    }
    StopDaemon(daemon);
    if (traced) {
      auto counter = [&registry](const char* name) {
        return static_cast<double>(registry.CounterValue(name));
      };
      const double requests = counter("net.server.requests_total");
      drains.push_back(requests / counter("exec.strand.executed_total"));
      protocol_errors += counter("net.server.protocol_errors_total");
      serve_allocs = counter("net.server.serve_allocs_total") / requests;
      bytes_per_req =
          (counter("net.server.bytes_in_total") + counter("net.server.bytes_out_total")) /
          requests;
      LayerProbe offline;
      for (size_t s = 0; s < kShards; ++s) {
        TimedCache cache(core::MakeCache(core::CacheKind::kCafe, EdgeCacheConfig()), &offline);
        sim::Replay(cache, ShardSubsequence(draw, draw.requests.size(), s));
      }
      core_ns_per_req.push_back(1e9 * offline.decide_s / static_cast<double>(offline.requests));
    }
    served.emplace_back(turn % kDraws, ServedDigests(*daemon.server));
    return true;
  };
  for (size_t turn = 0; turn < kMinCapacityTurns ||
                         SecondsSince(measure_start) < kCapacityShare * args.seconds;
       ++turn) {
    if (!closed_loop(turn, false) || (args.trace && !closed_loop(turn, true))) {
      return;
    }
  }
  const double capacity = capacity_requests / capacity_wall_s;

  // The workload's peak before the ladder: its rungs past capacity queue
  // requests in the daemon's unbounded shard inboxes, so how far the ladder
  // climbs would set the peak.
  const double peak_rss_mib = PeakRssMib();

  // ---- open-loop ladder, then the fixed rates, on one daemon ----
  Daemon ladder_daemon = StartDaemon(nullptr, report);
  if (!ladder_daemon.server) {
    return;
  }
  util::Result<net::Socket> sock = net::ConnectTcp("127.0.0.1", ladder_daemon.server->port());
  if (!sock.ok()) {
    report.Fail("connecting to the ladder daemon failed: " + sock.status().ToString());
    StopDaemon(ladder_daemon);
    return;
  }
  OpenLoopClient client(std::move(sock).value(), traces[0]);
  std::vector<Rung> ladder;
  std::vector<Rung> low;
  std::vector<Rung> high;
  auto run = [&](double rate, double seconds, std::vector<Rung>& into) {
    const size_t count = RungRequests(rate, seconds);
    if (count > client.remaining()) {
      report.Fail("the trace is too short for the open-loop schedule");
      return false;
    }
    into.push_back(client.Run(rate, count));
    report.attempted += count;
    report.failed += count - into.back().answered;
    return into.back().answered == count;
  };
  double max_rate = 0.0;
  int misses_in_a_row = 0;
  double rate = kLadderFirst;
  for (int i = 0; i < kLadderRungs && misses_in_a_row < 2; ++i, rate *= kLadderRatio) {
    if (!run(rate, kRungSeconds, ladder)) {
      break;
    }
    PrintRung("ladder", ladder.back());
    if (ladder.back().Meets()) {
      max_rate = rate;
      misses_in_a_row = 0;
    } else {
      ++misses_in_a_row;
    }
  }
  for (int k = 0; k < kFixedRepeats && report.failed == 0; ++k) {
    if (!run(kLowRate, kFixedSeconds, low) || !run(kHighRate, kFixedSeconds, high)) {
      break;
    }
    PrintRung("low", low.back());
    PrintRung("high", high.back());
  }
  const size_t sent = client.cursor();
  StopDaemon(ladder_daemon);

  // ---- output checks: every daemon served the offline decisions ----
  // The offline replays run here, after the workload's peak was taken, one
  // thread per draw (kDraws <= nproc, and nothing else runs now).
  std::vector<std::vector<ShardReference>> capacity_ref(kDraws);
  {
    std::vector<std::thread> replays;
    for (size_t d = 0; d < kDraws; ++d) {
      replays.emplace_back([&traces, &capacity_ref, d] {
        capacity_ref[d] = OfflineDigests(traces[d], traces[d].requests.size());
      });
    }
    for (std::thread& replay : replays) {
      replay.join();
    }
  }
  for (const auto& [draw, digests] : served) {
    if (!ShardDigestsMatch(digests, capacity_ref[draw], "closed loop", report)) {
      report.failed += traces[draw].requests.size();
    }
  }
  const std::vector<ShardReference> prefix = OfflineDigests(traces[0], sent);
  bool ladder_ok =
      ShardDigestsMatch(ServedDigests(*ladder_daemon.server), prefix, "open loop", report);
  for (size_t s = 0; s < kShards; ++s) {
    if (client.wire_digests()[s].value() != prefix[s].value ||
        client.wire_digests()[s].count() != prefix[s].count) {
      report.Fail("open loop: shard " + std::to_string(s) +
                  " wire digest differs from the offline replay");
      ladder_ok = false;
    }
  }
  if (!ladder_ok) {
    report.failed += sent;
  }
  if (low.empty() || high.empty()) {
    report.Fail("the fixed-rate phase did not complete");
  }
  report.failed = std::min(report.failed, report.attempted);
  std::printf("closed loop: %zu daemons, %.0f timed requests in %.3f s; open loop: %zu "
              "requests\n",
              daemons, capacity_requests, capacity_wall_s, sent);
  if (!report.correct) {
    return;
  }

  auto median_field = [](const std::vector<Rung>& rungs, double Rung::*field) {
    std::vector<double> values;
    for (const Rung& r : rungs) {
      values.push_back(r.*field);
    }
    return Median(values);
  };
  report.Add("throughput_req_per_s", capacity, "1/s");
  report.Add("peak_rss_mib", peak_rss_mib, "MiB");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("serve_capacity_req_per_s", capacity, "1/s");
  report.Add("serve_max_rate_req_per_s", max_rate, "1/s");
  report.Add("serve_p50_us_low", median_field(low, &Rung::p50_us), "us");
  report.Add("serve_p90_us_low", median_field(low, &Rung::p90_us), "us");
  report.Add("serve_p99_us_low", median_field(low, &Rung::p99_us), "us");
  report.Add("serve_p50_us_high", median_field(high, &Rung::p50_us), "us");
  report.Add("serve_p90_us_high", median_field(high, &Rung::p90_us), "us");
  report.Add("serve_p99_us_high", median_field(high, &Rung::p99_us), "us");
  if (!args.trace) {
    return;
  }

  const double core_ns = Median(core_ns_per_req);
  report.Add("core.cafe.ns_per_req", core_ns, "ns");
  report.Add("net.requests_per_drain", Median(drains), "requests");
  report.Add("net.overhead_ns_per_req", 1e9 / capacity - core_ns, "ns");
  report.Add("net.client.send_s", median_field(high, &Rung::send_s), "s");
  report.Add("net.client.recv_s", median_field(high, &Rung::recv_s), "s");
  report.Add("net.bytes_per_req", bytes_per_req, "bytes");
  report.Add("net.backlog_max", median_field(high, &Rung::backlog_max), "requests");
  report.Add("net.gen_late_us_p99", median_field(high, &Rung::late_p99_us), "us");
  report.Add("net.protocol_errors_total", protocol_errors, "count");
  report.Add("net.serve_allocs_per_req", serve_allocs, "count");
  report.Add("exec.threads", static_cast<double>(report.threads), "count");
  report.Add("mem.catalog_mib", catalog_mib, "MiB");
  report.Add("mem.cache_mib", cache_mib, "MiB");
  report.Add("obs.trace_overhead_frac", capacity / (traced_requests / traced_wall_s) - 1.0,
             "fraction");
}

}  // namespace perfbench
