// fleet_stream and fleet_mmap: the Fig. 7 fleet at the paper's operating
// point (scale 1.0, 30 days, six server profiles x {xLRU, Cafe} = 12 shards,
// 1 paper-TB disk, alpha 2), replayed through sim::RunFleet.
//
//   fleet_stream  requests come from trace::GeneratedStream on a dedicated
//                 generator pool, generated while they are replayed. The
//                 generator does most of the work.
//   fleet_mmap    the same requests, packed during set-up into a VCDNTRS2
//                 file (trace::WriteTraceFile) and replayed from its mmap.
//                 The generator does no work, so core and sim bound the wall.
//
// Both produce the same sim::FleetDigest; the difference between the two
// workloads isolates the trace layer.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "probes.h"
#include "src/core/cache_factory.h"
#include "src/exec/future.h"
#include "src/exec/thread_pool.h"
#include "src/sim/parallel_fleet.h"
#include "src/sim/replay.h"
#include "src/trace/generated_stream.h"
#include "src/trace/server_profile.h"
#include "src/trace/trace_file.h"
#include "src/trace/workload_generator.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace vcdn;

// The fleet digest and request count at seed 1 (6 servers x {xLRU, Cafe}).
constexpr uint64_t kSeed1Digest = 0x1d7511fabda0cf0aULL;
constexpr uint64_t kSeed1Requests = 6246096;

// Thread budget (nproc = 4): 2 fleet workers + 2 generator workers while
// replaying; packing uses all 4 and runs before any replay.
constexpr size_t kFleetThreads = 2;
constexpr size_t kGeneratorThreads = 2;
constexpr size_t kPackThreads = 4;
constexpr int kMinRepeats = 3;

struct Fleet {
  std::vector<trace::WorkloadConfig> servers;
  core::CacheConfig cache;
};

// Server i draws from util::SplitSeed(seed, i): the seed reaches the library
// only through the generated workloads.
Fleet MakeFleet(uint64_t seed) {
  Fleet fleet;
  const std::vector<trace::ServerProfile> profiles = trace::PaperServerProfiles(1.0);
  for (size_t i = 0; i < profiles.size(); ++i) {
    trace::WorkloadConfig config;
    config.profile = profiles[i];
    config.seed = util::SplitSeed(seed, i);
    config.duration_seconds = 30.0 * 86400.0;
    fleet.servers.push_back(config);
  }
  fleet.cache.chunk_bytes = core::kDefaultChunkBytes;
  fleet.cache.disk_capacity_chunks = 4096;  // 1 paper-TB at 4096 chunks per TB
  fleet.cache.alpha_f2r = 2.0;
  return fleet;
}

size_t ShardCount(const Fleet& fleet) { return 2 * fleet.servers.size(); }
core::CacheKind ShardKind(size_t shard) {
  return shard % 2 == 0 ? core::CacheKind::kXlru : core::CacheKind::kCafe;
}

// Where a replay's requests come from: the generator (on its own pool) or a
// mapped trace file.
struct Source {
  const Fleet* fleet = nullptr;
  exec::ThreadPool* generator_pool = nullptr;
  const trace::MmapTrace* file = nullptr;

  std::unique_ptr<trace::RequestStream> Open(size_t server,
                                             trace::GeneratedStreamStats* stats) const {
    if (file != nullptr) {
      return file->ServerStream(server);
    }
    trace::GeneratedStreamOptions options;
    options.generator_pool = generator_pool;
    options.stats = stats;
    return std::make_unique<trace::GeneratedStream>(fleet->servers[server], options);
  }
};

struct Rep {
  double wall_s = 0.0;
  uint64_t requests = 0;
  uint64_t digest = 0;
};

Rep RunUntraced(const Source& source, exec::ThreadPool& fleet_pool) {
  const Fleet& fleet = *source.fleet;
  std::vector<sim::FleetServer> servers;
  for (size_t i = 0; i < ShardCount(fleet); ++i) {
    sim::FleetServer server;
    server.name = fleet.servers[i / 2].profile.name;
    server.kind = ShardKind(i);
    server.config = fleet.cache;
    server.stream = [&source, i] { return source.Open(i / 2, nullptr); };
    servers.push_back(std::move(server));
  }
  sim::FleetOptions options;
  options.pool = &fleet_pool;
  const Clock::time_point start = Clock::now();
  const sim::FleetResult result = sim::RunFleet(servers, options);
  Rep rep;
  rep.wall_s = SecondsSince(start);
  rep.requests = result.totals.requests;
  rep.digest = sim::FleetDigest(result);
  return rep;
}

struct TracedRep : Rep {
  std::vector<LayerProbe> probes;
  std::vector<double> open_s;
  std::vector<double> busy_s;
  std::vector<double> queued_s;
  uint64_t stolen = 0;
  double generate_s = 0.0;
  double consumer_wait_s = 0.0;
  uint64_t generated = 0;
  uint64_t filled_chunks = 0;
  uint64_t evicted_chunks = 0;
  uint64_t redirected = 0;
  double rss_before_mib = 0.0;
};

// The same fleet as RunUntraced, with each shard's stream and cache wrapped
// in the timing decorators and driven through sim::ReplayStream on the
// benchmark's own shard loop (RunFleet builds its caches internally, so a
// decorator cannot be slotted into it). The digest must equal RunFleet's.
TracedRep RunTraced(const Source& source, exec::ThreadPool& fleet_pool) {
  const Fleet& fleet = *source.fleet;
  const size_t shards = ShardCount(fleet);
  TracedRep rep;
  rep.probes.resize(shards);
  rep.open_s.resize(shards);
  rep.busy_s.resize(shards);
  rep.queued_s.resize(shards);
  std::vector<sim::ReplayResult> results(shards);
  trace::GeneratedStreamStats stats;
  const uint64_t stolen_before = fleet_pool.stats().stolen;
  rep.rss_before_mib = CurrentRssMib();
  exec::Latch done(shards);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < shards; ++i) {
    fleet_pool.Submit(
        [&, i] {
          rep.queued_s[i] = SecondsSince(start);
          {
            Clock::time_point t = Clock::now();
            TimedStream stream(source.Open(i / 2, &stats), &rep.probes[i]);
            rep.open_s[i] = SecondsSince(t);
            TimedCache cache(core::MakeCache(ShardKind(i), fleet.cache), &rep.probes[i]);
            t = Clock::now();
            results[i] = sim::ReplayStream(cache, stream);
            rep.busy_s[i] = SecondsSince(t);
          }
          done.CountDown();
        },
        "perfbench.shard");
  }
  done.Wait();
  rep.wall_s = SecondsSince(start);
  rep.stolen = fleet_pool.stats().stolen - stolen_before;
  sim::FleetResult result;
  for (const sim::ReplayResult& server : results) {
    result.totals.Add(server.totals);
    result.steady.Add(server.steady);
  }
  result.servers = std::move(results);
  rep.requests = result.totals.requests;
  rep.digest = sim::FleetDigest(result);
  rep.generate_s = static_cast<double>(stats.generate_ns.load()) * 1e-9;
  rep.consumer_wait_s = static_cast<double>(stats.consumer_wait_ns.load()) * 1e-9;
  rep.generated = stats.requests.load();
  rep.filled_chunks = result.totals.filled_chunks;
  rep.evicted_chunks = result.totals.evicted_chunks;
  rep.redirected = result.totals.redirected_requests;
  return rep;
}

// Set-up of fleet_stream: building each server's catalog, which every
// GeneratedStream does eagerly at construction (inline mode, so nothing is
// generated yet). Returns the RSS the six live streams hold.
double BuildCatalogs(const Fleet& fleet) {
  const double before = CurrentRssMib();
  std::vector<std::unique_ptr<trace::GeneratedStream>> streams;
  for (const trace::WorkloadConfig& config : fleet.servers) {
    streams.push_back(std::make_unique<trace::GeneratedStream>(config));
  }
  return CurrentRssMib() - before;
}

// Set-up of fleet_mmap: generate the six traces, pack them with
// trace::WriteTraceFile, map the file and validate every record.
std::optional<trace::MmapTrace> PackAndMap(const Fleet& fleet, const std::string& path,
                                           Report& report) {
  {
    trace::ParallelGenerateOptions options;
    options.threads = kPackThreads;
    std::vector<trace::GeneratedWorkload> workloads =
        trace::GenerateWorkloads(fleet.servers, options);
    std::vector<const trace::Trace*> traces;
    std::vector<uint64_t> catalogs;
    for (const trace::GeneratedWorkload& workload : workloads) {
      traces.push_back(&workload.trace);
      catalogs.push_back(workload.catalog.videos.size());
    }
    const util::Status packed = trace::WriteTraceFile(traces, path, catalogs);
    if (!packed.ok()) {
      report.Fail("packing the fleet trace failed: " + packed.ToString());
      return std::nullopt;
    }
  }
  util::Result<trace::MmapTrace> mapped = trace::MmapTrace::Open(path);
  if (!mapped.ok()) {
    report.Fail("mapping the packed fleet trace failed: " + mapped.status().ToString());
    return std::nullopt;
  }
  const util::Result<uint64_t> valid = mapped.value().Validate();
  if (!valid.ok()) {
    report.Fail("the packed fleet trace does not validate: " + valid.status().ToString());
    return std::nullopt;
  }
  return std::move(mapped).value();
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

// Per-layer figures come from one traced repeat, the one with the median
// wall, so its parts add up: next + decide + sim self = shard busy.
void AddLayerMetrics(const std::vector<TracedRep>& traced, bool from_file, uint64_t requests,
                     double untraced_wall, double pack_s, double catalog_mib, double cache_mib,
                     Report& report) {
  std::vector<const TracedRep*> by_wall;
  for (const TracedRep& rep : traced) {
    by_wall.push_back(&rep);
  }
  std::sort(by_wall.begin(), by_wall.end(),
            [](const TracedRep* a, const TracedRep* b) { return a->wall_s < b->wall_s; });
  const TracedRep& r = *by_wall[(by_wall.size() - 1) / 2];
  auto sum = [](const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); };
  // Sum of a probe field over the shards of one kind (-1: all shards).
  auto probe_sum = [&r](auto field, int kind = -1) {
    double total = 0.0;
    for (size_t i = 0; i < r.probes.size(); ++i) {
      if (kind < 0 || static_cast<int>(i % 2) == kind) {
        total += static_cast<double>(r.probes[i].*field);
      }
    }
    return total;
  };
  const double busy = sum(r.busy_s);
  const double next = probe_sum(&LayerProbe::next_s);
  const double decide = probe_sum(&LayerProbe::decide_s);
  const double shard_max = *std::max_element(r.busy_s.begin(), r.busy_s.end());
  report.Add("trace.next_s", next, "s");
  report.Add("trace.consumer_wait_s", r.consumer_wait_s, "s");
  report.Add("trace.generate_s", r.generate_s, "s");
  report.Add("trace.gen_busy_frac",
             from_file ? 0.0 : r.generate_s / (static_cast<double>(kGeneratorThreads) * r.wall_s),
             "fraction");
  // Each server's trace is replayed by two shards (xLRU and Cafe).
  report.Add("trace.generated_per_replayed",
             static_cast<double>(r.generated) / (static_cast<double>(requests) / 2.0), "ratio");
  report.Add("trace.stream_open_s", sum(r.open_s), "s");
  report.Add("trace.pack_s", pack_s, "s");
  report.Add("core.decide_s", decide, "s");
  report.Add("core.xlru.ns_per_req",
             1e9 * probe_sum(&LayerProbe::decide_s, 0) / probe_sum(&LayerProbe::requests, 0), "ns");
  report.Add("core.cafe.ns_per_req",
             1e9 * probe_sum(&LayerProbe::decide_s, 1) / probe_sum(&LayerProbe::requests, 1), "ns");
  report.Add("core.batch_mean", static_cast<double>(requests) / probe_sum(&LayerProbe::batches),
             "requests");
  report.Add("core.allocs_per_req",
             probe_sum(&LayerProbe::allocs) / static_cast<double>(requests), "count");
  report.Add("core.chunk_hit_ratio",
             probe_sum(&LayerProbe::hit_chunks) / probe_sum(&LayerProbe::requested_chunks),
             "fraction");
  report.Add("core.fill_chunks", static_cast<double>(r.filled_chunks), "count");
  report.Add("core.evict_chunks", static_cast<double>(r.evicted_chunks), "count");
  report.Add("core.redirect_ratio",
             static_cast<double>(r.redirected) / static_cast<double>(requests), "fraction");
  report.Add("sim.self_s", busy - next - decide, "s");
  report.Add("sim.shard_busy_s", busy, "s");
  report.Add("sim.shard_wall_max_s", shard_max, "s");
  report.Add("sim.shard_imbalance", shard_max / (busy / static_cast<double>(r.busy_s.size())),
             "ratio");
  report.Add("exec.fleet_busy_frac",
             (busy + sum(r.open_s)) / (static_cast<double>(kFleetThreads) * r.wall_s), "fraction");
  report.Add("exec.shard_queue_wait_s", sum(r.queued_s), "s");
  report.Add("exec.pool.stolen_total", static_cast<double>(r.stolen), "count");
  report.Add("exec.threads", static_cast<double>(report.threads), "count");
  report.Add("mem.catalog_mib", catalog_mib, "MiB");
  report.Add("mem.cache_mib", cache_mib, "MiB");
  // The first traced replay is the process's first: its RSS growth is not
  // hidden by heap freed by an earlier replay.
  const TracedRep& first = traced.front();
  double max_rss = 0.0;
  for (const LayerProbe& probe : first.probes) {
    max_rss = std::max(max_rss, probe.max_rss_mib);
  }
  report.Add("mem.lookahead_mib", std::max(0.0, max_rss - first.rss_before_mib), "MiB");
  std::vector<double> traced_walls;
  for (const TracedRep& rep : traced) {
    traced_walls.push_back(rep.wall_s);
  }
  report.Add("obs.trace_overhead_frac", Median(traced_walls) / untraced_wall - 1.0, "fraction");
  std::printf("traced repeat: shard busy %.3f s = trace.next %.3f + core.decide %.3f + sim self "
              "%.3f\n",
              busy, next, decide, busy - next - decide);
}

void RunFleetWorkload(const Args& args, bool from_file, Report& report) {
  const Fleet fleet = MakeFleet(args.seed);
  const std::string path =
      args.workdir + "/fleet-" + std::to_string(getpid()) + ".vcdntrs2";
  report.threads = from_file ? kFleetThreads : kFleetThreads + kGeneratorThreads;

  // ---- set-up, repeated; setup_s is the median ----
  std::vector<double> setup_s;
  double catalog_mib = 0.0;
  std::optional<trace::MmapTrace> file;
  // Building the catalogs takes ~50 ms, packing ~1 s: more repeats of the
  // short one keep its median steady.
  const int setup_repeats = from_file ? 3 : 15;
  for (int k = 0; k < setup_repeats; ++k) {
    file.reset();
    const Clock::time_point start = Clock::now();
    if (from_file) {
      file = PackAndMap(fleet, path, report);
      if (!file.has_value()) {
        std::remove(path.c_str());
        return;
      }
    } else {
      const double held = BuildCatalogs(fleet);
      if (k == 0) {
        catalog_mib = held;  // later repeats reuse the freed heap
      }
    }
    setup_s.push_back(SecondsSince(start));
  }
  if (from_file) {
    // Opening the section streams maps no page yet: the catalog cost of
    // this workload is the packing above.
    const double before = CurrentRssMib();
    std::vector<std::unique_ptr<trace::RequestStream>> streams;
    for (size_t i = 0; i < fleet.servers.size(); ++i) {
      streams.push_back(file->ServerStream(i));
    }
    catalog_mib = CurrentRssMib() - before;
  }

  exec::ThreadPool fleet_pool(kFleetThreads);
  std::optional<exec::ThreadPool> generator_pool;
  if (!from_file) {
    generator_pool.emplace(kGeneratorThreads);
  }
  Source source;
  source.fleet = &fleet;
  source.generator_pool = generator_pool.has_value() ? &*generator_pool : nullptr;
  source.file = file.has_value() ? &*file : nullptr;

  double cache_mib = 0.0;
  if (args.trace) {
    const double before = CurrentRssMib();
    std::vector<std::unique_ptr<core::CacheAlgorithm>> caches;
    for (size_t i = 0; i < ShardCount(fleet); ++i) {
      caches.push_back(core::MakeCache(ShardKind(i), fleet.cache));
    }
    cache_mib = CurrentRssMib() - before;
  }

  // ---- timed replays ----
  std::vector<Rep> untraced;
  std::vector<TracedRep> traced;
  const Clock::time_point measure_start = Clock::now();
  while (static_cast<int>(untraced.size()) < kMinRepeats ||
         SecondsSince(measure_start) < args.seconds) {
    // Traced first, so the first traced replay sees the process's first
    // replay-time RSS growth (mem.lookahead_mib).
    if (args.trace) {
      traced.push_back(RunTraced(source, fleet_pool));
    }
    untraced.push_back(RunUntraced(source, fleet_pool));
  }

  // The workload's own peak, before the output checks below pack or
  // generate anything.
  const double peak_rss_mib = PeakRssMib();

  // ---- output checks ----
  const uint64_t digest = untraced.front().digest;
  const uint64_t requests = untraced.front().requests;
  auto check = [&](const Rep& rep, const char* what) {
    report.attempted += rep.requests;
    if (rep.digest != digest || rep.requests != requests) {
      report.failed += rep.requests;
      report.Fail(std::string(what) + " fleet digest " + Hex(rep.digest) + " differs from " +
                  Hex(digest));
    }
  };
  for (const Rep& rep : untraced) {
    check(rep, "untraced");
  }
  for (const TracedRep& rep : traced) {
    check(rep, "traced");
  }
  if (args.seed == 1) {
    if (digest != kSeed1Digest || requests != kSeed1Requests) {
      report.failed = report.attempted;
      report.Fail("seed 1 fleet digest " + Hex(digest) + " over " + std::to_string(requests) +
                  " requests; expected " + Hex(kSeed1Digest) + " over " +
                  std::to_string(kSeed1Requests));
    }
  } else {
    // No committed value for this seed: the other producer must agree.
    std::optional<trace::MmapTrace> other_file;
    std::optional<exec::ThreadPool> other_pool;
    Source other;
    other.fleet = &fleet;
    if (from_file) {
      other_pool.emplace(kGeneratorThreads);
      other.generator_pool = &*other_pool;
    } else {
      other_file = PackAndMap(fleet, path, report);
      other.file = other_file.has_value() ? &*other_file : nullptr;
    }
    if (from_file || other.file != nullptr) {
      const Rep cross = RunUntraced(other, fleet_pool);
      if (cross.digest != digest || cross.requests != requests) {
        report.failed = report.attempted;
        report.Fail(std::string(from_file ? "generated" : "mmap") + " fleet digest " +
                    Hex(cross.digest) + " differs from " + Hex(digest));
      }
    } else {
      report.failed = report.attempted;
    }
  }
  file.reset();
  std::remove(path.c_str());
  std::printf("fleet digest %s over %" PRIu64 " requests; replay walls (s):",
              Hex(digest).c_str(), requests);
  for (const Rep& rep : untraced) {
    std::printf(" %.3f", rep.wall_s);
  }
  std::printf("\n");

  // ---- metrics ----
  // The rate over the whole timed phase (requests over the summed wall of the
  // untraced repeats): the host's speed drifts during a run, and this counts
  // every part of the run by its length.
  double wall = 0.0;
  for (const Rep& rep : untraced) {
    wall += rep.wall_s;
  }
  wall /= static_cast<double>(untraced.size());
  report.Add("throughput_req_per_s", static_cast<double>(requests) / wall, "1/s");
  report.Add("peak_rss_mib", peak_rss_mib, "MiB");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("replay_req_per_s", static_cast<double>(requests) / wall, "1/s");

  if (!args.trace) {
    return;
  }
  AddLayerMetrics(traced, from_file, requests, wall, from_file ? Median(setup_s) : 0.0, catalog_mib,
                  cache_mib, report);
}

}  // namespace

void RunFleetStream(const Args& args, Report& report) { RunFleetWorkload(args, false, report); }
void RunFleetMmap(const Args& args, Report& report) { RunFleetWorkload(args, true, report); }

}  // namespace perfbench
