// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Paper-scale streaming replay sweep: the Fig. 7 six-server fleet (xLRU and
// Cafe per server) replayed at --scales {0.25, 0.5, 1.0} through
// trace::GeneratedStream -- requests are generated as they are replayed, a
// window at a time, on a DEDICATED generator pool so generation overlaps
// replay (never the fleet pool: src/trace/generated_stream.h documents the
// deadlock). Nothing is ever materialized, so peak RSS stays bounded by the
// lookahead instead of growing with trace length; scale 1.0 is the paper's
// full month at full request rate.
//
// Reports per scale: fleet requests/sec (wall clock INCLUDES generation --
// that is the point), peak RSS (VmHWM from /proc/self/status), and the
// generation-overlap efficiency (the fraction of generator wall time hidden
// behind replay, from trace::GeneratedStreamStats).
//
// Before the sweep, a three-way equivalence check at the smallest scale
// CHECKs that {materialized replay, generated stream, mmap'd packed file}
// produce the same sim::FleetDigest at the run's thread count and batch
// size -- the throughput numbers are only meaningful while streaming stays
// bit-identical to the reference path (the full threads x batch x producer
// matrix lives in tests/sim_replay_stream_test).
//
// Writes BENCH_scale.json (--out), gated in CI by
// tools/check_bench_regression.py. --repeat K medians each scale's
// requests/sec (lower median, same rule as bench_replay_throughput).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/obs/run_metadata.h"
#include "src/trace/generated_stream.h"
#include "src/trace/trace_file.h"
#include "src/util/check.h"
#include "src/util/str_util.h"

namespace {

using Clock = std::chrono::steady_clock;

struct ScaleRun {
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  uint64_t requests = 0;
  uint64_t digest = 0;
  double generate_seconds = 0.0;
  double consumer_wait_seconds = 0.0;
  double overlap_efficiency = 1.0;
};

// Lower median by requests/sec, the repo-wide headline rule (the committed
// number one consistent run produced, not a synthetic average).
const ScaleRun& MedianRun(const std::vector<ScaleRun>& runs) {
  VCDN_CHECK(!runs.empty());
  std::vector<size_t> order(runs.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return runs[a].requests_per_sec < runs[b].requests_per_sec;
  });
  return runs[order[(order.size() - 1) / 2]];
}

std::vector<double> ParseScales(int argc, char** argv) {
  std::vector<double> scales = {0.25, 0.5, 1.0};
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) != "--scales") {
      continue;
    }
    scales.clear();
    const std::string list = argv[i + 1];
    size_t begin = 0;
    while (begin < list.size()) {
      const size_t comma = list.find(',', begin);
      const size_t end = comma == std::string::npos ? list.size() : comma;
      double parsed = 0.0;
      if (!vcdn::util::ParseDouble(list.substr(begin, end - begin), &parsed) || parsed <= 0.0) {
        std::fprintf(stderr, "error: invalid --scales entry '%s'\n",
                     list.substr(begin, end - begin).c_str());
        std::exit(2);
      }
      scales.push_back(parsed);
      if (comma == std::string::npos) {
        break;
      }
      begin = comma + 1;
    }
    if (scales.empty()) {
      std::fprintf(stderr, "error: --scales needs at least one value\n");
      std::exit(2);
    }
  }
  std::sort(scales.begin(), scales.end());
  return scales;
}

std::string FormatScale(double scale) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", scale);
  return buf;
}

// The 12 fleet shards (6 servers x {xLRU, Cafe}; Psychic is offline --
// CacheAlgorithm::requires_full_trace -- and cannot replay a stream).
struct Shard {
  std::string name;
  vcdn::core::CacheKind kind;
  vcdn::trace::WorkloadConfig workload;
};

std::vector<Shard> MakeShards(const vcdn::bench::BenchScale& scale) {
  using namespace vcdn;
  std::vector<trace::ServerProfile> profiles = trace::PaperServerProfiles(scale.workload_scale);
  std::vector<Shard> shards;
  for (size_t s = 0; s < profiles.size(); ++s) {
    const trace::WorkloadConfig workload = bench::ServerWorkloadConfig(profiles[s], s, scale);
    shards.push_back({profiles[s].name + "/xLRU", core::CacheKind::kXlru, workload});
    shards.push_back({profiles[s].name + "/Cafe", core::CacheKind::kCafe, workload});
  }
  return shards;
}

uint64_t RunFleetDigest(const std::vector<vcdn::sim::FleetServer>& servers,
                        const vcdn::bench::BenchFlags& flags) {
  vcdn::sim::FleetOptions options;
  options.threads = flags.threads;
  options.replay.batch_size = flags.batch;
  return vcdn::sim::FleetDigest(vcdn::sim::RunFleet(servers, options));
}

// Proves the three producers agree before any throughput number is trusted:
// materialized Replay, GeneratedStream (pooled lookahead), and an mmap'd
// packed file round-tripped through trace_pack's writer.
void CheckEquivalence(const vcdn::bench::BenchScale& scale, const vcdn::bench::BenchFlags& flags,
                      const std::string& scratch_path, uint64_t* digest_out) {
  using namespace vcdn;
  const std::vector<Shard> shards = MakeShards(scale);

  // Path 1: materialized traces (one per server, shared by both algorithms).
  std::vector<trace::Trace> traces;
  traces.reserve(shards.size() / 2);
  for (size_t i = 0; i < shards.size(); i += 2) {
    traces.push_back(trace::WorkloadGenerator(shards[i].workload).Generate().trace);
  }
  const core::CacheConfig cache_config = bench::PaperConfig(1.0, 2.0, scale);
  std::vector<sim::FleetServer> materialized;
  for (size_t i = 0; i < shards.size(); ++i) {
    materialized.push_back(
        sim::FleetServer{shards[i].name, shards[i].kind, cache_config, &traces[i / 2], {}});
  }
  const uint64_t reference = RunFleetDigest(materialized, flags);

  // Path 2: generate-as-you-replay on a dedicated generator pool.
  exec::ThreadPool generator_pool(exec::ThreadPoolOptions{});
  std::vector<sim::FleetServer> generated;
  for (const Shard& shard : shards) {
    sim::FleetServer server{shard.name, shard.kind, cache_config, nullptr, {}};
    const trace::WorkloadConfig workload = shard.workload;
    server.stream = [workload, &generator_pool]() -> std::unique_ptr<trace::RequestStream> {
      trace::GeneratedStreamOptions options;
      options.generator_pool = &generator_pool;
      return std::make_unique<trace::GeneratedStream>(workload, options);
    };
    generated.push_back(std::move(server));
  }
  const uint64_t streamed = RunFleetDigest(generated, flags);
  VCDN_CHECK_MSG(streamed == reference,
                 "generated-stream fleet digest diverged from materialized replay");

  // Path 3: pack to a temp VCDNTRS2 file, replay the mmap'd sections.
  {
    std::vector<const trace::Trace*> trace_ptrs;
    for (const trace::Trace& trace : traces) {
      trace_ptrs.push_back(&trace);
    }
    util::Status packed = trace::WriteTraceFile(trace_ptrs, scratch_path);
    VCDN_CHECK_MSG(packed.ok(), "packing the equivalence trace failed");
  }
  util::Result<trace::MmapTrace> mapped = trace::MmapTrace::Open(scratch_path);
  VCDN_CHECK_MSG(mapped.status().ok(), "reopening the packed equivalence trace failed");
  const trace::MmapTrace& trace_file = mapped.value();
  std::vector<sim::FleetServer> mmapped;
  for (size_t i = 0; i < shards.size(); ++i) {
    sim::FleetServer server{shards[i].name, shards[i].kind, cache_config, nullptr, {}};
    const size_t section = i / 2;
    server.stream = [&trace_file, section]() { return trace_file.ServerStream(section); };
    mmapped.push_back(std::move(server));
  }
  const uint64_t from_file = RunFleetDigest(mmapped, flags);
  VCDN_CHECK_MSG(from_file == reference,
                 "mmap-stream fleet digest diverged from materialized replay");
  std::remove(scratch_path.c_str());
  *digest_out = reference;
}

ScaleRun RunOnce(const std::vector<Shard>& shards, const vcdn::core::CacheConfig& cache_config,
                 const vcdn::bench::BenchFlags& flags) {
  using namespace vcdn;
  ScaleRun run;
  trace::GeneratedStreamStats stats;
  // Dedicated pool: generation must never share workers with the replay
  // shards consuming it (blocked consumers would starve the producers).
  exec::ThreadPool generator_pool(exec::ThreadPoolOptions{});
  std::vector<sim::FleetServer> servers;
  for (const Shard& shard : shards) {
    sim::FleetServer server{shard.name, shard.kind, cache_config, nullptr, {}};
    const trace::WorkloadConfig workload = shard.workload;
    server.stream = [workload, &generator_pool, &stats]() -> std::unique_ptr<trace::RequestStream> {
      trace::GeneratedStreamOptions options;
      options.generator_pool = &generator_pool;
      options.stats = &stats;
      return std::make_unique<trace::GeneratedStream>(workload, options);
    };
    servers.push_back(std::move(server));
  }
  sim::FleetOptions options;
  options.threads = flags.threads;
  options.replay.batch_size = flags.batch;
  const auto t0 = Clock::now();
  const sim::FleetResult result = sim::RunFleet(servers, options);
  run.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  run.requests = result.totals.requests;
  run.requests_per_sec =
      run.wall_seconds > 0.0 ? static_cast<double>(run.requests) / run.wall_seconds : 0.0;
  run.digest = sim::FleetDigest(result);
  run.generate_seconds = static_cast<double>(stats.generate_ns.load()) * 1e-9;
  run.consumer_wait_seconds = static_cast<double>(stats.consumer_wait_ns.load()) * 1e-9;
  if (run.generate_seconds > 0.0) {
    const double hidden =
        std::max(0.0, run.generate_seconds - std::min(run.generate_seconds,
                                                      run.consumer_wait_seconds));
    run.overlap_efficiency = hidden / run.generate_seconds;
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdn;
  bench::BenchFlags flags = bench::FlagsFromArgs(argc, argv, {"--scales", "--out"});
  bench::BenchScale scale = bench::ResolveScale(flags);
  bench::BenchObs obs(argc, argv);
  obs.SetWorkload("fig7 six servers, streaming", scale.seed);
  const std::vector<double> scales = ParseScales(argc, argv);
  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") {
      out_path = argv[i + 1];
    }
  }
  bench::PrintHeader(
      "Streaming scale sweep: generate-as-you-replay at paper scale",
      "engineering baseline (no paper figure); full-month fig7 fleet replays at "
      "--scale 1.0 with peak RSS bounded by the lookahead, bit-identical to "
      "materialized replay",
      scale);

  // Digest equivalence gate at the smallest scale, before any measurement.
  bench::BenchScale smallest = scale;
  smallest.workload_scale = scales.front();
  uint64_t equivalence_digest = 0;
  std::printf("Equivalence (scale %s): materialized vs generated vs mmap ... ",
              FormatScale(scales.front()).c_str());
  std::fflush(stdout);
  CheckEquivalence(smallest, flags, out_path + ".equiv.tmp", &equivalence_digest);
  std::printf("OK (digest %016llx)\n\n", static_cast<unsigned long long>(equivalence_digest));

  struct ScaleReport {
    double scale = 0.0;
    ScaleRun median;
    std::vector<ScaleRun> repeats;
    bench::MemoryUsage memory;
  };
  std::vector<ScaleReport> reports;
  for (double s : scales) {
    bench::BenchScale at_scale = scale;
    at_scale.workload_scale = s;
    const std::vector<Shard> shards = MakeShards(at_scale);
    const core::CacheConfig cache_config = bench::PaperConfig(1.0, 2.0, at_scale);
    ScaleReport report;
    report.scale = s;
    for (size_t k = 0; k < flags.repeat; ++k) {
      report.repeats.push_back(RunOnce(shards, cache_config, flags));
      VCDN_CHECK_MSG(report.repeats.back().digest == report.repeats.front().digest,
                     "fleet digest changed between repeats");
    }
    report.median = MedianRun(report.repeats);
    report.memory = bench::ReadMemoryUsage();
    std::printf(
        "scale %-5s %9llu req  %9.0f req/s  wall %6.2fs  peak RSS %7.1f MiB  "
        "gen %6.2fs  wait %6.2fs  overlap %3.0f%%\n",
        FormatScale(s).c_str(), static_cast<unsigned long long>(report.median.requests),
        report.median.requests_per_sec, report.median.wall_seconds, report.memory.peak_rss_mb,
        report.median.generate_seconds, report.median.consumer_wait_seconds,
        report.median.overlap_efficiency * 100.0);
    reports.push_back(std::move(report));
  }

  // Peak RSS is a process-wide high-water mark: the bounded-memory claim is
  // that it stays flat while the request count quadruples.
  if (reports.size() >= 2) {
    const ScaleReport& first = reports.front();
    const ScaleReport& last = reports.back();
    const double request_growth = static_cast<double>(last.median.requests) /
                                  static_cast<double>(std::max<uint64_t>(1, first.median.requests));
    const double rss_growth = last.memory.peak_rss_mb / std::max(1.0, first.memory.peak_rss_mb);
    std::printf("\nRequests grew %.1fx across the sweep; peak RSS grew %.2fx\n", request_growth,
                rss_growth);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  obs::RunMetadata meta = obs::CollectRunMetadata();
  meta.workload = "fig7 six servers, streaming";
  meta.seed = scale.seed;
  meta.threads = flags.threads;
  meta.batch = flags.batch;
  std::string scales_label;
  for (size_t i = 0; i < scales.size(); ++i) {
    if (i > 0) {
      scales_label += ",";
    }
    scales_label += FormatScale(scales[i]);
  }
  out << "{\n"
      << "  \"bench\": \"bench_scale_sweep\",\n"
      << "  \"meta\": ";
  obs::WriteRunMetadataJson(out, meta);
  out << ",\n"
      << "  \"workload\": {\n"
      << "    \"figure\": \"fig7 six servers, streaming\",\n"
      << "    \"scales\": \"" << scales_label << "\",\n"
      << "    \"days\": " << scale.days << ",\n"
      << "    \"chunks_per_paper_tb\": " << scale.chunks_per_paper_tb << ",\n"
      << "    \"seed\": " << scale.seed << ",\n"
      << "    \"servers\": 6,\n"
      << "    \"algorithms\": \"xLRU+Cafe\"\n"
      << "  },\n"
      << "  \"repeat\": " << flags.repeat << ",\n"
      << "  \"batch\": " << flags.batch << ",\n"
      << "  \"headline\": \"median\",\n"
      << "  \"equivalence\": {\n"
      << "    \"scale\": " << scales.front() << ",\n"
      << "    \"producers\": [\"materialized\", \"generated\", \"mmap\"],\n"
      << "    \"digest\": \"" << std::hex << equivalence_digest << std::dec << "\",\n"
      << "    \"match\": true\n"
      << "  },\n"
      << "  \"scales\": {\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    const ScaleReport& report = reports[i];
    out << "    \"" << FormatScale(report.scale) << "\": {\n"
        << "      \"requests\": " << report.median.requests << ",\n"
        << "      \"requests_per_sec\": " << report.median.requests_per_sec << ",\n"
        << "      \"wall_seconds\": " << report.median.wall_seconds << ",\n"
        << "      \"peak_rss_mb\": " << report.memory.peak_rss_mb << ",\n"
        << "      \"rss_mb\": " << report.memory.rss_mb << ",\n"
        << "      \"generate_seconds\": " << report.median.generate_seconds << ",\n"
        << "      \"consumer_wait_seconds\": " << report.median.consumer_wait_seconds << ",\n"
        << "      \"overlap_efficiency\": " << report.median.overlap_efficiency << ",\n"
        << "      \"digest\": \"" << std::hex << report.median.digest << std::dec << "\",\n"
        << "      \"repeat_requests_per_sec\": [";
    for (size_t k = 0; k < report.repeats.size(); ++k) {
      out << (k > 0 ? ", " : "") << report.repeats[k].requests_per_sec;
    }
    out << "]\n    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  }\n"
      << "}\n";
  std::printf("Wrote %s\n", out_path.c_str());
  return obs.WriteIfRequested().ok() ? 0 : 1;
}
