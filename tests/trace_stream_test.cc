// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// The trace-layer streaming contract: GeneratedStream is bit-identical to
// WorkloadGenerator::Generate() however consumers chunk it (inline or on a
// generator pool), TraceView replays a materialized trace unchanged, and the
// VCDNTRS2 pack/mmap round trip preserves every record byte (proved by the
// writer/Validate digests trace_pack --verify also uses).

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/thread_pool.h"
#include "src/trace/generated_stream.h"
#include "src/trace/request_stream.h"
#include "src/trace/server_profile.h"
#include "src/trace/trace_file.h"
#include "src/trace/workload_generator.h"
#include "src/util/rng.h"

namespace vcdn::trace {
namespace {

WorkloadConfig SmallConfig(uint64_t seed = 7) {
  ServerProfile profile = EuropeProfile(0.02);
  WorkloadConfig config;
  config.profile = profile;
  config.seed = seed;
  config.duration_seconds = 3.0 * 86400.0;
  return config;
}

std::vector<Request> Drain(RequestStream& stream, size_t chunk) {
  std::vector<Request> out;
  for (;;) {
    RequestSpan span = stream.Next(chunk);
    if (span.empty()) {
      break;
    }
    out.insert(out.end(), span.begin(), span.end());
  }
  EXPECT_TRUE(stream.status().ok()) << stream.status().ToString();
  return out;
}

void ExpectSameRequests(const std::vector<Request>& a, const std::vector<Request>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_TRUE(std::memcmp(a.data(), b.data(), a.size() * sizeof(Request)) == 0);
}

TEST(TraceViewTest, YieldsTheTraceInChunksOfAtMostMax) {
  Trace trace = WorkloadGenerator(SmallConfig()).Generate().trace;
  TraceView view(trace);
  std::vector<Request> streamed;
  for (;;) {
    RequestSpan span = view.Next(100);
    if (span.empty()) {
      break;
    }
    EXPECT_LE(span.count, 100u);
    streamed.insert(streamed.end(), span.begin(), span.end());
  }
  ExpectSameRequests(streamed, trace.requests);
  EXPECT_EQ(view.duration(), trace.duration);
  EXPECT_EQ(view.total_requests_hint(), trace.requests.size());
}

TEST(GeneratedStreamTest, InlineModeMatchesGenerateAtEveryChunkSize) {
  const WorkloadConfig config = SmallConfig();
  const GeneratedWorkload reference = WorkloadGenerator(config).Generate();
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{4096}}) {
    GeneratedStream stream(config);
    ExpectSameRequests(Drain(stream, chunk), reference.trace.requests);
    EXPECT_EQ(stream.duration(), reference.trace.duration);
  }
}

TEST(GeneratedStreamTest, PooledModeMatchesGenerate) {
  const WorkloadConfig config = SmallConfig();
  const GeneratedWorkload reference = WorkloadGenerator(config).Generate();
  exec::ThreadPoolOptions pool_options;
  pool_options.num_threads = 2;
  exec::ThreadPool generator_pool(pool_options);
  for (size_t lookahead : {size_t{1}, size_t{4}}) {
    GeneratedStreamOptions options;
    options.generator_pool = &generator_pool;
    options.lookahead_windows = lookahead;
    GeneratedStream stream(config, options);
    ExpectSameRequests(Drain(stream, 257), reference.trace.requests);
  }
}

TEST(GeneratedStreamTest, CatalogMatchesGenerate) {
  const WorkloadConfig config = SmallConfig();
  const GeneratedWorkload reference = WorkloadGenerator(config).Generate();
  GeneratedStream stream(config);
  ASSERT_EQ(stream.catalog().videos.size(), reference.catalog.videos.size());
  for (size_t i = 0; i < reference.catalog.videos.size(); ++i) {
    EXPECT_EQ(stream.catalog().videos[i].size_bytes, reference.catalog.videos[i].size_bytes);
    EXPECT_EQ(stream.catalog().videos[i].birth_time, reference.catalog.videos[i].birth_time);
  }
}

TEST(GeneratedStreamTest, AbandonedPooledStreamShutsDownCleanly) {
  exec::ThreadPoolOptions pool_options;
  pool_options.num_threads = 2;
  exec::ThreadPool generator_pool(pool_options);
  GeneratedStreamOptions options;
  options.generator_pool = &generator_pool;
  GeneratedStream stream(SmallConfig(), options);
  // Consume a sliver, then destroy with the producer possibly mid-window;
  // the destructor must join it without deadlock or use-after-free (the
  // ASan/TSan lanes give this test its teeth).
  stream.Next(10);
}

TEST(GeneratedStreamTest, StatsAccountForEveryRequestAndWindow) {
  const WorkloadConfig config = SmallConfig();
  const GeneratedWorkload reference = WorkloadGenerator(config).Generate();
  GeneratedStreamStats stats;
  std::vector<Request> streamed;
  {
    GeneratedStreamOptions options;
    options.stats = &stats;
    GeneratedStream stream(config, options);
    streamed = Drain(stream, 1024);
  }  // stats flush on destruction
  EXPECT_EQ(stats.requests.load(), reference.trace.requests.size());
  EXPECT_EQ(streamed.size(), reference.trace.requests.size());
  // 3 days at the default 6h refresh = 12 windows.
  EXPECT_EQ(stats.windows.load(), 12u);
  EXPECT_GT(stats.generate_ns.load(), 0u);
}

TEST(GeneratedStreamTest, DifferentSeedsDiverge) {
  GeneratedStream a(SmallConfig(1));
  GeneratedStream b(SmallConfig(2));
  const std::vector<Request> ra = Drain(a, 4096);
  const std::vector<Request> rb = Drain(b, 4096);
  EXPECT_FALSE(ra.size() == rb.size() &&
               std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(Request)) == 0);
}

// --- VCDNTRS2 pack / mmap round trip ----------------------------------------

class TraceFileTest : public ::testing::Test {
 protected:
  std::string TempPath(const char* name) {
    return testing::TempDir() + "trace_stream_test_" + name + ".vtrs";
  }
};

TEST_F(TraceFileTest, RoundTripPreservesEveryRecordAndTheIndex) {
  const std::string path = TempPath("roundtrip");
  Trace a = WorkloadGenerator(SmallConfig(3)).Generate().trace;
  Trace b = WorkloadGenerator(SmallConfig(4)).Generate().trace;
  ASSERT_TRUE(WriteTraceFile({&a, &b}, path, {100, 200}).ok());

  auto mapped = MmapTrace::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const MmapTrace& file = mapped.value();
  EXPECT_EQ(file.server_count(), 2u);
  EXPECT_EQ(file.total_records(), a.requests.size() + b.requests.size());
  EXPECT_EQ(file.duration(), std::max(a.duration, b.duration));
  EXPECT_EQ(file.total_catalog_videos(), 300u);
  EXPECT_EQ(file.server(0).record_count, a.requests.size());
  EXPECT_EQ(file.server(1).record_offset, a.requests.size());

  // Streamed records identical to the source, at an awkward chunk size.
  auto stream = file.ServerStream(1);
  ExpectSameRequests(Drain(*stream, 333), b.requests);
  EXPECT_EQ(stream->duration(), b.duration);
  EXPECT_EQ(stream->total_requests_hint(), b.requests.size());

  // Materializing round-trips too.
  auto read_back = file.ReadServer(0);
  ASSERT_TRUE(read_back.ok());
  ExpectSameRequests(read_back.value().requests, a.requests);

  // Validate()'s digest equals the digest of the source records -- the same
  // equality trace_pack --verify asserts.
  RequestDigest source;
  source.Fold(a.requests.data(), a.requests.size());
  source.Fold(b.requests.data(), b.requests.size());
  EXPECT_EQ(source.value(), 0xb9c48a0f341e61f8ULL);  // golden value of the record bytes
  auto scanned = file.Validate();
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(scanned.value(), source.value());
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, EmptySectionsRoundTrip) {
  const std::string path = TempPath("empty");
  Trace empty;
  empty.duration = 10.0;
  ASSERT_TRUE(WriteTraceFile({&empty}, path).ok());
  auto mapped = MmapTrace::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().total_records(), 0u);
  EXPECT_TRUE(mapped.value().ServerStream(0)->Next(16).empty());
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, WriterRejectsMalformedRecords) {
  const std::string path = TempPath("writer_reject");
  TraceFileWriter writer;
  ASSERT_TRUE(writer.Open(path, 1).ok());
  ASSERT_TRUE(writer.BeginServer(100.0).ok());

  Request nan_time{std::numeric_limits<double>::quiet_NaN(), 1, 0, 10};
  EXPECT_EQ(writer.Append(&nan_time, 1).code(), util::StatusCode::kInvalidArgument);

  Request late{200.0, 1, 0, 10};  // after the section duration
  EXPECT_EQ(writer.Append(&late, 1).code(), util::StatusCode::kInvalidArgument);

  Request inverted{1.0, 1, 10, 0};
  EXPECT_EQ(writer.Append(&inverted, 1).code(), util::StatusCode::kInvalidArgument);

  Request ok{5.0, 1, 0, 10};
  ASSERT_TRUE(writer.Append(&ok, 1).ok());
  Request out_of_order{1.0, 1, 0, 10};
  EXPECT_EQ(writer.Append(&out_of_order, 1).code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, WriterEnforcesTheDeclaredServerCount) {
  const std::string path = TempPath("writer_count");
  TraceFileWriter writer;
  ASSERT_TRUE(writer.Open(path, 2).ok());
  ASSERT_TRUE(writer.BeginServer(10.0).ok());
  // Finishing with only 1 of the declared 2 sections must fail...
  EXPECT_EQ(writer.Finish().code(), util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(writer.BeginServer(10.0).ok());
  // ...and a third section must be refused.
  EXPECT_EQ(writer.BeginServer(10.0).code(), util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(writer.Finish().ok());
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, MmapStreamFeedsReplaySizedPulls) {
  // The exact shape sim::ReplayStream uses: large pulls, spans borrowed from
  // the mapping between pulls.
  const std::string path = TempPath("pulls");
  Trace trace = WorkloadGenerator(SmallConfig(5)).Generate().trace;
  ASSERT_TRUE(WriteTraceFile({&trace}, path).ok());
  auto mapped = MmapTrace::Open(path);
  ASSERT_TRUE(mapped.ok());
  auto stream = mapped.value().ServerStream(0);
  ExpectSameRequests(Drain(*stream, 4096), trace.requests);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vcdn::trace
