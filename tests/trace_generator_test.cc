// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/trace/workload_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/exec/thread_pool.h"
#include "src/trace/generated_stream.h"
#include "src/trace/server_profile.h"
#include "src/trace/trace_file.h"
#include "src/util/rng.h"

namespace vcdn::trace {
namespace {

WorkloadConfig SmallConfig(uint64_t seed = 1) {
  WorkloadConfig config;
  config.profile = EuropeProfile(0.05);  // tiny for test speed
  config.profile.base_request_rate = 0.05;
  config.seed = seed;
  config.duration_seconds = 3.0 * 86400.0;
  return config;
}

TEST(WorkloadGeneratorTest, DeterministicForSeed) {
  WorkloadGenerator g1(SmallConfig(7));
  WorkloadGenerator g2(SmallConfig(7));
  GeneratedWorkload w1 = g1.Generate();
  GeneratedWorkload w2 = g2.Generate();
  ASSERT_EQ(w1.trace.requests.size(), w2.trace.requests.size());
  for (size_t i = 0; i < w1.trace.requests.size(); ++i) {
    EXPECT_EQ(w1.trace.requests[i].arrival_time, w2.trace.requests[i].arrival_time);
    EXPECT_EQ(w1.trace.requests[i].video, w2.trace.requests[i].video);
    EXPECT_EQ(w1.trace.requests[i].byte_begin, w2.trace.requests[i].byte_begin);
    EXPECT_EQ(w1.trace.requests[i].byte_end, w2.trace.requests[i].byte_end);
  }
}

TEST(WorkloadGeneratorTest, DifferentSeedsDiffer) {
  GeneratedWorkload w1 = WorkloadGenerator(SmallConfig(1)).Generate();
  GeneratedWorkload w2 = WorkloadGenerator(SmallConfig(2)).Generate();
  // Same scale but different request pattern.
  bool differ = w1.trace.requests.size() != w2.trace.requests.size();
  if (!differ) {
    for (size_t i = 0; i < w1.trace.requests.size(); ++i) {
      if (w1.trace.requests[i].video != w2.trace.requests[i].video) {
        differ = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differ);
}

TEST(WorkloadGeneratorTest, TraceIsWellFormed) {
  GeneratedWorkload w = WorkloadGenerator(SmallConfig()).Generate();
  EXPECT_TRUE(w.trace.IsWellFormed());
  EXPECT_GT(w.trace.requests.size(), 100u);
  for (const Request& r : w.trace.requests) {
    ASSERT_LT(r.video, w.catalog.videos.size());
    const VideoMeta& v = w.catalog.Get(r.video);
    ASSERT_LE(r.byte_end, v.size_bytes - 1) << "range beyond file size";
    ASSERT_GE(r.arrival_time, v.birth_time) << "request before upload";
  }
}

TEST(WorkloadGeneratorTest, RequestRateMatchesProfile) {
  WorkloadConfig config = SmallConfig();
  GeneratedWorkload w = WorkloadGenerator(config).Generate();
  double expected = config.profile.base_request_rate * config.duration_seconds;
  double actual = static_cast<double>(w.trace.requests.size());
  // Thinning + weekly modulation keeps the mean within ~15%.
  EXPECT_NEAR(actual, expected, expected * 0.15);
}

TEST(WorkloadGeneratorTest, PopularityIsHeavyTailed) {
  GeneratedWorkload w = WorkloadGenerator(SmallConfig()).Generate();
  std::unordered_map<VideoId, uint64_t> hits;
  for (const Request& r : w.trace.requests) {
    ++hits[r.video];
  }
  std::vector<uint64_t> counts;
  counts.reserve(hits.size());
  for (const auto& [id, c] : hits) {
    counts.push_back(c);
  }
  std::sort(counts.rbegin(), counts.rend());
  ASSERT_GT(counts.size(), 50u);
  // Head concentration: top 10% of videos get far more than 10% of requests.
  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }
  uint64_t head = 0;
  for (size_t i = 0; i < counts.size() / 10; ++i) {
    head += counts[i];
  }
  EXPECT_GT(static_cast<double>(head) / static_cast<double>(total), 0.3);
}

TEST(WorkloadGeneratorTest, MostViewsStartAtZero) {
  GeneratedWorkload w = WorkloadGenerator(SmallConfig()).Generate();
  size_t at_zero = 0;
  for (const Request& r : w.trace.requests) {
    if (r.byte_begin == 0) {
      ++at_zero;
    }
  }
  double fraction = static_cast<double>(at_zero) / static_cast<double>(w.trace.requests.size());
  EXPECT_NEAR(fraction, 0.62, 0.05);
}

TEST(WorkloadGeneratorTest, DiurnalFactorPeaksInLocalEvening) {
  ServerProfile p = EuropeProfile();
  p.timezone_offset_hours = 0.0;
  // Peak at 20:00, trough at 08:00 local.
  double peak = WorkloadGenerator::DiurnalFactor(p, 20.0 * 3600.0);
  double trough = WorkloadGenerator::DiurnalFactor(p, 8.0 * 3600.0);
  EXPECT_GT(peak, 1.3);
  EXPECT_LT(trough, 0.7);
  EXPECT_GT(peak, trough);
}

TEST(WorkloadGeneratorTest, DiurnalFactorShiftsWithTimezone) {
  ServerProfile utc = EuropeProfile();
  utc.timezone_offset_hours = 0.0;
  ServerProfile plus8 = utc;
  plus8.timezone_offset_hours = 8.0;
  // 12:00 absolute = 20:00 local for +8: peak there.
  EXPECT_GT(WorkloadGenerator::DiurnalFactor(plus8, 12.0 * 3600.0),
            WorkloadGenerator::DiurnalFactor(utc, 12.0 * 3600.0));
}

TEST(WorkloadGeneratorTest, AcceptanceBoundsContainTheExactAcceptance) {
  // The window engine settles thinning draws against these bounds, so they
  // must hold the exact acceptance at every t of every window, stay strictly
  // inside (0, 1), and be tight: |sin x - sin y| <= |x - y| caps their width.
  const double duration = 9.3 * 86400.0;  // no refresh below divides it
  for (double timezone : {-11.5, -3.0, 0.0, 5.5, 9.0, 13.75}) {
    for (double amplitude : {0.0, 0.3, 0.55, 0.8, 0.97}) {
      for (double refresh_hours : {1.0, 5.0, 6.0, 7.0, 24.0}) {
        SCOPED_TRACE(testing::Message() << "timezone " << timezone << " amplitude " << amplitude
                                        << " refresh " << refresh_hours << "h");
        ServerProfile profile = EuropeProfile();
        profile.timezone_offset_hours = timezone;
        profile.diurnal_amplitude = amplitude;
        const double refresh = refresh_hours * 3600.0;
        const double envelope = 1.0 + amplitude + 0.1;
        for (double start = 0.0; start < duration; start += refresh) {
          const double end = std::min(start + refresh, duration);
          const auto bounds = WorkloadGenerator::AcceptanceBoundsOver(profile, start, end);
          ASSERT_GT(bounds.lo, 0.0);
          ASSERT_LT(bounds.hi, 1.0);
          const double daily_span = std::min(2.0, 2.0 * M_PI * (end - start) / 86400.0);
          const double weekly_span = std::min(2.0, 2.0 * M_PI * (end - start) / (7 * 86400.0));
          EXPECT_LE(bounds.hi - bounds.lo,
                    (amplitude * daily_span + 0.08 * weekly_span) / envelope + 3e-7);
          for (int k = 0; k <= 64; ++k) {
            const double t = start + (end - start) * k / 64.0;
            const double exact = WorkloadGenerator::AcceptanceAt(profile, t);
            ASSERT_LE(bounds.lo, exact) << "t " << t;
            ASSERT_LE(exact, bounds.hi) << "t " << t;
          }
        }
      }
    }
  }
}

TEST(WorkloadGeneratorTest, VideoWeightRampAndDecay) {
  WorkloadConfig config = SmallConfig();
  VideoMeta v;
  v.base_weight = 10.0;
  v.birth_time = 1000.0;
  v.video_class = VideoClass::kTransient;
  v.decay_tau = 86400.0;
  // Before birth: zero.
  EXPECT_EQ(WorkloadGenerator::VideoWeightAt(v, 0.0, config), 0.0);
  // During ramp: below base.
  double ramping =
      WorkloadGenerator::VideoWeightAt(v, 1000.0 + config.new_video_ramp_seconds / 2, config);
  EXPECT_GT(ramping, 0.0);
  EXPECT_LT(ramping, 10.0);
  // After one tau: decayed by ~1/e.
  double decayed = WorkloadGenerator::VideoWeightAt(v, 1000.0 + 86400.0, config);
  EXPECT_NEAR(decayed, 10.0 * std::exp(-1.0), 0.5);
  // Evergreen videos do not decay.
  v.video_class = VideoClass::kEvergreen;
  v.decay_tau = 0.0;
  EXPECT_NEAR(WorkloadGenerator::VideoWeightAt(v, 1000.0 + 10 * 86400.0, config), 10.0, 1e-9);
}

TEST(WorkloadGeneratorTest, CatalogChurnAddsVideos) {
  WorkloadConfig config = SmallConfig();
  GeneratedWorkload w = WorkloadGenerator(config).Generate();
  size_t new_videos = 0;
  for (const VideoMeta& v : w.catalog.videos) {
    if (v.birth_time > 0.0) {
      ++new_videos;
    }
  }
  double expected = config.profile.new_videos_per_day * config.duration_seconds / 86400.0;
  EXPECT_NEAR(static_cast<double>(new_videos), expected, expected * 0.5 + 10.0);
}

TEST(WorkloadGeneratorTest, RefreshIntervalChangesSamplingNotScale) {
  // A finer popularity-refresh cadence tracks churn more closely but must
  // not change the overall request volume materially.
  WorkloadConfig coarse = SmallConfig(4);
  coarse.popularity_refresh_seconds = 24.0 * 3600.0;
  WorkloadConfig fine = SmallConfig(4);
  fine.popularity_refresh_seconds = 1.0 * 3600.0;
  size_t coarse_count = WorkloadGenerator(coarse).Generate().trace.requests.size();
  size_t fine_count = WorkloadGenerator(fine).Generate().trace.requests.size();
  EXPECT_NEAR(static_cast<double>(coarse_count), static_cast<double>(fine_count),
              static_cast<double>(fine_count) * 0.1);
}

TEST(WorkloadGeneratorTest, WeightFloorPrunesDeadTransients) {
  // With a very aggressive floor, long-dead transient videos stop being
  // sampled entirely: every request's video must still carry real weight.
  WorkloadConfig config = SmallConfig(9);
  config.weight_floor_fraction = 0.5;  // drop anything below half base weight
  GeneratedWorkload w = WorkloadGenerator(config).Generate();
  for (const Request& r : w.trace.requests) {
    const VideoMeta& v = w.catalog.Get(r.video);
    double weight = WorkloadGenerator::VideoWeightAt(v, r.arrival_time, config);
    // Sampled at most one refresh window before the weight dipped below the
    // floor; allow that slack.
    EXPECT_GT(weight, 0.0);
  }
}

TEST(WorkloadGeneratorTest, ViewsNeverExceedFileBounds) {
  GeneratedWorkload w = WorkloadGenerator(SmallConfig(12)).Generate();
  for (const Request& r : w.trace.requests) {
    const VideoMeta& v = w.catalog.Get(r.video);
    ASSERT_LE(r.byte_begin, r.byte_end);
    ASSERT_LT(r.byte_end, v.size_bytes);
  }
}

TEST(WorkloadGeneratorTest, SizesRespectProfileClamps) {
  WorkloadConfig config = SmallConfig(3);
  config.profile.min_video_bytes = 8ull << 20;
  config.profile.max_video_bytes = 64ull << 20;
  GeneratedWorkload w = WorkloadGenerator(config).Generate();
  for (const VideoMeta& v : w.catalog.videos) {
    ASSERT_GE(v.size_bytes, config.profile.min_video_bytes);
    ASSERT_LE(v.size_bytes, config.profile.max_video_bytes);
  }
}

TEST(WorkloadGeneratorTest, EvergreenFractionZeroMakesAllTransient) {
  WorkloadConfig config = SmallConfig(6);
  config.profile.evergreen_fraction = 0.0;
  GeneratedWorkload w = WorkloadGenerator(config).Generate();
  for (const VideoMeta& v : w.catalog.videos) {
    ASSERT_EQ(v.video_class, VideoClass::kTransient);
    ASSERT_GT(v.decay_tau, 0.0);
  }
}

TEST(WorkloadGeneratorTest, SixProfilesHaveDistinctCharacter) {
  auto profiles = PaperServerProfiles(1.0);
  ASSERT_EQ(profiles.size(), 6u);
  std::vector<std::string> names;
  for (const auto& p : profiles) {
    names.push_back(p.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"Africa", "Asia", "Australia", "Europe",
                                             "NorthAmerica", "SouthAmerica"}));
  // The paper's volume/diversity ordering: SouthAmerica busiest & most
  // diverse, Asia most concentrated.
  const ServerProfile& asia = profiles[1];
  const ServerProfile& europe = profiles[3];
  const ServerProfile& south_america = profiles[5];
  EXPECT_LT(asia.catalog_size, europe.catalog_size);
  EXPECT_GT(south_america.catalog_size, europe.catalog_size);
  EXPECT_GT(south_america.base_request_rate, europe.base_request_rate);
  // Smaller Pareto shape = heavier weight tail = demand concentrated on few
  // hot videos (Asia); larger = flatter/more diverse (South America).
  EXPECT_LT(asia.popularity_shape, south_america.popularity_shape);
}


// --- Golden pins ------------------------------------------------------------
//
// RequestDigest and request count of Generate() for configurations that
// exercise every branch of the window engine: churn, ramps, weight floors,
// refresh cadences that do and do not divide the duration, flat and deep
// diurnal swings, a negative timezone, heavy short-lived uploads and a trace
// long enough for the whole pre-existing transient catalog to perish. The
// engine's fast paths (live-set scan, in-place alias rebuild, squeezed
// thinning test) must reproduce every draw and every floating-point value, so
// these values never move unless the generator's model does. A pooled
// GeneratedStream runs the same engine and must match each pin too.

struct GeneratorPin {
  std::string name;
  WorkloadConfig config;
  uint64_t digest;
  uint64_t count;
};

void ExpectPinned(const GeneratorPin& pin, exec::ThreadPool& generator_pool) {
  SCOPED_TRACE(pin.name);
  RequestDigest generated;
  const Trace trace = WorkloadGenerator(pin.config).Generate().trace;
  generated.Fold(trace.requests.data(), trace.requests.size());
  EXPECT_EQ(generated.value(), pin.digest) << std::hex << "0x" << generated.value();
  EXPECT_EQ(generated.count(), pin.count);

  GeneratedStreamOptions options;
  options.generator_pool = &generator_pool;
  GeneratedStream stream(pin.config, options);
  RequestDigest streamed;
  for (RequestSpan span = stream.Next(4096); !span.empty(); span = stream.Next(4096)) {
    streamed.Fold(span.data, span.count);
  }
  EXPECT_EQ(streamed.value(), pin.digest) << std::hex << "0x" << streamed.value();
  EXPECT_EQ(streamed.count(), pin.count);
}

exec::ThreadPoolOptions TwoWorkers() {
  exec::ThreadPoolOptions options;
  options.num_threads = 2;
  return options;
}

TEST(GeneratorPinTest, SixPaperServersOverThirtyDays) {
  const uint64_t digests[] = {0x618bf372ea730d9fULL, 0x25c8dd79ed2fd5d8ULL, 0x493de9d59d60d5bdULL,
                              0xb0fc175d05d1e651ULL, 0x66db3554235f449dULL, 0xe8b2b4c03182f3faULL};
  const uint64_t counts[] = {71277, 104243, 77999, 129809, 175064, 221418};
  exec::ThreadPool generator_pool(TwoWorkers());
  const std::vector<ServerProfile> profiles = PaperServerProfiles(0.25);
  ASSERT_EQ(profiles.size(), 6u);
  for (size_t i = 0; i < profiles.size(); ++i) {
    WorkloadConfig config;
    config.profile = profiles[i];
    config.seed = util::SplitSeed(7, i);
    config.duration_seconds = 30.0 * 86400.0;
    ExpectPinned({profiles[i].name, config, digests[i], counts[i]}, generator_pool);
  }
}

TEST(GeneratorPinTest, EuropeVariants) {
  auto europe = [](void (*mutate)(WorkloadConfig&)) {
    WorkloadConfig config;
    config.profile = EuropeProfile(0.1);
    config.seed = 3;
    config.duration_seconds = 2.5 * 86400.0;
    mutate(config);
    return config;
  };
  const std::vector<GeneratorPin> pins = {
      {"defaults", europe([](WorkloadConfig&) {}), 0x451cdaf2bf5e1cebULL, 4251},
      {"no ramp", europe([](WorkloadConfig& c) { c.new_video_ramp_seconds = 0.0; }),
       0xfabac6020f01fdf4ULL, 4250},
      {"floor 0", europe([](WorkloadConfig& c) { c.weight_floor_fraction = 0.0; }),
       0xa919d02b6805f903ULL, 4251},
      {"floor 0.5", europe([](WorkloadConfig& c) { c.weight_floor_fraction = 0.5; }),
       0xf2535a98860166edULL, 4251},
      {"all transient", europe([](WorkloadConfig& c) { c.profile.evergreen_fraction = 0.0; }),
       0x4406cc1c3b324a4dULL, 4217},
      {"refresh 1h", europe([](WorkloadConfig& c) { c.popularity_refresh_seconds = 3600.0; }),
       0x5e219d975eb0bdbbULL, 4275},
      {"refresh 7h",
       europe([](WorkloadConfig& c) { c.popularity_refresh_seconds = 7.0 * 3600.0; }),
       0x2c652614553f8fe7ULL, 4236},
      {"refresh 24h",
       europe([](WorkloadConfig& c) { c.popularity_refresh_seconds = 24.0 * 3600.0; }),
       0x42a56e18679c5b13ULL, 4280},
      {"flat diurnal", europe([](WorkloadConfig& c) { c.profile.diurnal_amplitude = 0.0; }),
       0xce341e0127865022ULL, 4501},
      {"deep diurnal", europe([](WorkloadConfig& c) { c.profile.diurnal_amplitude = 0.97; }),
       0xe776004db6da9adaULL, 3973},
      {"timezone -11.5h",
       europe([](WorkloadConfig& c) { c.profile.timezone_offset_hours = -11.5; }),
       0x64ab2446e9ba226bULL, 4703},
      {"heavy short-lived uploads", europe([](WorkloadConfig& c) {
         c.profile.new_videos_per_day = 5000.0;
         c.profile.transient_tau_days = 0.2;
       }),
       0x1197cbf34bc886b8ULL, 4216},
      {"40 days", europe([](WorkloadConfig& c) { c.duration_seconds = 40.0 * 86400.0; }),
       0x4eae5265c25f3d13ULL, 69156},
  };
  exec::ThreadPool generator_pool(TwoWorkers());
  for (const GeneratorPin& pin : pins) {
    ExpectPinned(pin, generator_pool);
  }
}

}  // namespace
}  // namespace vcdn::trace
