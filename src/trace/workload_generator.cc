// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/trace/workload_generator.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/distributions.h"
#include "src/util/rng.h"

namespace vcdn::trace {

namespace {

constexpr double kSecondsPerDay = 86400.0;
constexpr double kSecondsPerWeek = 7.0 * kSecondsPerDay;
// Age of the oldest pre-existing catalog entries relative to trace start.
constexpr double kCatalogHistorySeconds = 45.0 * kSecondsPerDay;
// Minimum bytes a view consumes (a player fetches at least its startup buffer).
constexpr uint64_t kMinViewBytes = 64ull << 10;
// A transient past its ramp leaves the window scan once its weight is this
// far below the floor: its weight only decays from then on, and the margin
// keeps rounding from retiring a video a later window would still admit.
constexpr double kRetireBelowFloor = 1.0 - 1e-9;
// Widening of the thinning-acceptance bounds; covers the rounding of the
// phases and of sin() at the window's edges many times over.
constexpr double kAcceptanceMargin = 1e-7;

// Phases of DiurnalFactor's daily and weekly sines at absolute time t,
// computed exactly as DiurnalFactor computes them.
double DailyPhase(const ServerProfile& profile, double t) {
  double local = t + profile.timezone_offset_hours * 3600.0;
  return 2.0 * M_PI * (local / kSecondsPerDay) - 2.0 * M_PI * 14.0 / 24.0;
}
double WeeklyPhase(const ServerProfile& profile, double t) {
  double local = t + profile.timezone_offset_hours * 3600.0;
  return 2.0 * M_PI * local / kSecondsPerWeek;
}

// Envelope rate of the thinning: the diurnal factor never exceeds
// 1 + amplitude + 0.08.
double LambdaMax(const ServerProfile& profile) {
  return profile.base_request_rate * (1.0 + profile.diurnal_amplitude + 0.1);
}

// Range of sin over the phase interval [x0, x1]: the endpoints, or +-1 where
// a crest (pi/2 + 2 pi k) or trough (-pi/2 + 2 pi k) falls inside.
struct SineRange {
  double lo;
  double hi;
};
SineRange SineRangeOver(double x0, double x1) {
  VCDN_DCHECK(x0 <= x1);
  auto holds = [&](double extremum) {
    double k = std::ceil((x0 - extremum) / (2.0 * M_PI));
    return extremum + 2.0 * M_PI * k <= x1;
  };
  SineRange range{std::min(std::sin(x0), std::sin(x1)), std::max(std::sin(x0), std::sin(x1))};
  if (x1 - x0 >= 2.0 * M_PI || holds(0.5 * M_PI)) {
    range.hi = 1.0;
  }
  if (x1 - x0 >= 2.0 * M_PI || holds(-0.5 * M_PI)) {
    range.lo = -1.0;
  }
  return range;
}

// Distinct PCG32 stream ids so that each aspect of generation has an
// independent, reproducible random sequence.
enum RngStream : uint64_t {
  kStreamCatalog = 1,
  kStreamArrivals = 2,
  kStreamVideoPick = 3,
  kStreamRange = 4,
};

}  // namespace

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config) : config_(std::move(config)) {
  VCDN_CHECK(config_.duration_seconds > 0.0);
  VCDN_CHECK(config_.popularity_refresh_seconds > 0.0);
  VCDN_CHECK(config_.profile.catalog_size > 0);
  VCDN_CHECK(config_.profile.base_request_rate > 0.0);
  VCDN_CHECK(config_.profile.diurnal_amplitude >= 0.0 && config_.profile.diurnal_amplitude < 1.0);
}

WindowedWorkload::WindowedWorkload(WorkloadConfig config)
    : config_(std::move(config)),
      arrival_rng_(config_.seed, kStreamArrivals),
      pick_rng_(config_.seed, kStreamVideoPick),
      range_rng_(config_.seed, kStreamRange) {
  VCDN_CHECK(config_.duration_seconds > 0.0);
  VCDN_CHECK(config_.popularity_refresh_seconds > 0.0);
  VCDN_CHECK(config_.profile.catalog_size > 0);
  VCDN_CHECK(config_.profile.base_request_rate > 0.0);
  VCDN_CHECK(config_.profile.diurnal_amplitude >= 0.0 && config_.profile.diurnal_amplitude < 1.0);

  const ServerProfile& profile = config_.profile;
  util::Pcg32 catalog_rng(config_.seed, kStreamCatalog);
  lambda_max_ = LambdaMax(profile);

  auto make_video = [&](VideoId id, double birth) {
    VideoMeta v;
    v.id = id;
    v.birth_time = birth;
    double size = util::SampleLogNormal(catalog_rng, profile.size_lognormal_mu,
                                        profile.size_lognormal_sigma);
    size = std::clamp(size, static_cast<double>(profile.min_video_bytes),
                      static_cast<double>(profile.max_video_bytes));
    v.size_bytes = static_cast<uint64_t>(size);
    v.base_weight = util::SamplePareto(catalog_rng, 1.0, profile.popularity_shape);
    if (catalog_rng.NextBool(profile.evergreen_fraction)) {
      v.video_class = VideoClass::kEvergreen;
      v.decay_tau = 0.0;
    } else {
      v.video_class = VideoClass::kTransient;
      // Per-video decay constant around the profile mean (at least 12 hours).
      double tau = util::SampleExponential(catalog_rng, profile.transient_tau_days) + 0.5;
      v.decay_tau = tau * kSecondsPerDay;
    }
    return v;
  };

  // Pre-existing catalog: births spread over the history window so transient
  // entries are at various stages of decay at trace start.
  catalog_.videos.reserve(profile.catalog_size + 16);
  for (size_t i = 0; i < profile.catalog_size; ++i) {
    double birth = -kCatalogHistorySeconds * catalog_rng.NextDouble();
    catalog_.videos.push_back(make_video(static_cast<VideoId>(i), birth));
  }

  // Catalog churn: Poisson new-video uploads throughout the trace.
  double upload_rate = profile.new_videos_per_day / kSecondsPerDay;
  if (upload_rate > 0.0) {
    double t = util::SampleExponential(catalog_rng, 1.0 / upload_rate);
    while (t < config_.duration_seconds) {
      catalog_.videos.push_back(make_video(static_cast<VideoId>(catalog_.videos.size()), t));
      t += util::SampleExponential(catalog_rng, 1.0 / upload_rate);
    }
  }
  // NextWindow admits videos to its scan in catalog order and stops at the
  // first one not yet born, so uploads must follow the pre-existing entries
  // (all born before the trace starts) in birth order.
  VCDN_DCHECK(std::is_sorted(catalog_.videos.begin() + static_cast<ptrdiff_t>(profile.catalog_size),
                             catalog_.videos.end(), [](const VideoMeta& a, const VideoMeta& b) {
                               return a.birth_time < b.birth_time;
                             }));
}

bool WindowedWorkload::NextWindow(std::vector<Request>* out) {
  if (window_start_ >= config_.duration_seconds) {
    return false;
  }
  const ServerProfile& profile = config_.profile;
  double window_end =
      std::min(window_start_ + config_.popularity_refresh_seconds, config_.duration_seconds);
  double window_mid = 0.5 * (window_start_ + window_end);

  // Videos born by the midpoint join the scan; the rest weigh 0 this window.
  while (next_unborn_ < catalog_.videos.size() &&
         catalog_.videos[next_unborn_].birth_time <= window_mid) {
    live_.push_back(static_cast<uint32_t>(next_unborn_++));
  }

  // Rebuild the sampling table from demand weights at the window midpoint,
  // and retire the transients that perished for good: past the ramp and
  // clearly below the floor, a transient's weight only decays.
  active_ids_.clear();
  std::vector<double> weights;
  weights.reserve(live_.size());
  size_t kept = 0;
  for (uint32_t id : live_) {
    const VideoMeta& v = catalog_.videos[id];
    double w = WorkloadGenerator::VideoWeightAt(v, window_mid, config_);
    double floor = config_.weight_floor_fraction * v.base_weight;
    if (w > floor && w > 0.0) {
      active_ids_.push_back(id);
      weights.push_back(w);
    } else if (v.video_class == VideoClass::kTransient &&
               window_mid - v.birth_time >= config_.new_video_ramp_seconds &&
               w < floor * kRetireBelowFloor) {
      continue;
    }
    live_[kept++] = id;
  }
  live_.resize(kept);
  if (active_ids_.empty()) {
    window_start_ += config_.popularity_refresh_seconds;
    return true;
  }
  util::AliasTable table(std::move(weights));

  // The thinning acceptance probability is strictly inside (0, 1), so
  // NextBool(accept) would draw exactly one double. Draw it here and settle
  // it against the window's bounds, evaluating the diurnal factor only for
  // draws that fall between them.
  const WorkloadGenerator::AcceptanceBounds bounds =
      WorkloadGenerator::AcceptanceBoundsOver(profile, window_start_, window_end);
  VCDN_CHECK(0.0 < bounds.lo && bounds.lo <= bounds.hi && bounds.hi < 1.0);
  const double mean_gap = 1.0 / lambda_max_;

  // Request arrivals: non-homogeneous Poisson process sampled by thinning
  // against the maximum rate.
  double t = window_start_;
  for (;;) {
    t += util::SampleExponential(arrival_rng_, mean_gap);
    if (t >= window_end) {
      break;
    }
    const double draw = arrival_rng_.NextDouble();
    const bool accepted = draw < bounds.lo ||
                          (draw < bounds.hi && draw < WorkloadGenerator::AcceptanceAt(profile, t));
#ifndef NDEBUG
    const double exact = WorkloadGenerator::AcceptanceAt(profile, t);
    VCDN_DCHECK(bounds.lo <= exact && exact <= bounds.hi && accepted == (draw < exact));
#endif
    if (!accepted) {
      continue;
    }

    const VideoMeta& video = catalog_.videos[active_ids_[table.Sample(pick_rng_)]];
    if (video.birth_time > t) {
      // Born later in this sampling window; it cannot be requested yet.
      continue;
    }

    Request r;
    r.arrival_time = t;
    r.video = video.id;

    // Intra-file pattern: most views start at the head of the file; others
    // seek into the early part (quadratic skew toward the beginning). View
    // length is an exponential fraction of the file, truncated at EOF.
    uint64_t size = video.size_bytes;
    uint64_t start = 0;
    if (!range_rng_.NextBool(profile.start_at_zero_probability)) {
      double u = range_rng_.NextDouble();
      double start_fraction = 0.75 * u * u;
      start = static_cast<uint64_t>(start_fraction * static_cast<double>(size - 1));
    }
    double view_fraction = util::SampleExponential(range_rng_, profile.mean_view_fraction);
    auto view_bytes = static_cast<uint64_t>(view_fraction * static_cast<double>(size));
    view_bytes = std::max(view_bytes, kMinViewBytes);
    uint64_t end = start + view_bytes - 1;
    end = std::min(end, size - 1);

    r.byte_begin = start;
    r.byte_end = end;
    out->push_back(r);
  }

  window_start_ += config_.popularity_refresh_seconds;
  return true;
}

double WorkloadGenerator::DiurnalFactor(const ServerProfile& profile, double t) {
  // Server-local time-of-day; demand peaks at ~20:00 local and bottoms out at
  // ~08:00 local (the daily phase is shifted by 14h: sin peaks at phase pi/2,
  // i.e. 6h after the shifted origin). A mild weekly swing is superimposed.
  double daily = std::sin(DailyPhase(profile, t));
  double weekly = 0.08 * std::sin(WeeklyPhase(profile, t));
  double factor = 1.0 + profile.diurnal_amplitude * daily + weekly;
  return std::max(factor, 0.05);
}

double WorkloadGenerator::AcceptanceAt(const ServerProfile& profile, double t) {
  return profile.base_request_rate * DiurnalFactor(profile, t) / LambdaMax(profile);
}

WorkloadGenerator::AcceptanceBounds WorkloadGenerator::AcceptanceBoundsOver(
    const ServerProfile& profile, double t0, double t1) {
  VCDN_CHECK(t0 <= t1);
  // Every step from the sines to the acceptance is monotone, so the sines'
  // ranges bound it; max(., 0.05) mirrors DiurnalFactor's floor.
  SineRange daily = SineRangeOver(DailyPhase(profile, t0), DailyPhase(profile, t1));
  SineRange weekly = SineRangeOver(WeeklyPhase(profile, t0), WeeklyPhase(profile, t1));
  double factor_lo = 1.0 + profile.diurnal_amplitude * daily.lo + 0.08 * weekly.lo;
  double factor_hi = 1.0 + profile.diurnal_amplitude * daily.hi + 0.08 * weekly.hi;
  double lambda_max = LambdaMax(profile);
  return {profile.base_request_rate * std::max(factor_lo, 0.05) / lambda_max - kAcceptanceMargin,
          profile.base_request_rate * std::max(factor_hi, 0.05) / lambda_max + kAcceptanceMargin};
}

double WorkloadGenerator::VideoWeightAt(const VideoMeta& video, double t,
                                        const WorkloadConfig& config) {
  if (t < video.birth_time) {
    return 0.0;
  }
  double age = t - video.birth_time;
  double ramp = 1.0;
  if (config.new_video_ramp_seconds > 0.0 && age < config.new_video_ramp_seconds) {
    ramp = age / config.new_video_ramp_seconds;
  }
  double decay = 1.0;
  if (video.video_class == VideoClass::kTransient) {
    VCDN_DCHECK(video.decay_tau > 0.0);
    decay = std::exp(-age / video.decay_tau);
  }
  return video.base_weight * ramp * decay;
}

GeneratedWorkload WorkloadGenerator::Generate() {
  WindowedWorkload windows(config_);

  GeneratedWorkload out;
  Trace& trace = out.trace;
  trace.duration = config_.duration_seconds;
  trace.requests.reserve(
      static_cast<size_t>(config_.profile.base_request_rate * config_.duration_seconds * 1.05) +
      16);
  while (windows.NextWindow(&trace.requests)) {
  }
  out.catalog = windows.TakeCatalog();

  VCDN_CHECK(trace.IsWellFormed());

  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *config_.metrics;
    registry.GetCounter("workload.generated_requests_total")
        .Increment(trace.requests.size());
    registry.GetGauge("workload.catalog_videos")
        .Set(static_cast<double>(out.catalog.videos.size()));
    registry.GetGauge("workload.duration_seconds").Set(trace.duration);
    registry.GetGauge("workload.arrival_rate_per_sec")
        .Set(trace.duration > 0.0
                 ? static_cast<double>(trace.requests.size()) / trace.duration
                 : 0.0);
  }
  return out;
}

std::vector<GeneratedWorkload> GenerateWorkloads(const std::vector<WorkloadConfig>& configs,
                                                 const ParallelGenerateOptions& options) {
  std::vector<GeneratedWorkload> out(configs.size());
  if (configs.empty()) {
    return out;
  }

  exec::ThreadPool* pool = options.pool;
  std::optional<exec::ThreadPool> owned_pool;
  if (pool == nullptr && options.threads != 1) {
    owned_pool.emplace(exec::ThreadPoolOptions{options.threads, nullptr, nullptr});
    pool = &*owned_pool;
  }

  // Buffer per-config metrics locally so concurrent shards never write the
  // shared registry; merging in config order after the join makes the
  // registry contents identical to a sequential run.
  std::vector<std::optional<obs::MetricsRegistry>> local_metrics(configs.size());
  auto shard_config = [&](size_t i) {
    WorkloadConfig config = configs[i];
    if (config.metrics != nullptr) {
      local_metrics[i].emplace();
      config.metrics = &*local_metrics[i];
    }
    return config;
  };

  if (pool == nullptr) {
    for (size_t i = 0; i < configs.size(); ++i) {
      out[i] = WorkloadGenerator(shard_config(i)).Generate();
    }
  } else {
    exec::Latch done(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
      pool->Submit(
          [&, i] {
            out[i] = WorkloadGenerator(shard_config(i)).Generate();
            done.CountDown();
          },
          "workload.generate");
    }
    done.Wait();
  }

  for (size_t i = 0; i < configs.size(); ++i) {
    if (local_metrics[i].has_value()) {
      configs[i].metrics->MergeFrom(*local_metrics[i]);
    }
  }
  return out;
}

}  // namespace vcdn::trace
