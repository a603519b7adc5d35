// Shared pieces of the libvcdn benchmark: the report every workload fills,
// wall-clock and memory readouts, and the forwarding decorators the traced
// run wraps around the library's entry points (RequestStream::Next and
// CacheAlgorithm::HandleRequestBatch). The decorators only time and count;
// every decision is made by the wrapped object, so a traced replay must
// produce the same digests as an untraced one.
#ifndef VCDN_PERFBENCH_PROBES_H_
#define VCDN_PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cache_algorithm.h"
#include "src/trace/request_stream.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double Median(std::vector<double> values);
// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double Quantile(std::vector<double> values, double q);
// Resident set of this process now (/proc/self/statm) and its lifetime peak
// (getrusage), in MiB.
double CurrentRssMib();
double PeakRssMib();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for files a workload writes (the packed trace).
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Threads the workload started, all of them counted against nproc.
  size_t threads = 0;
  // Every figure the workload measured, end-to-end and per-layer alike;
  // run.py selects the ones BENCHMARK.json names for the mode.
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  // Records an output-check failure: the run's result is wrong.
  void Fail(const std::string& why);
};

// Counters one traced shard fills. Owned by the caller; one per shard so
// shards never share a cache line of counters across threads.
struct LayerProbe {
  double next_s = 0.0;
  double decide_s = 0.0;
  uint64_t batches = 0;
  uint64_t requests = 0;
  uint64_t allocs = 0;
  uint64_t hit_chunks = 0;
  uint64_t requested_chunks = 0;
  double max_rss_mib = 0.0;
};

// RequestStream that times every Next() of the stream it wraps and samples
// the process RSS once per pull (spans are ~4K requests, so sampling is
// cheap next to the replay).
class TimedStream final : public vcdn::trace::RequestStream {
 public:
  TimedStream(std::unique_ptr<vcdn::trace::RequestStream> inner, LayerProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}
  vcdn::trace::RequestSpan Next(size_t max) override;
  double duration() const override { return inner_->duration(); }
  uint64_t total_requests_hint() const override { return inner_->total_requests_hint(); }
  vcdn::util::Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<vcdn::trace::RequestStream> inner_;
  LayerProbe* probe_;
};

// CacheAlgorithm that forwards to a cache built by core::MakeCache and times
// each HandleRequestBatch call, counting allocations made inside it.
class TimedCache final : public vcdn::core::CacheAlgorithm {
 public:
  TimedCache(std::unique_ptr<vcdn::core::CacheAlgorithm> inner, LayerProbe* probe)
      : CacheAlgorithm(inner->config()), inner_(std::move(inner)), probe_(probe) {}
  void Prepare(const vcdn::trace::Trace& trace) override { inner_->Prepare(trace); }
  bool requires_full_trace() const override { return inner_->requires_full_trace(); }
  std::string_view name() const override { return inner_->name(); }
  void SetAlphaF2r(double alpha_f2r) override {
    CacheAlgorithm::SetAlphaF2r(alpha_f2r);
    inner_->SetAlphaF2r(alpha_f2r);
  }
  uint64_t used_chunks() const override { return inner_->used_chunks(); }
  bool ContainsChunk(const vcdn::core::ChunkId& chunk) const override {
    return inner_->ContainsChunk(chunk);
  }

 protected:
  vcdn::core::RequestOutcome HandleRequestImpl(const vcdn::trace::Request& request) override;
  void HandleRequestBatchImpl(const vcdn::trace::Request* requests, size_t count,
                              vcdn::core::RequestOutcome* outcomes) override;
  // Resize/DropContents on the decorator re-target the wrapped cache.
  uint64_t EvictDownTo(uint64_t max_chunks) override {
    return max_chunks == 0 ? inner_->DropContents() : inner_->Resize(max_chunks);
  }

 private:
  std::unique_ptr<vcdn::core::CacheAlgorithm> inner_;
  LayerProbe* probe_;
};

// Workload entry points (fleet.cc, edge.cc).
void RunFleetStream(const Args& args, Report& report);
void RunFleetMmap(const Args& args, Report& report);
void RunEdgeServe(const Args& args, Report& report);

}  // namespace perfbench

#endif  // VCDN_PERFBENCH_PROBES_H_
