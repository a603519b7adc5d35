#include "probes.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/util/alloc_hook.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double CurrentRssMib() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  correct = false;
}

vcdn::trace::RequestSpan TimedStream::Next(size_t max) {
  const Clock::time_point start = Clock::now();
  const vcdn::trace::RequestSpan span = inner_->Next(max);
  probe_->next_s += SecondsSince(start);
  probe_->max_rss_mib = std::max(probe_->max_rss_mib, CurrentRssMib());
  return span;
}

vcdn::core::RequestOutcome TimedCache::HandleRequestImpl(const vcdn::trace::Request& request) {
  vcdn::core::RequestOutcome outcome;
  HandleRequestBatchImpl(&request, 1, &outcome);
  return outcome;
}

void TimedCache::HandleRequestBatchImpl(const vcdn::trace::Request* requests, size_t count,
                                        vcdn::core::RequestOutcome* outcomes) {
  const vcdn::util::AllocScope allocs;
  const Clock::time_point start = Clock::now();
  inner_->HandleRequestBatch(requests, count, outcomes);
  probe_->decide_s += SecondsSince(start);
  probe_->allocs += allocs.Delta().allocations;
  ++probe_->batches;
  probe_->requests += count;
  for (size_t i = 0; i < count; ++i) {
    probe_->hit_chunks += outcomes[i].hit_chunks;
    probe_->requested_chunks += outcomes[i].requested_chunks;
  }
}

}  // namespace perfbench
