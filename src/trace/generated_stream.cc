// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/trace/generated_stream.h"

#include <chrono>
#include <utility>

#include "src/util/check.h"

namespace vcdn::trace {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

GeneratedStream::GeneratedStream(WorkloadConfig config, GeneratedStreamOptions options)
    : windows_(std::move(config)), options_(options) {
  if (options_.generator_pool != nullptr) {
    VCDN_CHECK(options_.lookahead_windows > 0);
    std::lock_guard<std::mutex> lock(mu_);
    PumpLocked();
  }
}

GeneratedStream::~GeneratedStream() {
  if (options_.generator_pool != nullptr) {
    // An in-flight producer task touches this object; wait it out. stopping_
    // keeps it from resubmitting itself.
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    cv_.wait(lock, [this] { return !producer_running_; });
  }
  if (options_.stats != nullptr) {
    options_.stats->consumer_wait_ns.fetch_add(consumer_wait_ns_, std::memory_order_relaxed);
    options_.stats->generate_ns.fetch_add(generate_ns_, std::memory_order_relaxed);
    options_.stats->windows.fetch_add(windows_generated_, std::memory_order_relaxed);
    options_.stats->requests.fetch_add(requests_generated_, std::memory_order_relaxed);
  }
}

void GeneratedStream::PumpLocked() {
  if (producer_running_ || engine_done_ || stopping_) {
    return;
  }
  if (ready_.size() >= options_.lookahead_windows) {
    return;
  }
  producer_running_ = true;
  options_.generator_pool->Submit([this] { ProduceOne(); }, "trace.generate_window");
}

void GeneratedStream::ProduceOne() {
  // windows_ and scratch_ are only ever touched here in pooled mode, and at
  // most one producer task is in flight (producer_running_), so no lock is
  // needed for the generation itself. The window is generated into scratch_,
  // which keeps its capacity, and parked as an exact-size copy.
  const uint64_t t0 = NowNs();
  scratch_.clear();
  const bool more = windows_.NextWindow(&scratch_);
  std::vector<Request> window(scratch_.begin(), scratch_.end());
  const uint64_t elapsed = NowNs() - t0;

  std::lock_guard<std::mutex> lock(mu_);
  generate_ns_ += elapsed;
  if (more) {
    ++windows_generated_;
    requests_generated_ += window.size();
    if (!window.empty()) {
      ready_.push_back(std::move(window));
    }
  } else {
    engine_done_ = true;
  }
  producer_running_ = false;
  PumpLocked();
  cv_.notify_all();
}

bool GeneratedStream::Refill() {
  if (options_.generator_pool == nullptr) {
    current_.clear();
    cursor_ = 0;
    while (current_.empty()) {
      if (inline_done_) {
        return false;
      }
      const uint64_t t0 = NowNs();
      const bool more = windows_.NextWindow(&current_);
      generate_ns_ += NowNs() - t0;
      if (more) {
        ++windows_generated_;
        requests_generated_ += current_.size();
      } else {
        inline_done_ = true;
      }
    }
    return true;
  }

  std::unique_lock<std::mutex> lock(mu_);
  PumpLocked();
  if (ready_.empty() && !engine_done_) {
    const uint64_t t0 = NowNs();
    cv_.wait(lock, [this] { return !ready_.empty() || engine_done_; });
    consumer_wait_ns_ += NowNs() - t0;
  }
  if (ready_.empty()) {
    return false;
  }
  current_ = std::move(ready_.front());
  ready_.pop_front();
  cursor_ = 0;
  PumpLocked();  // the pop freed a lookahead slot
  return true;
}

RequestSpan GeneratedStream::Next(size_t max) {
  VCDN_DCHECK(max > 0);
  if (cursor_ == current_.size()) {
    if (!Refill()) {
      return {};
    }
  }
  const size_t count = std::min(max, current_.size() - cursor_);
  RequestSpan span{current_.data() + cursor_, count};
  cursor_ += count;
  return span;
}

}  // namespace vcdn::trace
