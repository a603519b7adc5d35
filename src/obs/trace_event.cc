// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/obs/trace_event.h"

#include <fstream>

#include "src/obs/json_util.h"

namespace vcdn::obs {

TraceEventSink::TraceEventSink() : origin_(std::chrono::steady_clock::now()) {}

double TraceEventSink::NowMicros() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

void TraceEventSink::AddComplete(std::string_view name, std::string_view category, double ts_us,
                                 double dur_us) {
  TraceEvent event;
  event.name = std::string(name);
  event.category = std::string(category);
  event.phase = 'X';
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  events_.push_back(std::move(event));
}

void TraceEventSink::AddInstant(std::string_view name, std::string_view category) {
  TraceEvent event;
  event.name = std::string(name);
  event.category = std::string(category);
  event.phase = 'i';
  event.ts_us = NowMicros();
  events_.push_back(std::move(event));
}

void TraceEventSink::AddCounter(std::string_view name, double value, double ts_us) {
  TraceEvent event;
  event.name = std::string(name);
  event.category = "metrics";
  event.phase = 'C';
  event.ts_us = ts_us;
  event.value = value;
  events_.push_back(std::move(event));
}

void TraceEventSink::SnapshotRegistry(const MetricsRegistry& registry) {
  const double now_us = NowMicros();
  for (const auto& [name, value] : registry.CounterSamples()) {
    AddCounter(name, static_cast<double>(value), now_us);
  }
  for (const auto& [name, value] : registry.GaugeSamples()) {
    AddCounter(name, value, now_us);
  }
  ++num_snapshots_;
  if (snapshot_stream_ != nullptr) {
    std::ostream& out = *snapshot_stream_;
    out << "{\"ts_us\":";
    WriteJsonDouble(out, now_us);
    out << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : registry.CounterSamples()) {
      if (!first) {
        out << ",";
      }
      first = false;
      WriteJsonString(out, name);
      out << ":" << value;
    }
    out << "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : registry.GaugeSamples()) {
      if (!first) {
        out << ",";
      }
      first = false;
      WriteJsonString(out, name);
      out << ":";
      WriteJsonDouble(out, value);
    }
    out << "}}\n";
  }
}

void TraceEventSink::Append(const TraceEventSink& other, int tid) {
  events_.reserve(events_.size() + other.events_.size());
  for (TraceEvent event : other.events_) {
    event.tid = tid;
    events_.push_back(std::move(event));
  }
  num_snapshots_ += other.num_snapshots_;
}

namespace {

void WriteEvent(std::ostream& out, const TraceEvent& event) {
  out << "{\"name\":";
  WriteJsonString(out, event.name);
  out << ",\"cat\":";
  WriteJsonString(out, event.category.empty() ? std::string_view("vcdn")
                                              : std::string_view(event.category));
  out << ",\"ph\":\"" << event.phase << "\",\"pid\":1,\"tid\":" << event.tid << ",\"ts\":";
  WriteJsonDouble(out, event.ts_us);
  if (event.phase == 'X') {
    out << ",\"dur\":";
    WriteJsonDouble(out, event.dur_us);
  } else if (event.phase == 'i') {
    out << ",\"s\":\"t\"";
  } else if (event.phase == 'C') {
    out << ",\"args\":{\"value\":";
    WriteJsonDouble(out, event.value);
    out << "}";
  }
  out << "}";
}

}  // namespace

void TraceEventSink::WriteTraceEventsArray(std::ostream& out) const {
  out << "[";
  for (size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    WriteEvent(out, events_[i]);
  }
  out << "]";
}

void TraceEventSink::WriteTraceJson(std::ostream& out) const {
  out << "{\"traceEvents\":";
  WriteTraceEventsArray(out);
  out << ",\"displayTimeUnit\":\"ms\"}";
}

void WriteObsJson(std::ostream& out, const MetricsRegistry* registry, const TraceEventSink* sink,
                  const RunMetadata* meta) {
  out << "{\"traceEvents\":";
  if (sink != nullptr) {
    sink->WriteTraceEventsArray(out);
  } else {
    out << "[]";
  }
  out << ",\"displayTimeUnit\":\"ms\",\"meta\":";
  if (meta != nullptr) {
    WriteRunMetadataJson(out, *meta);
  } else {
    WriteRunMetadataJson(out, CollectRunMetadata());
  }
  out << ",\"metrics\":";
  // A null registry writes an empty registry's document, so the shape has
  // one definition.
  const MetricsRegistry empty;
  (registry != nullptr ? registry : &empty)->WriteJson(out);
  out << "}\n";
}

util::Status WriteObsJsonFile(const std::string& path, const MetricsRegistry* registry,
                              const TraceEventSink* sink, const RunMetadata* meta) {
  std::ofstream out(path);
  if (!out) {
    return util::InvalidArgumentError("cannot open obs json path: " + path);
  }
  WriteObsJson(out, registry, sink, meta);
  out.flush();
  if (!out) {
    return util::DataLossError("short write to obs json path: " + path);
  }
  return util::OkStatus();
}

}  // namespace vcdn::obs
