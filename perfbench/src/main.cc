// libvcdn benchmark binary: runs one workload in this process and prints its
// measurements. Usage (run.py builds this binary and calls it):
//
//   vcdn_perfbench --workload fleet_stream|fleet_mmap|edge_serve --seed N
//                  --seconds S --trace 0|1 [--workdir DIR]
//
// Output: human-readable lines, then a "meta" JSON line (machine and build
// provenance) and, last, one JSON object with the run's checks and every
// figure measured. The exit code is nonzero when an output check failed.
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "probes.h"
#include "src/util/str_util.h"

namespace {

using perfbench::Args;
using perfbench::Report;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: vcdn_perfbench --workload fleet_stream|fleet_mmap|edge_serve "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[i + 1];
    uint64_t number = 0;
    double real = 0.0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && vcdn::util::ParseUint64(value, &number)) {
      args.seed = number;
    } else if (flag == "--seconds" && vcdn::util::ParseDouble(value, &real) && real > 0.0) {
      args.seconds = real;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage("bad argument " + flag + " " + value);
    }
  }
  if (args.workload.empty()) {
    Usage("--workload is required");
  }
  return args;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintMeta(const Args& args, const Report& report) {
  utsname uts{};
  uname(&uts);
  std::printf("{\"meta\": {\"nproc\": %u, \"cpu\": %s, \"kernel\": %s, \"compiler\": %s, "
              "\"build_type\": %s, \"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"threads\": %zu}}\n",
              std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
              JsonString(std::string(uts.sysname) + " " + uts.release).c_str(),
              JsonString(__VERSION__).c_str(), JsonString(VCDN_PERFBENCH_BUILD_TYPE).c_str(),
              JsonString(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, report.threads);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Report report;
  if (args.workload == "fleet_stream") {
    perfbench::RunFleetStream(args, report);
  } else if (args.workload == "fleet_mmap") {
    perfbench::RunFleetMmap(args, report);
  } else if (args.workload == "edge_serve") {
    perfbench::RunEdgeServe(args, report);
  } else {
    Usage("unknown workload " + args.workload);
  }
  if (report.attempted == 0) {
    report.Fail("the workload attempted no request");
  }
  const double fail_frac =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) / static_cast<double>(report.attempted);
  std::printf("%-32s %.6g\n", "fail_frac", report.correct ? fail_frac : 1.0);
  for (const perfbench::Metric& metric : report.metrics) {
    std::printf("%-32s %-14.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  PrintMeta(args, report);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& metric = report.metrics[i];
    // JSON has no NaN or infinity; a figure that is not finite is a bug in
    // the measurement and fails the run.
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "CHECK FAILED: metric %s is not finite\n", metric.name.c_str());
      report.correct = false;
    }
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i == 0 ? "" : ", ",
                JsonString(metric.name).c_str(), std::isfinite(metric.value) ? metric.value : 0.0,
                JsonString(metric.unit).c_str());
  }
  std::printf("}}\n");
  return report.correct ? 0 : 1;
}
