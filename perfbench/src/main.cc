// Command-line entry of the benchmark: runs one workload and prints a
// provenance line, then the result as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 0 only when every correctness gate held; 2 on a bad command line.

#include <unistd.h>

#include <cstdio>
#include <string>

#include "nn/simd.h"
#include "perfbench/src/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace openbg::perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  RunOptions opts;
  util::Status st = ParseArgs(argc, argv, &opts);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n%s\n", st.message().c_str(), Usage());
    return 2;
  }
  RunResult r = RunWorkload(opts);

  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"workload_threads\": %zu, "
      "\"nn_kernel\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"commit\": %s}}\n",
      JsonString(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN), r.threads,
      JsonString(nn::simd::Active().name).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString("g++ " __VERSION__).c_str(), JsonString(opts.commit).c_str());
  if (!r.rounds_json.empty()) {
    std::printf("{\"rounds\": %s}\n", r.rounds_json.c_str());
  }
  for (const std::string& e : r.gate_errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }

  std::string metrics;
  for (const auto& [name, m] : r.metrics) {
    if (!metrics.empty()) metrics += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += JsonString(name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace openbg::perfbench

int main(int argc, char** argv) { return openbg::perfbench::Main(argc, argv); }
