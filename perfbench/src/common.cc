#include "perfbench/src/common.h"

#include "util/rng.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>

namespace openbg::perfbench {
namespace {

bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParsePositive(const char* s, double* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !std::isfinite(v) || v <= 0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

const char* Usage() {
  return "usage: perfbench --workload "
         "<wire_mixed|topk_uncached|graph_rw|train_kge> [--seed <n>] "
         "[--seconds <s>] [--trace <0|1>] [--workdir <dir>] "
         "[--commit <rev>]";
}

util::Status ParseArgs(int argc, const char* const* argv, RunOptions* out) {
  RunOptions opts;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    static const std::set<std::string> kFlags = {
        "--workload", "--seed", "--seconds", "--trace", "--workdir",
        "--commit"};
    if (kFlags.count(flag) == 0) {
      return util::Status::InvalidArgument("unknown argument '" + flag + "'");
    }
    if (!seen.insert(flag).second) {
      return util::Status::InvalidArgument("repeated flag " + flag);
    }
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      return util::Status::InvalidArgument(flag + " needs a value");
    }
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      ok = ParseUint(value, &opts.seed);
    } else if (flag == "--seconds") {
      ok = ParsePositive(value, &opts.seconds);
    } else if (flag == "--trace") {
      ok = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      opts.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--workdir") {
      opts.workdir = value;
    } else {
      opts.commit = value;
    }
    if (!ok) {
      return util::Status::InvalidArgument("bad value '" + std::string(value) +
                                           "' for " + flag);
    }
  }
  if (opts.workload.empty()) {
    return util::Status::InvalidArgument("--workload is required");
  }
  *out = opts;
  return util::Status::OK();
}

void RunResult::Fail(std::string why) {
  correct = false;
  ++failed;
  if (gate_errors.size() < 20) gate_errors.push_back(std::move(why));
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

Samples::Samples() : kept_(kCapacity) {}

void Samples::Add(double v) {
  ++count_;
  if (size_ < kept_.size()) {
    kept_[size_++] = v;
    return;
  }
  rng_state_ = util::SplitMix64(rng_state_);
  const uint64_t j = rng_state_ % count_;
  if (j < kept_.size()) kept_[j] = v;
}

double Samples::Percentile(double p) const {
  return perfbench::Percentile(
      std::vector<double>(kept_.begin(), kept_.begin() + size_), p);
}

void Samples::Merge(const Samples& other) {
  for (size_t i = 0; i < other.size_; ++i) Add(other.kept_[i]);
  // Each kept sample of `other` stood for several when it overflowed.
  count_ += other.count_ - other.size_;
}

void RoundMedians::Add(const std::string& name, double value,
                       const std::string& unit) {
  auto& [values, u] = values_[name];
  values.push_back(value);
  u = unit;
}

void RoundMedians::Report(RunResult* r) const {
  std::string out = "{";
  for (const auto& [name, v] : values_) {
    r->Set(name, Median(v.first), v.second);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": [";
    for (size_t i = 0; i < v.first.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.6g", i > 0 ? ", " : "", v.first[i]);
      out += buf;
    }
    out += "]";
  }
  r->rounds_json = out + "}";
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t Digest(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

// ---- Trace ----------------------------------------------------------------

int Trace::FindName(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

uint32_t Trace::Intern(std::string_view name) {
  int i = FindName(name);
  if (i >= 0) return static_cast<uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

int64_t Trace::Begin(std::string_view name, uint64_t request, int64_t parent) {
  if (!enabled_) return kNoParent;
  Span s;
  s.name = Intern(name);
  s.request = request;
  s.parent = parent;
  s.start = Clock::now();
  s.end = s.start;
  spans_.push_back(s);
  return static_cast<int64_t>(spans_.size() - 1);
}

void Trace::End(int64_t span) {
  if (span >= 0) spans_[static_cast<size_t>(span)].end = Clock::now();
}

int64_t Trace::Add(std::string_view name, Clock::time_point start,
                   Clock::time_point end, uint64_t request, int64_t parent) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{Intern(name), request, parent, start, end});
  return static_cast<int64_t>(spans_.size() - 1);
}

void Trace::Merge(const Trace& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (const Span& s : other.spans_) {
    Span c = s;
    c.name = Intern(other.names_[s.name]);
    if (c.parent != kNoParent) c.parent += base;
    spans_.push_back(c);
  }
}

std::vector<double> Trace::Durations(std::string_view name) const {
  std::vector<double> out;
  const int id = FindName(name);
  if (id < 0) return out;
  for (const Span& s : spans_) {
    if (s.name == static_cast<uint32_t>(id)) {
      out.push_back(
          std::chrono::duration<double, std::micro>(s.end - s.start).count());
    }
  }
  return out;
}

std::vector<double> Trace::AllSelfTimes() const {
  // Children grouped by parent; the covered part of a parent is the union
  // of its children's intervals clipped to the parent's own.
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(spans_.size());
  std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    iv.clear();
    for (size_t c : children[i]) {
      Clock::time_point a = std::max(spans_[c].start, p.start);
      Clock::time_point b = std::min(spans_[c].end, p.end);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    Clock::duration covered{0};
    Clock::time_point reach = p.start;
    for (const auto& [a, b] : iv) {
      Clock::time_point from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[i] = std::chrono::duration<double, std::micro>(
                  (p.end - p.start) - covered)
                  .count();
  }
  return self;
}

std::vector<double> Trace::SelfTimes(std::string_view name) const {
  std::vector<double> out;
  const int id = FindName(name);
  if (id < 0) return out;
  std::vector<double> self = AllSelfTimes();
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == static_cast<uint32_t>(id)) out.push_back(self[i]);
  }
  return out;
}

util::Status Trace::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return util::Status::IoError("cannot write " + path);
  std::vector<double> self = AllSelfTimes();
  Clock::time_point t0 = spans_.empty() ? Clock::time_point{} : spans_[0].start;
  for (const Span& s : spans_) t0 = std::min(t0, s.start);
  std::fprintf(f, "name\trequest\tparent\tstart_ns\tend_ns\tself_ns\n");
  // The file is for reading by eye and by scripts; the first spans of the
  // traced window are a fair sample and keep it small.
  constexpr size_t kMaxWritten = 200000;
  for (size_t i = 0; i < spans_.size() && i < kMaxWritten; ++i) {
    const Span& s = spans_[i];
    auto ns = [&](Clock::time_point t) {
      return static_cast<long long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count());
    };
    std::fprintf(f, "%s\t%llu\t%lld\t%lld\t%lld\t%.0f\n",
                 names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent), ns(s.start), ns(s.end),
                 self[i] * 1e3);
  }
  return std::fclose(f) == 0 ? util::Status::OK()
                             : util::Status::IoError("cannot write " + path);
}

}  // namespace openbg::perfbench
