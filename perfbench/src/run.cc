#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "perfbench/src/workloads.h"
#include "util/string_util.h"

namespace openbg::perfbench {

const std::vector<MetricName>& EndToEndMetrics() {
  static const std::vector<MetricName> kMetrics = {
      {"throughput_qps", "1/s"}, {"p50_us", "us"},
      {"p90_us", "us"},          {"write_p50_us", "us"},
      {"write_p90_us", "us"},    {"train_triples_s", "1/s"},
      {"peak_rss_mib", "MiB"},   {"setup_s", "s"}};
  return kMetrics;
}

const std::vector<MetricName>& PerLayerMetrics() {
  static const std::vector<MetricName> kMetrics = {
      {"net.overhead_p50_us", "us"},
      {"net.codec_ns_per_req", "ns"},
      {"net.bytes_per_req", "bytes"},
      {"net.client_send_us", "us"},
      {"net.client_recv_wait_us", "us"},
      {"net.frames_in", "count"},
      {"net.frames_out", "count"},
      {"net.dispatched", "count"},
      {"net.shed_ratio", "ratio"},
      {"serve.inproc_p50_us.topk", "us"},
      {"serve.inproc_p50_us.neighbors", "us"},
      {"serve.inproc_p50_us.concepts", "us"},
      {"serve.inproc_p50_us.link", "us"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_invalidated", "count"},
      {"serve.cache_dropped_inserts", "count"},
      {"kge.score_tails_us", "us"},
      {"nn.scan_gbps", "GB/s"},
      {"serve.select_topk_us", "us"},
      {"serve.handoff_us", "us"},
      {"rdf.snapshot_read_us", "us"},
      {"serve.read_overhead_us", "us"},
      {"rdf.delta_size_end", "count"},
      {"rdf.blocks_verified", "count"},
      {"rdf.resident_mib", "MiB"},
      {"kge.epoch_s", "s"},
      {"kge.scaling_4x", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

RunResult RunWorkload(const RunOptions& opts) {
  RunResult r;
  if (opts.workload == "wire_mixed") {
    r = RunWireMixed(opts);
  } else if (opts.workload == "topk_uncached") {
    r = RunTopkUncached(opts);
  } else if (opts.workload == "graph_rw") {
    r = RunGraphRw(opts);
  } else if (opts.workload == "train_kge") {
    r = RunTrainKge(opts);
  } else {
    r.Fail("unknown workload '" + opts.workload + "'");
    return r;
  }
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (nproc > 0 && r.threads > static_cast<size_t>(nproc)) {
    r.Fail(util::StrFormat("workload runs %zu threads on %ld cores", r.threads,
                           nproc));
  }
  if (opts.trace) {
    // Layers a workload does not reach read 0: no frames, no scans, ...
    for (const MetricName& m : PerLayerMetrics()) {
      if (r.metrics.count(m.name) == 0) r.Set(m.name, 0.0, m.unit);
    }
  } else {
    for (const MetricName& m : EndToEndMetrics()) {
      if (r.metrics.count(m.name) == 0) r.Fail("metric " + m.name + " missing");
    }
  }
  return r;
}

// ---- correctness gates ----------------------------------------------------

std::string CheckAnsweredOnce(const std::vector<uint8_t>& answers_per_id,
                              uint64_t sent) {
  for (uint64_t id = 1; id <= sent; ++id) {
    const unsigned n = id < answers_per_id.size() ? answers_per_id[id] : 0;
    if (n != 1) {
      return util::StrFormat("request id %llu answered %u times",
                             static_cast<unsigned long long>(id), n);
    }
  }
  for (uint64_t id = sent + 1; id < answers_per_id.size(); ++id) {
    if (answers_per_id[id] != 0) {
      return util::StrFormat("answer for never-sent id %llu",
                             static_cast<unsigned long long>(id));
    }
  }
  return "";
}

std::string CheckDigest(uint64_t request_id, uint64_t got, uint64_t want) {
  if (got == want) return "";
  return util::StrFormat("request id %llu: payload differs from the "
                         "in-process answer",
                         static_cast<unsigned long long>(request_id));
}

std::string CheckTopK(const std::vector<serve::ScoredEntity>& got,
                      const std::vector<serve::ScoredEntity>& want) {
  if (got == want) return "";
  return util::StrFormat("top-K answer of %zu entries differs from the "
                         "ScoreTails+SelectTopK reference of %zu",
                         got.size(), want.size());
}

std::string CheckGraphAnswer(const std::vector<rdf::Triple>& cached,
                             const std::vector<rdf::Triple>& uncached,
                             const std::vector<rdf::Triple>& present,
                             const std::vector<rdf::Triple>& absent) {
  if (cached != uncached) {
    return util::StrFormat("cached answer (%zu triples) differs from the "
                           "cache-off answer (%zu)",
                           cached.size(), uncached.size());
  }
  auto has = [&](const rdf::Triple& t) {
    return std::find(uncached.begin(), uncached.end(), t) != uncached.end();
  };
  for (const rdf::Triple& t : present) {
    if (!has(t)) {
      return util::StrFormat("applied add (%u %u %u) missing", t.s, t.p, t.o);
    }
  }
  for (const rdf::Triple& t : absent) {
    if (has(t)) {
      return util::StrFormat("retracted (%u %u %u) still served", t.s, t.p,
                             t.o);
    }
  }
  return "";
}

std::string CheckTraining(double first_loss, double final_loss, double mrr,
                          double min_mrr) {
  if (!std::isfinite(final_loss)) return "final loss is not finite";
  if (!(final_loss < first_loss)) {
    return util::StrFormat("final loss %.6f not below epoch-1 loss %.6f",
                           final_loss, first_loss);
  }
  if (!(mrr >= min_mrr)) {
    return util::StrFormat("dev MRR %.4f below the floor %.4f", mrr, min_mrr);
  }
  return "";
}

uint64_t PayloadDigest(std::string_view payload) {
  // Bytes 1 and 2 of the response prefix are from_cache and degraded.
  if (payload.size() < 3) return Digest(payload);
  const char prefix[3] = {payload[0], 0, 0};
  return Digest(payload.substr(3), Digest(std::string_view(prefix, 3)));
}

void SetCacheMetrics(const serve::ResultCache::Stats& before,
                     const serve::ResultCache::Stats& after, RunResult* r) {
  auto lookups = [](const serve::ResultCache::Stats& s) {
    return s.hits + s.misses + s.collisions + s.stale + s.future;
  };
  const uint64_t n = lookups(after) - lookups(before);
  r->Set("serve.cache_hit_ratio",
         n > 0 ? static_cast<double>(after.hits - before.hits) /
                     static_cast<double>(n)
               : 0.0,
         "ratio");
  r->Set("serve.cache_invalidated",
         static_cast<double>(after.invalidated - before.invalidated), "count");
  r->Set("serve.cache_dropped_inserts",
         static_cast<double>(after.dropped_inserts - before.dropped_inserts),
         "count");
}

}  // namespace openbg::perfbench
