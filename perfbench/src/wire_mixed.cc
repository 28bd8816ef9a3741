// wire_mixed: OBGWIRE1 over loopback. One client thread drives one
// connection closed-loop with kWireInFlight requests in flight; the mix is
// Zipf-ranked 70% LinkPredictTopK(k=10) / 10% Neighbors / 10% ConceptsOf /
// 10% EntityLink over the serving world, against a warmed result cache. The
// network front-end and its thread hops are nearly all of the time here.

#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "perfbench/src/workloads.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace openbg::perfbench {
namespace {

struct Req {
  serve::Endpoint endpoint = serve::Endpoint::kLinkPredictTopK;
  uint32_t index = 0;  // into the world's key space for the endpoint
};

/// The seeded request mix. Two streams with the same seed yield the same
/// sequence, which is how the in-process replay repeats the wire traffic.
class RequestStream {
 public:
  RequestStream(const ServingWorld& w, uint64_t seed)
      : rng_(seed * 7919 + 17),
        topk_(w.topk_queries.size(), config::kZipf),
        product_(w.products.size(), config::kZipf),
        mention_(w.mentions.size(), config::kZipf) {}

  Req Next() {
    const uint64_t dice = rng_.Uniform(10);
    if (dice < 7) {
      return {serve::Endpoint::kLinkPredictTopK,
              static_cast<uint32_t>(topk_.Sample(&rng_))};
    }
    if (dice == 7) {
      return {serve::Endpoint::kNeighbors,
              static_cast<uint32_t>(product_.Sample(&rng_))};
    }
    if (dice == 8) {
      return {serve::Endpoint::kConceptsOf,
              static_cast<uint32_t>(product_.Sample(&rng_))};
    }
    return {serve::Endpoint::kEntityLink,
            static_cast<uint32_t>(mention_.Sample(&rng_))};
  }

 private:
  util::Rng rng_;
  util::ZipfSampler topk_;
  util::ZipfSampler product_;
  util::ZipfSampler mention_;
};

net::Tag TagOf(serve::Endpoint e) {
  switch (e) {
    case serve::Endpoint::kLinkPredictTopK:
      return net::Tag::kLinkPredict;
    case serve::Endpoint::kNeighbors:
      return net::Tag::kNeighbors;
    case serve::Endpoint::kConceptsOf:
      return net::Tag::kConceptsOf;
    case serve::Endpoint::kEntityLink:
      return net::Tag::kEntityLink;
  }
  return net::Tag::kPing;
}

serve::Response CallEngine(serve::QueryEngine* engine, const ServingWorld& w,
                           const Req& q) {
  switch (q.endpoint) {
    case serve::Endpoint::kLinkPredictTopK: {
      const kge::LpTriple& t = w.topk_queries[q.index];
      return engine->LinkPredictTopK(t.h, t.r, config::kTopkK);
    }
    case serve::Endpoint::kNeighbors:
      return engine->Neighbors(w.products[q.index]);
    case serve::Endpoint::kConceptsOf:
      return engine->ConceptsOf(w.products[q.index]);
    case serve::Endpoint::kEntityLink:
      return engine->EntityLink(w.mentions[q.index]);
  }
  return {};
}

net::WireRequest ToWire(const ServingWorld& w, const Req& q, uint64_t id) {
  net::WireRequest r;
  r.tag = TagOf(q.endpoint);
  r.request_id = id;
  switch (q.endpoint) {
    case serve::Endpoint::kLinkPredictTopK:
      r.h = w.topk_queries[q.index].h;
      r.r = w.topk_queries[q.index].r;
      r.k = static_cast<uint32_t>(config::kTopkK);
      break;
    case serve::Endpoint::kNeighbors:
      r.entity = w.products[q.index];
      r.relation = rdf::kInvalidTerm;
      break;
    case serve::Endpoint::kConceptsOf:
      r.entity = w.products[q.index];
      break;
    case serve::Endpoint::kEntityLink:
      r.text = w.mentions[q.index];
      break;
  }
  return r;
}

uint64_t Send(net::Client* client, const ServingWorld& w, const Req& q) {
  switch (q.endpoint) {
    case serve::Endpoint::kLinkPredictTopK:
      return client->SendLinkPredict(w.topk_queries[q.index].h,
                                     w.topk_queries[q.index].r,
                                     static_cast<uint32_t>(config::kTopkK));
    case serve::Endpoint::kNeighbors:
      return client->SendNeighbors(w.products[q.index]);
    case serve::Endpoint::kConceptsOf:
      return client->SendConceptsOf(w.products[q.index]);
    case serve::Endpoint::kEntityLink:
      return client->SendEntityLink(w.mentions[q.index]);
  }
  return 0;
}

/// Per-key digests of the in-process answers, indexed [endpoint][key].
using Digests = std::vector<std::vector<uint64_t>>;

struct WireSetup {
  ServingWorld world;
  std::unique_ptr<serve::ServeContext> ctx;
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> client;
  Digests digests;

  ~WireSetup() {
    client.reset();
    if (server != nullptr) server->Stop();
  }
};

std::unique_ptr<WireSetup> Setup(const RunOptions& opts, RunResult* result) {
  auto s = std::make_unique<WireSetup>();
  const size_t products =
      opts.size == Size::kTiny ? 300 : config::kWorldProducts;
  s->world = BuildServingWorld(opts.seed, products, config::kSetupTrainEpochs);
  serve::ServeContext::Bindings b;
  b.graph = &s->world.kg->graph();
  b.ontology = &s->world.kg->ontology();
  b.dataset = &s->world.dataset;
  b.model = s->world.model.get();
  b.mapper = s->world.mapper.get();
  s->ctx = std::make_unique<serve::ServeContext>(b);

  {
    // The reference answers come from a cache-off engine, so the wire path
    // (cache on) is checked against answers the cache never touched.
    serve::EngineOptions ref_opts = config::WireEngine();
    ref_opts.cache_enabled = false;
    serve::QueryEngine ref(s->ctx.get(), ref_opts);
    const size_t sizes[serve::kNumEndpoints] = {
        s->world.topk_queries.size(), s->world.mentions.size(),
        s->world.products.size(), s->world.products.size()};
    s->digests.resize(serve::kNumEndpoints);
    for (size_t e = 0; e < serve::kNumEndpoints; ++e) {
      for (size_t i = 0; i < sizes[e]; ++i) {
        Req q{static_cast<serve::Endpoint>(e), static_cast<uint32_t>(i)};
        serve::Response resp = CallEngine(&ref, s->world, q);
        if (!resp.ok()) {
          result->Fail(util::StrFormat("in-process %s key %zu: %s",
                                       serve::EndpointName(q.endpoint), i,
                                       serve::ServeStatusName(resp.status)));
        }
        s->digests[e].push_back(
            PayloadDigest(net::EncodeResponsePayload(TagOf(q.endpoint), resp)));
      }
    }
  }

  s->engine =
      std::make_unique<serve::QueryEngine>(s->ctx.get(), config::WireEngine());
  s->server =
      std::make_unique<net::Server>(s->engine.get(), config::WireServer());
  util::Status st = s->server->Start();
  if (!st.ok()) {
    result->Fail("server start: " + st.message());
    return nullptr;
  }
  net::Client::Options co;
  co.port = s->server->port();
  co.tenant_id = 1;
  s->client = std::make_unique<net::Client>(co);
  st = s->client->Connect();
  if (!st.ok()) {
    result->Fail("connect: " + st.message());
    return nullptr;
  }
  return s;
}

/// Latencies of one timed window of the closed loop.
struct WireWindow {
  Samples round_trip_us;
  Samples send_us;     // encode + flush of the request frame
  double seconds = 0;  // first send to last response
};

/// The closed loop over one connection. Ids are sequential over the
/// connection's life, so the exactly-once check covers warm-up too.
struct ClosedLoop {
  struct Slot {
    uint64_t id = 0;
    Req req;
    Clock::time_point send_start;
    Clock::time_point send_end;
  };
  static constexpr size_t kRing = 1 << 16;

  WireSetup* setup;
  RequestStream stream;
  std::vector<Slot> ring = std::vector<Slot>(kRing);
  std::vector<uint8_t> answers{0};  // answers[id], id 0 unused
  uint64_t sent = 0;
  std::string raw;

  ClosedLoop(WireSetup* s, uint64_t seed) : setup(s), stream(s->world, seed) {}

  util::Status SendOne() {
    Req q = stream.Next();
    Clock::time_point t0 = Clock::now();
    const uint64_t id = Send(setup->client.get(), setup->world, q);
    util::Status st = setup->client->Flush();
    Slot& slot = ring[id % kRing];
    if (slot.id != 0) return util::Status::Internal("request ring overflow");
    slot = Slot{id, q, t0, Clock::now()};
    sent = id;
    return st;
  }

  /// Runs the closed loop for `seconds`, then drains every request still
  /// in flight. Payload mismatches are recorded in `result`.
  util::Status Run(double seconds, WireWindow* w, Trace* trace,
                   RunResult* result) {
    size_t in_flight = 0;
    const Clock::time_point start = Clock::now();
    for (; in_flight < config::kWireInFlight; ++in_flight) {
      util::Status st = SendOne();
      if (!st.ok()) return st;
    }
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    while (in_flight > 0) {
      net::WireResponse resp;
      Clock::time_point r0 = Clock::now();
      util::Status st = setup->client->Recv(&resp, &raw);
      Clock::time_point r1 = Clock::now();
      if (!st.ok()) return st;
      --in_flight;
      Slot& slot = ring[resp.request_id % kRing];
      if (slot.id != resp.request_id) {
        result->Fail(util::StrFormat("unexpected response id %llu",
                                     static_cast<unsigned long long>(
                                         resp.request_id)));
        continue;
      }
      if (answers.size() <= resp.request_id) {
        answers.resize(resp.request_id + 4096, 0);
      }
      ++answers[resp.request_id];
      const uint64_t want = setup->digests[static_cast<size_t>(
          slot.req.endpoint)][slot.req.index];
      std::string bad = resp.status == net::WireStatus::kOk
                            ? CheckDigest(slot.id, PayloadDigest(raw), want)
                            : util::StrFormat("request id %llu: status %s",
                                              static_cast<unsigned long long>(
                                                  slot.id),
                                              net::WireStatusName(resp.status));
      if (!bad.empty()) result->Fail(bad);
      w->round_trip_us.Add(
          std::chrono::duration<double, std::micro>(r1 - slot.send_start)
              .count());
      w->send_us.Add(std::chrono::duration<double, std::micro>(
                         slot.send_end - slot.send_start)
                         .count());
      if (trace->enabled()) {
        int64_t root = trace->Add("wire.request", slot.send_start, r1, slot.id);
        trace->Add("net.client_send", slot.send_start, slot.send_end, slot.id,
                   root);
        trace->Add("net.client_recv_wait", r0, r1, slot.id, root);
      }
      slot.id = 0;
      if (r1 < end) {
        st = SendOne();
        if (!st.ok()) return st;
        ++in_flight;
      }
    }
    w->seconds = SecondsSince(start);
    return util::Status::OK();
  }
};

double Rate(const WireWindow& w) {
  return static_cast<double>(w.round_trip_us.count()) / w.seconds;
}

/// The per-layer run: one set-up, an untraced and a traced half window,
/// then in-process and codec replays of the same request sequence.
RunResult TracedRun(const RunOptions& opts, RunResult result) {
  std::unique_ptr<WireSetup> s = Setup(opts, &result);
  if (s == nullptr) return result;
  ClosedLoop loop(s.get(), opts.seed);
  Trace off(false), trace(true);
  WireWindow warm, w, tw;
  util::Status st = loop.Run(config::kWarmupSeconds, &warm, &off, &result);
  const net::Server::NetStats net0 = s->server->stats();
  const serve::ResultCache::Stats cache0 = s->engine->cache().stats();
  if (st.ok()) st = loop.Run(opts.seconds / 2, &w, &off, &result);
  if (st.ok()) st = loop.Run(opts.seconds / 2, &tw, &trace, &result);
  if (!st.ok()) {
    result.Fail("wire: " + st.message());
    return result;
  }
  result.attempted += w.round_trip_us.count() + tw.round_trip_us.count();
  const net::Server::NetStats net1 = s->server->stats();
  const serve::ResultCache::Stats cache1 = s->engine->cache().stats();
  std::string bad = CheckAnsweredOnce(loop.answers, loop.sent);
  if (!bad.empty()) result.Fail(bad);

  // In-process replay of the same request sequence on the same engine.
  RequestStream replay(s->world, opts.seed);
  const size_t n_replay = opts.size == Size::kTiny ? 2000 : 50000;
  std::vector<Req> reqs;
  std::vector<serve::Response> answers;
  std::vector<double> inproc_us;
  for (size_t i = 0; i < n_replay; ++i) {
    reqs.push_back(replay.Next());
    const Req& q = reqs.back();
    const char* name = "serve.inproc.link";
    if (q.endpoint == serve::Endpoint::kLinkPredictTopK) {
      name = "serve.inproc.topk";
    } else if (q.endpoint == serve::Endpoint::kNeighbors) {
      name = "serve.inproc.neighbors";
    } else if (q.endpoint == serve::Endpoint::kConceptsOf) {
      name = "serve.inproc.concepts";
    }
    Clock::time_point t0 = Clock::now();
    answers.push_back(CallEngine(s->engine.get(), s->world, q));
    Clock::time_point t1 = Clock::now();
    trace.Add(name, t0, t1, i);
    inproc_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (!answers.back().ok()) result.Fail("in-process replay answer not ok");
  }

  // The public codec calls replayed on the workload's own frames.
  uint64_t frame_bytes = 0;
  size_t decode_failures = 0;
  std::string req_frame, resp_frame;
  Clock::time_point c0 = Clock::now();
  {
    ScopedSpan span(&trace, "net.codec_replay");
    for (size_t i = 0; i < reqs.size(); ++i) {
      const net::WireRequest wr = ToWire(s->world, reqs[i], i + 1);
      req_frame.clear();
      net::AppendRequestFrame(&req_frame, wr);
      net::WireRequest decoded;
      if (!net::DecodeRequestPayload(
              wr.tag, std::string_view(req_frame).substr(net::kHeaderSize),
              &decoded)) {
        ++decode_failures;
      }
      const std::string payload =
          net::EncodeResponsePayload(wr.tag, answers[i]);
      resp_frame.clear();
      net::AppendResponseFrame(&resp_frame, wr.tag, wr.request_id, 1, payload);
      net::WireResponse back;
      if (!net::DecodeResponsePayload(wr.tag, payload, &back)) {
        ++decode_failures;
      }
      frame_bytes += req_frame.size() + resp_frame.size();
    }
  }
  const double codec_ns =
      SecondsSince(c0) * 1e9 / static_cast<double>(reqs.size());
  if (decode_failures > 0) result.Fail("codec replay failed to decode");

  result.Set("net.overhead_p50_us",
             w.round_trip_us.Percentile(50) - Median(inproc_us), "us");
  result.Set("net.codec_ns_per_req", codec_ns, "ns");
  result.Set("net.bytes_per_req",
             static_cast<double>(frame_bytes) /
                 static_cast<double>(reqs.size()),
             "bytes");
  result.Set("net.client_send_us", Median(trace.Durations("net.client_send")),
             "us");
  result.Set("net.client_recv_wait_us",
             Median(trace.Durations("net.client_recv_wait")), "us");
  const double frames_in = static_cast<double>(net1.frames_in - net0.frames_in);
  result.Set("net.frames_in", frames_in, "count");
  result.Set("net.frames_out",
             static_cast<double>(net1.frames_out - net0.frames_out), "count");
  result.Set("net.dispatched",
             static_cast<double>(net1.dispatched - net0.dispatched), "count");
  result.Set("net.shed_ratio",
             frames_in > 0
                 ? static_cast<double>(net1.shed - net0.shed) / frames_in
                 : 0.0,
             "ratio");
  result.Set("serve.inproc_p50_us.topk",
             Median(trace.Durations("serve.inproc.topk")), "us");
  result.Set("serve.inproc_p50_us.neighbors",
             Median(trace.Durations("serve.inproc.neighbors")), "us");
  result.Set("serve.inproc_p50_us.concepts",
             Median(trace.Durations("serve.inproc.concepts")), "us");
  result.Set("serve.inproc_p50_us.link",
             Median(trace.Durations("serve.inproc.link")), "us");
  SetCacheMetrics(cache0, cache1, &result);
  result.Set("trace.overhead_pct", TraceOverheadPct(Rate(w), Rate(tw)), "%");
  st = trace.Write(opts.workdir + "/trace_wire_mixed.tsv");
  if (!st.ok()) result.Fail(st.message());
  return result;
}

}  // namespace

RunResult RunWireMixed(const RunOptions& opts) {
  RunResult result;
  result.threads = 1 + config::WireServer().event_threads +
                   config::WireServer().worker_threads +
                   config::WireEngine().num_threads;
  if (opts.trace) return TracedRun(opts, std::move(result));

  RoundMedians m;
  Trace off(false);
  for (size_t round = 0; round < config::kRounds; ++round) {
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<WireSetup> s = Setup(opts, &result);
    const double setup_s = SecondsSince(t0);
    if (s == nullptr) return result;
    ClosedLoop loop(s.get(), opts.seed);
    WireWindow warm, w;
    util::Status st = loop.Run(config::kWarmupSeconds, &warm, &off, &result);
    if (st.ok()) {
      st = loop.Run(opts.seconds / config::kRounds, &w, &off, &result);
    }
    if (!st.ok()) {
      result.Fail("wire: " + st.message());
      return result;
    }
    result.attempted += w.round_trip_us.count();
    std::string bad = CheckAnsweredOnce(loop.answers, loop.sent);
    if (!bad.empty()) result.Fail(bad);

    m.Add("throughput_qps", Rate(w), "1/s");
    m.Add("p50_us", w.round_trip_us.Percentile(50), "us");
    m.Add("p90_us", w.round_trip_us.Percentile(90), "us");
    m.Add("write_p50_us", w.send_us.Percentile(50), "us");
    m.Add("write_p90_us", w.send_us.Percentile(90), "us");
    m.Add("train_triples_s", s->world.train_triples_s, "1/s");
    m.Add("setup_s", setup_s, "s");
  }
  m.Report(&result);
  result.Set("peak_rss_mib", PeakRssMib(), "MiB");
  return result;
}

}  // namespace openbg::perfbench
