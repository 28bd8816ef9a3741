// graph_rw: in-process Neighbors / ConceptsOf reads through a cache-on
// engine over a LiveGraph whose base is an OBGSNAP2 ShardedStore built from
// the serving world's triples, with small UpdateBatch writes (adds and
// retracts) on Zipf-hot products interleaved at a fixed ratio. Reads are
// uniform over a key space more than ten times the result cache, so rdf
// (block decode, in-edge fan-out over shards, delta overlay merge, Apply)
// does most of the work and the cache mostly misses and invalidates. Set-up
// builds the world's KG alone (no benchmark split, no model) and the store.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "perfbench/src/workloads.h"
#include "rdf/live_graph.h"
#include "rdf/sharded_store.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace openbg::perfbench {
namespace {

/// One triple a hot product's writes flip, and whether it is live now.
struct Toggle {
  rdf::Triple triple;
  bool live = false;
};

/// The triples one hot product's writes toggle: links to other products
/// (absent from the base, so toggling adds and retracts delta entries) and
/// at most one of its own base triples (toggling retracts and restores it).
/// Each hot product belongs to one client, which alone writes its toggles.
struct HotEntity {
  rdf::TermId entity = rdf::kInvalidTerm;
  std::vector<Toggle> toggles;
};

struct GraphSetup {
  std::unique_ptr<core::OpenBG> kg;
  std::vector<rdf::TermId> products;  // the read key space
  std::string dir;
  std::shared_ptr<const rdf::ShardedStore> store;
  std::unique_ptr<rdf::LiveGraph> live;
  std::unique_ptr<serve::ServeContext> ctx;
  std::unique_ptr<serve::QueryEngine> engine;
  std::vector<HotEntity> hot[config::kGraphClients];  // per client
  std::vector<rdf::TermId> concept_props;

  ~GraphSetup() {
    engine.reset();
    ctx.reset();
    live.reset();
    store.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

std::unique_ptr<GraphSetup> Setup(const RunOptions& opts, RunResult* result) {
  auto s = std::make_unique<GraphSetup>();
  const size_t products =
      opts.size == Size::kTiny ? 400 : config::kGraphProducts;
  s->kg = BuildWorldKg(opts.seed, products);
  s->products = s->kg->assembly().product_terms;
  s->dir = opts.workdir + "/graph_rw_store";
  std::error_code ec;
  std::filesystem::remove_all(s->dir, ec);

  rdf::ShardedBuildOptions bopts;
  bopts.num_shards = config::kGraphShards;
  util::Status st =
      rdf::BuildShardedStore(s->kg->graph().store, s->dir, bopts);
  if (!st.ok()) {
    result->Fail("store build: " + st.message());
    return nullptr;
  }
  // Eager verification CRCs every block at open, inside the set-up, so no
  // first-touch check lands in a timed window.
  util::Result<std::shared_ptr<const rdf::ShardedStore>> opened =
      rdf::ShardedStore::Open(s->dir);
  if (!opened.ok()) {
    result->Fail("store open: " + opened.status().message());
    return nullptr;
  }
  s->store = opened.value();
  s->live = std::make_unique<rdf::LiveGraph>(s->store);

  const ontology::Ontology& onto = s->kg->ontology();
  s->concept_props = {onto.applied_time(), onto.related_scene(),
                      onto.about_theme(), onto.for_crowd()};
  s->concept_props.insert(s->concept_props.end(), onto.in_market().begin(),
                          onto.in_market().end());

  serve::ServeContext::Bindings b;
  b.graph = &s->kg->graph();
  b.ontology = &onto;
  b.live = s->live.get();
  b.sharded = s->store;
  s->ctx = std::make_unique<serve::ServeContext>(b);
  s->engine = std::make_unique<serve::QueryEngine>(s->ctx.get(),
                                                   config::GraphEngine(true));

  // Hot write targets: a seeded sample of products, dealt to the clients.
  std::vector<rdf::TermId> order = s->products;
  util::Rng rng(opts.seed + 0x6A);
  rng.Shuffle(&order);
  const size_t n_hot = std::min(config::kGraphHot, order.size() / 2);
  std::shared_ptr<const rdf::GraphSnapshot> snap = s->live->Acquire();
  for (size_t i = 0; i < n_hot; ++i) {
    HotEntity h;
    h.entity = order[i];
    for (size_t j = 0; j < 2; ++j) {
      const rdf::TermId other =
          order[n_hot + rng.Uniform(order.size() - n_hot)];
      const rdf::Triple t{h.entity, onto.related_scene(), other};
      if (!snap->Contains(t.s, t.p, t.o) &&
          (h.toggles.empty() || !(h.toggles[0].triple == t))) {
        h.toggles.push_back({t, false});
      }
    }
    for (rdf::TermId prop : s->concept_props) {
      std::vector<rdf::Triple> base = snap->Match(
          rdf::TriplePattern{h.entity, prop, rdf::TriplePattern::kAny});
      if (!base.empty()) {
        h.toggles.push_back({base.front(), true});
        break;
      }
    }
    s->hot[i % config::kGraphClients].push_back(std::move(h));
  }
  return s;
}

/// One write: flips every toggle triple of one of the client's hot
/// products.
rdf::UpdateBatch NextWrite(std::vector<HotEntity>* hot,
                           const util::ZipfSampler& zipf, util::Rng* rng) {
  rdf::UpdateBatch batch;
  for (Toggle& t : (*hot)[zipf.Sample(rng)].toggles) {
    (t.live ? batch.retracts : batch.adds).push_back(t.triple);
    t.live = !t.live;
  }
  return batch;
}

/// Latencies of one timed window of the read/write mix, all clients.
struct Window {
  Samples read_us;
  Samples write_us;
  uint64_t read_triples = 0;  // triples the reads returned
  double seconds = 0;
  double rate() const {
    return static_cast<double>(read_us.count() + write_us.count()) / seconds;
  }
};

/// One client's loop state, kept across windows.
struct Client {
  util::Rng rng;
  util::ZipfSampler hot_zipf;
  Trace trace{true};
  Client(uint64_t seed, size_t hot) : rng(seed), hot_zipf(hot, config::kZipf) {}
};

/// Runs client `c`'s read/write mix until `end`.
void RunClient(GraphSetup* s, size_t c, Client* client, Clock::time_point end,
               Trace* trace, Window* w, RunResult* result) {
  const std::vector<rdf::TermId>& keys = s->products;
  for (uint64_t i = 0;; ++i) {
    if (Clock::now() >= end) break;
    if (i % config::kGraphWriteEvery == config::kGraphWriteEvery - 1) {
      rdf::UpdateBatch batch =
          NextWrite(&s->hot[c], client->hot_zipf, &client->rng);
      Clock::time_point t0 = Clock::now();
      int64_t span = trace->Begin("rdf.apply", i);
      util::Status st = s->live->Apply(batch);
      trace->End(span);
      w->write_us.Add(MicrosSince(t0));
      if (!st.ok()) result->Fail("Apply: " + st.message());
      continue;
    }
    const rdf::TermId e = keys[client->rng.Uniform(keys.size())];
    const bool neighbors = client->rng.Uniform(2) == 0;
    Clock::time_point t0 = Clock::now();
    int64_t span = trace->Begin("serve.read", i);
    serve::Response resp =
        neighbors ? s->engine->Neighbors(e) : s->engine->ConceptsOf(e);
    trace->End(span);
    w->read_us.Add(MicrosSince(t0));
    w->read_triples += resp.payload.triples.size();
    if (!resp.ok()) {
      result->Fail(util::StrFormat("read of %u: %s", e,
                                   serve::ServeStatusName(resp.status)));
    }
  }
}

/// Runs the mix on kGraphClients threads (the calling thread is client 0)
/// for `seconds`; `traced` records spans into each client's trace.
void RunMix(GraphSetup* s, std::vector<Client>* clients, double seconds,
            bool traced, Window* w, RunResult* result) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Trace off(false);
  std::vector<Window> windows(config::kGraphClients);
  std::vector<RunResult> results(config::kGraphClients);
  auto run = [&](size_t c) {
    RunClient(s, c, &(*clients)[c], end, traced ? &(*clients)[c].trace : &off,
              &windows[c], &results[c]);
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < config::kGraphClients; ++c) {
    threads.emplace_back(run, c);
  }
  run(0);
  for (std::thread& t : threads) t.join();
  w->seconds = SecondsSince(start);
  for (size_t c = 0; c < config::kGraphClients; ++c) {
    w->read_us.Merge(windows[c].read_us);
    w->write_us.Merge(windows[c].write_us);
    w->read_triples += windows[c].read_triples;
    for (const std::string& e : results[c].gate_errors) result->Fail(e);
  }
  result->attempted += w->read_us.count() + w->write_us.count();
}

std::vector<Client> MakeClients(const GraphSetup& s, uint64_t seed) {
  std::vector<Client> clients;
  for (size_t c = 0; c < config::kGraphClients; ++c) {
    clients.emplace_back(seed * 31 + 5 + c, s.hot[c].size());
  }
  return clients;
}

/// Warm-up: a stretch of the mix (the store's pages are in the page cache
/// since set-up wrote them).
void WarmUp(GraphSetup* s, std::vector<Client>* clients, RunResult* result) {
  Window warm;
  RunResult ignored;
  RunMix(s, clients, config::kWarmupSeconds, false, &warm, &ignored);
  if (!ignored.correct) result->Fail("warm-up: " + ignored.gate_errors[0]);
}

/// The final-snapshot check: for every hot product, the cached engine's
/// answers equal a cache-off engine's and show exactly the live toggles.
void CheckFinalSnapshot(GraphSetup* s, RunResult* result) {
  serve::QueryEngine ref(s->ctx.get(), config::GraphEngine(false));
  for (const std::vector<HotEntity>& hot : s->hot) {
    for (const HotEntity& h : hot) {
      std::vector<rdf::Triple> present, absent, cpresent, cabsent;
      for (const Toggle& t : h.toggles) {
        (t.live ? present : absent).push_back(t.triple);
        if (std::find(s->concept_props.begin(), s->concept_props.end(),
                      t.triple.p) != s->concept_props.end()) {
          (t.live ? cpresent : cabsent).push_back(t.triple);
        }
      }
      std::string bad =
          CheckGraphAnswer(s->engine->Neighbors(h.entity).payload.triples,
                           ref.Neighbors(h.entity).payload.triples, present,
                           absent);
      if (bad.empty()) {
        bad = CheckGraphAnswer(s->engine->ConceptsOf(h.entity).payload.triples,
                               ref.ConceptsOf(h.entity).payload.triples,
                               cpresent, cabsent);
      }
      if (!bad.empty()) {
        result->Fail(util::StrFormat("entity %u: ", h.entity) + bad);
      }
    }
  }
}

/// The per-layer run: one set-up, an untraced and a traced half window,
/// then direct reads on the live snapshot with the engine's own patterns.
RunResult TracedRun(const RunOptions& opts, RunResult result) {
  std::unique_ptr<GraphSetup> s = Setup(opts, &result);
  if (s == nullptr) return result;
  std::vector<Client> clients = MakeClients(*s, opts.seed);
  WarmUp(s.get(), &clients, &result);
  const serve::ResultCache::Stats cache0 = s->engine->cache().stats();
  Window w, tw;
  RunMix(s.get(), &clients, opts.seconds / 2, false, &w, &result);
  RunMix(s.get(), &clients, opts.seconds / 2, true, &tw, &result);
  const serve::ResultCache::Stats cache1 = s->engine->cache().stats();
  CheckFinalSnapshot(s.get(), &result);
  Trace& trace = clients[0].trace;
  for (size_t c = 1; c < clients.size(); ++c) trace.Merge(clients[c].trace);
  util::Rng rng(opts.seed * 31 + 99);

  std::shared_ptr<const rdf::GraphSnapshot> snap = s->live->Acquire();
  const size_t probes = opts.size == Size::kTiny ? 500 : 20000;
  size_t matched = 0;
  auto count = [&matched](const rdf::Triple&) {
    ++matched;
    return true;
  };
  constexpr rdf::TermId kAny = rdf::TriplePattern::kAny;
  for (size_t i = 0; i < probes; ++i) {
    const rdf::TermId e =
        s->products[rng.Uniform(s->products.size())];
    ScopedSpan span(&trace, "rdf.snapshot_read", i);
    if (rng.Uniform(2) == 0) {
      snap->ForEachMatchFn(rdf::TriplePattern{e, kAny, kAny}, count);
      snap->ForEachMatchFn(rdf::TriplePattern{kAny, kAny, e}, count);
    } else {
      for (rdf::TermId prop : s->concept_props) {
        snap->ForEachMatchFn(rdf::TriplePattern{e, prop, kAny}, count);
      }
    }
  }
  if (matched == 0) result.Fail("snapshot reads matched nothing");

  const double snapshot_us = Median(trace.Durations("rdf.snapshot_read"));
  const rdf::ShardedStoreStats ss = s->store->Stats();
  result.Set("rdf.snapshot_read_us", snapshot_us, "us");
  result.Set("serve.read_overhead_us", w.read_us.Percentile(50) - snapshot_us,
             "us");
  result.Set("rdf.delta_size_end", static_cast<double>(s->live->delta_size()),
             "count");
  result.Set("rdf.blocks_verified", static_cast<double>(ss.blocks_verified),
             "count");
  result.Set("rdf.resident_mib",
             static_cast<double>(ss.resident_bytes) / (1024.0 * 1024.0), "MiB");
  SetCacheMetrics(cache0, cache1, &result);
  result.Set("trace.overhead_pct", TraceOverheadPct(w.rate(), tw.rate()), "%");
  util::Status st = trace.Write(opts.workdir + "/trace_graph_rw.tsv");
  if (!st.ok()) result.Fail(st.message());
  return result;
}

}  // namespace

RunResult RunGraphRw(const RunOptions& opts) {
  RunResult result;
  result.threads =
      config::kGraphClients + config::GraphEngine(true).num_threads;
  if (opts.trace) return TracedRun(opts, std::move(result));

  RoundMedians m;
  for (size_t round = 0; round < config::kRounds; ++round) {
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<GraphSetup> s = Setup(opts, &result);
    const double setup_s = SecondsSince(t0);
    if (s == nullptr) return result;
    std::vector<Client> clients = MakeClients(*s, opts.seed);
    WarmUp(s.get(), &clients, &result);
    Window w;
    RunMix(s.get(), &clients, opts.seconds / config::kRounds, false, &w,
           &result);
    CheckFinalSnapshot(s.get(), &result);

    m.Add("throughput_qps", w.rate(), "1/s");
    m.Add("p50_us", w.read_us.Percentile(50), "us");
    m.Add("p90_us", w.read_us.Percentile(90), "us");
    m.Add("write_p50_us", w.write_us.Percentile(50), "us");
    m.Add("write_p90_us", w.write_us.Percentile(90), "us");
    // No training here: the analogue is the triples the reads served.
    m.Add("train_triples_s", static_cast<double>(w.read_triples) / w.seconds,
          "1/s");
    m.Add("setup_s", setup_s, "s");
  }
  m.Report(&result);
  result.Set("peak_rss_mib", PeakRssMib(), "MiB");
  return result;
}

}  // namespace openbg::perfbench
