// example_server: serve the OpenBG query engine over OBGWIRE1 sockets.
//
// Default mode builds a synthetic world, trains a small TransE, and
// listens until SIGTERM/SIGINT (graceful drain).
//
//   ./example_server --port 4817
//
// --smoke runs a self-contained exercise used by scripts/check_all.sh:
// the server starts on an ephemeral port, in-process pipelined clients
// drive mixed endpoints across three tenants (one rate-limited so sheds
// actually happen), a canary model is mirrored and promoted mid-stream,
// and the process exits 0 only if every request id was answered exactly
// once with a whole frame. Run it under ASan/TSan for the real payoff.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/openbg.h"
#include "kge/trainer.h"
#include "kge/trans_models.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/canary.h"
#include "serve/engine.h"
#include "util/flags.h"

namespace {

openbg::net::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestStop();  // async-signal-safe
}

struct World {
  std::unique_ptr<openbg::core::OpenBG> kg;
  std::unique_ptr<openbg::kge::Dataset> dataset;
  std::unique_ptr<openbg::kge::TransE> model;
  std::unique_ptr<openbg::construction::SchemaMapper> mapper;
};

World BuildWorld(uint64_t seed) {
  World w;
  openbg::core::OpenBG::Options options;
  options.world.seed = seed;
  options.world.scale = 0.25;
  options.world.num_products = 300;
  w.kg = openbg::core::OpenBG::Build(options);

  openbg::bench_builder::BenchmarkSpec spec;
  spec.name = "example-server";
  spec.num_relations = 12;
  spec.dev_size = 40;
  spec.test_size = 80;
  w.dataset = std::make_unique<openbg::kge::Dataset>(
      w.kg->BuildBenchmark(spec, nullptr));

  openbg::util::Rng rng(seed + 1);
  w.model = std::make_unique<openbg::kge::TransE>(
      w.dataset->num_entities(), w.dataset->num_relations(), 16, 1.0f, &rng);
  openbg::kge::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 256;
  TrainKgeModel(w.model.get(), *w.dataset, config);
  w.mapper = std::make_unique<openbg::construction::SchemaMapper>(
      w.kg->world().brands);
  return w;
}

openbg::serve::ServeContext::Bindings Bind(const World& w) {
  openbg::serve::ServeContext::Bindings b;
  b.graph = &w.kg->graph();
  b.ontology = &w.kg->ontology();
  b.dataset = w.dataset.get();
  b.model = w.model.get();
  b.mapper = w.mapper.get();
  return b;
}

// One smoke client: pipelined mixed endpoints, exact id accounting.
// Returns false (and prints why) on any protocol violation.
bool RunSmokeClient(uint16_t port, uint32_t tenant, size_t requests,
                    const World& w, size_t* ok, size_t* shed,
                    size_t* refused) {
  openbg::net::Client::Options copts;
  copts.port = port;
  copts.tenant_id = tenant;
  openbg::net::Client client(copts);
  openbg::util::Status s = client.Connect();
  if (!s.ok()) {
    std::fprintf(stderr, "[smoke] tenant %u connect: %s\n", tenant,
                 s.message().c_str());
    return false;
  }
  const auto& test = w.dataset->test;
  const auto& terms = w.kg->assembly().product_terms;
  size_t sent = 0;
  while (sent < requests) {
    const size_t batch = std::min<size_t>(64, requests - sent);
    std::map<uint64_t, int> inflight;
    for (size_t i = 0; i < batch; ++i) {
      const size_t n = sent + i;
      uint64_t id = 0;
      switch (n % 4) {
        case 0: {
          const auto& q = test[n % test.size()];
          id = client.SendLinkPredict(q.h, q.r, 10);
          break;
        }
        case 1:
          id = client.SendNeighbors(terms[n % terms.size()]);
          break;
        case 2:
          id = client.SendConceptsOf(terms[(n * 7) % terms.size()]);
          break;
        default:
          id = client.SendPing("smoke");
          break;
      }
      if (!inflight.emplace(id, 1).second) {
        std::fprintf(stderr, "[smoke] tenant %u duplicate id\n", tenant);
        return false;
      }
    }
    sent += batch;
    s = client.Flush();
    if (!s.ok()) {
      std::fprintf(stderr, "[smoke] tenant %u flush: %s\n", tenant,
                   s.message().c_str());
      return false;
    }
    while (!inflight.empty()) {
      openbg::net::WireResponse resp;
      s = client.Recv(&resp);
      if (!s.ok()) {
        std::fprintf(stderr, "[smoke] tenant %u recv: %s\n", tenant,
                     s.message().c_str());
        return false;
      }
      if (inflight.erase(resp.request_id) != 1) {
        std::fprintf(stderr, "[smoke] tenant %u stray id %llu\n", tenant,
                     static_cast<unsigned long long>(resp.request_id));
        return false;
      }
      switch (resp.status) {
        case openbg::net::WireStatus::kOk:
        case openbg::net::WireStatus::kDegraded:
          ++*ok;
          break;
        case openbg::net::WireStatus::kShed:
          ++*shed;
          break;
        case openbg::net::WireStatus::kShuttingDown:
          ++*refused;
          break;
        default:
          std::fprintf(stderr, "[smoke] tenant %u bad status %s\n", tenant,
                       openbg::net::WireStatusName(resp.status));
          return false;
      }
    }
  }
  return true;
}

int RunSmoke() {
  World w = BuildWorld(/*seed=*/47);
  openbg::serve::ServeContext ctx(Bind(w));
  openbg::serve::EngineOptions eopts;
  eopts.num_threads = 2;
  openbg::serve::QueryEngine engine(&ctx, eopts);

  openbg::serve::CanaryOptions canary_opts;
  canary_opts.mirror_fraction = 0.25;
  openbg::serve::CanaryController canary(&ctx, canary_opts);

  openbg::net::ServerOptions sopts;
  sopts.port = 0;  // ephemeral
  sopts.event_threads = 2;
  sopts.worker_threads = 2;
  sopts.canary = &canary;
  sopts.governor.default_tenant = {1e12, 1e12,
                                   openbg::net::Tier::kPaid};
  openbg::net::Server server(&engine, sopts);
  openbg::util::Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "[smoke] start: %s\n", s.message().c_str());
    return 1;
  }
  // Tenant 3 is deliberately starved so the shed path executes.
  server.governor().SetTenant(
      3, {/*rate=*/5.0, /*burst=*/25.0, openbg::net::Tier::kFree});
  std::printf("[smoke] serving on 127.0.0.1:%u\n", server.port());

  // Stage the canary before traffic starts so the mirror actually sees
  // requests, then promote while clients are (ideally) still streaming.
  openbg::util::Rng rng(991);
  auto candidate = std::make_shared<openbg::kge::TransE>(
      w.dataset->num_entities(), w.dataset->num_relations(), 16, 1.0f, &rng);
  const uint64_t gen_before = ctx.generation();
  s = canary.Begin(candidate);
  if (!s.ok()) {
    std::fprintf(stderr, "[smoke] canary begin: %s\n", s.message().c_str());
    return 1;
  }

  constexpr size_t kPerTenant = 800;
  std::atomic<bool> all_ok{true};
  size_t ok[3] = {0, 0, 0}, shed[3] = {0, 0, 0}, refused[3] = {0, 0, 0};
  std::vector<std::thread> clients;
  const uint32_t tenants[3] = {1, 2, 3};
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      if (!RunSmokeClient(server.port(), tenants[i], kPerTenant, w, &ok[i],
                          &shed[i], &refused[i])) {
        all_ok.store(false);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  s = canary.Promote();
  if (!s.ok()) {
    std::fprintf(stderr, "[smoke] canary promote: %s\n",
                 s.message().c_str());
    all_ok.store(false);
  }
  for (std::thread& t : clients) t.join();

  if (canary.stats().mirrored == 0) {
    std::fprintf(stderr, "[smoke] canary mirrored no traffic\n");
    all_ok.store(false);
  }

  if (ctx.generation() != gen_before + 1) {
    std::fprintf(stderr, "[smoke] promotion did not bump generation\n");
    all_ok.store(false);
  }
  if (shed[2] == 0) {
    std::fprintf(stderr, "[smoke] starved tenant was never shed\n");
    all_ok.store(false);
  }
  if (shed[0] != 0 || shed[1] != 0) {
    std::fprintf(stderr, "[smoke] paid tenants were shed\n");
    all_ok.store(false);
  }
  server.Stop();
  std::printf(
      "[smoke] done ok=%zu/%zu/%zu shed=%zu/%zu/%zu refused=%zu/%zu/%zu "
      "canary=%s\n",
      ok[0], ok[1], ok[2], shed[0], shed[1], shed[2], refused[0], refused[1],
      refused[2],
      openbg::serve::CanaryController::StateName(canary.state()));
  std::printf("%s\n", server.MetricsJson().c_str());
  return all_ok.load() ? 0 : 1;
}

int RunServe(uint16_t port) {
  World w = BuildWorld(/*seed=*/47);
  openbg::serve::ServeContext ctx(Bind(w));
  openbg::serve::QueryEngine engine(&ctx, openbg::serve::EngineOptions{});
  openbg::serve::CanaryController canary(
      &ctx, openbg::serve::CanaryOptions{});

  openbg::net::ServerOptions sopts;
  sopts.port = port;
  sopts.canary = &canary;
  openbg::net::Server server(&engine, sopts);
  openbg::util::Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.message().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::printf("serving OBGWIRE1 on 127.0.0.1:%u (SIGTERM drains)\n",
              server.port());
  server.Wait();
  g_server = nullptr;
  std::printf("drained; final metrics:\n%s\n", server.MetricsJson().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  bool smoke = false;
  openbg::util::Flags flags(argv[0]);
  flags.Unsigned("--port", &port, "TCP port to listen on (0 = ephemeral)");
  flags.Bool("--smoke", &smoke,
             "run the self-checking end-to-end exercise and exit");
  flags.ParseOrExit(argc, argv);
  return smoke ? RunSmoke() : RunServe(port);
}
