#include "sessions.hpp"

#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "data/synthetic.hpp"
#include "net/codec.hpp"
#include "net/shard.hpp"
#include "net/tcp.hpp"
#include "nn/builders.hpp"
#include "stats/rng.hpp"

namespace sessionbench {

namespace net = dubhe::net;
namespace fl = dubhe::fl;

namespace {

// Why each workload exists is recorded in README.md next to this file; in
// short: flat_small is crypto and control-plane latency with the compute
// runtime bypassed, tree_he is the only one through net/shard and the
// encrypted sparse-update path, femnist_train is local training, codec and
// TCP volume with the smallest crypto share.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    Workload flat;
    flat.name = "flat_small";
    flat.samples_per_client = 48;
    flat.rho = 8;
    flat.emd_avg = 1.4;
    flat.hidden = 16;
    flat.reference_set = {1, 2, 10};
    flat.sigma = {0.7, 0.1, 0.0};
    flat.train = {.batch_size = 8, .epochs = 1, .lr = 1e-3, .use_adam = true};
    flat.rounds = 30;

    Workload tree = flat;
    tree.name = "tree_he";
    tree.update_he_rate = 0.5;
    tree.shards = 2;
    tree.rounds = 20;

    Workload femnist;
    femnist.name = "femnist_train";
    femnist.femnist = true;
    femnist.samples_per_client = 1024;
    femnist.rho = 13.64;
    femnist.emd_avg = 0.554;
    femnist.hidden = 256;
    femnist.reference_set = {1, 52};
    femnist.sigma = {0.3, 0.0};
    femnist.train = {.batch_size = 8, .epochs = 5, .lr = 1e-3, .use_adam = true};
    femnist.rounds = 14;
    return std::vector<Workload>{flat, tree, femnist};
  }();
  return all;
}

/// The exact client-link bytes of the three control frames every client
/// link carries before round 0 (client hello, server hello, registration
/// request). Together with the key-material and registry rows of a ledger
/// they make up a client link's whole setup traffic.
std::uint64_t setup_control_bytes_per_client() {
  const auto size = [](const net::Frame& f) { return net::frame_wire_size(f.payload.size()); };
  return size(net::make_client_hello({})) + size(net::make_server_hello({})) +
         size(net::make_seed_request(net::MsgType::kRegistrationRequest, {}));
}

std::uint64_t setup_bytes_of(const fl::ChannelLedger& ledger) {
  std::uint64_t total = 0;
  for (const auto kind : {fl::MessageKind::kKeyMaterial, fl::MessageKind::kRegistry}) {
    for (const auto dir : {fl::Direction::kClientToServer, fl::Direction::kServerToClient}) {
      total += ledger.bytes(kind, dir);
    }
  }
  return total;
}

/// Joins every thread on every exit path.
struct Joiner {
  std::vector<std::thread>& threads;
  ~Joiner() {
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

std::shared_ptr<net::Transport> decorate(std::shared_ptr<net::Transport> link, Tracer* tracer,
                                         LinkRole role, std::uint64_t session, int link_id) {
  if (tracer == nullptr) return link;
  return std::make_shared<TracedLink>(std::move(link), *tracer, role, session, link_id);
}

/// Client `id`'s thread body: connect, serve the session, record failures.
void client_main(const Instance& in, std::size_t id, std::uint16_t port, Tracer* tracer,
                 std::uint64_t session, RoundClock& clock, std::exception_ptr& error) {
  ThreadScope scope(tracer, session, 100 + static_cast<int>(id),
                    "serve_client[" + std::to_string(id) + "]");
  std::shared_ptr<net::Transport> link;
  try {
    link = net::TcpTransport::connect("127.0.0.1", port);
    auto endpoint = decorate(link, tracer, LinkRole::kClient, session,
                             1000 + static_cast<int>(id));
    if (id == 0) endpoint = std::make_shared<RoundStampLink>(endpoint, clock);
    net::serve_client(*endpoint, id, in.dataset, in.prototype, in.params);
  } catch (...) {
    error = std::current_exception();
    if (link != nullptr) link->close();
  }
}

SessionRun run_flat(const Instance& in, Tracer* tracer, std::uint64_t session) {
  const std::size_t N = in.dataset.num_clients();
  SessionRun run;
  run.harness_start = now_s();
  ThreadScope scope(tracer, session, 0, "session[" + in.workload.name + "]");
  net::TcpServer server(0, 1);
  std::vector<std::exception_ptr> errors(N);
  std::vector<std::thread> threads;
  Joiner joiner{threads};
  for (std::size_t id = 0; id < N; ++id) {
    threads.emplace_back(client_main, std::cref(in), id, server.port(), tracer, session,
                         std::ref(run.clock), std::ref(errors[id]));
  }
  std::vector<std::shared_ptr<net::Transport>> links;
  fl::ChannelAccountant acct;
  try {
    for (std::size_t i = 0; i < N; ++i) {
      auto link = server.accept();
      if (link == nullptr) throw net::TransportError("sessionbench: server stopped");
      links.push_back(decorate(std::move(link), tracer, LinkRole::kAggregator, session,
                               static_cast<int>(i)));
    }
    run.call = now_s();
    {
      ScopedSpan span(tracer, "run_server_session");
      run.transcript = net::run_server_session(links, in.dataset, in.prototype, in.params,
                                               &acct);
    }
    run.call_return = now_s();
  } catch (...) {
    for (auto& link : links) link->close();
    server.stop();
    throw;
  }
  for (auto& t : threads) t.join();
  run.end = now_s();
  run.cpu_end = process_cpu_s();
  for (auto& err : errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }
  run.wire_bytes = acct.total_bytes();
  run.setup_bytes = run.transcript.setup_ledger.total_bytes();
  return run;
}

SessionRun run_tree(const Instance& in, Tracer* tracer, std::uint64_t session) {
  const std::size_t N = in.dataset.num_clients();
  const std::size_t A = in.workload.shards;
  SessionRun run;
  run.harness_start = now_s();
  ThreadScope scope(tracer, session, 0, "session[" + in.workload.name + "]");
  net::TcpServer root_server(0, 1);
  std::vector<std::unique_ptr<net::TcpServer>> shard_servers;
  for (std::size_t s = 0; s < A; ++s) {
    shard_servers.push_back(std::make_unique<net::TcpServer>(0, 1));
  }
  // run_root_session accounts its shard links; serve_shard accounts
  // nothing, so the shards' client links carry this accountant directly.
  fl::ChannelAccountant client_acct;
  std::vector<std::exception_ptr> errors(N + A);
  std::vector<std::thread> threads;
  Joiner joiner{threads};
  for (std::size_t s = 0; s < A; ++s) {
    threads.emplace_back([&, s] {
      ThreadScope shard_scope(tracer, session, 10 + static_cast<int>(s),
                              "serve_shard[" + std::to_string(s) + "]");
      const net::ShardRange range = net::shard_range(N, A, s);
      std::vector<std::shared_ptr<net::Transport>> links;
      std::shared_ptr<net::Transport> up;
      try {
        for (std::size_t i = 0; i < range.count; ++i) {
          auto link = shard_servers[s]->accept();
          if (link == nullptr) throw net::TransportError("sessionbench: shard server stopped");
          link->set_accountant(&client_acct, fl::Direction::kServerToClient);
          links.push_back(decorate(std::move(link), tracer, LinkRole::kShardDown, session,
                                   static_cast<int>(100 * (s + 1) + i)));
        }
        up = net::TcpTransport::connect("127.0.0.1", root_server.port());
        auto uplink = decorate(up, tracer, LinkRole::kShardUp, session,
                               static_cast<int>(50 + s));
        net::serve_shard(*uplink, links, static_cast<std::uint32_t>(s),
                         static_cast<std::uint32_t>(A), N, in.params);
      } catch (...) {
        errors[N + s] = std::current_exception();
        if (up != nullptr) up->close();
        for (auto& link : links) link->close();
        root_server.stop();
      }
    });
  }
  for (std::size_t id = 0; id < N; ++id) {
    std::size_t s = 0;
    while (id >= net::shard_range(N, A, s).first + net::shard_range(N, A, s).count) ++s;
    threads.emplace_back(client_main, std::cref(in), id, shard_servers[s]->port(), tracer,
                         session, std::ref(run.clock), std::ref(errors[id]));
  }
  std::vector<std::shared_ptr<net::Transport>> links;
  fl::ChannelAccountant root_acct;
  try {
    for (std::size_t s = 0; s < A; ++s) {
      auto link = root_server.accept();
      if (link == nullptr) throw net::TransportError("sessionbench: root server stopped");
      links.push_back(decorate(std::move(link), tracer, LinkRole::kAggregator, session,
                               static_cast<int>(s)));
    }
    run.call = now_s();
    {
      ScopedSpan span(tracer, "run_root_session");
      run.transcript = net::run_root_session(links, in.dataset, in.prototype, in.params,
                                             &root_acct);
    }
    run.call_return = now_s();
  } catch (...) {
    for (auto& link : links) link->close();
    root_server.stop();
    for (auto& srv : shard_servers) srv->stop();
    throw;
  }
  for (auto& t : threads) t.join();
  run.end = now_s();
  run.cpu_end = process_cpu_s();
  for (auto& err : errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }
  const fl::ChannelLedger clients = client_acct.snapshot();
  run.wire_bytes = root_acct.total_bytes() + clients.total_bytes();
  run.setup_bytes = run.transcript.setup_ledger.total_bytes() + setup_bytes_of(clients) +
                    N * setup_control_bytes_per_client();
  return run;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

namespace {

dubhe::data::FederatedDataset make_dataset(const Workload& w, std::uint64_t seed) {
  dubhe::data::PartitionConfig pc;
  pc.num_classes = w.femnist ? 52 : 10;
  pc.num_clients = w.clients;
  pc.samples_per_client = w.samples_per_client;
  pc.rho = w.rho;
  pc.emd_avg = w.emd_avg;
  pc.seed = dubhe::stats::derive_seed(seed, 4);
  return {w.femnist ? dubhe::data::femnist_like() : dubhe::data::mnist_like(), pc};
}

}  // namespace

Instance::Instance(const Workload& w, std::uint64_t s, std::size_t key_bits)
    : workload(w),
      seed(s),
      dataset(make_dataset(w, s)),
      prototype(dubhe::nn::make_mlp(dataset.feature_dim(), w.hidden, dataset.num_classes(), 7)) {
  params.num_classes = dataset.num_classes();
  params.reference_set = w.reference_set;
  params.sigma = w.sigma;
  params.secure.key_bits = key_bits;
  params.secure.update_he_rate = w.update_he_rate;
  params.train = w.train;
  params.K = w.K;
  params.H = w.H;
  params.rounds = w.rounds;
  params.he_seed = dubhe::stats::derive_seed(s, 1);
  params.select_seed = dubhe::stats::derive_seed(s, 2);
  params.round_seed = dubhe::stats::derive_seed(s, 3);
  params.evaluate = true;
}

SessionRun run_session(const Instance& in, Tracer* tracer, std::uint64_t session_id) {
  return in.workload.shards == 0 ? run_flat(in, tracer, session_id)
                                 : run_tree(in, tracer, session_id);
}

}  // namespace sessionbench
