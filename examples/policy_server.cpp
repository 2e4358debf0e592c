// policy_server: the always-on policy daemon.
//
//   policy_server --graph FILE.tgg [FILE.lvl] [--socket PATH] [--port N]
//                 [--threads N] [--admit-mode connection|edge]
//   policy_server --demo [--socket PATH] [--port N] [--threads N]
//
// Loads a protection graph (with a designer .lvl assignment, or rwtg-levels
// computed from the graph when none is given), wraps it in a PolicyEngine —
// AdmissionGate write path, MVCC epoch-pinned read snapshots — and serves
// the wire protocol of src/server/protocol.h on a unix-domain socket
// (--socket), a loopback TCP port (--port; 0 picks an ephemeral port), or
// both.  Prints one READY line once listening, then runs until SIGINT or
// SIGTERM.
//
//   $ policy_server --graph data/org_chart.tgg data/org_chart.lvl \
//       --socket /tmp/tg.sock &
//   policy_server: READY socket=/tmp/tg.sock vertices=... workers=...
//   $ policy_client --socket /tmp/tg.sock can_know eng_lead ceo_mail

#include <signal.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "src/take_grant.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "policy_server: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_path;
  std::string levels_path;
  bool demo = false;
  tg_server::PolicyServer::Options options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "policy_server: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--graph") {
      graph_path = next("--graph");
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        levels_path = argv[++i];
      }
    } else if (arg == "--socket") {
      options.unix_path = next("--socket");
    } else if (arg == "--port") {
      options.tcp_port = std::atoi(next("--port"));
    } else if (arg == "--threads") {
      options.engine.threads = static_cast<size_t>(std::atol(next("--threads")));
    } else if (arg == "--admit-mode") {
      const std::string mode = next("--admit-mode");
      if (mode == "connection") {
        options.engine.gate.mode = tg_hier::AdmissionMode::kConnection;
      } else if (mode == "edge") {
        options.engine.gate.mode = tg_hier::AdmissionMode::kEdgeLevel;
      } else {
        return Fail("--admit-mode must be connection or edge");
      }
    } else if (arg == "--demo") {
      demo = true;
    } else {
      return Fail("unknown flag '" + arg + "' (see the file comment for usage)");
    }
  }
  if (graph_path.empty() && !demo) {
    return Fail("need --graph FILE.tgg [FILE.lvl] or --demo");
  }
  if (options.unix_path.empty() && options.tcp_port < 0) {
    return Fail("need a listener: --socket PATH and/or --port N (0 = ephemeral)");
  }

  tg::ProtectionGraph graph;
  tg_hier::LevelAssignment levels;
  if (demo) {
    tg_util::Prng prng(17);
    tg_sim::RandomHierarchyOptions hier;
    hier.levels = 3;
    hier.subjects_per_level = 3;
    hier.objects_per_level = 2;
    tg_sim::GeneratedHierarchy generated = tg_sim::RandomHierarchy(hier, prng);
    graph = std::move(generated.graph);
    levels = std::move(generated.levels);
  } else {
    auto loaded = tg::LoadGraphFile(graph_path);
    if (!loaded.ok()) {
      return Fail(loaded.status().ToString());
    }
    graph = std::move(loaded).value();
    if (!levels_path.empty()) {
      auto parsed = tg_hier::LoadLevelsFile(levels_path, graph);
      if (!parsed.ok()) {
        return Fail(parsed.status().ToString());
      }
      levels = std::move(parsed).value();
    } else {
      levels = tg_hier::ComputeRwtgLevels(graph);
      tg_hier::AssignObjectLevels(graph, levels);
    }
  }

  // Block the termination signals before Start so the server's threads
  // inherit the mask; the main thread then waits for one with sigwait.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  const size_t vertices = graph.VertexCount();
  tg_server::PolicyServer server(std::move(graph), std::move(levels), options);
  if (auto s = server.Start(); !s.ok()) {
    return Fail(s.ToString());
  }
  std::printf("policy_server: READY");
  if (!server.unix_path().empty()) {
    std::printf(" socket=%s", server.unix_path().c_str());
  }
  if (server.tcp_port() >= 0) {
    std::printf(" port=%d", server.tcp_port());
  }
  std::printf(" vertices=%zu workers=%zu\n", vertices, server.engine().worker_threads());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("policy_server: stopping (signal %d)\n", sig);
  server.Stop();
  return 0;
}
