//===- tools/alfd.cpp - The ALF compile-and-execute daemon ------------------===//
//
// The persistent serving process: listens on a Unix-domain socket and
// compiles/executes mini-ZPL programs through driver::Pipeline for any
// number of concurrent clients, amortizing fusion analysis and JIT
// kernel compiles across requests via the sharded single-flight kernel
// cache (see docs/SERVING.md for the wire protocol).
//
// Usage: alfd --socket=PATH [--compile-threads=N] [--max-inflight=N]
//             [--max-program-bytes=N] [--verify=off|structural|full]
//             [--trace=FILE] [--metrics]
//
// Runs in the foreground until a client sends `shutdown` or the process
// receives SIGINT/SIGTERM; on exit it removes the socket file and, with
// --metrics/--trace, emits the run's observability outputs.
//
//===----------------------------------------------------------------------===//

#include "ToolOptions.h"
#include "serve/Server.h"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

using namespace alf;

namespace {

serve::Server *ActiveServer = nullptr;
std::atomic<bool> SignalSeen{false};

void onSignal(int) {
  // stop() only takes a mutex and notifies a CV; safe enough for the
  // small set of things async-signal contexts allow us in practice, and
  // the flag lets main report what happened.
  SignalSeen.store(true);
  if (ActiveServer)
    ActiveServer->stop();
}

void usage(std::ostream &OS) {
  OS << "usage: alfd --socket=PATH [options]\n"
     << "  --socket=PATH          Unix-domain socket to listen on "
        "(required)\n"
     << "  --compile-threads=N    concurrent pipeline compiles (default 2)\n"
     << "  --max-inflight=N       admission cap on concurrent requests "
        "(default 64)\n"
     << "  --max-program-bytes=N  admission cap on program size (default "
        "1 MiB)\n"
     << tool::toolFlagsHelp(
            tool::TF_Verify | tool::TF_Trace | tool::TF_Metrics,
            verify::getVerifyLevelName(serve::ServerOptions().Verify));
}

} // namespace

int main(int argc, char **argv) {
  serve::ServerOptions SO;
  tool::ToolOptions TO;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string Error;
    switch (tool::parseToolFlag(
        Arg, tool::TF_Verify | tool::TF_Trace | tool::TF_Metrics, TO,
        Error)) {
    case tool::FlagParse::Consumed:
      continue;
    case tool::FlagParse::Error:
      std::cerr << "alfd: " << Error << '\n';
      return 1;
    case tool::FlagParse::NotMine:
      break;
    }
    bool NumberOK = true;
    if (Arg.rfind("--socket=", 0) == 0) {
      SO.SocketPath = Arg.substr(9);
    } else if (Arg.rfind("--compile-threads=", 0) == 0) {
      NumberOK = tool::parseNumberFlag(Arg, SO.CompileThreads, Error);
    } else if (Arg.rfind("--max-inflight=", 0) == 0) {
      NumberOK = tool::parseNumberFlag(Arg, SO.MaxInFlight, Error);
    } else if (Arg.rfind("--max-program-bytes=", 0) == 0) {
      NumberOK = tool::parseNumberFlag(Arg, SO.MaxProgramBytes, Error);
    } else if (Arg == "--help" || Arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "alfd: unknown option '" << Arg << "'\n";
      usage(std::cerr);
      return 1;
    }
    if (!NumberOK) {
      std::cerr << "alfd: " << Error << '\n';
      return 2;
    }
  }
  if (SO.SocketPath.empty()) {
    std::cerr << "alfd: --socket=PATH is required\n";
    usage(std::cerr);
    return 1;
  }
  if (TO.VerifySet)
    SO.Verify = TO.Verify;
  tool::applyObsLevel(TO);

  serve::Server Srv(SO);
  std::string Error;
  if (!Srv.start(&Error)) {
    std::cerr << "alfd: " << Error << '\n';
    return 1;
  }
  std::cerr << "alfd: listening on " << SO.SocketPath << " ("
            << SO.CompileThreads << " compile threads, verify="
            << verify::getVerifyLevelName(SO.Verify) << ")\n";

  ActiveServer = &Srv;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  Srv.wait();
  ActiveServer = nullptr;
  std::cerr << "alfd: "
            << (SignalSeen.load() ? "signal received, " : "")
            << "shut down\n";

  return tool::emitObsOutputs(TO, std::cout, std::cerr, "alfd") ? 0 : 1;
}
