//===- tools/alfc.cpp - Command-line client for alfd ------------------------===//
//
// Sends one request to a running alfd and prints the JSON response:
//
//   alfc --socket=PATH health
//   alfc --socket=PATH stats
//   alfc --socket=PATH compile prog.zpl [--strategy=c2] [--verify=full]
//                                       [--semiring=min-plus]
//   alfc --socket=PATH execute prog.zpl [--strategy=c2] [--exec=jit]
//                                       [--seed=S] [--semiring=min-plus]
//   alfc --socket=PATH shutdown
//
// Exit status: 0 when the daemon answered ok, 2 when it answered with a
// structured error (parse/verify/admission), 1 on transport failure.
//
//===----------------------------------------------------------------------===//

#include "ToolOptions.h"
#include "serve/Client.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace alf;

namespace {

constexpr unsigned AlfcFlags = tool::TF_Strategy | tool::TF_Exec |
                               tool::TF_Verify | tool::TF_Semiring |
                               tool::TF_Seed;

void usage(std::ostream &OS) {
  OS << "usage: alfc --socket=PATH <health|stats|compile|execute|shutdown> "
        "[file.zpl] [options]\n"
     << tool::toolFlagsHelp(AlfcFlags, "the server's");
}

} // namespace

int main(int argc, char **argv) {
  std::string SocketPath, Op, File;
  tool::ToolOptions TO;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string Error;
    switch (tool::parseToolFlag(Arg, AlfcFlags, TO, Error)) {
    case tool::FlagParse::Consumed:
      continue;
    case tool::FlagParse::Error:
      std::cerr << "alfc: " << Error << '\n';
      return 1;
    case tool::FlagParse::NotMine:
      break;
    }
    if (Arg.rfind("--socket=", 0) == 0) {
      SocketPath = Arg.substr(9);
    } else if (Arg == "--help" || Arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (Arg.rfind("--", 0) == 0) {
      std::cerr << "alfc: unknown option '" << Arg << "'\n";
      usage(std::cerr);
      return 1;
    } else if (Op.empty()) {
      Op = Arg;
    } else if (File.empty()) {
      File = Arg;
    } else {
      std::cerr << "alfc: unexpected argument '" << Arg << "'\n";
      return 1;
    }
  }

  if (SocketPath.empty() || Op.empty()) {
    usage(std::cerr);
    return 1;
  }

  json::Value Req;
  if (Op == "health") {
    Req = serve::Client::makeHealth();
  } else if (Op == "stats") {
    Req = serve::Client::makeStats();
  } else if (Op == "shutdown") {
    Req = serve::Client::makeShutdown();
  } else if (Op == "compile" || Op == "execute") {
    if (File.empty()) {
      std::cerr << "alfc: " << Op << " needs a program file\n";
      return 1;
    }
    std::ifstream In(File);
    if (!In) {
      std::cerr << "alfc: cannot open " << File << '\n';
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Strategy =
        TO.Strat ? xform::getStrategyName(*TO.Strat) : "";
    std::string Exec = TO.Exec ? xform::getExecModeName(*TO.Exec) : "";
    std::string Verify =
        TO.VerifySet ? verify::getVerifyLevelName(TO.Verify) : "";
    std::string Semiring = TO.SemiringSel ? TO.SemiringSel->Name : "";
    Req = Op == "compile"
              ? serve::Client::makeCompile(Buf.str(), Strategy, Exec,
                                           Verify, Semiring)
              : serve::Client::makeExecute(Buf.str(), Strategy, Exec,
                                           Verify, TO.Seed, Semiring);
  } else {
    std::cerr << "alfc: unknown op '" << Op << "'\n";
    usage(std::cerr);
    return 1;
  }

  serve::Client C;
  std::string Error;
  if (!C.connect(SocketPath, &Error)) {
    std::cerr << "alfc: " << Error << '\n';
    return 1;
  }
  json::Value Resp;
  if (!C.request(Req, Resp, &Error)) {
    std::cerr << "alfc: " << Error << '\n';
    return 1;
  }
  Resp.write(std::cout);
  std::cout << '\n';
  std::optional<bool> OK = Resp.getBool("ok");
  return (OK && *OK) ? 0 : 2;
}
