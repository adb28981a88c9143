//===- tools/ToolOptions.cpp - Shared CLI flag surface ----------------------===//

#include "ToolOptions.h"

#include "obs/Obs.h"

#include <charconv>

using namespace alf;
using namespace alf::tool;

FlagParse tool::parseToolFlag(const std::string &Arg, unsigned Flags,
                              ToolOptions &Opts, std::string &Error) {
  if ((Flags & TF_Strategy) && Arg.rfind("--strategy=", 0) == 0) {
    std::string Name = Arg.substr(11);
    std::optional<xform::Strategy> S = xform::strategyNamed(Name);
    if (!S) {
      Error = "unknown strategy '" + Name + "'";
      return FlagParse::Error;
    }
    Opts.Strat = *S;
    return FlagParse::Consumed;
  }
  if ((Flags & TF_Exec) && Arg.rfind("--exec=", 0) == 0) {
    std::string Name = Arg.substr(7);
    std::optional<xform::ExecMode> M = xform::execModeNamed(Name);
    if (!M) {
      Error = "unknown execution mode '" + Name + "'";
      return FlagParse::Error;
    }
    Opts.Exec = *M;
    return FlagParse::Consumed;
  }
  if ((Flags & TF_Verify) && Arg.rfind("--verify=", 0) == 0) {
    std::string Name = Arg.substr(9);
    std::optional<verify::VerifyLevel> L = verify::verifyLevelNamed(Name);
    if (!L) {
      Error = "unknown verification level '" + Name + "'";
      return FlagParse::Error;
    }
    Opts.Verify = *L;
    Opts.VerifySet = true;
    return FlagParse::Consumed;
  }
  if ((Flags & TF_Trace) && Arg.rfind("--trace=", 0) == 0) {
    Opts.TraceFile = Arg.substr(8);
    if (Opts.TraceFile.empty()) {
      Error = "--trace needs a file name";
      return FlagParse::Error;
    }
    return FlagParse::Consumed;
  }
  if ((Flags & TF_Metrics) && Arg == "--metrics") {
    Opts.Metrics = true;
    return FlagParse::Consumed;
  }
  if ((Flags & TF_Seed) && Arg.rfind("--seed=", 0) == 0) {
    // The whole value, as a uint64_t: no sign, no trailing text, no
    // wrap-around.
    const char *First = Arg.data() + 7, *Last = Arg.data() + Arg.size();
    uint64_t Seed = 0;
    auto [End, Ec] = std::from_chars(First, Last, Seed);
    if (Ec != std::errc() || End != Last) {
      Error = "invalid seed '" + Arg.substr(7) + "'";
      return FlagParse::Error;
    }
    Opts.Seed = Seed;
    return FlagParse::Consumed;
  }
  if ((Flags & TF_Semiring) && Arg.rfind("--semiring=", 0) == 0) {
    std::string Name = Arg.substr(11);
    const semiring::Semiring *S = semiring::byName(Name);
    if (!S) {
      Error = "unknown semiring '" + Name + "' (expected " +
              semiring::allNames() + ")";
      return FlagParse::Error;
    }
    Opts.SemiringSel = S;
    return FlagParse::Consumed;
  }
  return FlagParse::NotMine;
}

bool tool::parseNumberArg(const std::string &Name, const std::string &Text,
                          unsigned &Out, std::string &Error, unsigned Min) {
  const char *Last = Text.data() + Text.size();
  unsigned Value = 0;
  auto [End, Ec] = std::from_chars(Text.data(), Last, Value);
  if (Ec != std::errc() || End != Last || Value < Min) {
    Error = "invalid " + Name + " '" + Text + "'";
    return false;
  }
  Out = Value;
  return true;
}

bool tool::parseNumberFlag(const std::string &Arg, unsigned &Out,
                           std::string &Error) {
  size_t Eq = Arg.find('=');
  return parseNumberArg(Arg.substr(0, Eq),
                        Eq == std::string::npos ? "" : Arg.substr(Eq + 1),
                        Out, Error);
}

std::string tool::toolFlagsHelp(unsigned Flags,
                                const std::string &VerifyDefault) {
  std::string S;
  if (Flags & TF_Strategy)
    S += "  --strategy=baseline|f1|c1|f2|f3|c2|c2+f3|c2+f4|ilp\n"
         "                         fusion/contraction strategy (default c2)\n";
  if (Flags & TF_Exec)
    S += "  --exec=sequential|parallel|jit|jit-simd\n"
         "                         execution mode\n";
  if (Flags & TF_Verify)
    S += "  --verify=off|structural|full|safety\n"
         "                         translation-validation level (default " +
         VerifyDefault + ")\n";
  if (Flags & TF_Semiring)
    S += "  --semiring=" + semiring::allNames() +
         "\n"
         "                         reduction algebra override\n";
  if (Flags & TF_Seed)
    S += "  --seed=N               input-data seed (default 1)\n";
  if (Flags & TF_Trace)
    S += "  --trace=FILE           write a Chrome trace of every phase and "
         "kernel\n";
  if (Flags & TF_Metrics)
    S += "  --metrics              print the aggregated per-span timing "
         "table\n";
  return S;
}

void tool::applyObsLevel(const ToolOptions &Opts) {
  if (!Opts.TraceFile.empty())
    obs::setLevel(obs::ObsLevel::Trace);
  else if (Opts.Metrics && obs::level() == obs::ObsLevel::Off)
    obs::setLevel(obs::ObsLevel::Counters);
}

bool tool::emitObsOutputs(const ToolOptions &Opts, std::ostream &Out,
                          std::ostream &Err, const std::string &ToolName) {
  if (Opts.Metrics)
    obs::writeMetricsTable(Out);
  if (!Opts.TraceFile.empty() &&
      !obs::writeChromeTraceFile(Opts.TraceFile)) {
    Err << ToolName << ": error: cannot write trace to " << Opts.TraceFile
        << '\n';
    return false;
  }
  return true;
}
