//===- tools/ToolOptions.h - Shared CLI flag surface ------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flag surface every ALF tool shares — `--strategy`, `--exec`,
/// `--verify`, `--trace`, `--metrics`, `--seed` — parsed in one place
/// instead of five copies drifting apart (zplc, alf_stress, alf_bench,
/// alfd, alfc). A tool declares which of the flags it accepts with a
/// ToolFlag mask, loops its argv through parseToolFlag, and handles only
/// its own flags in the NotMine case:
///
///   tool::ToolOptions TO;
///   for each Arg:
///     switch (tool::parseToolFlag(Arg, tool::TF_All, TO, Error)) {
///     case tool::FlagParse::Consumed: continue;
///     case tool::FlagParse::Error:    die("mytool: " + Error);
///     case tool::FlagParse::NotMine:  ... tool-specific flags ...
///     }
///   tool::applyObsLevel(TO);     // --trace / --metrics -> obs level
///   ... run ...
///   tool::emitObsOutputs(TO, std::cout, std::cerr, "mytool");
///
/// toolFlagsHelp(mask) renders the usage lines for the enabled flags;
/// it is golden-tested (ToolOptionsTest) so help text stays consistent
/// across tools.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_TOOLS_TOOLOPTIONS_H
#define ALF_TOOLS_TOOLOPTIONS_H

#include "semiring/Semiring.h"
#include "verify/Verify.h"
#include "xform/Strategy.h"

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>

namespace alf {
namespace tool {

/// Which shared flags a tool accepts (a bitmask).
enum ToolFlag : unsigned {
  TF_Strategy = 1u << 0, ///< --strategy=NAME
  TF_Exec = 1u << 1,     ///< --exec=sequential|parallel|jit|jit-simd
  TF_Verify = 1u << 2,   ///< --verify=off|structural|full
  TF_Trace = 1u << 3,    ///< --trace=FILE (implies trace-level obs)
  TF_Metrics = 1u << 4,  ///< --metrics (implies counters-level obs)
  TF_Seed = 1u << 5,     ///< --seed=N
  TF_Semiring = 1u << 6, ///< --semiring=NAME (reduction algebra override)
  TF_All = (1u << 7) - 1,
};

/// Parsed values of the shared flags, with each tool's historical
/// defaults preserved by the optionals: a tool that distinguishes
/// "--exec absent" (zplc compiles but does not run) checks the optional.
struct ToolOptions {
  std::optional<xform::Strategy> Strat;
  std::optional<xform::ExecMode> Exec;
  verify::VerifyLevel Verify = verify::VerifyLevel::Full;
  bool VerifySet = false; ///< --verify appeared on the command line
  std::string TraceFile;
  bool Metrics = false;
  uint64_t Seed = 1;
  /// --semiring: null means "leave every reduction's declared algebra
  /// alone"; set, it overrides the ⊕/⊗ of all reductions in the run.
  const semiring::Semiring *SemiringSel = nullptr;
};

/// Outcome of offering one argv element to the shared parser.
enum class FlagParse {
  Consumed, ///< A shared flag; its value landed in ToolOptions.
  NotMine,  ///< Not a shared flag (or not in the tool's mask).
  Error,    ///< A shared flag with a bad value; Error explains.
};

/// Offers \p Arg to the shared parser, accepting only flags in
/// \p Flags. On Error, \p Error holds a one-line reason without the
/// tool-name prefix (the tool adds its own).
FlagParse parseToolFlag(const std::string &Arg, unsigned Flags,
                        ToolOptions &Opts, std::string &Error);

/// Reads the value of \p Arg, a `--name=VALUE` flag, into \p Out. The
/// value must be a whole decimal number in \p Out's range: no sign on an
/// unsigned, no trailing text, no wrap-around. On a bad value, returns
/// false with \p Error set to "invalid --name 'VALUE'" (the tool adds its
/// name). Every numeric flag of every tool is read through it.
bool parseNumberFlag(const std::string &Arg, unsigned &Out,
                     std::string &Error);

/// The same check for a positional argument: reads \p Text into \p Out,
/// or returns false with \p Error set to "invalid NAME 'TEXT'". A value
/// below \p Min is invalid too.
bool parseNumberArg(const std::string &Name, const std::string &Text,
                    unsigned &Out, std::string &Error, unsigned Min = 0);

/// The usage lines for the flags enabled in \p Flags, two-space
/// indented, one flag per line — golden-tested, keep stable.
/// \p VerifyDefault names what the tool verifies at when --verify is
/// absent.
std::string toolFlagsHelp(unsigned Flags,
                          const std::string &VerifyDefault = "full");

/// Raises the obs level per the parsed flags: --trace implies Trace,
/// --metrics implies at least Counters. Never lowers a level set by
/// $ALF_OBS.
void applyObsLevel(const ToolOptions &Opts);

/// Writes the metrics table to \p Out (when --metrics) and the Chrome
/// trace to the --trace file. False (after a "toolname: error: ..."
/// line on \p Err) when the trace file cannot be written.
bool emitObsOutputs(const ToolOptions &Opts, std::ostream &Out,
                    std::ostream &Err, const std::string &ToolName);

} // namespace tool
} // namespace alf

#endif // ALF_TOOLS_TOOLOPTIONS_H
