//===- tests/ToolOptionsTest.cpp - shared CLI flag surface tests ------------===//
//
// The flag surface every ALF tool shares (tools/ToolOptions.h): parse
// outcomes for each flag, mask gating, error messages, and the golden
// help text that keeps --help consistent across zplc, alf_stress,
// alf_bench, alfd, alfc and alfd_load.
//
//===----------------------------------------------------------------------===//

#include "ToolOptions.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::tool;

namespace {

FlagParse parse(const std::string &Arg, unsigned Flags, ToolOptions &TO) {
  std::string Error;
  return parseToolFlag(Arg, Flags, TO, Error);
}

TEST(ToolOptionsTest, DefaultsMatchTheHistoricalToolDefaults) {
  ToolOptions TO;
  EXPECT_FALSE(TO.Strat.has_value());
  EXPECT_FALSE(TO.Exec.has_value());
  EXPECT_EQ(TO.Verify, verify::VerifyLevel::Full);
  EXPECT_FALSE(TO.VerifySet);
  EXPECT_TRUE(TO.TraceFile.empty());
  EXPECT_FALSE(TO.Metrics);
  EXPECT_EQ(TO.Seed, 1u);
  EXPECT_EQ(TO.SemiringSel, nullptr);
}

TEST(ToolOptionsTest, ConsumesEveryFlagKind) {
  ToolOptions TO;
  EXPECT_EQ(parse("--strategy=c2+f3", TF_All, TO), FlagParse::Consumed);
  EXPECT_EQ(TO.Strat, xform::Strategy::C2F3);
  EXPECT_EQ(parse("--exec=jit", TF_All, TO), FlagParse::Consumed);
  EXPECT_EQ(TO.Exec, xform::ExecMode::NativeJit);
  EXPECT_EQ(parse("--verify=structural", TF_All, TO), FlagParse::Consumed);
  EXPECT_EQ(TO.Verify, verify::VerifyLevel::Structural);
  EXPECT_TRUE(TO.VerifySet);
  EXPECT_EQ(parse("--verify=safety", TF_All, TO), FlagParse::Consumed);
  EXPECT_EQ(TO.Verify, verify::VerifyLevel::Safety);
  EXPECT_EQ(parse("--trace=out.json", TF_All, TO), FlagParse::Consumed);
  EXPECT_EQ(TO.TraceFile, "out.json");
  EXPECT_EQ(parse("--metrics", TF_All, TO), FlagParse::Consumed);
  EXPECT_TRUE(TO.Metrics);
  EXPECT_EQ(parse("--seed=42", TF_All, TO), FlagParse::Consumed);
  EXPECT_EQ(TO.Seed, 42u);
  EXPECT_EQ(parse("--semiring=min-plus", TF_All, TO), FlagParse::Consumed);
  EXPECT_EQ(TO.SemiringSel, &semiring::minPlus());
}

TEST(ToolOptionsTest, MaskGatesFlagsToNotMine) {
  ToolOptions TO;
  // A flag outside the tool's mask is NotMine, never an error — the
  // tool reports it with its own usage text.
  EXPECT_EQ(parse("--strategy=c2", TF_Trace | TF_Metrics, TO),
            FlagParse::NotMine);
  EXPECT_EQ(parse("--seed=9", TF_Strategy, TO), FlagParse::NotMine);
  EXPECT_EQ(parse("--semiring=or-and", TF_Strategy | TF_Seed, TO),
            FlagParse::NotMine);
  EXPECT_FALSE(TO.Strat.has_value());
  EXPECT_EQ(TO.Seed, 1u);
  EXPECT_EQ(TO.SemiringSel, nullptr);
  // Unrelated arguments are NotMine too.
  EXPECT_EQ(parse("--count=50", TF_All, TO), FlagParse::NotMine);
  EXPECT_EQ(parse("prog.zpl", TF_All, TO), FlagParse::NotMine);
}

TEST(ToolOptionsTest, BadValuesAreErrorsWithoutToolPrefix) {
  ToolOptions TO;
  std::string Error;
  EXPECT_EQ(parseToolFlag("--strategy=bogus", TF_All, TO, Error),
            FlagParse::Error);
  EXPECT_EQ(Error, "unknown strategy 'bogus'");
  EXPECT_EQ(parseToolFlag("--exec=warp", TF_All, TO, Error),
            FlagParse::Error);
  EXPECT_EQ(Error, "unknown execution mode 'warp'");
  EXPECT_EQ(parseToolFlag("--verify=maybe", TF_All, TO, Error),
            FlagParse::Error);
  EXPECT_EQ(Error, "unknown verification level 'maybe'");
  EXPECT_EQ(parseToolFlag("--trace=", TF_All, TO, Error), FlagParse::Error);
  EXPECT_EQ(Error, "--trace needs a file name");
  EXPECT_EQ(parseToolFlag("--semiring=frob", TF_All, TO, Error),
            FlagParse::Error);
  EXPECT_EQ(Error, "unknown semiring 'frob' (expected "
                   "plus-times|min-plus|max-times|max-plus|or-and)");
}

TEST(ToolOptionsTest, SeedIsAWholeUint64) {
  ToolOptions TO;
  std::string Error;
  EXPECT_EQ(parseToolFlag("--seed=18446744073709551615", TF_All, TO, Error),
            FlagParse::Consumed);
  EXPECT_EQ(TO.Seed, UINT64_MAX);
  EXPECT_EQ(parseToolFlag("--seed=0", TF_All, TO, Error),
            FlagParse::Consumed);
  EXPECT_EQ(TO.Seed, 0u);
  for (const char *Bad : {"abc", "12x", "", "-1", "+5", " 7",
                          "18446744073709551616", "99999999999999999999"}) {
    SCOPED_TRACE(Bad);
    TO.Seed = 3;
    EXPECT_EQ(parseToolFlag(std::string("--seed=") + Bad, TF_All, TO, Error),
              FlagParse::Error);
    EXPECT_EQ(Error, std::string("invalid seed '") + Bad + "'");
    EXPECT_EQ(TO.Seed, 3u);
  }
}

TEST(ToolOptionsTest, GoldenHelpText) {
  // The full surface, in its pinned order. Tools embed this text in
  // their --help/usage output, so a change here changes every tool.
  EXPECT_EQ(
      toolFlagsHelp(TF_All),
      "  --strategy=baseline|f1|c1|f2|f3|c2|c2+f3|c2+f4|ilp\n"
      "                         fusion/contraction strategy (default c2)\n"
      "  --exec=sequential|parallel|jit|jit-simd\n"
      "                         execution mode\n"
      "  --verify=off|structural|full|safety\n"
      "                         translation-validation level (default full)\n"
      "  --semiring=plus-times|min-plus|max-times|max-plus|or-and\n"
      "                         reduction algebra override\n"
      "  --seed=N               input-data seed (default 1)\n"
      "  --trace=FILE           write a Chrome trace of every phase and "
      "kernel\n"
      "  --metrics              print the aggregated per-span timing "
      "table\n");
}

TEST(ToolOptionsTest, HelpTextFollowsTheMask) {
  EXPECT_EQ(toolFlagsHelp(TF_Metrics),
            "  --metrics              print the aggregated per-span timing "
            "table\n");
  EXPECT_EQ(toolFlagsHelp(0), "");
  // Each enabled flag contributes its own line(s); disabled ones none.
  std::string TraceAndSeed = toolFlagsHelp(TF_Trace | TF_Seed);
  EXPECT_NE(TraceAndSeed.find("--trace=FILE"), std::string::npos);
  EXPECT_NE(TraceAndSeed.find("--seed=N"), std::string::npos);
  EXPECT_EQ(TraceAndSeed.find("--strategy"), std::string::npos);
}

} // namespace
