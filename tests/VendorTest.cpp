//===- tests/VendorTest.cpp - Figure 6 compiler-matrix tests ----------------===//

#include "vendors/CompilerModel.h"
#include "vendors/Fragments.h"

#include "frontend/Parser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

using namespace alf;
using namespace alf::ir;
using namespace alf::vendors;

namespace {

const VendorPolicy &policyNamed(const std::string &Name) {
  static std::vector<VendorPolicy> All = allVendorPolicies();
  for (const VendorPolicy &P : All)
    if (P.Name.find(Name) != std::string::npos)
      return P;
  ADD_FAILURE() << "no policy named " << Name;
  return All.front();
}

TEST(FragmentTest, AllFragmentsBuildAndVerify) {
  for (unsigned Id = 1; Id <= NumFragments; ++Id) {
    auto P = buildFragment(Id);
    // Fragments 4, 5 and 8 violate condition (i) until normalized.
    if (Id == 4 || Id == 5 || Id == 8)
      EXPECT_FALSE(isWellFormed(*P)) << "fragment " << Id;
    else
      EXPECT_TRUE(isWellFormed(*P)) << "fragment " << Id;
    EXPECT_FALSE(describeFragment(Id).empty());
  }
}

TEST(FragmentTest, ProbeKinds) {
  EXPECT_EQ(probeKindOf(1), ProbeKind::Fusion);
  EXPECT_EQ(probeKindOf(3), ProbeKind::Fusion);
  EXPECT_EQ(probeKindOf(4), ProbeKind::CompilerContract);
  EXPECT_EQ(probeKindOf(6), ProbeKind::UserContract);
  EXPECT_EQ(probeKindOf(8), ProbeKind::TradeOff);
}

TEST(VendorTest, FivePoliciesInFigureOrder) {
  auto All = allVendorPolicies();
  ASSERT_EQ(All.size(), 5u);
  EXPECT_EQ(All[0].Name, "PGI HPF 2.1");
  EXPECT_EQ(All[1].Name, "IBM XLHPF 1.2");
  EXPECT_EQ(All[2].Name, "APR XHPF 2.0");
  EXPECT_EQ(All[3].Name, "Cray F90 2.0.1.0");
  EXPECT_EQ(All[4].Name, "ZPL (ALF)");
}

/// The Figure 6 matrix, derived from the section 5.1 prose: which of the
/// eight probes each compiler handles properly.
TEST(VendorTest, Figure6Matrix) {
  struct Row {
    const char *Vendor;
    bool Expect[NumFragments];
  };
  const Row Rows[] = {
      // (1)   (2)   (3)    (4)   (5)   (6)    (7)    (8)
      {"PGI", {false, false, false, true, true, false, false, false}},
      {"IBM", {false, false, false, true, true, false, false, false}},
      {"APR", {true, true, false, true, true, false, false, false}},
      {"Cray", {true, true, false, true, true, true, false, false}},
      {"ZPL", {true, true, true, true, true, true, true, true}},
  };
  for (const Row &R : Rows) {
    const VendorPolicy &Policy = policyNamed(R.Vendor);
    for (unsigned Id = 1; Id <= NumFragments; ++Id)
      EXPECT_EQ(fragmentHandledProperly(Id, Policy), R.Expect[Id - 1])
          << R.Vendor << " on fragment " << Id << " ("
          << describeFragment(Id) << ")";
  }
}

TEST(VendorTest, CrayContractsCompilerTempInFragment8) {
  // "it contracts the compiler temporary in (8) at the expense of
  // contracting the two user temporaries."
  VendorRun Run =
      runVendorPipeline(buildFragment(8), policyNamed("Cray"));
  EXPECT_TRUE(Run.ContractedNames.count("_T1"));
  EXPECT_FALSE(Run.ContractedNames.count("T1"));
  EXPECT_FALSE(Run.ContractedNames.count("T2"));
}

TEST(VendorTest, ALFSacrificesCompilerTempInFragment8) {
  // "our algorithm is guaranteed to contract it unless a more favorable
  // contraction is performed that prevents it" — here the user arrays
  // carry more reference weight.
  VendorRun Run = runVendorPipeline(buildFragment(8), policyNamed("ZPL"));
  EXPECT_TRUE(Run.ContractedNames.count("T1"));
  EXPECT_TRUE(Run.ContractedNames.count("T2"));
  EXPECT_FALSE(Run.ContractedNames.count("_T1"));
}

TEST(VendorTest, PGICompilesEachStatementToItsOwnNest) {
  VendorRun Run = runVendorPipeline(buildFragment(1), policyNamed("PGI"));
  EXPECT_NE(Run.ClusterOf[0], Run.ClusterOf[1]);
}

TEST(VendorTest, CrayFailsOnAntiDependenceFusion) {
  // "fusion does not occur in either (3) or (7), in the latter case
  // inhibiting contraction."
  VendorRun Run3 = runVendorPipeline(buildFragment(3), policyNamed("Cray"));
  EXPECT_NE(Run3.ClusterOf[0], Run3.ClusterOf[1]);
  VendorRun Run7 = runVendorPipeline(buildFragment(7), policyNamed("Cray"));
  EXPECT_FALSE(Run7.ContractedNames.count("B"));
}

// The vendor models compile the same normal form as zplc and tryCompile:
// the offset target is aligned first, so the two statements share one
// region. Each policy then decides from its own rules.
TEST(VendorTest, TargetOffsetIsAlignedBeforeFusion) {
  std::ifstream In(ALF_TEST_INPUTS_DIR "/target_offset_fuses.zpl");
  ASSERT_TRUE(In.good());
  std::ostringstream Source;
  Source << In.rdbuf();
  struct Expected {
    const char *Policy;
    size_t Clusters;
    std::set<std::string> Contracted;
  };
  const Expected Cases[] = {{"PGI", 2, {}},
                            {"IBM", 2, {}},
                            {"APR", 1, {}},
                            {"Cray", 1, {"T"}},
                            {"ZPL", 1, {"T"}}};
  for (const Expected &E : Cases) {
    frontend::ParseResult PR =
        frontend::parseProgram(Source.str(), "target_offset_fuses");
    ASSERT_TRUE(PR.succeeded());
    VendorRun Run =
        runVendorPipeline(std::move(PR.Prog), policyNamed(E.Policy));
    std::set<unsigned> Clusters(Run.ClusterOf.begin(), Run.ClusterOf.end());
    EXPECT_EQ(Clusters.size(), E.Clusters) << E.Policy;
    EXPECT_EQ(Run.ContractedNames, E.Contracted) << E.Policy;
  }
}

} // namespace
