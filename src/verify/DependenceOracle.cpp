//===- verify/DependenceOracle.cpp - From-scratch dependence diff ---------===//
//
// Pass 2 of the verification layer. The oracle recomputes the complete
// dependence relation of the program — every (variable, UDV, type) label
// between every ordered statement pair — from the independent access
// model in AccessModel.cpp, then diffs the result against the ASDG
// label-for-label. A label the oracle derives that the graph lacks is a
// *missing dependence* (the strategies may have reordered or fused
// something they were never entitled to); a label the graph carries that
// the oracle cannot derive is a *spurious dependence* (harmless for
// correctness of the output but a lie about the program that poisons
// every legality decision downstream). Both are hard errors.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"
#include "support/StringUtil.h"
#include "verify/AccessModel.h"
#include "verify/Verify.h"

using namespace alf;
using namespace alf::verify;

ALF_COUNTER(NumOracleRuns, "verify.oracle_runs",
            "Dependence-oracle validations run");
ALF_COUNTER(NumOracleLabels, "verify.oracle_labels",
            "Dependence labels re-derived by the oracle");
ALF_COUNTER(NumOracleFindings, "verify.oracle_findings",
            "Missing or spurious dependences detected");

namespace {
constexpr const char *PassName = "dependence-oracle";
} // namespace

VerifyReport verify::verifyDependences(const analysis::ASDG &G) {
  ++NumOracleRuns;
  VerifyReport Out;
  const ir::Program &P = G.getProgram();

  auto Oracle = detail::deriveDependences(P);
  for (const auto &[Pair, Labels] : Oracle)
    NumOracleLabels += Labels.size();

  // Index the graph's edges the same way.
  std::map<std::pair<unsigned, unsigned>, std::set<detail::LabelKey>> Graph;
  for (const analysis::DepEdge &E : G.edges()) {
    auto &Labels = Graph[{E.Src, E.Tgt}];
    for (const analysis::DepLabel &L : E.Labels)
      Labels.insert(detail::labelKey(L.Var, L.UDV, L.Type));
  }

  // Labels the oracle derives but the graph lacks.
  for (const auto &[Pair, Labels] : Oracle) {
    auto It = Graph.find(Pair);
    for (const detail::LabelKey &K : Labels) {
      if (It == Graph.end() || It->second.count(K) == 0)
        Out.add(PassName,
                formatString("missing dependence S%u -> S%u %s", Pair.first,
                             Pair.second,
                             detail::labelKeyStr(P, K).c_str()));
    }
  }

  // Labels the graph carries but the oracle cannot derive.
  for (const auto &[Pair, Labels] : Graph) {
    auto It = Oracle.find(Pair);
    for (const detail::LabelKey &K : Labels) {
      if (It == Oracle.end() || It->second.count(K) == 0)
        Out.add(PassName,
                formatString("spurious dependence S%u -> S%u %s", Pair.first,
                             Pair.second,
                             detail::labelKeyStr(P, K).c_str()));
    }
  }

  NumOracleFindings += Out.Findings.size();
  return Out;
}
