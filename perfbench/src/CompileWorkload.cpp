//===- perfbench/src/CompileWorkload.cpp - The compile workload -------------===//
//
// One pass compiles a fixed mix of 12 programs under each of the paper's
// three contraction strategies (c2, c2+f3, c2+f4): the six paper
// benchmarks, the semiring zoo (Floyd-Warshall and transitive closure at
// 8 nodes, k-NN) and the three examples/*.zpl sources parsed from text.
// Each compile builds (or parses) the program afresh and runs one
// Pipeline::tryCompile at the Structural verify level on this thread.
// The seed only shuffles the order of the 36 compiles inside each pass.
// Set-up reads the sources and compiles each program once at c2, so lazy
// one-time initialization is not charged to the first timed compile.
//
// A traced run alternates untraced passes with traced passes. A traced
// pass makes the same compiles layer by layer, timing each public entry
// point Pipeline::tryCompile would call: the benchprogs program builder
// or frontend::parseProgram,
// ir::normalizeProgram, ir::verifyProgram, analysis::ASDG::build,
// verify::verifyStructure, xform::applyStrategy and scalarize::scalarize.
//
// Check: the c2 after-contraction census (exec::computeCensus) equals the
// Figure 7 value (the zoo's regression anchors; the examples' documented
// counts), and c2+f3 / c2+f4 leave no more arrays than that.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "benchprogs/Benchmarks.h"
#include "driver/Pipeline.h"
#include "exec/MemoryAccounting.h"
#include "frontend/Parser.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "scalarize/Scalarize.h"
#include "support/Random.h"

#include <algorithm>
#include <functional>
#include <set>

using namespace alf;
using namespace perfbench;

namespace {

/// Problem size of every built program: the size the census anchors are
/// stated at. Compile time barely depends on it.
constexpr int64_t BuildN = 8;

struct MixProgram {
  std::string Name;                                    ///< metric suffix
  std::function<std::unique_ptr<ir::Program>()> Build; ///< null for text
  std::string Source;                                  ///< mini-ZPL text
  unsigned AnchorAfter = 0; ///< static arrays left after c2
};

struct StrategySpec {
  xform::Strategy Strat;
  const char *Name; ///< metric-safe name
};

const StrategySpec Strategies[] = {{xform::Strategy::C2, "c2"},
                                   {xform::Strategy::C2F3, "c2f3"},
                                   {xform::Strategy::C2F4, "c2f4"}};

std::string lower(std::string S) {
  for (char &C : S)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return S;
}

driver::PipelineOptions pipelineOptions() {
  driver::PipelineOptions PO;
  PO.Verify = verify::VerifyLevel::Structural; // the library default
  return PO;
}

std::unique_ptr<ir::Program> makeProgram(const MixProgram &P) {
  if (P.Build)
    return P.Build();
  return frontend::parseProgram(P.Source, P.Name).Prog;
}

struct Mix {
  std::vector<MixProgram> Programs;
};

std::unique_ptr<Mix> makeMix(const Options &Opts, Report &R) {
  auto M = std::make_unique<Mix>();
  for (const benchprogs::BenchmarkInfo &B : benchprogs::allBenchmarks())
    M->Programs.push_back(
        {lower(B.Name), [&B] { return B.Build(BuildN); }, "",
         B.PaperStaticAfter});
  for (const benchprogs::BenchmarkInfo &B : benchprogs::zooBenchmarks())
    M->Programs.push_back(
        {lower(B.Name), [&B] { return B.Build(BuildN); }, "",
         B.PaperStaticAfter});
  // The examples state their own after-contraction counts in their
  // header comments: EP contracts everything, Jacobi keeps u and unew,
  // shortest paths keeps its four persistent rows.
  const std::pair<const char *, unsigned> Examples[] = {
      {"ep", 0}, {"jacobi", 2}, {"shortest_paths", 4}};
  for (const auto &[File, Anchor] : Examples) {
    std::string Text =
        readFile(Opts.RepoRoot + "/examples/" + File + ".zpl");
    if (Text.empty())
      R.problem(std::string("cannot read examples/") + File + ".zpl");
    M->Programs.push_back({std::string("zpl_") + File, nullptr, Text, Anchor});
  }
  // Compile every program once at c2: a missing or broken input shows up
  // before anything is timed, and lazy one-time initialization is paid
  // here rather than by the first timed compile.
  for (const MixProgram &P : M->Programs) {
    std::unique_ptr<ir::Program> Prog = makeProgram(P);
    if (!Prog) {
      R.problem("cannot build or parse " + P.Name);
      continue;
    }
    driver::Pipeline PL(*Prog, pipelineOptions());
    if (!PL.tryCompile(driver::CompileRequest{xform::Strategy::C2}).ok())
      R.problem("warm-up compile failed: " + P.Name);
  }
  return M;
}

/// The deterministic numbers one compile produces.
struct UnitCounts {
  unsigned Stmts = 0, Edges = 0, Clusters = 0, Contracted = 0;
  bool operator==(const UnitCounts &O) const {
    return Stmts == O.Stmts && Edges == O.Edges && Clusters == O.Clusters &&
           Contracted == O.Contracted;
  }
};

/// Layer times of one traced pass, in seconds.
struct LayerTimes {
  double Build = 0, Parse = 0, Normalize = 0, IrVerify = 0, Asdg = 0,
         Structural = 0, Strategy = 0, Lower = 0;
  double PerStrategy[3] = {0, 0, 0};
  double total() const {
    return Build + Parse + Normalize + IrVerify + Asdg + Structural +
           Strategy + Lower;
  }
};

} // namespace

void perfbench::runCompileWorkload(const Options &Opts, Report &R) {
  double SetupSec = 0;
  std::unique_ptr<Mix> M =
      repeatSetup([&](unsigned) { return makeMix(Opts, R); }, SetupSec);
  const std::vector<MixProgram> &Programs = M->Programs;
  const unsigned NumStrats = 3;
  const unsigned NumUnits = static_cast<unsigned>(Programs.size()) * NumStrats;

  std::vector<std::vector<double>> UnitSec(NumUnits); // untraced samples
  std::vector<std::optional<UnitCounts>> Counts(NumUnits);
  std::vector<double> PassSec, TracedPassSec;
  std::vector<LayerTimes> Traced;
  double CheckSec = 0; // checking time inside the current pass

  auto CheckCounts = [&](unsigned U, const UnitCounts &C) {
    if (!Counts[U])
      Counts[U] = C;
    else if (!(*Counts[U] == C))
      R.fail("compile " + Programs[U / NumStrats].Name + "/" +
             Strategies[U % NumStrats].Name + ": counts changed between passes");
  };

  // One untraced compile: build or parse, then Pipeline::tryCompile.
  auto UntracedUnit = [&](unsigned U) {
    const MixProgram &Prog = Programs[U / NumStrats];
    const StrategySpec &S = Strategies[U % NumStrats];
    double T0 = nowSec();
    std::unique_ptr<ir::Program> P = makeProgram(Prog);
    driver::Pipeline PL(*P, pipelineOptions());
    driver::CompileStatus St = PL.tryCompile(driver::CompileRequest{S.Strat});
    double Sec = nowSec() - T0;
    UnitSec[U].push_back(Sec);

    CheckTimer Check(CheckSec);
    R.attempted();
    std::string Unit = Prog.Name + "/" + S.Name;
    if (!St.ok() || !St.Artifact || !St.SR) {
      R.fail("compile " + Unit + ": " + St.Message);
      return;
    }
    std::set<const ir::ArraySymbol *> Contracted(St.SR->Contracted.begin(),
                                                 St.SR->Contracted.end());
    unsigned After = exec::computeCensus(PL.program(), Contracted).StaticArrays;
    bool CensusOK = S.Strat == xform::Strategy::C2 ? After == Prog.AnchorAfter
                                                   : After <= Prog.AnchorAfter;
    if (!CensusOK)
      R.fail("compile " + Unit + ": " + std::to_string(After) +
             " static arrays after contraction, expected " +
             (S.Strat == xform::Strategy::C2 ? "" : "at most ") +
             std::to_string(Prog.AnchorAfter));
    CheckCounts(U, {PL.program().numStmts(), PL.asdg().numEdges(),
                    St.Artifact->NumClusters,
                    static_cast<unsigned>(St.SR->Contracted.size())});
  };

  // One traced compile: the same chain, one timed layer call at a time.
  auto TracedUnit = [&](unsigned U, LayerTimes &LT) {
    const MixProgram &Prog = Programs[U / NumStrats];
    const StrategySpec &S = Strategies[U % NumStrats];
    double T0 = nowSec();
    std::unique_ptr<ir::Program> P = makeProgram(Prog);
    double T1 = nowSec();
    (Prog.Build ? LT.Build : LT.Parse) += T1 - T0;
    ir::normalizeProgram(*P);
    double T2 = nowSec();
    std::vector<std::string> IrErrors = ir::verifyProgram(*P);
    double T3 = nowSec();
    analysis::ASDG G = analysis::ASDG::build(*P);
    double T4 = nowSec();
    verify::VerifyReport VR = verify::verifyStructure(*P, &G);
    double T5 = nowSec();
    xform::StrategyResult SR = xform::applyStrategy(G, S.Strat);
    double T6 = nowSec();
    lir::LoopProgram LP = scalarize::scalarize(G, SR);
    double T7 = nowSec();
    LT.Normalize += T2 - T1;
    LT.IrVerify += T3 - T2;
    LT.Asdg += T4 - T3;
    LT.Structural += T5 - T4;
    LT.Strategy += T6 - T5;
    LT.PerStrategy[U % NumStrats] += T6 - T5;
    LT.Lower += T7 - T6;

    CheckTimer Check(CheckSec);
    R.attempted();
    std::string Unit = Prog.Name + "/" + S.Name;
    if (!IrErrors.empty() || !VR.ok() || LP.nodes().empty())
      R.fail("layered compile " + Unit + " failed");
    else
      CheckCounts(U, {P->numStmts(), G.numEdges(), SR.Partition.numClusters(),
                      static_cast<unsigned>(SR.Contracted.size())});
  };

  std::vector<unsigned> Order(NumUnits);
  for (unsigned U = 0; U < NumUnits; ++U)
    Order[U] = U;
  double Deadline = nowSec() + Opts.Seconds;
  for (unsigned Pass = 0;; ++Pass) {
    SplitMix64 Rng(mixSeed(Opts.Seed, Pass));
    for (unsigned I = NumUnits; I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.nextBounded(I)]);
    bool IsTraced = Opts.Trace && Pass % 2 == 1;
    CheckSec = 0;
    double Start = nowSec();
    if (IsTraced) {
      LayerTimes LT;
      for (unsigned U : Order)
        TracedUnit(U, LT);
      Traced.push_back(LT);
      TracedPassSec.push_back(nowSec() - Start - CheckSec);
    } else {
      for (unsigned U : Order)
        UntracedUnit(U);
      PassSec.push_back(nowSec() - Start - CheckSec);
    }
    if (nowSec() >= Deadline && (!Opts.Trace || Pass >= 1))
      break;
  }
  double PeakRss = peakRssMb();

  // End-to-end: one operation is one compile.
  reportEndToEnd(R, SetupSec, PeakRss, UnitSec, sum(PassSec), 0.9);

  // Deterministic counts, from the first pass that made each compile.
  unsigned Stmts = 0, Edges = 0, Clusters = 0, Contracted = 0;
  for (unsigned U = 0; U < NumUnits; ++U) {
    if (!Counts[U])
      continue;
    if (U % NumStrats == 0) {
      Stmts += Counts[U]->Stmts;
      Edges += Counts[U]->Edges;
    }
    Clusters += Counts[U]->Clusters;
    Contracted += Counts[U]->Contracted;
  }

  // Per-layer: each layer's share of the traced passes' wall time.
  const double TracedSec = sum(TracedPassSec);
  auto Share = [&](const std::function<double(const LayerTimes &)> &F) {
    double Sec = 0;
    for (const LayerTimes &LT : Traced)
      Sec += F(LT);
    return Sec / TracedSec;
  };
  R.layer("benchprogs.build_frac", Share([](auto &L) { return L.Build; }),
          "frac");
  R.layer("frontend.parse_frac", Share([](auto &L) { return L.Parse; }),
          "frac");
  R.layer("ir.normalize_frac", Share([](auto &L) { return L.Normalize; }),
          "frac");
  R.layer("ir.verify_frac", Share([](auto &L) { return L.IrVerify; }), "frac");
  R.layer("analysis.asdg_frac", Share([](auto &L) { return L.Asdg; }), "frac");
  R.layer("verify.structural_frac",
          Share([](auto &L) { return L.Structural; }), "frac");
  R.layer("xform.strategy_frac", Share([](auto &L) { return L.Strategy; }),
          "frac");
  for (unsigned S = 0; S < NumStrats; ++S)
    R.layer(std::string("xform.strategy.") + Strategies[S].Name + "_frac",
            Share([S](auto &L) { return L.PerStrategy[S]; }), "frac");
  R.layer("scalarize.lower_frac", Share([](auto &L) { return L.Lower; }),
          "frac");
  R.layer("trace.unattributed_frac",
          Share([](auto &L) { return -L.total(); }) + 1, "frac");
  // Each program's share of an untraced pass: its three median compiles
  // against the sum of all 36.
  std::vector<double> UnitMed;
  for (const std::vector<double> &S : UnitSec)
    UnitMed.push_back(median(S));
  for (size_t P = 0; P < Programs.size(); ++P) {
    double Sec = 0;
    for (unsigned S = 0; S < NumStrats; ++S)
      Sec += UnitMed[P * NumStrats + S];
    R.layer("driver.compile." + Programs[P].Name + "_frac", Sec / sum(UnitMed),
            "frac");
  }
  R.count("ir.stmts", Stmts);
  R.count("analysis.asdg_edges", Edges);
  R.count("xform.clusters", Clusters);
  R.count("xform.contracted_arrays", Contracted);
  R.layer("trace.overhead_frac", median(TracedPassSec) / median(PassSec) - 1,
          "frac");
}
