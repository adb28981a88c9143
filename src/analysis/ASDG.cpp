//===- analysis/ASDG.cpp - Array statement dependence graph ---------------===//

#include "analysis/ASDG.h"

#include "support/ErrorHandling.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <map>
#include <set>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;

const char *analysis::getDepTypeName(DepType T) {
  switch (T) {
  case DepType::Flow:
    return "flow";
  case DepType::Anti:
    return "anti";
  case DepType::Output:
    return "output";
  }
  alf_unreachable("unhandled dependence type");
}

ASDG ASDG::build(const ir::Program &Prog) {
  ASDG G;
  G.P = &Prog;
  unsigned N = Prog.numStmts();

  // Pre-collect the accesses of every statement.
  std::vector<std::vector<Access>> Accesses(N);
  for (unsigned I = 0; I < N; ++I)
    Prog.getStmt(I)->getAccesses(Accesses[I]);

  // For each ordered pair (Src, Tgt), Src < Tgt, build the label set.
  for (unsigned Src = 0; Src < N; ++Src) {
    for (unsigned Tgt = Src + 1; Tgt < N; ++Tgt) {
      std::vector<DepLabel> Labels;
      for (const Access &SrcAcc : Accesses[Src]) {
        for (const Access &TgtAcc : Accesses[Tgt]) {
          if (SrcAcc.Sym != TgtAcc.Sym)
            continue;
          if (!SrcAcc.IsWrite && !TgtAcc.IsWrite)
            continue; // read-read is not a dependence
          DepType Type;
          if (SrcAcc.IsWrite && TgtAcc.IsWrite)
            Type = DepType::Output;
          else if (SrcAcc.IsWrite)
            Type = DepType::Flow;
          else
            Type = DepType::Anti;
          std::optional<Offset> UDV;
          if (SrcAcc.Off && TgtAcc.Off &&
              SrcAcc.Off->rank() == TgtAcc.Off->rank())
            UDV = *SrcAcc.Off - *TgtAcc.Off;
          DepLabel Label{SrcAcc.Sym, std::move(UDV), Type};
          if (std::find(Labels.begin(), Labels.end(), Label) == Labels.end())
            Labels.push_back(std::move(Label));
        }
      }
      if (!Labels.empty())
        G.Edges.push_back(DepEdge{Src, Tgt, std::move(Labels)});
    }
  }
  G.indexEdges();

  // Reference index for statementsReferencing().
  G.RefIndex.resize(Prog.numSymbols());
  for (unsigned I = 0; I < N; ++I) {
    std::set<unsigned> Seen;
    for (const Access &A : Accesses[I])
      if (Seen.insert(A.Sym->getId()).second)
        G.RefIndex[A.Sym->getId()].push_back(I);
  }
  return G;
}

void ASDG::indexEdges() {
  unsigned N = numNodes();
  OutEdgeIds.assign(N, {});
  InEdgeIds.assign(N, {});
  VarEdgeIds.assign(P->numSymbols(), {});
  for (unsigned EdgeId = 0; EdgeId < Edges.size(); ++EdgeId) {
    const DepEdge &E = Edges[EdgeId];
    if (E.Src < N)
      OutEdgeIds[E.Src].push_back(EdgeId);
    if (E.Tgt < N)
      InEdgeIds[E.Tgt].push_back(EdgeId);
    for (const DepLabel &L : E.Labels) {
      std::vector<unsigned> &Ids = VarEdgeIds[L.Var->getId()];
      if (Ids.empty() || Ids.back() != EdgeId)
        Ids.push_back(EdgeId);
    }
  }
}

void ASDG::dropEdgeForTest(unsigned EdgeId) {
  if (EdgeId >= Edges.size())
    return;
  Edges.erase(Edges.begin() + EdgeId);
  indexEdges();
}

void ASDG::injectEdgeForTest(DepEdge E) {
  Edges.push_back(std::move(E));
  indexEdges();
}

const std::vector<unsigned> &ASDG::edgesOf(const ir::Symbol *Var) const {
  static const std::vector<unsigned> Empty;
  if (Var->getId() >= VarEdgeIds.size())
    return Empty;
  return VarEdgeIds[Var->getId()];
}

const std::vector<unsigned> &
ASDG::statementsReferencing(const ir::Symbol *Var) const {
  static const std::vector<unsigned> Empty;
  if (Var->getId() >= RefIndex.size())
    return Empty;
  return RefIndex[Var->getId()];
}

double ASDG::referenceWeight(const ir::Symbol *Var) const {
  // Only statements referencing Var contribute, so visit just those.
  double Weight = 0.0;
  for (unsigned I : statementsReferencing(Var)) {
    const Stmt *S = P->getStmt(I);
    if (const auto *NS = dyn_cast<NormalizedStmt>(S)) {
      double RegionSize = static_cast<double>(NS->getRegion()->size());
      if (NS->getLHS() == Var)
        Weight += RegionSize;
      for (const ArrayRefExpr *Ref : NS->rhsArrayRefs())
        if (Ref->getSymbol() == Var)
          Weight += RegionSize;
      continue;
    }
    if (const auto *RS = dyn_cast<ReduceStmt>(S)) {
      double RegionSize = static_cast<double>(RS->getRegion()->size());
      for (const ArrayRefExpr *Ref : RS->bodyArrayRefs())
        if (Ref->getSymbol() == Var)
          Weight += RegionSize;
      continue;
    }
    if (const auto *OS = dyn_cast<OpaqueStmt>(S)) {
      double RegionSize =
          OS->getRegion() ? static_cast<double>(OS->getRegion()->size()) : 1.0;
      for (const ArraySymbol *A : OS->arrayReads())
        if (A == Var)
          Weight += RegionSize;
      for (const ArraySymbol *A : OS->arrayWrites())
        if (A == Var)
          Weight += RegionSize;
    }
    // Communication primitives contribute no reference weight.
  }
  return Weight;
}

std::vector<const ir::ArraySymbol *> ASDG::arraysByDecreasingWeight() const {
  std::vector<std::pair<double, const ArraySymbol *>> Weighted;
  for (const ArraySymbol *A : P->arrays()) {
    double W = referenceWeight(A);
    if (W > 0.0)
      Weighted.push_back({W, A});
  }
  std::stable_sort(Weighted.begin(), Weighted.end(),
                   [](const auto &L, const auto &R) {
                     if (L.first != R.first)
                       return L.first > R.first;
                     return L.second->getId() < R.second->getId();
                   });
  std::vector<const ArraySymbol *> Result;
  Result.reserve(Weighted.size());
  for (const auto &[W, A] : Weighted)
    Result.push_back(A);
  return Result;
}

void ASDG::print(std::ostream &OS) const {
  OS << "ASDG for " << P->getName() << ": " << numNodes() << " nodes, "
     << numEdges() << " edges\n";
  for (const DepEdge &E : Edges) {
    OS << formatString("  S%u -> S%u :", E.Src, E.Tgt);
    for (const DepLabel &L : E.Labels) {
      OS << " (" << L.Var->getName() << ", "
         << (L.UDV ? L.UDV->str() : std::string("unknown")) << ", "
         << getDepTypeName(L.Type) << ")";
    }
    OS << '\n';
  }
}

std::vector<unsigned> ASDG::transitiveReductionEdges() const {
  // An edge (u, v) is redundant when v is reachable from u through a
  // path of length >= 2. BFS per edge; graphs here are basic blocks.
  std::vector<unsigned> Kept;
  for (unsigned EdgeId = 0; EdgeId < Edges.size(); ++EdgeId) {
    const DepEdge &E = Edges[EdgeId];
    // Forward search from Src skipping the direct edge.
    std::vector<bool> Seen(numNodes(), false);
    std::vector<unsigned> Work;
    for (unsigned OutId : OutEdgeIds[E.Src]) {
      if (OutId == EdgeId)
        continue;
      unsigned Next = Edges[OutId].Tgt;
      if (!Seen[Next]) {
        Seen[Next] = true;
        Work.push_back(Next);
      }
    }
    bool Redundant = false;
    while (!Work.empty() && !Redundant) {
      unsigned Node = Work.back();
      Work.pop_back();
      if (Node == E.Tgt) {
        Redundant = true;
        break;
      }
      for (unsigned OutId : OutEdgeIds[Node]) {
        unsigned Next = Edges[OutId].Tgt;
        if (Next <= E.Tgt && !Seen[Next]) {
          Seen[Next] = true;
          Work.push_back(Next);
        }
      }
    }
    if (!Redundant)
      Kept.push_back(EdgeId);
  }
  return Kept;
}

std::string ASDG::dot(bool Reduced) const {
  std::vector<unsigned> EdgeIds;
  if (Reduced) {
    EdgeIds = transitiveReductionEdges();
  } else {
    EdgeIds.resize(Edges.size());
    for (unsigned I = 0; I < Edges.size(); ++I)
      EdgeIds[I] = I;
  }
  std::string Out = "digraph ASDG {\n";
  for (unsigned I = 0; I < numNodes(); ++I)
    Out += formatString("  S%u [label=\"S%u\"];\n", I, I);
  for (unsigned EdgeId : EdgeIds) {
    const DepEdge &E = Edges[EdgeId];
    std::vector<std::string> Parts;
    for (const DepLabel &L : E.Labels)
      Parts.push_back(L.Var->getName() + " " +
                      (L.UDV ? L.UDV->str() : std::string("?")) + " " +
                      getDepTypeName(L.Type));
    Out += formatString("  S%u -> S%u [label=\"%s\"];\n", E.Src, E.Tgt,
                        join(Parts, "\\n").c_str());
  }
  Out += "}\n";
  return Out;
}
