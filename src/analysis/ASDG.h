//===- analysis/ASDG.h - Array statement dependence graph ------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The array statement dependence graph of paper Definition 3: a labeled
/// acyclic digraph whose vertices are the statements of a basic block and
/// whose edges carry sets of `(variable, unconstrained distance vector,
/// dependence type)` tuples. Unconstrained distance vectors (Definition 2)
/// are computed as `source offset - target offset` where the source
/// statement precedes the target in program order; accesses that have no
/// constant offset (opaque statements, communication primitives, scalars)
/// produce *unrepresentable* labels (UDV == std::nullopt) that dependence
/// consumers treat conservatively.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_ANALYSIS_ASDG_H
#define ALF_ANALYSIS_ASDG_H

#include "ir/Offset.h"
#include "ir/Program.h"

#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace alf {
namespace analysis {

/// Classic dependence classification.
enum class DepType { Flow, Anti, Output };

/// Printable name ("flow", "anti", "output").
const char *getDepTypeName(DepType T);

/// One `(variable, UDV, type)` tuple from an ASDG edge label (paper
/// Definition 3). `UDV == std::nullopt` marks a dependence whose distance
/// cannot be represented as a constant vector; such dependences order
/// statements but forbid fusing their endpoints.
struct DepLabel {
  const ir::Symbol *Var = nullptr;
  std::optional<ir::Offset> UDV;
  DepType Type = DepType::Flow;

  bool operator==(const DepLabel &RHS) const {
    return Var == RHS.Var && UDV == RHS.UDV && Type == RHS.Type;
  }
};

/// A dependence edge from statement \p Src to statement \p Tgt (program
/// order guarantees Src < Tgt), carrying all labels between the two.
struct DepEdge {
  unsigned Src = 0;
  unsigned Tgt = 0;
  std::vector<DepLabel> Labels;
};

/// The array statement dependence graph over one Program.
class ASDG {
  const ir::Program *P = nullptr;
  std::vector<DepEdge> Edges;
  std::vector<std::vector<unsigned>> OutEdgeIds;
  std::vector<std::vector<unsigned>> InEdgeIds;
  // Per symbol id: the edges carrying a label due to that symbol
  // (ascending). Rebuilt with OutEdgeIds/InEdgeIds by indexEdges().
  std::vector<std::vector<unsigned>> VarEdgeIds;
  // Cached reference index: statements referencing each symbol
  // (ascending), by symbol id. Built once during build().
  std::vector<std::vector<unsigned>> RefIndex;

  void indexEdges();

public:
  /// Builds the ASDG of \p Prog. The program must be well formed (run the
  /// verifier first); normalization is the caller's responsibility.
  static ASDG build(const ir::Program &Prog);

  const ir::Program &getProgram() const { return *P; }

  unsigned numNodes() const { return P->numStmts(); }
  unsigned numEdges() const { return static_cast<unsigned>(Edges.size()); }

  const DepEdge &getEdge(unsigned EdgeId) const { return Edges[EdgeId]; }
  const std::vector<DepEdge> &edges() const { return Edges; }

  /// Indices into edges() leaving / entering statement \p Node.
  const std::vector<unsigned> &outEdges(unsigned Node) const {
    return OutEdgeIds[Node];
  }
  const std::vector<unsigned> &inEdges(unsigned Node) const {
    return InEdgeIds[Node];
  }

  /// Indices into edges() of the edges carrying at least one label due to
  /// \p Var, ascending. O(1): served from an index built with the graph.
  const std::vector<unsigned> &edgesOf(const ir::Symbol *Var) const;

  /// Ids of statements containing any reference to \p Var (reads, writes,
  /// communication and opaque accesses included). O(1): served from an
  /// index built during construction.
  const std::vector<unsigned> &statementsReferencing(const ir::Symbol *Var) const;

  /// The paper's reference weight w(x, G): the number of array element
  /// references eliminated if \p Var were contracted, computed as the sum
  /// over statements of (references to Var in the statement) x (region
  /// size). Communication primitives contribute nothing (they disappear
  /// with the array).
  double referenceWeight(const ir::Symbol *Var) const;

  /// Array variables appearing in the graph, sorted by decreasing
  /// referenceWeight (ties broken by symbol id for determinism). This is
  /// the consideration order of FUSION-FOR-CONTRACTION (Figure 3, line 3).
  std::vector<const ir::ArraySymbol *> arraysByDecreasingWeight() const;

  /// Ids of the edges forming the transitive reduction of the graph:
  /// an edge is omitted when a longer dependence path between the same
  /// statements already implies the ordering. The full edge set remains
  /// authoritative for legality; the reduction is for presentation.
  std::vector<unsigned> transitiveReductionEdges() const;

  /// Testing hook for the verification layer: removes edge \p EdgeId,
  /// simulating a dependence the analysis failed to record. Injected-bug
  /// tests use this to prove the dependence oracle (and not an output
  /// diff) catches the corruption. Never called by the pipeline.
  void dropEdgeForTest(unsigned EdgeId);

  /// Testing hook: appends a fabricated edge (a spurious dependence).
  void injectEdgeForTest(DepEdge E);

  /// Writes a readable edge listing.
  void print(std::ostream &OS) const;

  /// Graphviz rendering for debugging. With \p Reduced, draws only the
  /// transitive reduction.
  std::string dot(bool Reduced = false) const;
};

} // namespace analysis
} // namespace alf

#endif // ALF_ANALYSIS_ASDG_H
