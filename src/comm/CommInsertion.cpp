//===- comm/CommInsertion.cpp - Communication generation --------------------===//

#include "comm/CommInsertion.h"

#include "obs/Obs.h"

#include <map>
#include <tuple>

using namespace alf;
using namespace alf::comm;
using namespace alf::ir;
using namespace alf::lir;

namespace {

/// Key identifying one halo: (array id, dimension, direction sign).
using HaloKey = std::tuple<unsigned, unsigned, int>;

/// Valid halos with the width currently materialized.
using ValidMap = std::map<HaloKey, unsigned>;

/// Builds the direction offset with `Sign * Width` at \p Dim.
Offset dirOffset(unsigned Rank, unsigned Dim, int Sign, unsigned Width) {
  Offset D = Offset::zero(Rank);
  D[Dim] = Sign * static_cast<int>(Width);
  return D;
}

/// Accumulates the (array, dim, sign) -> width requirements of a set of
/// reference offsets.
void accumulateNeeds(const ArraySymbol *A, const Offset &RefOff,
                     std::map<std::pair<const ArraySymbol *, HaloKey>,
                              unsigned> &Needs) {
  for (unsigned Dim = 0; Dim < RefOff.rank(); ++Dim) {
    int32_t E = RefOff[Dim];
    if (E == 0)
      continue;
    int Sign = E > 0 ? 1 : -1;
    unsigned Width = static_cast<unsigned>(E > 0 ? E : -E);
    HaloKey Key{A->getId(), Dim, Sign};
    auto &Slot = Needs[{A, Key}];
    if (Width > Slot)
      Slot = Width;
  }
}

} // namespace

std::vector<std::pair<const ArraySymbol *, Offset>>
comm::requiredHalos(const NormalizedStmt &S) {
  std::map<std::pair<const ArraySymbol *, HaloKey>, unsigned> Needs;
  for (const ArrayRefExpr *Ref : S.rhsArrayRefs())
    accumulateNeeds(Ref->getSymbol(), Ref->getOffset(), Needs);
  std::vector<std::pair<const ArraySymbol *, Offset>> Result;
  for (const auto &[Key, Width] : Needs) {
    const auto &[A, Halo] = Key;
    Result.push_back(
        {A, dirOffset(A->getRank(), std::get<1>(Halo), std::get<2>(Halo),
                      Width)});
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Favor-fusion: loop-level insertion
//===----------------------------------------------------------------------===//

CommPlan comm::insertLoopLevelComm(LoopProgram &LP) {
  CommPlan Plan;
  ValidMap Valid;

  for (size_t Pos = 0; Pos < LP.nodes().size(); ++Pos) {
    LNode *Node = LP.nodes()[Pos].get();

    if (auto *Nest = dyn_cast<LoopNest>(Node)) {
      // Halo needs of the whole nest (message vectorization: one exchange
      // per array/direction for the entire boundary).
      std::map<std::pair<const ArraySymbol *, HaloKey>, unsigned> Needs;
      for (const ScalarStmt &S : Nest->Body)
        for (const ArrayRefExpr *Ref : collectArrayRefs(S.RHS.get()))
          if (!LP.isContracted(Ref->getSymbol()))
            accumulateNeeds(Ref->getSymbol(), Ref->getOffset(), Needs);

      for (const auto &[Key, Width] : Needs) {
        const auto &[A, Halo] = Key;
        auto It = Valid.find(Halo);
        if (It != Valid.end() && It->second >= Width) {
          ++Plan.RedundantElided; // redundancy elimination
          {
            ALF_COUNTER(NumElided, "comm.elided",
                        "Redundant halo exchanges elided");
            ++NumElided;
          }
          continue;
        }
        auto Op = std::make_unique<CommOp>();
        Op->Array = A;
        Op->Dir = dirOffset(A->getRank(), std::get<1>(Halo),
                            std::get<2>(Halo), Width);
        Op->Phase = CommStmt::CommPhase::Whole;
        LP.insertNode(Pos, std::move(Op));
        ++Pos; // the nest moved one slot right
        ++Plan.Exchanges;
        {
          ALF_COUNTER(NumExchanges, "comm.exchanges",
                      "Halo exchanges inserted");
          ++NumExchanges;
        }
        Valid[Halo] = Width;
      }

      // Writes performed by the nest invalidate the written arrays' halos.
      for (const ScalarStmt &S : Nest->Body) {
        if (S.LHS.isScalar())
          continue;
        unsigned Id = S.LHS.Array->getId();
        for (auto It = Valid.begin(); It != Valid.end();) {
          if (std::get<0>(It->first) == Id)
            It = Valid.erase(It);
          else
            ++It;
        }
      }
      continue;
    }

    if (auto *Op = dyn_cast<OpaqueOp>(Node)) {
      for (const ArraySymbol *A : Op->Src->arrayWrites()) {
        unsigned Id = A->getId();
        for (auto It = Valid.begin(); It != Valid.end();) {
          if (std::get<0>(It->first) == Id)
            It = Valid.erase(It);
          else
            ++It;
        }
      }
      continue;
    }

    if (auto *C = dyn_cast<CommOp>(Node)) {
      // Pre-existing exchange (array-level path): record validity.
      for (unsigned Dim = 0; Dim < C->Dir.rank(); ++Dim)
        if (C->Dir[Dim] != 0)
          Valid[HaloKey{C->Array->getId(), Dim, C->Dir[Dim] > 0 ? 1 : -1}] =
              static_cast<unsigned>(
                  C->Dir[Dim] > 0 ? C->Dir[Dim] : -C->Dir[Dim]);
    }
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// Favor-communication: array-level insertion
//===----------------------------------------------------------------------===//

CommPlan comm::insertArrayLevelComm(Program &P, bool Pipelined) {
  CommPlan Plan;
  ValidMap Valid;
  unsigned NumOrig = P.numStmts();

  // Insertion plan keyed by ORIGINAL statement position.
  std::vector<std::vector<std::unique_ptr<Stmt>>> Pre(NumOrig + 1);
  std::vector<std::vector<std::unique_ptr<Stmt>>> Post(NumOrig + 1);

  // Last original position writing each array (for send hoisting).
  std::map<unsigned, unsigned> LastWrite;
  int NextPair = 0;

  for (unsigned Pos = 0; Pos < NumOrig; ++Pos) {
    const Stmt *S = P.getStmt(Pos);

    // Halo needs of this statement: normalized statements and reductions
    // both read at constant offsets.
    std::vector<std::pair<const ArraySymbol *, Offset>> Halos;
    if (const auto *NS = dyn_cast<NormalizedStmt>(S)) {
      Halos = requiredHalos(*NS);
    } else if (const auto *RS = dyn_cast<ReduceStmt>(S)) {
      std::map<std::pair<const ArraySymbol *, HaloKey>, unsigned> Needs;
      for (const ArrayRefExpr *Ref : RS->bodyArrayRefs())
        accumulateNeeds(Ref->getSymbol(), Ref->getOffset(), Needs);
      for (const auto &[Key, Width] : Needs) {
        const auto &[A, Halo] = Key;
        Halos.push_back({A, dirOffset(A->getRank(), std::get<1>(Halo),
                                      std::get<2>(Halo), Width)});
      }
    }

    if (!Halos.empty() || isa<NormalizedStmt>(S)) {
      for (const auto &[A, Dir] : Halos) {
        unsigned Dim = 0;
        for (unsigned D = 0; D < Dir.rank(); ++D)
          if (Dir[D] != 0)
            Dim = D;
        int Sign = Dir[Dim] > 0 ? 1 : -1;
        unsigned Width =
            static_cast<unsigned>(Dir[Dim] > 0 ? Dir[Dim] : -Dir[Dim]);
        HaloKey Key{A->getId(), Dim, Sign};
        auto It = Valid.find(Key);
        if (It != Valid.end() && It->second >= Width) {
          ++Plan.RedundantElided;
          continue;
        }
        if (Pipelined) {
          int Pair = NextPair++;
          // Send as early as the producer allows; receive just before the
          // consumer: the span in between is the overlap window.
          auto Send = std::make_unique<CommStmt>(
              A, Dir, CommStmt::CommPhase::Send, Pair);
          auto Recv = std::make_unique<CommStmt>(
              A, Dir, CommStmt::CommPhase::Recv, Pair);
          auto ProducerIt = LastWrite.find(A->getId());
          if (ProducerIt != LastWrite.end())
            Post[ProducerIt->second].push_back(std::move(Send));
          else
            Pre[0].push_back(std::move(Send));
          Pre[Pos].push_back(std::move(Recv));
        } else {
          Pre[Pos].push_back(std::make_unique<CommStmt>(
              A, Dir, CommStmt::CommPhase::Whole, -1));
        }
        ++Plan.Exchanges;
        Valid[Key] = Width;
      }
      // A normalized statement's write invalidates that array's halos.
      if (const auto *NS = dyn_cast<NormalizedStmt>(S)) {
        unsigned Id = NS->getLHS()->getId();
        for (auto It = Valid.begin(); It != Valid.end();) {
          if (std::get<0>(It->first) == Id)
            It = Valid.erase(It);
          else
            ++It;
        }
        LastWrite[Id] = Pos;
      }
      continue;
    }

    if (const auto *OS = dyn_cast<OpaqueStmt>(S)) {
      for (const ArraySymbol *A : OS->arrayWrites()) {
        unsigned Id = A->getId();
        for (auto It = Valid.begin(); It != Valid.end();) {
          if (std::get<0>(It->first) == Id)
            It = Valid.erase(It);
          else
            ++It;
        }
        LastWrite[Id] = Pos;
      }
    }
  }

  // Apply the plan back to front so earlier original positions are
  // unaffected by later insertions.
  for (int Pos = static_cast<int>(NumOrig) - 1; Pos >= 0; --Pos) {
    auto &PostList = Post[Pos];
    for (size_t I = PostList.size(); I-- > 0;)
      P.insertStmt(static_cast<unsigned>(Pos) + 1, std::move(PostList[I]));
    auto &PreList = Pre[Pos];
    for (size_t I = PreList.size(); I-- > 0;)
      P.insertStmt(static_cast<unsigned>(Pos), std::move(PreList[I]));
  }
  return Plan;
}
