//===- distsim/BlockDist.cpp - Block distribution geometry -----------------===//

#include "distsim/BlockDist.h"

#include <cassert>

using namespace alf;
using namespace alf::distsim;
using namespace alf::machine;

BlockRange distsim::blockSlice(int64_t Lo, int64_t Hi, unsigned Parts,
                               unsigned Part) {
  assert(Parts > 0 && Part < Parts && "bad block partition");
  int64_t Extent = Hi - Lo + 1;
  if (Extent <= 0)
    return BlockRange{Lo, Lo - 1};
  int64_t Base = Extent / Parts;
  int64_t Rem = Extent % Parts;
  int64_t Start = Lo + static_cast<int64_t>(Part) * Base +
                  std::min<int64_t>(Part, Rem);
  int64_t Size = Base + (static_cast<int64_t>(Part) < Rem ? 1 : 0);
  return BlockRange{Start, Start + Size - 1};
}

int distsim::blockOwner(int64_t Lo, int64_t Hi, unsigned Parts, int64_t X) {
  assert(Parts > 0 && "bad block partition");
  if (X < Lo || X > Hi)
    return -1;
  int64_t Base = (Hi - Lo + 1) / Parts;
  int64_t Rem = (Hi - Lo + 1) % Parts;
  // The first Rem blocks hold Base + 1 cells each, the rest Base.
  int64_t Off = X - Lo;
  if (Off < Rem * (Base + 1))
    return static_cast<int>(Off / (Base + 1));
  return static_cast<int>(Rem + (Off - Rem * (Base + 1)) / Base);
}

std::vector<unsigned> distsim::procCoords(const ProcGrid &Grid,
                                          unsigned Rank) {
  std::vector<unsigned> Coords(Grid.Extents.size(), 0);
  unsigned Rest = Rank;
  for (size_t D = Grid.Extents.size(); D-- > 0;) {
    Coords[D] = Rest % Grid.Extents[D];
    Rest /= Grid.Extents[D];
  }
  return Coords;
}
