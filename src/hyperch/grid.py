"""Vertex-centered grid on the closed unit square.

The computational domain is [0,1]^2 discretized with n subdivisions per
side (mesh width h = 1/n).  Bulk fields live on the (n-1)^2 interior
vertices; boundary fields live on the 4n perimeter vertices, ordered as a
closed counterclockwise loop starting at the origin.  Corners are regular
loop nodes: the loop is a uniform 1-D chain with arc-length spacing h.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# A node reference is ("int", flat interior index) or ("loop", loop index).
NodeRef = tuple[str, int]


@dataclass(frozen=True)
class NormalStencil:
    """One-sided stencil(s) along the inward normal at a loop node.

    ``triples`` holds one (node, first inward, second inward) triple for an
    edge node, and two triples (one per incident edge, to be averaged) for
    a corner node.  ``normals`` holds the matching inward unit direction(s)
    as (dx, dy) integer pairs.
    """

    k: int
    is_corner: bool
    triples: tuple[tuple[NodeRef, NodeRef, NodeRef], ...]
    normals: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Grid:
    """Geometry and index bookkeeping for the unit-square vertex grid."""

    n: int
    h: float
    n_int: int
    n_loop: int
    # loop_ij[k] = (i, j) vertex coordinates of loop node k
    loop_ij: np.ndarray = field(repr=False)

    def __hash__(self):
        return hash(self.n)

    def __eq__(self, other):
        return isinstance(other, Grid) and other.n == self.n

    # ---- index maps -------------------------------------------------

    def interior_index(self, i: int, j: int) -> int:
        """Flat index of interior vertex (i, j), 1 <= i, j <= n-1."""
        if not (1 <= i <= self.n - 1 and 1 <= j <= self.n - 1):
            raise IndexError(f"({i},{j}) is not an interior vertex")
        return (i - 1) * (self.n - 1) + (j - 1)

    def interior_ij(self, idx: int) -> tuple[int, int]:
        if not (0 <= idx < self.n_int):
            raise IndexError(f"interior index {idx} out of range")
        return idx // (self.n - 1) + 1, idx % (self.n - 1) + 1

    def loop_index(self, i: int, j: int) -> int:
        """Loop index of perimeter vertex (i, j)."""
        n = self.n
        if j == 0 and i < n:
            return i
        if i == n and j < n:
            return n + j
        if j == n and i > 0:
            return 2 * n + (n - i)
        if i == 0 and j > 0:
            return 3 * n + (n - j)
        raise IndexError(f"({i},{j}) is not a perimeter vertex")

    def is_interior(self, i: int, j: int) -> bool:
        return 1 <= i <= self.n - 1 and 1 <= j <= self.n - 1

    def is_corner_k(self, k: int) -> bool:
        return k % self.n == 0

    def node_ref(self, i: int, j: int) -> NodeRef:
        if self.is_interior(i, j):
            return ("int", self.interior_index(i, j))
        return ("loop", self.loop_index(i, j))

    # ---- coordinates ------------------------------------------------

    def interior_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (x, y) of interior vertices in flat ordering."""
        ij = np.arange(1, self.n)
        ii, jj = np.meshgrid(ij, ij, indexing="ij")
        return ii.ravel() * self.h, jj.ravel() * self.h

    def loop_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (x, y) of loop vertices in loop ordering."""
        return self.loop_ij[:, 0] * self.h, self.loop_ij[:, 1] * self.h

    def loop_arc_length(self) -> np.ndarray:
        """Arc length along the loop, s_k = k*h."""
        return np.arange(self.n_loop) * self.h


def build_grid(n: int) -> Grid:
    """Build the grid for n subdivisions per side.

    n >= 4 is required so that the one-sided normal stencils reach only
    interior vertices from non-corner edge nodes.
    """
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    n = int(n)
    loop_ij = np.empty((4 * n, 2), dtype=np.int64)
    for i in range(n):
        loop_ij[i] = (i, 0)
    for j in range(n):
        loop_ij[n + j] = (n, j)
    for i in range(n):
        loop_ij[2 * n + i] = (n - i, n)
    for j in range(n):
        loop_ij[3 * n + j] = (0, n - j)
    g = Grid(
        n=n,
        h=1.0 / n,
        n_int=(n - 1) ** 2,
        n_loop=4 * n,
        loop_ij=loop_ij,
    )
    loop_ij.setflags(write=False)
    return g


def _edge_triple(grid: Grid, i: int, j: int) -> tuple[tuple, tuple[int, int]]:
    """Inward triple and inward direction for a non-corner edge vertex."""
    n = grid.n
    if j == 0:
        nodes, d = ((i, 0), (i, 1), (i, 2)), (0, 1)
    elif i == n:
        nodes, d = ((n, j), (n - 1, j), (n - 2, j)), (-1, 0)
    elif j == n:
        nodes, d = ((i, n), (i, n - 1), (i, n - 2)), (0, -1)
    else:
        nodes, d = ((0, j), (1, j), (2, j)), (1, 0)
    return tuple(grid.node_ref(a, b) for a, b in nodes), d


_CORNER_DIRS = {
    (0, 0): ((1, 0), (0, 1)),
    (1, 0): ((-1, 0), (0, 1)),
    (1, 1): ((-1, 0), (0, -1)),
    (0, 1): ((1, 0), (0, -1)),
}


def inward_normal_stencil(grid: Grid, k: int) -> NormalStencil:
    """One-sided second-order stencil(s) realizing the outward normal
    derivative at loop node k.

    Edge node: a single triple (node, first, second) along the inward
    normal; the two inward vertices are interior.  Corner node: two
    triples, one along each incident edge (their nodes lie on the loop),
    flagged for averaging.
    """
    if not (0 <= k < grid.n_loop):
        raise IndexError(f"loop index {k} out of range")
    i, j = (int(v) for v in grid.loop_ij[k])
    n = grid.n
    if not grid.is_corner_k(k):
        triple, d = _edge_triple(grid, i, j)
        return NormalStencil(k=k, is_corner=False, triples=(triple,), normals=(d,))
    dirs = _CORNER_DIRS[(i // n, j // n)]
    triples = []
    for dx, dy in dirs:
        nodes = ((i, j), (i + dx, j + dy), (i + 2 * dx, j + 2 * dy))
        triples.append(tuple(grid.node_ref(a, b) for a, b in nodes))
    return NormalStencil(k=k, is_corner=True, triples=tuple(triples), normals=dirs)
