"""Vertex-centered grid on the closed unit square.

The computational domain is [0,1]^2 discretized with n subdivisions per
side (mesh width h = 1/n).  Bulk fields live on the (n-1)^2 interior
vertices; boundary fields live on the 4n perimeter vertices, ordered as a
closed counterclockwise loop starting at the origin.  Corners are regular
loop nodes: the loop is a uniform 1-D chain with arc-length spacing h.
Both sets are subsets of the (n+1)^2 vertex grid: the interior in
row-major (i, j) order, the loop through ``Grid.loop_ij``.  The grid
holds no stencils; ``operators`` builds them on the vertex grid and
restricts them with these maps.  Grids compare by identity: the module
caches (read-only per-n weight arrays) key on n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class Grid:
    """Geometry and index bookkeeping for the unit-square vertex grid."""

    n: int
    h: float
    n_int: int
    n_loop: int
    # loop_ij[k] = (i, j) vertex coordinates of loop node k
    loop_ij: np.ndarray = field(repr=False)

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
        if not (0 <= i <= n and 0 <= j <= n):
            raise IndexError(f"({i},{j}) is not a vertex")
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

    n >= 4 is required so that every class of node the stencils tell
    apart occurs: corners, edge nodes (at least three per side), interior
    vertices next to the boundary and at least one interior vertex whose
    5-point stencil reaches no loop node.  The operators themselves are
    defined from n = 2 on.
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

