"""Structural vertex sets that determine day-1 and day-2 fates exactly.

For a focal vertex w, `rhat` collects the vertices of G - w whose day-1
color would be 1 if they were adjacent to w; its intersection with the
neighbourhood of w is exactly the set of color-1 neighbours of w on day 1.

For a focal color-1 pair (u, v), the three sets s1 / s2 / s_star partition
the other vertices by how their day-1 color depends on the edges towards u
and v: colored 1 if touched by either, colored 2 no matter what, colored 1
iff adjacent to both.  All predicates use only the edges of G - {u, v}, so
the sets are independent of the focal neighbourhoods.

`rhat_flags` and `s_sets_flags` are the one definition of these sets.  They
read day-0 margins, color-1 flags and a neighbour lookup, so the leading
axes of their inputs may index a batch of graphs: the exact oracle calls
them on every edge configuration of one coloring at once, and the sampled
bound report on a stack of graphs, each with its own coloring and focal
vertices.  They also check that the focal vertices are in range, distinct
and (for s-sets) of color 1.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import UpdateRule, margins, step, takes_color1
from .graphs import ColoredGraph, unpack_row

__all__ = [
    "StructuralReport",
    "focal_pair",
    "rhat_flags",
    "s_sets_flags",
    "compute_r_hat",
    "compute_s_sets",
    "check_day2_identity",
    "day2_identity_sides",
]


@dataclass
class StructuralReport:
    u: int
    v: int
    s1: tuple[int, ...]
    s2: tuple[int, ...]
    s_star: tuple[int, ...]
    i_g: int
    w: Optional[int] = None
    r_hat: Optional[tuple[int, ...]] = None

    def to_json(self) -> str:
        d = {
            "u": self.u,
            "v": self.v,
            "s1": list(self.s1),
            "s2": list(self.s2),
            "s_star": list(self.s_star),
            "i_g": self.i_g,
        }
        if self.r_hat is not None:
            d["w"] = self.w
            d["r_hat"] = list(self.r_hat)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))


def _per_row(x) -> bool:
    """Whether x is one vertex per row (an integer array), not one vertex."""
    return isinstance(x, np.ndarray) and x.ndim > 0


def _at(flags, x):
    """flags[..., x] for one vertex x, or for one vertex per row when x is an
    integer array over flags' leading axes."""
    if _per_row(x):
        return np.take_along_axis(flags, x[..., None], axis=-1)[..., 0]
    return flags[..., x]


def _clear(flags: np.ndarray, x) -> None:
    """flags[..., x] = False, with x as for `_at`."""
    if _per_row(x):
        np.put_along_axis(flags, x[..., None], False, axis=-1)
    else:
        flags[..., x] = False


def _check_focal(n: int, *vertices) -> None:
    # plain comparisons for one vertex: the cube's scans call this per set
    for x in vertices:
        if not (((0 <= x) & (x < n)).all() if _per_row(x) else 0 <= x < n):
            raise ValueError(f"vertex {x} out of range for n={n}")
    if any((a == b).any() if _per_row(a) else a == b
           for a, b in itertools.combinations(vertices, 2)):
        raise ValueError("focal vertices must be distinct")


def focal_pair(color1, u: Optional[int] = None,
               v: Optional[int] = None) -> tuple:
    """The focal pair of the s-sets: (u, v) when both are given, the first
    two color-1 vertices when neither is.  For colorings with leading axes,
    one row per graph, u and v are arrays of one vertex per row."""
    if (u is None) != (v is None):
        raise ValueError("set statistics take both of u and v, or neither")
    if u is not None:
        return u, v
    rank = np.cumsum(color1, axis=-1)  # color-1 vertices up to each vertex
    if (rank[..., -1] < 2).any():
        raise ValueError("set statistics need two color-1 vertices")
    u, v = np.argmax(rank >= 1, axis=-1), np.argmax(rank >= 2, axis=-1)
    return (int(u), int(v)) if np.ndim(u) == 0 else (u, v)


def rhat_flags(margin, color1, neighbours, w) -> np.ndarray:
    """Membership of r-hat(w): vertices u != w with d1 + L(w) >= d2 (color-1
    u) or > d2 (color-2 u), the splits taken in G - w and L(w) = +1/-1 for w
    color 1/2.

    margin: (..., n) day-0 d1 - d2; color1: (n,) flags of one coloring, or
    (..., n) with one coloring per graph; w: one vertex, or with per-graph
    colorings one vertex per graph; neighbours(x): (..., n) neighbour flags
    of x (x as w).
    """
    _check_focal(np.shape(color1)[-1], w)
    # L(w); one vertex's is a Python int, so an int8 margin stays int8
    lw = (np.where(_at(color1, w), 1, -1)[..., None] if _per_row(w)
          else 1 if color1[w] else -1)
    # the margin in G - w is m - L(w) e_w; then w's own vote L(w) is added.
    # e_w takes the margin's dtype too.
    ew = neighbours(w).astype(margin.dtype)
    member = takes_color1(margin + lw * (1 - ew), color1, UpdateRule.STANDARD)
    _clear(member, w)
    return member


def s_sets_flags(margin, color1, neighbours, u, v):
    """(s1, s2, s_star) flags of the color-1 focal pair (u, v), with inputs
    as for `rhat_flags`.

    The gap |N(w) cap C1 - {u,v}| - |N(w) cap C2| and w's own color place w
    in s1 (color 1 on day 1 with one color-1 focal neighbour), s2 (color 2
    even with both) or s_star (the rest).
    """
    _check_focal(np.shape(color1)[-1], u, v)
    if not (_at(color1, u) & _at(color1, v)).all():
        raise ValueError("both focal vertices must have color 1")
    gap = margin - neighbours(u) - neighbours(v)
    s1 = takes_color1(gap + 1, color1, UpdateRule.STANDARD)
    s2 = ~takes_color1(gap + 2, color1, UpdateRule.STANDARD)
    sets = s1, s2, ~(s1 | s2)
    for flags in sets:
        _clear(flags, u)
        _clear(flags, v)
    return sets


def _flags_of(g: ColoredGraph):
    """(margins, color-1 flags, neighbour lookup) of one graph."""
    return (margins(g, g.color1_words), g.colors == 1,
            lambda x: unpack_row(g.adj[x], g.n))


def compute_r_hat(g: ColoredGraph, w: int) -> np.ndarray:
    """Sorted vertex indices of r-hat(w); depends only on edges not
    incident to w."""
    return np.flatnonzero(rhat_flags(*_flags_of(g), w))


def compute_s_sets(g: ColoredGraph, u: int, v: int) -> StructuralReport:
    """Partition V - {u, v} into s1 / s2 / s_star and count i_g.

    Both focal vertices must currently hold color 1.
    """
    margin, color1, neighbours = _flags_of(g)
    sets = s_sets_flags(margin, color1, neighbours, u, v)
    i_g = np.count_nonzero(sets[2] & neighbours(u) & neighbours(v))
    return StructuralReport(u, v, *(tuple(np.flatnonzero(f).tolist())
                                    for f in sets), i_g=int(i_g))


def day2_identity_sides(g: ColoredGraph, u: int, v: int) -> tuple[int, int]:
    """(lhs, rhs) of the day-1 neighbourhood gap decomposition at u.

    lhs: |N(u) cap C_{1,1}| - |N(u) cap C_{2,1}| after one standard day.
    rhs: |s1 cap N(u)| - |s2 cap N(u)| - |s_star cap (N(u) - N(v))| + i_g.
    Requires u !~ v.
    """
    margin, color1, neighbours = _flags_of(g)
    s1, s2, star = s_sets_flags(margin, color1, neighbours, u, v)
    if g.is_edge(u, v):
        raise ValueError("identity requires the focal pair to be non-adjacent")
    eu, ev = neighbours(u), neighbours(v)
    c11 = step(g, UpdateRule.STANDARD).colors == 1
    lhs = np.count_nonzero(eu & c11) - np.count_nonzero(eu & ~c11)
    rhs = (np.count_nonzero(s1 & eu) - np.count_nonzero(s2 & eu)
           - np.count_nonzero(star & eu & ~ev)
           + np.count_nonzero(star & eu & ev))
    return int(lhs), int(rhs)


def check_day2_identity(g: ColoredGraph, u: int, v: int) -> bool:
    lhs, rhs = day2_identity_sides(g, u, v)
    return lhs == rhs
