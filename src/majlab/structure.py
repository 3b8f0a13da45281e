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
read day-0 margins, the flags of one coloring, a neighbour lookup and
integer focal vertices; the leading axes of the margins and neighbour rows
may index a batch of graphs that share the coloring.  The exact oracle calls
them on every edge configuration of one coloring at once, and the sampled
bound report on a stack of graphs relabelled to the canonical split
coloring.  They also check that the focal vertices are in range, distinct
and (for s-sets) of color 1.
"""

from __future__ import annotations

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


def _check_focal(n: int, *vertices: int) -> None:
    for x in vertices:
        if not 0 <= x < n:
            raise ValueError(f"vertex {x} out of range for n={n}")
    if len(set(vertices)) < len(vertices):
        raise ValueError("focal vertices must be distinct")


def focal_pair(color1, u: Optional[int] = None,
               v: Optional[int] = None) -> tuple[int, int]:
    """The focal pair of the s-sets: (u, v) when both are given, the first
    two color-1 vertices when neither is."""
    if (u is None) != (v is None):
        raise ValueError("set statistics take both of u and v, or neither")
    if u is not None:
        return u, v
    ones = np.flatnonzero(color1)
    if len(ones) < 2:
        raise ValueError("set statistics need two color-1 vertices")
    return int(ones[0]), int(ones[1])


def rhat_flags(margin, color1, neighbours, w: int) -> np.ndarray:
    """Membership of r-hat(w): vertices u != w with d1 + L(w) >= d2 (color-1
    u) or > d2 (color-2 u), the splits taken in G - w and L(w) = +1/-1 for w
    color 1/2.

    margin: (..., n) day-0 d1 - d2; color1: (n,) flags of one coloring;
    neighbours(x): (..., n) neighbour flags of vertex x.
    """
    _check_focal(len(color1), w)
    lw = 1 if color1[w] else -1
    # the margin in G - w is m - L(w) e_w; then w's own vote L(w) is added.
    # e_w takes the margin's dtype, so an int8 margin stays int8.
    ew = neighbours(w).astype(margin.dtype)
    member = takes_color1(margin + lw * (1 - ew), color1, UpdateRule.STANDARD)
    member[..., w] = False
    return member


def s_sets_flags(margin, color1, neighbours, u: int, v: int):
    """(s1, s2, s_star) flags of the color-1 focal pair (u, v), with inputs
    as for `rhat_flags`.

    The gap |N(w) cap C1 - {u,v}| - |N(w) cap C2| and w's own color place w
    in s1 (color 1 on day 1 with one color-1 focal neighbour), s2 (color 2
    even with both) or s_star (the rest).
    """
    _check_focal(len(color1), u, v)
    if not (color1[u] and color1[v]):
        raise ValueError("both focal vertices must have color 1")
    gap = margin - neighbours(u) - neighbours(v)
    s1 = takes_color1(gap + 1, color1, UpdateRule.STANDARD)
    s2 = ~takes_color1(gap + 2, color1, UpdateRule.STANDARD)
    sets = s1, s2, ~(s1 | s2)
    for flags in sets:
        flags[..., u] = flags[..., v] = False
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
