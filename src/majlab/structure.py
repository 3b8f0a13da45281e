"""Structural vertex sets that determine day-1 and day-2 fates exactly.

For a focal vertex w, `rhat` collects the vertices of G - w whose day-1
color would be 1 if they were adjacent to w; its intersection with the
neighbourhood of w is exactly the set of color-1 neighbours of w on day 1.

For a focal color-1 pair (u, v), the three sets s1 / s2 / s_star partition
the other vertices by how their day-1 color depends on the edges towards u
and v: colored 1 if touched by either, colored 2 no matter what, colored 1
iff adjacent to both.  All predicates use only the edges of G - {u, v}, so
the sets are independent of the focal neighbourhoods.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import UpdateRule, step, takes_color1
from .graphs import ColoredGraph, popcount_rows, unpack_row

__all__ = [
    "StructuralReport",
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


def _degree_splits(g: ColoredGraph) -> tuple[np.ndarray, np.ndarray]:
    d1 = popcount_rows(g.adj & g.color1_words[None, :])
    return d1, g.degrees - d1


def compute_r_hat(g: ColoredGraph, w: int) -> np.ndarray:
    """Vertices u != w with d1 + L(w) >= d2 (color-1 u) or > d2 (color-2 u),
    where the splits are taken in G - w and L(w) is +1/-1 for w color 1/2.

    Sorted vertex indices; depends only on edges not incident to w.
    """
    if not 0 <= w < g.n:
        raise ValueError(f"vertex {w} out of range for n={g.n}")
    d1, d2 = _degree_splits(g)
    ew = unpack_row(g.adj[w], g.n)
    w_color1 = g.colors[w] == 1
    d1p = d1 - (ew & w_color1)
    d2p = d2 - (ew & ~w_color1)
    lw = 1 if w_color1 else -1
    member = takes_color1(d1p + lw - d2p, g.colors == 1, UpdateRule.STANDARD)
    member[w] = False
    return np.flatnonzero(member)


def compute_s_sets(g: ColoredGraph, u: int, v: int) -> StructuralReport:
    """Partition V - {u, v} into s1 / s2 / s_star by the gap
    |N(w) cap C1 - {u,v}| - |N(w) cap C2| and w's own color; also count
    i_g = |s_star cap N(u) cap N(v)|.

    Both focal vertices must currently hold color 1.
    """
    if u == v:
        raise ValueError("focal vertices must be distinct")
    if g.colors[u] != 1 or g.colors[v] != 1:
        raise ValueError("both focal vertices must have color 1")
    d1, d2 = _degree_splits(g)
    eu = unpack_row(g.adj[u], g.n)
    ev = unpack_row(g.adj[v], g.n)
    gap = (d1 - eu.astype(np.int64) - ev.astype(np.int64)) - d2
    is_c1 = g.colors == 1
    rest = np.ones(g.n, dtype=bool)
    rest[[u, v]] = False
    # s1: color 1 on day 1 with one color-1 focal neighbour; s2: color 2
    # even with both; s_star: the rest
    in_s1 = takes_color1(gap + 1, is_c1, UpdateRule.STANDARD) & rest
    in_s2 = ~takes_color1(gap + 2, is_c1, UpdateRule.STANDARD) & rest
    in_star = rest & ~in_s1 & ~in_s2
    i_g = int(np.count_nonzero(in_star & eu & ev))
    return StructuralReport(
        u=u,
        v=v,
        s1=tuple(np.flatnonzero(in_s1).tolist()),
        s2=tuple(np.flatnonzero(in_s2).tolist()),
        s_star=tuple(np.flatnonzero(in_star).tolist()),
        i_g=i_g,
    )


def day2_identity_sides(g: ColoredGraph, u: int, v: int) -> tuple[int, int]:
    """(lhs, rhs) of the day-1 neighbourhood gap decomposition at u.

    lhs: |N(u) cap C_{1,1}| - |N(u) cap C_{2,1}| after one standard day.
    rhs: |s1 cap N(u)| - |s2 cap N(u)| - |s_star cap (N(u) - N(v))| + i_g.
    Requires u !~ v.
    """
    if g.is_edge(u, v):
        raise ValueError("identity requires the focal pair to be non-adjacent")
    rep = compute_s_sets(g, u, v)
    day1 = step(g, UpdateRule.STANDARD)
    eu = unpack_row(g.adj[u], g.n)
    ev = unpack_row(g.adj[v], g.n)
    c11 = day1.colors == 1
    lhs = int(np.count_nonzero(eu & c11)) - int(np.count_nonzero(eu & ~c11))
    in_s1 = np.zeros(g.n, dtype=bool)
    in_s1[list(rep.s1)] = True
    in_s2 = np.zeros(g.n, dtype=bool)
    in_s2[list(rep.s2)] = True
    in_star = np.zeros(g.n, dtype=bool)
    in_star[list(rep.s_star)] = True
    rhs = (
        int(np.count_nonzero(in_s1 & eu))
        - int(np.count_nonzero(in_s2 & eu))
        - int(np.count_nonzero(in_star & eu & ~ev))
        + rep.i_g
    )
    return lhs, rhs


def check_day2_identity(g: ColoredGraph, u: int, v: int) -> bool:
    lhs, rhs = day2_identity_sides(g, u, v)
    return lhs == rhs
