import itertools
from fractions import Fraction

import numpy as np
import pytest

from majlab import fourier
from majlab.fourier import _masses, config_weights, edge_list, fourier_coefficients

from conftest import brute_fourier
from reference import star_fourier, star_subset

COLORINGS = {
    2: [(1, 2)],
    3: [(1, 1, 2), (1, 2, 2)],
    4: [(1, 1, 2, 2), (1, 1, 1, 2)],
    5: [(1, 1, 1, 2, 2), (1, 1, 1, 1, 2)],
}


def star_mask(m: int, v: int) -> int:
    mask = 0
    for k, e in enumerate(edge_list(m)):
        if v in e:
            mask |= 1 << k
    return mask


def test_empty_set_coefficient_vanishes():
    for m, colorings in COLORINGS.items():
        for colors in colorings:
            for v in range(m):
                t = fourier_coefficients(m, colors, v, Fraction(1, 4))
                assert t.coefficient_scaled(0) == 0


def test_coefficients_supported_on_star():
    for m, colorings in COLORINGS.items():
        for colors in colorings:
            for v in range(m):
                t = fourier_coefficients(m, colors, v, Fraction(1, 3))
                star = star_mask(m, v)
                for mask in range(1 << t.n_edges):
                    if mask & ~star:
                        assert t.coefficient_scaled(mask) == 0


def test_table_stores_only_the_star():
    # one value r(a, b) per class of star subsets, flat in (a, b) row-major
    # order: a edges to v's c1' = 3 other color-1 vertices and b edges to its
    # c2' = 3 color-2 vertices
    t = fourier_coefficients(7, (1, 1, 1, 1, 2, 2, 2), 2, 0.3)
    assert not t.exact and len(t.scaled) == 16
    assert t.scaled[0 * 4 + 0] == t.coefficient_scaled(0) == 0
    assert t.scaled[1 * 4 + 0] == t.coefficient_scaled([(2, 3)])
    assert t.scaled[2 * 4 + 1] == t.coefficient_scaled([(0, 2), (1, 2), (2, 6)])
    assert t.scaled[2 * 4 + 1] == t.coefficient_scaled([(0, 2), (2, 3), (2, 4)])
    assert t.scaled[3 * 4 + 3] == t.coefficient_scaled(
        [(0, 2), (1, 2), (2, 3), (2, 4), (2, 5), (2, 6)])
    off = t.coefficient_scaled([(2, 4), (3, 4)])
    assert type(off) is float and off == 0.0
    e = fourier_coefficients(4, (1, 1, 2, 2), 3, Fraction(1, 4))
    assert e.exact and len(e.scaled) == 3 * 2  # c1' = 2, c2' = 1
    assert e.scaled[1 * 2 + 1] == e.coefficient_scaled([(1, 3), (2, 3)])
    off = e.coefficient_scaled([(0, 1)])
    assert type(off) is Fraction and off == 0
    for lookup in (e.coefficient, e.coefficient_sq):
        assert lookup([(0, 1)]) == 0


# one unbalanced coloring per m, the colors interleaved so that each class's
# star edges are not a run of edge indices
@pytest.mark.parametrize("m, colors", [(5, (1, 2, 2, 1, 2)),
                                       (6, (2, 1, 1, 2, 1, 1)),
                                       (7, (1, 2, 1, 1, 2, 1, 1))])
def test_class_tables_equal_the_star_kernel(m, colors):
    p = Fraction(1, 4)
    for v, power in itertools.product((0, m - 1), (1, 2, 3)):
        scaled, values = star_fourier(m, colors, v, p, power)
        t = fourier_coefficients(m, colors, v, p, power=power)
        masks = [star_subset(m, v, s) for s in range(1 << (m - 1))]
        assert [t.coefficient_scaled(s) for s in masks] == scaled, (v, power)
        got = t.function_values()
        assert [got[x] for x in masks] == values, (v, power)


@pytest.mark.parametrize("m, colors, v, power, p",
                         [(6, (1, 1, 2, 1, 2, 2), 0, 1, 0.3),
                          (6, (2, 1, 2, 2, 2, 2), 5, 2, 0.1),
                          (7, (1, 1, 1, 1, 2, 2, 2), 2, 1, 0.3),
                          (7, (2, 1, 1, 2, 1, 2, 1), 6, 3, 0.25)])
def test_float_tables_are_the_exact_table_rounded_once(m, colors, v, power, p):
    # every lookup of a float table is float() of the exact table at the
    # binary value of p: at m = 6 every subset mask, at m = 7 every star
    # subset (the other masks all read the typed 0, pinned above)
    fl = fourier_coefficients(m, colors, v, p, power=power)
    ex = fourier_coefficients(m, colors, v, Fraction(p), power=power)
    assert not fl.exact and ex.exact and fl.p == p and ex.p == Fraction(p)
    masks = (range(1 << fl.n_edges) if m == 6
             else [star_subset(m, v, s) for s in range(1 << (m - 1))])
    for lookup in ("coefficient_scaled", "coefficient_sq"):
        want = [float(getattr(ex, lookup)(s)) for s in masks]
        assert [getattr(fl, lookup)(s) for s in masks] == want, lookup
    assert [fl.coefficient(s) for s in masks] == [ex.coefficient(s) for s in masks]
    assert fl.scaled.tolist() == [float(r) for r in ex.scaled]
    assert fl.mu_v == float(ex.mu_v)
    assert fl.parseval_sum() == float(ex.parseval_sum())
    assert fl.second_moment() == float(ex.second_moment())


def _brute_force_cases():
    """Every two-color coloring, vertex, power 1-3 and p in {1/4, 2/5} at
    m <= 3; COLORINGS[4] with every vertex and power at p = 1/4."""
    for m in (2, 3):
        for colors in itertools.product((1, 2), repeat=m):
            if len(set(colors)) == 2:
                yield from itertools.product(
                    [m], [colors], range(m), (1, 2, 3),
                    (Fraction(1, 4), Fraction(2, 5)))
    yield from itertools.product([4], COLORINGS[4], range(4), (1, 2, 3),
                                 [Fraction(1, 4)])


def test_every_coefficient_matches_brute_force_over_the_whole_cube():
    # the table stores v's star and answers 0 off it; the brute force
    # sums over every configuration for every subset, star or not
    for m, colors, v, power, p in _brute_force_cases():
        scaled, values = brute_fourier(m, colors, v, p, power)
        t = fourier_coefficients(m, colors, v, p, power=power)
        assert [t.coefficient_scaled(s) for s in range(1 << t.n_edges)] \
            == scaled, (m, colors, v, power, p)
        assert t.function_values() == values, (m, colors, v, power, p)


def test_parseval_equals_one_minus_mu_sq():
    for m, colorings in COLORINGS.items():
        for colors in colorings:
            for v in range(m):
                for p in (Fraction(1, 4), Fraction(2, 5)):
                    t = fourier_coefficients(m, colors, v, p)
                    assert t.parseval_sum() == 1 - t.mu_v**2
                    assert t.second_moment() == 1 - t.mu_v**2


def test_function_values_reuse_the_tables_keep_flags(monkeypatch):
    t = fourier_coefficients(4, (1, 1, 2, 2), 0, Fraction(1, 4), power=2)
    values, second = t.function_values(), t.second_moment()

    def rebuilt(*args):
        raise AssertionError("keep flags rebuilt after the table was made")

    monkeypatch.setattr(fourier, "_z_grid", rebuilt)
    assert t.function_values() == values and t.second_moment() == second


@pytest.mark.parametrize("p", [0, 1, Fraction(1, 3), Fraction(7, 10), 0.3, 1.0])
def test_config_weights_and_masses_match_the_formula(p):
    n_edges = 6
    q = Fraction(p)
    edges = np.array([3, 0, 6, 6, 2, 1])
    want = [q**e * (1 - q) ** (n_edges - e) for e in edges.tolist()]
    got = config_weights(q, n_edges, edges)
    assert got.dtype == object and list(got) == want
    f = float(p)
    direct = (np.power(f, edges.astype(float))
              * np.power(1 - f, (n_edges - edges).astype(float)))
    assert config_weights(f, n_edges, edges).tolist() == direct.tolist()
    # a (edge count x key) histogram: each column's mass is its weighted sum
    hist = np.zeros((n_edges + 1, 3), dtype=np.int64)
    np.add.at(hist, (edges, [0, 1, 1, 2, 2, 2]), 1)
    assert _masses(hist, p) == [want[0], want[1] + want[2], sum(want[3:])]


def test_pointwise_reconstruction_exact():
    for m, colorings in COLORINGS.items():
        for colors in colorings:
            t = fourier_coefficients(m, colors, 0, Fraction(1, 4))
            assert t.reconstruct_all() == t.function_values()


def test_power_coefficients_bounded():
    # |coeff of Z^L at S| <= 2^L |coeff of Z at S| for S != empty, L <= 3
    for m, colorings in COLORINGS.items():
        for colors in colorings:
            for v in range(m):
                base = fourier_coefficients(m, colors, v, Fraction(1, 4))
                for L in (1, 2, 3):
                    tl = fourier_coefficients(m, colors, v, Fraction(1, 4),
                                              power=L)
                    for mask in range(1, 1 << base.n_edges):
                        assert (abs(tl.coefficient_scaled(mask))
                                <= 2**L * abs(base.coefficient_scaled(mask)))


def test_basis_orthonormality():
    m, p = 4, Fraction(1, 3)
    edges = edge_list(m)
    n_edges = len(edges)
    norm_sq = 4 * p * (1 - p)
    subsets = [0, 1, 2, 3, 5, 6, 9, 12, (1 << n_edges) - 1]
    for s_mask, t_mask in itertools.combinations_with_replacement(subsets, 2):
        total = Fraction(0)
        for x in range(1 << n_edges):
            e = bin(x).count("1")
            w = p**e * (1 - p) ** (n_edges - e)
            term = Fraction(1)
            for k in range(n_edges):
                tk = (2 - 2 * p) if x >> k & 1 else (-2 * p)
                if s_mask >> k & 1:
                    term *= tk
                if t_mask >> k & 1:
                    term *= tk
            total += w * term
        if s_mask == t_mask:
            assert total == norm_sq ** bin(s_mask).count("1")
        else:
            assert total == 0


def test_float_path_matches_exact():
    m, colors, v = 5, (1, 1, 1, 2, 2), 1
    exact = fourier_coefficients(m, colors, v, Fraction(1, 4))
    fl = fourier_coefficients(m, colors, v, 0.25, exact=False)
    for mask in range(1 << exact.n_edges):
        assert float(exact.coefficient_scaled(mask)) == pytest.approx(
            float(fl.coefficient_scaled(mask)), abs=1e-12)
    assert fl.parseval_sum() == pytest.approx(float(1 - exact.mu_v**2),
                                              abs=1e-9)


def test_six_vertices_float_mode():
    t = fourier_coefficients(6, (1, 1, 1, 2, 2, 2), 0, 0.3)
    assert not t.exact
    assert t.parseval_sum() == pytest.approx(1 - t.mu_v**2, abs=1e-9)
    recon = t.reconstruct_all()
    assert np.allclose(recon, t.function_values(), atol=1e-9)


def test_coefficient_lookup_by_edges():
    t = fourier_coefficients(3, (1, 1, 2), 0, Fraction(1, 2))
    by_mask = t.coefficient(1)  # first edge is (0, 1)
    by_edges = t.coefficient([(0, 1)])
    assert by_mask == by_edges
    with pytest.raises(ValueError):
        t.coefficient([(0, 7)])
    # masks index the 2^6 subsets of K4's edges; others must not alias
    t4 = fourier_coefficients(4, (1, 1, 2, 2), 0, Fraction(1, 4))
    for bad in (-63, -1, 64, np.int64(-63), np.int64(-1), np.int64(64),
                np.uint8(64)):
        for lookup in (t4.coefficient, t4.coefficient_scaled, t4.coefficient_sq):
            with pytest.raises(ValueError):
                lookup(bad)
    # numpy integers, as np.flatnonzero hands them out, are masks too
    for mask in (np.int64(1), np.uint8(1), np.int32(63)):
        for lookup in (t4.coefficient, t4.coefficient_scaled, t4.coefficient_sq):
            assert lookup(mask) == lookup(int(mask))


def test_coefficients_dict_covers_every_subset():
    t = fourier_coefficients(4, (1, 1, 2, 2), 0, Fraction(1, 3))
    coeffs = t.coefficients
    assert len(coeffs) == 1 << t.n_edges
    for s, c in coeffs.items():
        assert c == t.coefficient(s)


def test_validation():
    with pytest.raises(ValueError):
        fourier_coefficients(8, (1,) * 7 + (2,), 0, 0.5)
    with pytest.raises(ValueError):
        fourier_coefficients(3, (1, 1, 1), 0, 0.5)  # one color only
    with pytest.raises(ValueError):
        fourier_coefficients(3, (1, 1, 2), 5, 0.5)
    with pytest.raises(ValueError):
        fourier_coefficients(3, (1, 1, 2), 0, 0.5, power=0)
    with pytest.raises(ValueError):
        fourier_coefficients(3, (1, 1, 2), 0, Fraction(3, 2))
