"""Fourier analysis of the centered day-1 keep indicator, exactly.

Over the p-biased edge cube, the coefficient table of Z_v is supported on
the star of v, vanishes on the empty set (Z_v has mean zero), satisfies
Parseval with E[Z_v^2] = 1 - mu_v^2, and reconstructs Z_v pointwise.  With a
rational p all of this is exact rational arithmetic.
"""

from fractions import Fraction

from majlab import fourier_coefficients
from majlab.fourier import edge_list

m, colors, v, p = 4, (1, 1, 2, 2), 0, Fraction(1, 3)
table = fourier_coefficients(m, colors, v, p)

print(f"vertex {v} of a {m}-vertex set, colors {colors}, p = {p}")
print("mu_v =", table.mu_v)
print("coefficient on the empty set:", table.coefficient_scaled(0))

print("\nnonzero coefficients (scaled to stay rational):")
for mask in range(1 << table.n_edges):
    r = table.coefficient_scaled(mask)
    if r != 0:
        edges = [e for k, e in enumerate(edge_list(m)) if mask >> k & 1]
        print(f"  S = {edges}: r_S = {r}  (float coeff {table.coefficient(mask):+.6f})")

print("\nParseval:", table.parseval_sum(), "== 1 - mu_v^2 ==",
      1 - table.mu_v**2)
print("pointwise reconstruction on all",
      1 << table.n_edges, "configurations:",
      table.reconstruct_all() == table.function_values())

# Powers of Z_v keep the same support, with coefficients growing at most
# geometrically.
base = table
for level in (2, 3):
    tl = fourier_coefficients(m, colors, v, p, power=level)
    ok = all(abs(tl.coefficient_scaled(s))
             <= 2**level * abs(base.coefficient_scaled(s))
             for s in range(1, 1 << base.n_edges))
    print(f"power {level}: |r| <= 2^{level} |r_base| on S != {{}}: {ok}")
