"""Diagonal symbols near the identity: closed form versus the general path.

Walks the family alpha_j = 1 - 2**-j, compares the closed-form squared
norm of the box-restricted density with the general path of chi_norm_sq
(Cholesky and Schur complement on the unrestricted coordinates, then erf
box factors), and prints the agreement at each truncation level along with
the convergence of the infinite tail product.
"""

import numpy as np

from gausscomp import Box, chi_norm_sq, diag_closed_form, infinite_product

alpha = lambda j: 1.0 - 2.0 ** (-j)
box = Box(2, 1.0)

print("truncation level l, closed form, general path, relative difference")
for l in range(3, 9):
    closed = diag_closed_form(alpha, 1, 2, box.halfwidth, l)
    A = np.diag([alpha(j) for j in range(1, l + 1)])
    general = chi_norm_sq(A, 1, box)
    print(f"  l={l}: {closed:.12f}  {general:.12f}  "
          f"{abs(closed - general) / closed:.2e}")

# The tail factors 1 / (alpha_j * sqrt(2 - alpha_j**2)) approach 1 like
# 2 * 4**-j, so 4**-N bounds the tail sum of |1 - t_j| and the product
# converges with a certified remainder.
terms = lambda j: 1.0 / (alpha(j) * np.sqrt(2.0 - alpha(j) ** 2))
res = infinite_product(terms, n_terms=100, tail_bound=lambda N: 4.0 ** (-N))
print(f"\ntail product: status={res.status}, value={res.value:.12f}, "
      f"remainder bound {res.remainder_bound:.2e} "
      f"after {res.terms_used} terms")
