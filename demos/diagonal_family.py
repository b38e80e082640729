"""Diagonal symbols near the identity: closed form versus the general path.

Walks the family alpha_j = 1 - 2**-j, compares the closed-form squared
norm of the box-restricted density with the general path of chi_norm_sq
(an LDL^T sweep of the band on the unrestricted coordinates, then erf box
factors), and prints the agreement at each truncation level along with
the convergence of the infinite tail product.  It asserts what it prints:
the two paths agree to 1e-8 at every level and the tail product's
remainder bound is below 1e-50.
"""

import math

import numpy as np

from gausscomp import Box, chi_norm_sq, diag_closed_form

alpha = lambda j: 1.0 - 2.0 ** (-j)
box = Box(2, 1.0)

print("truncation level l, closed form, general path, relative difference")
for l in range(3, 9):
    closed = diag_closed_form(alpha, 1, 2, box.halfwidth, l)
    A = np.diag([alpha(j) for j in range(1, l + 1)])
    general = chi_norm_sq(A, 1, box)
    rel = abs(closed - general) / closed
    print(f"  l={l}: {closed:.12f}  {general:.12f}  {rel:.2e}")
    assert rel < 1e-8, f"closed form and general path differ at l={l}"

# The tail factors 1 / (alpha_j * sqrt(2 - alpha_j**2)) approach 1 like
# 2 * 4**-j, so T = 4**-N bounds the tail sum of |1 - t_j| past N terms, and
# the limit is within a factor exp(T / (1 - T)) of the partial product.
terms = lambda j: 1.0 / (alpha(j) * math.sqrt(2.0 - alpha(j) ** 2))
N = 100
value = math.exp(math.fsum(math.log(terms(j)) for j in range(1, N + 1)))
T = 4.0 ** -N
remainder = math.expm1(T / (1.0 - T))
print(f"\ntail product: value={value:.12f}, "
      f"remainder bound {remainder:.2e} after {N} terms")
assert remainder < 1e-50, "tail product remainder bound is not below 1e-50"
