"""Operator calculus on polynomials: the raising operator and Hecke
operators in the q,t case, their degenerations in the r case, word
actions of the degenerate operators, and the symmetrizer.

Operator chains written as products apply right to left (the rightmost
factor acts first); empty chains are the identity.  The eigen-equation
checks pin both conventions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import UnsupportedSubstitution
from .polyring import LaurentPoly
from .shapes import Permutation, all_permutations

if TYPE_CHECKING:
    from .variant import FieldConfig


def _check_index(i: int, n: int):
    if not 1 <= i <= n - 1:
        raise IndexError(f"operator index {i} out of range for n={n}")


def _rotate_substitution(f: LaurentPoly, first_coeff, first_shift,
                         cfg: FieldConfig) -> LaurentPoly:
    """f(c*x_n + d, x_1, ..., x_{n-1})."""
    n = f.n
    one = cfg.one()
    zero = cfg.zero()
    maps = {1: (first_coeff, n, first_shift)}
    for i in range(2, n + 1):
        maps[i] = (one, i - 1, zero)
    return f.affine_substitute(maps)


def phi_qt(f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """(x_n - t^{1-n}) * f(x_n/q, x_1, ..., x_{n-1})."""
    n = f.n
    g = _rotate_substitution(f, cfg.gen("q").invert(), cfg.zero(), cfg)
    factor = (LaurentPoly.variable(n, n, cfg.one())
              - LaurentPoly.constant(n, cfg.gen_power("t", 1 - n)))
    return factor * g


def phi_r(f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """(x_n + (n-1)r) * f(x_n - 1, x_1, ..., x_{n-1})."""
    if not f.is_polynomial():
        raise UnsupportedSubstitution("the x_n - 1 shift needs a polynomial")
    n = f.n
    one = cfg.one()
    g = _rotate_substitution(f, one, -one, cfg)
    factor = (LaurentPoly.variable(n, n, one)
              + LaurentPoly.constant(n, cfg.gen("r") * (n - 1)))
    return factor * g


def hecke(i: int, f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """H_i f = t s_i f - (1-t) x_i (f - s_i f)/(x_i - x_{i+1})."""
    _check_index(i, f.n)
    t = cfg.gen("t")
    swapped = f.swap_adjacent(i)
    dd = f.divided_difference(i)
    xi = LaurentPoly.variable(f.n, i, cfg.one())
    return swapped.scale(t) - (xi * dd).scale(cfg.one() - t)


def sigma_op(i: int, f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """sigma_i f = s_i f + r (f - s_i f)/(x_i - x_{i+1})."""
    _check_index(i, f.n)
    return f.swap_adjacent(i) + f.divided_difference(i).scale(cfg.gen("r"))


def sigma_word(w: Permutation, f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """sigma(w) f along a reduced word of w."""
    out = f
    for i in reversed(w.reduced_word()):
        out = sigma_op(i, out, cfg)
    return out


def xi_qt(i: int, f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """Xi_i f = x_i^{-1} f + x_i^{-1} H_i..H_{n-1} Phi H_1..H_{i-1} f."""
    n = f.n
    if not 1 <= i <= n:
        raise IndexError(f"operator index {i} out of range for n={n}")
    g = f
    for j in range(i - 1, 0, -1):
        g = hecke(j, g, cfg)
    g = phi_qt(g, cfg)
    for j in range(n - 1, i - 1, -1):
        g = hecke(j, g, cfg)
    xinv = LaurentPoly.monomial(
        n, tuple(-1 if m == i else 0 for m in range(1, n + 1)), cfg.one())
    return xinv * (f + g)


def xi_r(i: int, f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """Xi~_i f = x_i f - sigma_i..sigma_{n-1} Phi~ sigma_1..sigma_{i-1} f."""
    n = f.n
    if not 1 <= i <= n:
        raise IndexError(f"operator index {i} out of range for n={n}")
    g = f
    for j in range(i - 1, 0, -1):
        g = sigma_op(j, g, cfg)
    g = phi_r(g, cfg)
    for j in range(n - 1, i - 1, -1):
        g = sigma_op(j, g, cfg)
    return LaurentPoly.variable(n, i, cfg.one()) * f - g


def symmetrize(f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """Average of sigma(w) f over the symmetric group."""
    total = LaurentPoly.zero(f.n)
    count = 0
    for w in all_permutations(f.n):
        total = total + sigma_word(w, f, cfg)
        count += 1
    return total.scale(cfg.scalar(1) / cfg.scalar(count))
