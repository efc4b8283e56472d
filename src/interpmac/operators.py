"""Operator calculus on polynomials: the raising operator, the Hecke
operators H_i of the q,t case and their degenerations sigma_i in the r
case, the Xi operators, word actions and the symmetrizer.  A q,t
operator and its r twin share one body and differ only in constants;
word actions and the symmetrizer run through `cfg.exchange_op`, so on
q,t they are H_w and the Hecke symmetrizer.

Operator chains written as products apply right to left (the rightmost
factor acts first); empty chains are the identity.  The eigen-equation
checks pin both conventions.
"""

from __future__ import annotations

from math import factorial
from typing import TYPE_CHECKING

from .errors import UnsupportedSubstitution
from .polyring import LaurentPoly
from .shapes import Permutation

if TYPE_CHECKING:
    from .variant import FieldConfig


def _check_index(i: int, n: int):
    if not 1 <= i <= n - 1:
        raise IndexError(f"operator index {i} out of range for n={n}")


def _raise(f: LaurentPoly, coeff, shift, root, cfg: FieldConfig) -> LaurentPoly:
    """(x_n + root) * f(c*x_n + d, x_1, ..., x_{n-1}): the variables
    rotate, then x_n alone is substituted."""
    n = f.n
    g = f.permute_vars(Permutation((n,) + tuple(range(1, n))))
    g = g.affine_substitute({n: (coeff, n, shift)})
    return (LaurentPoly.variable(n, n, cfg.one())
            + LaurentPoly.constant(n, root)) * g


def phi_qt(f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """(x_n - t^{1-n}) * f(x_n/q, x_1, ..., x_{n-1})."""
    return _raise(f, cfg.gen("q").invert(), cfg.zero(),
                  -cfg.gen_power("t", 1 - f.n), cfg)


def phi_r(f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """(x_n + (n-1)r) * f(x_n - 1, x_1, ..., x_{n-1})."""
    if not f.is_polynomial():
        raise UnsupportedSubstitution("the x_n - 1 shift needs a polynomial")
    return _raise(f, cfg.one(), -cfg.one(), cfg.gen("r") * (f.n - 1), cfg)


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
    """The exchange operators along a reduced word of w: sigma(w) f on
    an r field, H_w f on a q,t field."""
    out = f
    for i in reversed(w.reduced_word()):
        out = cfg.exchange_op(i, out)
    return out


def _xi_chain(i: int, f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """E_i..E_{n-1} Phi E_1..E_{i-1} f, with E the exchange operators
    and Phi the raising operator of cfg."""
    n = f.n
    if not 1 <= i <= n:
        raise IndexError(f"operator index {i} out of range for n={n}")
    g = f
    for j in range(i - 1, 0, -1):
        g = cfg.exchange_op(j, g)
    g = cfg.raise_op(g)
    for j in range(n - 1, i - 1, -1):
        g = cfg.exchange_op(j, g)
    return g


def xi_qt(i: int, f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """Xi_i f = x_i^{-1} f + x_i^{-1} H_i..H_{n-1} Phi H_1..H_{i-1} f."""
    xinv = LaurentPoly.monomial(
        f.n, tuple(-1 if m == i else 0 for m in range(1, f.n + 1)), cfg.one())
    return xinv * (f + _xi_chain(i, f, cfg))


def xi_r(i: int, f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """Xi~_i f = x_i f - sigma_i..sigma_{n-1} Phi~ sigma_1..sigma_{i-1} f."""
    return LaurentPoly.variable(f.n, i, cfg.one()) * f - _xi_chain(i, f, cfg)


def symmetrize(f: LaurentPoly, cfg: FieldConfig) -> LaurentPoly:
    """Average of the word action over the symmetric group: of sigma(w) f
    on an r field, of H_w f (the Hecke symmetrizer U over n!) on q,t.

    The sum over S_n is F_{n-1}...F_1 f with F_k = 1 + E_k + E_{k-1}E_k
    + ... + E_1...E_k, E = cfg.exchange_op: every w in S_{k+1} is one
    minimal coset representative s_j...s_k (or 1) times an element of
    S_k, with lengths adding, so its word action is the product of
    theirs.  That is n(n-1)/2 operator applications in all."""
    total = f
    for k in range(1, f.n):
        step = total
        for j in range(k, 0, -1):
            step = cfg.exchange_op(j, step)
            total = total + step
    return total.scale(cfg.scalar(1) / cfg.scalar(factorial(f.n)))
