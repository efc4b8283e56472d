"""What the q,t side and its Jack-limit (r) twin differ in.

Every q,t construction and identity has an r twin that differs only in
what a `Variant` holds, so callers ask `variant(cfg)` and are written
once.  Operators are called through their modules (`operators.hecke`,
never a stored reference), so whatever replaces those module attributes,
such as the per-layer tracer in perfbench, sees every call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from . import operators, polyring
from .scalars import FieldConfig, Scalar
from .shapes import (CellStats, SpectralPoint, rho_point, spectral_qt,
                     spectral_r, tau_point)


class Variant:
    """What the q,t and r code paths differ in, for one field config."""

    o_kind: str             # point kind the reciprocity polynomial lives on
    binom_inverted: bool    # expansions use the binomials at 1/q, 1/t

    def __init__(self, cfg: FieldConfig):
        self.cfg = cfg
        self.one = cfg.one()

    def tilde(self, beta: Sequence[int]) -> SpectralPoint:
        """The spectral point of -w_o(beta)."""
        return self.bar(tuple(-x for x in reversed(beta)))


class QtVariant(Variant):
    """q,t: a scales points, Hecke operators, Xi eigenvalues bar^{-1}."""

    o_kind = "bar-inv"
    binom_inverted = True

    def __init__(self, cfg: FieldConfig):
        super().__init__(cfg)
        self.t = cfg.gen("t")
        self.exchange_num = self.one - self.t

    def bar(self, v: Sequence[int]) -> SpectralPoint:
        return spectral_qt(v, self.cfg)

    def base_point(self, n: int) -> SpectralPoint:
        return tau_point(n, self.cfg)

    def act(self, point: SpectralPoint, a: Scalar) -> SpectralPoint:
        return point.scale(a)

    def act_all(self, f, a: Scalar):
        return polyring.scale_all(f, a)

    def raise_op(self, f):
        return operators.phi_qt(f, self.cfg)

    def raise_step(self, f, alpha: tuple):
        return self.raise_op(f).scale(self.cfg.gen_power("q", alpha[-1] - 1))

    def exchange_op(self, i: int, f):
        return operators.hecke(i, f, self.cfg)

    def exchange_den(self, bar: SpectralPoint, i: int) -> Scalar:
        return self.one - bar[i - 1] / bar[i]

    def xi(self, i: int, f):
        return operators.xi_qt(i, f, self.cfg)

    def eigenvalue(self, bar: SpectralPoint, i: int) -> Scalar:
        return bar[i - 1].invert()

    def d_cell(self, s: CellStats) -> Scalar:
        return self.one - (self.cfg.gen_power("q", s.arm + 1)
                           * self.cfg.gen_power("t", s.leg + 1))

    def e_cell(self, s: CellStats, n: int) -> Scalar:
        return (self.cfg.gen_power("t", 1 - n)
                - self.cfg.gen_power("q", s.coarm + 1)
                * self.cfg.gen_power("t", 1 - s.coleg))

    def phi_cell(self, s: CellStats, a: Scalar) -> Scalar:
        return (a * self.cfg.gen_power("t", s.coleg)
                - self.cfg.gen_power("q", s.coarm))

    def binom_weight(self, a: Scalar, k: int) -> Scalar:
        """a^{|beta|}, the factor scaling brings into the expansion."""
        return a ** k

    def discr_exchange(self, bar: SpectralPoint, i: int) -> tuple:
        den = bar[i - 1] - bar[i]
        return ((self.t - 1) * bar[i - 1] / den,
                (bar[i - 1] - self.t * bar[i]) / den)

    def derecur_raise(self, alpha: tuple, bar: SpectralPoint, n: int) -> tuple:
        """d, e and phi(0) ratios of alpha over alpha#."""
        return (self.one - self.cfg.gen_power("t", n) * bar[-1],
                self.cfg.gen_power("t", 1 - n) - self.t * bar[-1],
                -self.cfg.gen_power("q", alpha[-1] - 1))

    def derecur_exchange(self, bar: SpectralPoint, i: int) -> tuple:
        x = bar[i - 1] / bar[i]
        return self.one - self.t * x, self.one - x


class RVariant(Variant):
    """r: a shifts points, sigma operators, Xi~ eigenvalues bar."""

    o_kind = "bar"
    binom_inverted = False

    def __init__(self, cfg: FieldConfig):
        super().__init__(cfg)
        self.r = cfg.gen("r")
        self.exchange_num = self.r

    def bar(self, v: Sequence[int]) -> SpectralPoint:
        return spectral_r(v, self.cfg)

    def base_point(self, n: int) -> SpectralPoint:
        return rho_point(n, self.cfg)

    def act(self, point: SpectralPoint, a: Scalar) -> SpectralPoint:
        return point.shift(a)

    def act_all(self, f, a: Scalar):
        return polyring.shift_all(f, a)

    def raise_op(self, f):
        return operators.phi_r(f, self.cfg)

    def raise_step(self, f, alpha: tuple):
        return self.raise_op(f)

    def exchange_op(self, i: int, f):
        return operators.sigma_op(i, f, self.cfg)

    def exchange_den(self, bar: SpectralPoint, i: int) -> Scalar:
        return bar[i - 1] - bar[i]

    def xi(self, i: int, f):
        return operators.xi_r(i, f, self.cfg)

    def eigenvalue(self, bar: SpectralPoint, i: int) -> Scalar:
        return bar[i - 1]

    def d_cell(self, s: CellStats) -> Scalar:
        return self.cfg.scalar(s.arm + 1) + self.r * (s.leg + 1)

    def e_cell(self, s: CellStats, n: int) -> Scalar:
        return self.cfg.scalar(s.coarm + 1) + self.r * (n - s.coleg)

    def phi_cell(self, s: CellStats, a: Scalar) -> Scalar:
        return a - s.coarm + self.r * s.coleg

    def binom_weight(self, a: Scalar, k: int) -> Scalar:
        return self.one

    def discr_exchange(self, bar: SpectralPoint, i: int) -> tuple:
        den = bar[i - 1] - bar[i]
        return self.r / den, (den - self.r) / den

    def derecur_raise(self, alpha: tuple, bar: SpectralPoint, n: int) -> tuple:
        """d and e ratios of alpha over alpha#; phi(0) has no such rule."""
        ratio = self.r * n + bar[-1]
        return ratio, ratio, None

    def derecur_exchange(self, bar: SpectralPoint, i: int) -> tuple:
        x = bar[i - 1] - bar[i]
        return x + self.r, x


@lru_cache(maxsize=None)
def variant(cfg: FieldConfig) -> Variant:
    """The variant of a field config, one instance per config."""
    return {"qt": QtVariant, "r": RVariant}[cfg.variant](cfg)


def tilde(beta: Sequence[int], cfg: FieldConfig) -> SpectralPoint:
    """The spectral point of -w_o(beta)."""
    return variant(cfg).tilde(beta)
