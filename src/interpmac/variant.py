"""Field configurations: which coefficient field to compute in, and what
the q,t side and its Jack-limit (r) twin differ in.

A field config is a `QtConfig` or an `RConfig`.  Every q,t construction
and identity has an r twin that differs only in what the two classes
hold, so callers use the config they are given (`cfg.bar(v)`,
`cfg.act(point, a)`, `cfg.o_kind`) and are written once.  The configs
build every spectral point (bar, tilde, bar_inv, the base point tau or
rho, and a acting on a point) as a plain tuple of Scalars.  Operators are
called through their modules (`operators.hecke`, never a stored
reference), so whatever replaces those module attributes, such as the
per-layer tracer in perfbench, sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence

from . import operators, polyring
from .errors import SpecializationCollision, UsageError
from .scalars import Scalar
from .shapes import CellStats, dominant_sort, weight


# (config, generator, exponent) -> that power; a config is a frozen
# dataclass, so equal configs share their powers
_GEN_POWERS: dict = {}


@dataclass(frozen=True)
class FieldConfig:
    """Which coefficient field to compute in; one subclass per side.

    assignments (a tuple of (name, Fraction) pairs covering exactly the
    side's generators) switch from the symbolic fraction field to exact
    rational specialization.  The inverted flag replaces every
    occurrence of q, t by its reciprocal and is only meaningful on the
    q,t side.
    """

    assignments: tuple = None
    inverted: bool = False

    variant: ClassVar[str]          # "qt" or "r", as reports spell it
    generators: ClassVar[tuple]     # the symbolic field's generators
    o_kind: ClassVar[str]           # point method O interpolates on
    binom_inverted: ClassVar[bool]  # expansions use binomials at 1/q, 1/t

    def __post_init__(self):
        if self.inverted and self.variant != "qt":
            raise UsageError("inverted parameters only apply to q,t fields")
        if self.assignments is not None:
            got = tuple(sorted(name for name, _ in self.assignments))
            want = tuple(sorted(self.generators))
            if got != want:
                raise UsageError(
                    f"specialized {self.variant} config must assign exactly {want}")
            for name, val in self.assignments:
                val = Fraction(val)
                if name in ("q", "t") and val in (0, 1, -1):
                    raise SpecializationCollision(
                        f"specialization {name}={val} rejected: spectral points "
                        f"collide ({name} must not be 0, 1, or -1)")

    # -- helpers -------------------------------------------------------------

    @property
    def symbolic(self) -> bool:
        return self.assignments is None

    def gens(self) -> tuple:
        return self.generators if self.symbolic else ()

    def scalar(self, x) -> Scalar:
        return Scalar.from_fraction(x, self.gens())

    def zero(self) -> Scalar:
        return Scalar.zero(self.gens())

    def one(self) -> Scalar:
        return Scalar.one(self.gens())

    def gen(self, name: str) -> Scalar:
        """The generator as a field element, honoring specialization and
        the inverted-parameters flag."""
        if name not in self.generators:
            raise UsageError(f"generator {name!r} not in variant {self.variant!r}")
        if not self.symbolic:
            v = Fraction(dict(self.assignments)[name])
            return Scalar.from_fraction(1 / v if self.inverted else v)
        g = Scalar.generator(name, self.gens())
        return g.invert() if self.inverted else g

    def gen_power(self, name: str, k: int) -> Scalar:
        key = (self, name, k)
        got = _GEN_POWERS.get(key)
        if got is None:
            got = _GEN_POWERS[key] = self.gen(name) ** k
        return got

    def with_inverted(self) -> "FieldConfig":
        return type(self)(self.assignments, not self.inverted)

    def cache_token(self) -> str:
        if self.symbolic:
            body = "sym"
        else:
            body = ",".join(f"{n}={Fraction(v)}" for n, v in sorted(self.assignments))
        inv = ",inv" if self.inverted else ""
        return f"{self.variant}[{body}{inv}]"

    def describe(self) -> dict:
        out = {"variant": self.variant}
        if self.symbolic:
            out["mode"] = "symbolic"
        else:
            out["mode"] = "specialized"
            out["assignments"] = {n: str(Fraction(v))
                                  for n, v in sorted(self.assignments)}
        if self.inverted:
            out["inverted"] = True
        return out

    def tilde(self, beta: Sequence[int]) -> tuple:
        """The spectral point of -w_o(beta)."""
        return self.bar(tuple(-x for x in reversed(beta)))


class QtConfig(FieldConfig):
    """q,t: a scales points, Hecke operators, Xi eigenvalues bar^{-1}."""

    variant = "qt"
    generators = ("q", "t")
    o_kind = "bar_inv"
    binom_inverted = True

    def exchange_num(self) -> Scalar:
        return self.one() - self.gen("t")

    def bar(self, v: Sequence[int]) -> tuple:
        """v-bar with coordinates q^{v_i} (w_v tau)_i."""
        _, w = dominant_sort(v)
        return tuple(self.gen_power("q", x) * self.gen_power("t", 1 - k)
                     for x, k in zip(v, w.inverse().word))

    def bar_inv(self, v: Sequence[int]) -> tuple:
        """The coordinatewise reciprocal of bar(v)."""
        return tuple(x.invert() for x in self.bar(v))

    def base_point(self, n: int) -> tuple:
        """tau = (1, t^{-1}, ..., t^{1-n})."""
        return tuple(self.gen_power("t", -j) for j in range(n))

    def act(self, point: tuple, a: Scalar) -> tuple:
        return tuple(x * a for x in point)

    def act_all(self, f, a: Scalar):
        return polyring.scale_all(f, a)

    def raise_op(self, f):
        return operators.phi_qt(f, self)

    def raise_step(self, f, alpha: tuple):
        return self.raise_op(f).scale(self.gen_power("q", alpha[-1] - 1))

    def exchange_op(self, i: int, f):
        return operators.hecke(i, f, self)

    def exchange_den(self, bar: tuple, i: int) -> Scalar:
        return self.one() - bar[i - 1] / bar[i]

    def xi(self, i: int, f):
        return operators.xi_qt(i, f, self)

    def eigenvalue(self, bar: tuple, i: int) -> Scalar:
        return bar[i - 1].invert()

    def d_cell(self, s: CellStats) -> Scalar:
        return self.one() - (self.gen_power("q", s.arm + 1)
                             * self.gen_power("t", s.leg + 1))

    def e_cell(self, s: CellStats, n: int) -> Scalar:
        return (self.gen_power("t", 1 - n)
                - self.gen_power("q", s.coarm + 1)
                * self.gen_power("t", 1 - s.coleg))

    def phi_cell(self, s: CellStats, a: Scalar) -> Scalar:
        return a * self.gen_power("t", s.coleg) - self.gen_power("q", s.coarm)

    def binom_weights(self, a: Scalar, lowers: list, coefs: list) -> list:
        """Each c_beta times a^{|beta|}, the factor scaling brings in."""
        return [a ** weight(m) * c for m, c in zip(lowers, coefs)]

    def discr_exchange(self, bar: tuple, i: int) -> tuple:
        t = self.gen("t")
        den = bar[i - 1] - bar[i]
        return (t - 1) * bar[i - 1] / den, (bar[i - 1] - t * bar[i]) / den

    def derecur_raise(self, alpha: tuple, bar: tuple, n: int) -> tuple:
        """d, e and phi(0) ratios of alpha over alpha#."""
        return (self.one() - self.gen_power("t", n) * bar[-1],
                self.gen_power("t", 1 - n) - self.gen("t") * bar[-1],
                -self.gen_power("q", alpha[-1] - 1))

    def derecur_exchange(self, bar: tuple, i: int) -> tuple:
        x = bar[i - 1] / bar[i]
        return self.one() - self.gen("t") * x, self.one() - x


class RConfig(FieldConfig):
    """r: a shifts points, sigma operators, Xi~ eigenvalues bar."""

    variant = "r"
    generators = ("r",)
    o_kind = "bar"
    binom_inverted = False

    def exchange_num(self) -> Scalar:
        return self.gen("r")

    def bar(self, v: Sequence[int]) -> tuple:
        """v-bar(r) = v + w_v rho."""
        _, w = dominant_sort(v)
        r = self.gen("r")
        return tuple(self.scalar(x) + r * (1 - k)
                     for x, k in zip(v, w.inverse().word))

    def base_point(self, n: int) -> tuple:
        """rho = r*(0, -1, ..., 1-n)."""
        r = self.gen("r")
        return tuple(r * -j for j in range(n))

    def act(self, point: tuple, a: Scalar) -> tuple:
        return tuple(x + a for x in point)

    def act_all(self, f, a: Scalar):
        return polyring.shift_all(f, a)

    def raise_op(self, f):
        return operators.phi_r(f, self)

    def raise_step(self, f, alpha: tuple):
        return self.raise_op(f)

    def exchange_op(self, i: int, f):
        return operators.sigma_op(i, f, self)

    def exchange_den(self, bar: tuple, i: int) -> Scalar:
        return bar[i - 1] - bar[i]

    def xi(self, i: int, f):
        return operators.xi_r(i, f, self)

    def eigenvalue(self, bar: tuple, i: int) -> Scalar:
        return bar[i - 1]

    def d_cell(self, s: CellStats) -> Scalar:
        return self.scalar(s.arm + 1) + self.gen("r") * (s.leg + 1)

    def e_cell(self, s: CellStats, n: int) -> Scalar:
        return self.scalar(s.coarm + 1) + self.gen("r") * (n - s.coleg)

    def phi_cell(self, s: CellStats, a: Scalar) -> Scalar:
        return a - s.coarm + self.gen("r") * s.coleg

    def binom_weights(self, a: Scalar, lowers: list, coefs: list) -> list:
        return coefs

    def discr_exchange(self, bar: tuple, i: int) -> tuple:
        r = self.gen("r")
        den = bar[i - 1] - bar[i]
        return r / den, (den - r) / den

    def derecur_raise(self, alpha: tuple, bar: tuple, n: int) -> tuple:
        """d and e ratios of alpha over alpha#; phi(0) has no such rule."""
        ratio = self.gen("r") * n + bar[-1]
        return ratio, ratio, None

    def derecur_exchange(self, bar: tuple, i: int) -> tuple:
        x = bar[i - 1] - bar[i]
        return x + self.gen("r"), x


def qt_config(q=None, t=None, inverted=False) -> QtConfig:
    if q is None and t is None:
        return QtConfig(None, inverted)
    return QtConfig((("q", Fraction(q)), ("t", Fraction(t))), inverted)


def r_config(r=None) -> RConfig:
    return RConfig(None if r is None else (("r", Fraction(r)),))
