"""Constructors for the interpolation polynomial families, the
closed-form scalar products attached to diagrams, and the binomial
coefficients built from them.

Families (CLI spellings in parentheses):

* G      inhomogeneous interpolation polynomial, q,t or r variant
* E      its top homogeneous part
* Gprime same top part, vanishing on the reflected (tilde) points
* Gplus  r-variant reflection of G
* R      symmetric interpolation polynomial (partition index)
* Rprime symmetric analogue of Gprime
* O      reciprocity interpolation polynomial (needs the parameter a)

All linear systems are solved by exact fraction-free Gaussian
elimination with first-nonzero pivoting; each family re-checks its
defining vanishing conditions after construction.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

from .errors import DivisionByZero, SpecializationCollision, UsageError
# The recursion's operators run through `variant`; `hecke` stays a name of
# this module because perfbench/test_perfbench.py checks that the tracer
# patches it here as well.
from .operators import hecke  # noqa: F401
from .polyring import LaurentPoly, negate_shift_all
from .scalars import FieldConfig, Scalar, dumps_canonical
from .shapes import (SpectralPoint, diagram_stats, enumerate_compositions,
                     is_composition, is_partition, partitions_upto,
                     rearrangements, sharp, reciprocal_point, weight)
from .variant import variant


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def solve_square(rows: Sequence[Sequence[Scalar]],
                 rhs_cols: Sequence[Sequence[Scalar]],
                 context: str = "linear system") -> list:
    """Solve A x = b for every right-hand column at once.

    Fraction-free (Bareiss) forward elimination with first-nonzero
    pivoting; divisions along the way are exact.  Raises
    SpecializationCollision when the matrix is singular.
    """
    m = len(rows)
    k = len(rhs_cols)
    if m == 0:
        return [[] for _ in range(k)]
    aug = [list(row) + [col[i] for col in rhs_cols]
           for i, row in enumerate(rows)]
    width = m + k
    some = aug[0][0]
    one = some.__class__.one(some.gens)
    prev = one
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if not aug[r][col].is_zero()),
                         None)
        if pivot_row is None:
            raise SpecializationCollision(f"singular system in {context}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, m):
            head = aug[r][col]
            if head.is_zero():
                if prev.is_one():
                    continue
                for c in range(col + 1, width):
                    aug[r][c] = (pivot * aug[r][c]) / prev
            else:
                for c in range(col + 1, width):
                    aug[r][c] = (pivot * aug[r][c] - head * aug[col][c]) / prev
            aug[r][col] = some.__class__.zero(some.gens)
        prev = pivot
    solutions = []
    for j in range(k):
        x = [None] * m
        for i in range(m - 1, -1, -1):
            acc = aug[i][m + j]
            for c in range(i + 1, m):
                acc = acc - aug[i][c] * x[c]
            x[i] = acc / aug[i][i]
        solutions.append(x)
    return solutions


def invert_matrix(rows: Sequence[Sequence[Scalar]], context: str) -> list:
    """Columns of the inverse matrix."""
    m = len(rows)
    some = rows[0][0]
    one = some.__class__.one(some.gens)
    zero = some.__class__.zero(some.gens)
    identity = [[one if i == j else zero for i in range(m)] for j in range(m)]
    return solve_square(rows, identity, context)


def _matvec_inv(inv_cols: list, rhs: Sequence[Scalar]) -> list:
    """A^{-1} rhs given the columns of A^{-1}."""
    m = len(rhs)
    out = []
    for i in range(m):
        acc = None
        for j in range(m):
            term = inv_cols[j][i] * rhs[j]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyKey:
    family: str
    variant: str
    index: tuple
    config: str

    def describe(self) -> dict:
        return {"family": self.family, "variant": self.variant,
                "index": list(self.index), "config": self.config}


class FamilyCache:
    """Memo for constructed polynomials and factored point systems.

    Polynomials are additionally persisted to disk when a directory is
    configured (one JSON file per family key, content-addressed).  Files
    are replaced atomically, so concurrent writers of one key leave one
    whole file; an unreadable file, or one stored under another key, is
    rebuilt and rewritten."""

    def __init__(self, disk_dir: Optional[str] = None):
        self._mem: dict = {}
        self.disk_dir = Path(disk_dir) if disk_dir else None
        if self.disk_dir:
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    def memo(self, key: tuple, thunk: Callable):
        got = self._mem.get(key)
        if got is None:
            got = self._mem[key] = thunk()
        return got

    # -- disk layer (polynomials only) -------------------------------------

    def _path(self, fk: FamilyKey) -> Path:
        digest = hashlib.sha256(
            dumps_canonical(fk.describe()).encode()).hexdigest()
        return self.disk_dir / f"{digest}.json"

    def _read(self, fk: FamilyKey) -> Optional[LaurentPoly]:
        """The stored polynomial, or None without a readable file that
        holds exactly this key."""
        try:
            data = json.loads(self._path(fk).read_text())
            if data["key"] == fk.describe():
                return LaurentPoly.from_json(data["poly"])
        except (OSError, ValueError, LookupError, TypeError, AttributeError,
                ArithmeticError):
            pass
        return None

    def _write(self, fk: FamilyKey, poly: LaurentPoly):
        path = self._path(fk)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(dumps_canonical({"key": fk.describe(),
                                            "poly": poly.to_json()}))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def poly(self, fk: FamilyKey, build: Callable) -> LaurentPoly:
        key = ("poly", fk)
        got = self._mem.get(key)
        if got is None and self.disk_dir:
            got = self._read(fk)
        if got is None:
            got = build()
            if self.disk_dir:
                self._write(fk, got)
        self._mem[key] = got
        return got


# ---------------------------------------------------------------------------
# spectral point tables and factored interpolation systems
# ---------------------------------------------------------------------------

def _point(kind: str, v: tuple, cfg: FieldConfig, cache: FamilyCache) -> SpectralPoint:
    key = ("pt", kind, cfg.cache_token(), v)
    if kind == "bar":
        return cache.memo(key, lambda: variant(cfg).bar(v))
    if kind == "tilde":
        return cache.memo(key, lambda: variant(cfg).tilde(v))
    if kind == "bar-inv":
        return cache.memo(key, lambda: reciprocal_point(variant(cfg).bar(v)))
    raise UsageError(f"unknown point kind {kind}")


def _power_table(point: SpectralPoint, exps: Sequence[tuple]) -> list:
    cachepow: dict = {}

    def power(i, k):
        got = cachepow.get((i, k))
        if got is None:
            got = point[i] ** k
            cachepow[(i, k)] = got
        return got

    rows = []
    for e in exps:
        acc = None
        for i, k in enumerate(e):
            if k:
                p = power(i, k)
                acc = p if acc is None else acc * p
        if acc is None:
            some = point[0]
            acc = some.__class__.one(some.gens)
        rows.append(acc)
    return rows


def monomial_matrix(indices: Sequence[tuple], exps: Sequence[tuple], kind: str,
                    cfg: FieldConfig, cache: FamilyCache) -> list:
    """Rows of point^exp over the given index/exponent lists."""
    return [_power_table(_point(kind, v, cfg, cache), exps) for v in indices]


def mono_sym(n: int, mu: tuple, one: Scalar) -> LaurentPoly:
    """Monomial symmetric polynomial m_mu in n variables."""
    return LaurentPoly(n, {e: one for e in rearrangements(mu)}, _clean=True)


def _sym_matrix(indices: Sequence[tuple], basis: Sequence[tuple], kind: str,
                cfg: FieldConfig, cache: FamilyCache) -> list:
    one = cfg.one()
    n = len(indices[0]) if indices else 0
    polys = [mono_sym(n, mu, one) for mu in basis]
    rows = []
    for v in indices:
        p = _point(kind, v, cfg, cache)
        rows.append([m.evaluate(p) for m in polys])
    return rows


def _inverse_system(kind: str, n: int, deg: int, cfg: FieldConfig,
                    cache: FamilyCache, symmetric: bool = False) -> tuple:
    """(indices, inverse columns) for one interpolation point family."""
    token = cfg.cache_token()
    key = ("inv", kind, symmetric, token, n, deg)

    def build():
        if symmetric:
            indices = partitions_upto(n, deg)
            rows = _sym_matrix(indices, indices, kind, cfg, cache)
        else:
            indices = enumerate_compositions(n, deg)
            rows = monomial_matrix(indices, indices, kind, cfg, cache)
        ctx = (f"{'symmetric ' if symmetric else ''}{kind} interpolation, "
               f"n={n} degree {deg}, field {token}")
        return indices, invert_matrix(rows, ctx)

    return cache.memo(key, build)


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------

def _validate_index(index: Sequence[int], partition: bool = False) -> tuple:
    index = tuple(int(x) for x in index)
    if not is_composition(index):
        raise UsageError(f"not a composition: {index}")
    if partition and not is_partition(index):
        raise UsageError(f"not a partition: {index}")
    return index


def _recheck_vanishing(poly: LaurentPoly, alpha: tuple, indices: list,
                       cfg: FieldConfig, cache: FamilyCache):
    """Defining conditions, re-verified on the freshly built polynomial:
    degree <= |alpha| and a zero at the spectral point of every other
    index."""
    if poly.total_degree() > weight(alpha):
        raise SpecializationCollision(
            f"degree bound violated for index {alpha}")
    for beta in indices:
        if beta == alpha:
            continue
        if not poly.evaluate(_point("bar", beta, cfg, cache)).is_zero():
            raise SpecializationCollision(
                f"vanishing failed at {beta} for index {alpha}")


def g_recursive(alpha: Sequence[int], cfg: FieldConfig,
                cache: FamilyCache) -> LaurentPoly:
    """Interpolation polynomial for alpha via the raising/exchange
    recursion (memoized; the construction used by default)."""
    alpha = _validate_index(alpha)
    n = len(alpha)
    fk = FamilyKey("G", cfg.variant, alpha, cfg.cache_token())

    def build():
        var = variant(cfg)
        if not any(alpha):
            return LaurentPoly.constant(n, cfg.one())
        if alpha[-1] > 0:
            return var.raise_step(g_recursive(sharp(alpha), cfg, cache), alpha)
        i = max(j for j in range(1, n) if alpha[j - 1] > alpha[j])
        swapped = list(alpha)
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        sub = g_recursive(tuple(swapped), cfg, cache)
        d = var.exchange_den(var.bar(alpha), i)
        if d.is_zero():
            raise SpecializationCollision(
                f"exchange denominator vanished at index {alpha}, i={i}")
        return var.exchange_op(i, sub) + sub.scale(var.exchange_num / d)

    return cache.poly(fk, build)


def _basis_sum(n: int, indices: Sequence[tuple], coeffs: Sequence[Scalar],
               symmetric: bool) -> LaurentPoly:
    """sum_j coeffs[j] * x^indices[j], or with symmetric the monomial
    symmetric polynomials m_indices[j]: the rearrangements of distinct
    partitions do not overlap, so this is one term dict."""
    return LaurentPoly(n, {e: c for mu, c in zip(indices, coeffs)
                           for e in (rearrangements(mu) if symmetric
                                     else (mu,))})


def _normalized_interpolant(index: tuple, cfg: FieldConfig,
                            cache: FamilyCache, symmetric: bool) -> LaurentPoly:
    """The polynomial of degree <= |index| in the (symmetric) monomial
    basis that vanishes at the spectral points of every other index of
    that degree and has coefficient 1 at the basis element of index."""
    indices, inv_cols = _inverse_system("bar", len(index), weight(index), cfg,
                                        cache, symmetric)
    pos = indices.index(index)
    u = inv_cols[pos]
    if u[pos].is_zero():
        raise SpecializationCollision(
            f"normalization impossible for index {index}")
    scale = u[pos].invert()
    return _basis_sum(len(index), indices, [c * scale for c in u], symmetric)


def _primed(index: tuple, top: LaurentPoly, cfg: FieldConfig,
            cache: FamilyCache, symmetric: bool) -> LaurentPoly:
    """top plus the lower-degree part, in the (symmetric) monomial basis,
    that makes it vanish at the tilde points of every smaller degree."""
    deg = weight(index)
    if deg == 0:
        return top
    indices, inv_cols = _inverse_system("tilde", len(index), deg - 1, cfg,
                                        cache, symmetric)
    rhs = [-top.evaluate(_point("tilde", b, cfg, cache)) for b in indices]
    coeffs = _matvec_inv(inv_cols, rhs)
    poly = top + _basis_sum(len(index), indices, coeffs, symmetric)
    for beta in indices:
        if not poly.evaluate(_point("tilde", beta, cfg, cache)).is_zero():
            raise SpecializationCollision(
                f"tilde vanishing failed at {beta} for index {index}")
    return poly


def g_oracle(alpha: Sequence[int], cfg: FieldConfig,
             cache: FamilyCache) -> LaurentPoly:
    """Interpolation polynomial for alpha built directly from its
    vanishing conditions by an exact linear solve; independent of the
    recursion and used to cross-check it."""
    alpha = _validate_index(alpha)
    fk = FamilyKey("G-oracle", cfg.variant, alpha, cfg.cache_token())

    def build():
        poly = _normalized_interpolant(alpha, cfg, cache, symmetric=False)
        _recheck_vanishing(poly, alpha, enumerate_compositions(
            len(alpha), weight(alpha)), cfg, cache)
        one = cfg.one()
        if poly.coefficient(alpha, cfg.zero()) != one:
            raise SpecializationCollision(
                f"normalization failed for index {alpha}")
        return poly

    return cache.poly(fk, build)


def e_top(alpha: Sequence[int], cfg: FieldConfig,
          cache: FamilyCache) -> LaurentPoly:
    """Top homogeneous part of the interpolation polynomial."""
    alpha = _validate_index(alpha)
    return g_recursive(alpha, cfg, cache).top_part(weight(alpha))


def gprime(alpha: Sequence[int], cfg: FieldConfig,
           cache: FamilyCache) -> LaurentPoly:
    """Same top part as G, vanishing on the tilde points of all strictly
    smaller degrees."""
    alpha = _validate_index(alpha)
    fk = FamilyKey("Gprime", cfg.variant, alpha, cfg.cache_token())
    return cache.poly(fk, lambda: _primed(alpha, e_top(alpha, cfg, cache),
                                          cfg, cache, symmetric=False))


def gplus(alpha: Sequence[int], cfg: FieldConfig,
          cache: FamilyCache) -> LaurentPoly:
    """(-1)^{|alpha|} G_alpha(-x - (n-1)r) in the r variant."""
    if cfg.variant != "r":
        raise UsageError("Gplus is an r-variant family")
    alpha = _validate_index(alpha)
    fk = FamilyKey("Gplus", cfg.variant, alpha, cfg.cache_token())
    return cache.poly(fk, lambda: reflect(g_recursive(alpha, cfg, cache),
                                          weight(alpha), cfg))


def reflect(f: LaurentPoly, deg: int, cfg: FieldConfig) -> LaurentPoly:
    """(-1)^deg f(-x - (n-1)r), the reflection between r-variant families."""
    out = negate_shift_all(f, cfg.gen("r") * (f.n - 1))
    return -out if deg % 2 else out


def r_sym(lam: Sequence[int], cfg: FieldConfig,
          cache: FamilyCache) -> LaurentPoly:
    """Symmetric interpolation polynomial for a partition index."""
    lam = _validate_index(lam, partition=True)
    fk = FamilyKey("R", cfg.variant, lam, cfg.cache_token())

    def build():
        poly = _normalized_interpolant(lam, cfg, cache, symmetric=True)
        _recheck_vanishing(poly, lam, partitions_upto(len(lam), weight(lam)),
                           cfg, cache)
        return poly

    return cache.poly(fk, build)


def rprime(lam: Sequence[int], cfg: FieldConfig,
           cache: FamilyCache) -> LaurentPoly:
    """Symmetric polynomial with the top part of R, vanishing on the
    tilde points of smaller degree (r variant)."""
    if cfg.variant != "r":
        raise UsageError("Rprime is an r-variant family")
    lam = _validate_index(lam, partition=True)
    fk = FamilyKey("Rprime", cfg.variant, lam, cfg.cache_token())
    return cache.poly(fk, lambda: _primed(
        lam, r_sym(lam, cfg, cache).top_part(weight(lam)), cfg, cache,
        symmetric=True))


def okounkov(alpha: Sequence[int], cfg: FieldConfig, a: Scalar,
             cache: FamilyCache) -> LaurentPoly:
    """The reciprocity polynomial: degree <= |alpha|, interpolating the
    prescribed evaluation ratios over all indices of degree <= |alpha|.

    cfg is the base polynomial field; a is the evaluation parameter as a
    field element (symbolic generator or exact rational)."""
    alpha = _validate_index(alpha)
    n = len(alpha)
    indices, inv_cols = _inverse_system(variant(cfg).o_kind, n, weight(alpha),
                                        cfg, cache)
    rhs = [okounkov_value(alpha, beta, cfg, a, cache) for beta in indices]
    coeffs = _matvec_inv(inv_cols, rhs)
    return LaurentPoly(n, {e: c for e, c in zip(indices, coeffs)})


def okounkov_ratio_parts(alpha: tuple, beta: tuple, cfg: FieldConfig,
                         a: Scalar, cache: FamilyCache) -> tuple:
    """(num, den) of the prescribed ratio at beta: G_beta at the
    a-shifted (or a-scaled) tilde point of alpha, and at the base point.
    Kept unreduced so that denominators stay free of a."""
    var = variant(cfg)
    g = g_recursive(beta, cfg, cache)
    t_alpha = _point("tilde", alpha, cfg, cache)
    origin = _point("bar", (0,) * len(alpha), cfg, cache)
    return g.evaluate(var.act(t_alpha, a)), g.evaluate(var.act(origin, a))


def okounkov_value(alpha: tuple, beta: tuple, cfg: FieldConfig, a: Scalar,
                   cache: FamilyCache) -> Scalar:
    """The prescribed ratio at beta as a single field element."""
    num, den = okounkov_ratio_parts(alpha, beta, cfg, a, cache)
    if den.is_zero():
        raise SpecializationCollision(
            f"base evaluation of index {beta} vanished at a={a}")
    return num / den


# ---------------------------------------------------------------------------
# closed-form scalars and binomial coefficients
# ---------------------------------------------------------------------------

def closed_d(alpha: Sequence[int], cfg: FieldConfig) -> Scalar:
    """Product over diagram cells of the (arm, leg) hook factor."""
    alpha = _validate_index(alpha)
    var = variant(cfg)
    out = cfg.one()
    for s in diagram_stats(alpha):
        out = out * var.d_cell(s)
    return out


def closed_e(alpha: Sequence[int], cfg: FieldConfig) -> Scalar:
    """Product over diagram cells of the (coarm, coleg) cofactor."""
    alpha = _validate_index(alpha)
    var = variant(cfg)
    out = cfg.one()
    for s in diagram_stats(alpha):
        out = out * var.e_cell(s, len(alpha))
    return out


def closed_phi(alpha: Sequence[int], cfg: FieldConfig, a) -> Scalar:
    """Product over diagram cells of the evaluation factor in a."""
    alpha = _validate_index(alpha)
    if not isinstance(a, Scalar):
        a = Scalar.from_fraction(Fraction(a))
    var = variant(cfg)
    out = cfg.one() * Scalar.one(a.gens)
    for s in diagram_stats(alpha):
        out = out * var.phi_cell(s, a)
    return out


def _binomial(poly: LaurentPoly, upper: tuple, lower: tuple,
              cfg: FieldConfig, cache: FamilyCache, what: str) -> Scalar:
    """poly, the interpolation polynomial of lower, at the spectral point
    of upper over its value at the point of lower."""
    num = poly.evaluate(_point("bar", upper, cfg, cache))
    den = poly.evaluate(_point("bar", lower, cfg, cache))
    if den.is_zero():
        raise DivisionByZero(f"{what} denominator vanished at index {lower}")
    return num / den


def binom(alpha: Sequence[int], beta: Sequence[int], cfg: FieldConfig,
          cache: FamilyCache, inverted: bool = False) -> Scalar:
    """G_beta at the spectral point of alpha over G_beta at its own
    point; inverted computes the coefficient at reciprocal q, t."""
    alpha = _validate_index(alpha)
    beta = _validate_index(beta)
    use = cfg.with_inverted() if inverted else cfg
    return cache.memo(("binom", use.cache_token(), alpha, beta),
                      lambda: _binomial(g_recursive(beta, use, cache), alpha,
                                        beta, use, cache, "binomial"))


def binom_sym(lam: Sequence[int], mu: Sequence[int], cfg: FieldConfig,
              cache: FamilyCache) -> Scalar:
    """Symmetric r-variant binomial coefficient on partition indices."""
    if cfg.variant != "r":
        raise UsageError("symmetric binomials are r-variant")
    lam = _validate_index(lam, partition=True)
    mu = _validate_index(mu, partition=True)
    return cache.memo(("binom-sym", cfg.cache_token(), lam, mu),
                      lambda: _binomial(r_sym(mu, cfg, cache), lam, mu, cfg,
                                        cache, "symmetric binomial"))
