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

The oracle G, R, Gprime, Rprime and O are each the unique polynomial
of degree <= |index| with prescribed values at spectral points, built
by one dense solve: its matrix A is factored once per field as PA = LU
by Gaussian elimination in field arithmetic, with first-nonzero
pivoting.  Forward and back substitution compute each unknown as one
weighted sum reduced once.  The factorization is memoized; degree,
vanishing and normalization of all but O are re-checked after
construction.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Callable, Optional, Sequence

from .errors import DivisionByZero, SpecializationCollision, UsageError
# The recursion's operators run through the field config; `hecke` stays a
# name of this module because perfbench/test_perfbench.py checks that the
# tracer patches it here as well.
from .operators import hecke  # noqa: F401
from .polyring import LaurentPoly, negate_shift_all
from .scalars import Scalar, _common_gens, dumps_canonical, linear_combination
from .shapes import (diagram_stats, enumerate_compositions, is_composition,
                     is_partition, partitions_upto, rearrangements, sharp,
                     weight)
from .variant import FieldConfig


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Elimination:
    """PA = LU of a square matrix A, kept to solve A x = b for any b.

    Row i of PA is row perm[i] of A.  lower[i] holds the weights -L[i][j]
    for j < i, with every later row interchange already applied, and
    upper[i] is (1 / U[i][i], -U[i][c] / U[i][i] for c > i), the weights
    of back substitution; gens is the union of the generators of the
    matrix entries."""
    gens: tuple
    perm: tuple
    lower: tuple
    upper: tuple

    def solve(self, b: Sequence[Scalar]) -> list:
        """x with A x = b, on the union of the generators of b and of the
        matrix: forward substitution y[i] = b[perm[i]] + lower[i] . y[:i],
        then back substitution x[i] = upper[i] . (y[i], x[i+1:]), each
        unknown one sum reduced once."""
        gens = _common_gens(b, self.gens)
        one = (Scalar.one(gens),)
        y: list = []
        for p, weights in zip(self.perm, self.lower):
            y.append(_reduced_sum([b[p]] + y, one + weights, gens))
        x: list = []
        for yi, weights in zip(reversed(y), reversed(self.upper)):
            x.insert(0, _reduced_sum([yi] + x, weights, gens))
        return x


def _reduced_sum(values: Sequence[Scalar], weights: Sequence[Scalar],
                 gens: tuple) -> Scalar:
    """sum_j values[j] * weights[j] on gens, reduced once; a term with a
    zero factor is left out."""
    used = [(v, w) for v, w in zip(values, weights)
            if not v.is_zero() and not w.is_zero()]
    total = linear_combination([v for v, _ in used],
                               [{0: w} for _, w in used], gens).get(0)
    return Scalar.zero(gens) if total is None else total.reduced()


def factor_square(rows: Sequence[Sequence[Scalar]],
                  context: str = "linear system") -> Elimination:
    """PA = LU of the square matrix rows over its field, by right-looking
    Gaussian elimination in Scalar arithmetic: at step c the pivot is the
    first nonzero entry at or below the diagonal in column c of the
    updated matrix.  Its row is swapped into row c together with perm and
    the rows of L so far, and each row r below adds -L[r][c] times the
    pivot row.  Raises SpecializationCollision when the matrix is
    singular."""
    m = len(rows)
    gens = _common_gens(v for row in rows for v in row)
    a = [list(row) for row in rows]
    perm, lower, upper = list(range(m)), [()] * m, []
    for c in range(m):
        pivot = next((r for r in range(c, m) if not a[r][c].is_zero()), None)
        if pivot is None:
            raise SpecializationCollision(f"singular system in {context}")
        for v in (perm, lower, a):
            v[c], v[pivot] = v[pivot], v[c]
        inv = a[c][c].invert()
        upper.append((inv,) + tuple(-u * inv for u in a[c][c + 1:]))
        for r in range(c + 1, m):
            lower[r] += (-a[r][c] * inv,)
            if not a[r][c].is_zero():
                a[r][c + 1:] = [v + lower[r][c] * u
                                for v, u in zip(a[r][c + 1:], a[c][c + 1:])]
    return Elimination(gens, tuple(perm), tuple(lower), tuple(upper))


def solve_square(rows: Sequence[Sequence[Scalar]],
                 rhs_cols: Sequence[Sequence[Scalar]],
                 context: str = "linear system") -> list:
    """Solve A x = b for every right-hand column: the matrix is
    factored once (`factor_square`) and each column solved by forward
    and back substitution (`Elimination.solve`).  Raises
    SpecializationCollision when the matrix is singular."""
    elim = factor_square(rows, context)
    return [elim.solve(col) for col in rhs_cols]


def invert_matrix(rows: Sequence[Sequence[Scalar]], context: str) -> list:
    """Columns of the inverse matrix.  No construction of the package
    needs the inverse; interpolation systems are factored and solved
    per right-hand side."""
    m = len(rows)
    some = rows[0][0]
    one, zero = Scalar.one(some.gens), Scalar.zero(some.gens)
    return solve_square(rows, [[one if i == j else zero for i in range(m)]
                               for j in range(m)], context)


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


# Version of the disk-cache format.  Raise it whenever what a stored key
# stands for or how its polynomial is written changes: files of another
# version are then neither found nor read as current, but rebuilt.
CACHE_SCHEMA = 2


class FamilyCache:
    """Memo for constructed polynomials and factored point systems.

    Polynomials are additionally persisted to disk when a directory is
    configured (one JSON file per family key and CACHE_SCHEMA,
    content-addressed).  Files are replaced atomically, so concurrent
    writers of one key leave one whole file; an unreadable file, or one
    stored under another key or schema, is rebuilt and rewritten."""

    def __init__(self, disk_dir: Optional[str] = None):
        self._mem: dict = {}
        self.disk_dir = Path(disk_dir) if disk_dir else None
        if self.disk_dir:
            try:
                self.disk_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"cannot use cache directory {disk_dir}: "
                                 f"{exc.strerror}") from exc

    def memo(self, key: tuple, thunk: Callable):
        got = self._mem.get(key)
        if got is None:
            got = self._mem[key] = thunk()
        return got

    # -- disk layer (polynomials only) -------------------------------------

    def _path(self, fk: FamilyKey) -> Path:
        digest = hashlib.sha256(
            dumps_canonical(fk.describe()).encode()).hexdigest()
        return self.disk_dir / f"v{CACHE_SCHEMA}-{digest}.json"

    def _read(self, fk: FamilyKey) -> Optional[LaurentPoly]:
        """The stored polynomial, or None without a readable file that
        holds exactly this key under the current schema, with a
        polynomial in len(index) variables."""
        try:
            data = json.loads(self._path(fk).read_text())
            if data["schema"] == CACHE_SCHEMA and data["key"] == fk.describe():
                poly = LaurentPoly.from_json(data["poly"])
                if poly.n == len(fk.index):
                    return poly
        except (OSError, ValueError, LookupError, TypeError, AttributeError,
                ArithmeticError):
            pass
        return None

    def _write(self, fk: FamilyKey, poly: LaurentPoly):
        path = self._path(fk)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(dumps_canonical({"schema": CACHE_SCHEMA,
                                            "key": fk.describe(),
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


def _writer_running(tmp: Path) -> bool:
    """Whether the process named in a temporary file's name
    (<file>.<pid>.tmp, see FamilyCache._write) may still be writing it."""
    try:
        pid = int(tmp.name.split(".")[-2])
        if pid <= 0:
            return False
        os.kill(pid, 0)
    except (ValueError, IndexError, OverflowError, ProcessLookupError):
        return False
    except PermissionError:
        return True  # the process exists but belongs to another user
    return True


def disk_cache_files(disk_dir: Path) -> tuple:
    """(current, stale) files of a disk cache directory, sorted: the
    polynomial files of CACHE_SCHEMA, and the files that are never read
    again, namely polynomial files of another schema and temporary files
    whose writer is no longer running; none when disk_dir does not exist,
    and a UsageError when it is not a directory."""
    if not disk_dir.is_dir():
        if disk_dir.exists():
            raise UsageError(f"cannot use cache directory {disk_dir}: "
                             f"Not a directory")
        return [], []
    prefix = f"v{CACHE_SCHEMA}-"
    current, stale = [], []
    for f in sorted(disk_dir.glob("*.json")):
        (current if f.name.startswith(prefix) else stale).append(f)
    stale += [f for f in sorted(disk_dir.glob("*.tmp"))
              if not _writer_running(f)]
    return current, stale


# ---------------------------------------------------------------------------
# interpolation systems: point kind, basis, matrix, solve, re-check
# ---------------------------------------------------------------------------

def _point(kind: str, v: tuple, cfg: FieldConfig, cache: FamilyCache) -> tuple:
    """The point of index v; kind names a point method of the field
    config (bar, tilde, bar_inv)."""
    return cache.memo(("pt", kind, cfg.cache_token(), v),
                      lambda: getattr(cfg, kind)(v))


def _basis(n: int, deg: int, symmetric: bool) -> tuple:
    """(indices, groups) of the basis of degree <= deg: one monomial x^e
    per composition, or with symmetric the monomial symmetric polynomial
    of each partition, its group being the partition's rearrangements."""
    if symmetric:
        indices = partitions_upto(n, deg)
        return indices, [rearrangements(mu) for mu in indices]
    indices = enumerate_compositions(n, deg)
    return indices, [(e,) for e in indices]


def monomial_matrix(indices: Sequence[tuple], groups: Sequence[Sequence[tuple]],
                    kind: str, cfg: FieldConfig, cache: FamilyCache) -> list:
    """One row per index v: entry j is the basis polynomial of groups[j],
    the sum of x^e over its exponents e, at the kind point of v."""
    one = cfg.one()
    basis = [LaurentPoly(len(group[0]), {e: one for e in group}, _clean=True)
             for group in groups]
    points = [_point(kind, v, cfg, cache) for v in indices]
    return [[f.evaluate(point) for f in basis] for point in points]


def mono_sym(n: int, mu: tuple, one: Scalar) -> LaurentPoly:
    """Monomial symmetric polynomial m_mu in n variables."""
    return LaurentPoly(n, {e: one for e in rearrangements(mu)}, _clean=True)


def _system(kind: str, n: int, deg: int, cfg: FieldConfig, cache: FamilyCache,
            symmetric: bool) -> tuple:
    """(indices, groups, elimination) of the basis of degree <= deg
    evaluated at the kind points of its indices: the matrix is factored
    as PA = LU once per field and memoized, and every right-hand side of
    the system is solved with that one factorization."""
    token = cfg.cache_token()

    def build():
        indices, groups = _basis(n, deg, symmetric)
        rows = monomial_matrix(indices, groups, kind, cfg, cache)
        ctx = (f"{'symmetric ' if symmetric else ''}{kind} interpolation, "
               f"n={n} degree {deg}, field {token}")
        return indices, groups, factor_square(rows, ctx)

    return cache.memo(("inv", kind, symmetric, token, n, deg), build)


def _solve(kind: str, n: int, deg: int, cfg: FieldConfig, cache: FamilyCache,
           symmetric: bool, rhs: Callable) -> tuple:
    """(indices, p): p of degree <= deg in the (symmetric) monomial basis
    with p = rhs(beta) at the kind point of every index beta, by forward
    and back substitution of those values through the memoized PA = LU
    of the system.
    The basis elements of distinct indices share no monomial, so p is
    one term dict."""
    indices, groups, elim = _system(kind, n, deg, cfg, cache, symmetric)
    coeffs = elim.solve([rhs(beta) for beta in indices])
    return indices, LaurentPoly(n, {e: c for c, group in zip(coeffs, groups)
                                    if not c.is_zero() for e in group},
                                _clean=True)


def _recheck(poly: LaurentPoly, index: tuple, kind: str, indices: list,
             cfg: FieldConfig, cache: FamilyCache) -> LaurentPoly:
    """The defining conditions, re-verified on a freshly built polynomial:
    degree <= |index|, a zero at the kind point of every other index of
    its system, and coefficient 1 at x^index."""
    if poly.total_degree() > weight(index):
        raise SpecializationCollision(
            f"degree bound violated for index {index}")
    for beta in indices:
        if beta != index and not poly.evaluate(
                _point(kind, beta, cfg, cache)).is_zero():
            raise SpecializationCollision(
                f"{kind} vanishing failed at {beta} for index {index}")
    if poly.coefficient(index, cfg.zero()) != cfg.one():
        raise SpecializationCollision(
            f"normalization failed for index {index}")
    return poly


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


def g_recursive(alpha: Sequence[int], cfg: FieldConfig,
                cache: FamilyCache) -> LaurentPoly:
    """Interpolation polynomial for alpha via the raising/exchange
    recursion (memoized; the construction used by default)."""
    alpha = _validate_index(alpha)
    n = len(alpha)
    fk = FamilyKey("G", cfg.variant, alpha, cfg.cache_token())

    def build():
        if not any(alpha):
            return LaurentPoly.constant(n, cfg.one())
        if alpha[-1] > 0:
            return cfg.raise_step(g_recursive(sharp(alpha), cfg, cache), alpha)
        i = max(j for j in range(1, n) if alpha[j - 1] > alpha[j])
        swapped = list(alpha)
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        sub = g_recursive(tuple(swapped), cfg, cache)
        d = cfg.exchange_den(cfg.bar(alpha), i)
        if d.is_zero():
            raise SpecializationCollision(
                f"exchange denominator vanished at index {alpha}, i={i}")
        return cfg.exchange_op(i, sub) + sub.scale(cfg.exchange_num() / d)

    return cache.poly(fk, build)


def _normalized_interpolant(index: tuple, cfg: FieldConfig,
                            cache: FamilyCache, symmetric: bool) -> LaurentPoly:
    """The polynomial of degree <= |index| in the (symmetric) monomial
    basis that vanishes at the spectral points of every other index of
    that degree and has coefficient 1 at x^index."""
    one, zero = cfg.one(), cfg.zero()
    indices, p = _solve("bar", len(index), weight(index), cfg, cache,
                        symmetric, lambda beta: one if beta == index else zero)
    lead = p.coefficient(index, zero)
    if lead.is_zero():
        raise SpecializationCollision(
            f"normalization impossible for index {index}")
    return _recheck(p.scale(lead.invert()), index, "bar", indices, cfg, cache)


def _primed(index: tuple, top: LaurentPoly, cfg: FieldConfig,
            cache: FamilyCache, symmetric: bool) -> LaurentPoly:
    """top plus the lower-degree part, in the (symmetric) monomial basis,
    that makes it vanish at the tilde points of every smaller degree."""
    deg = weight(index)
    if deg == 0:
        return top
    indices, low = _solve(
        "tilde", len(index), deg - 1, cfg, cache, symmetric,
        lambda beta: -top.evaluate(_point("tilde", beta, cfg, cache)))
    return _recheck(top + low, index, "tilde", indices, cfg, cache)


def g_oracle(alpha: Sequence[int], cfg: FieldConfig,
             cache: FamilyCache) -> LaurentPoly:
    """Interpolation polynomial for alpha built directly from its
    vanishing conditions by an exact linear solve; independent of the
    recursion and used to cross-check it."""
    alpha = _validate_index(alpha)
    fk = FamilyKey("G-oracle", cfg.variant, alpha, cfg.cache_token())
    return cache.poly(fk, lambda: _normalized_interpolant(
        alpha, cfg, cache, symmetric=False))


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
        raise UsageError("family Gplus exists in the r variant only")
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
    return cache.poly(fk, lambda: _normalized_interpolant(
        lam, cfg, cache, symmetric=True))


def rprime(lam: Sequence[int], cfg: FieldConfig,
           cache: FamilyCache) -> LaurentPoly:
    """Symmetric polynomial with the top part of R, vanishing on the
    tilde points of smaller degree."""
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
    field element (symbolic generator or exact rational).

    Built by the dense solve on the `cfg.o_kind` points, with
    `okounkov_value` as the right-hand side.  The factorization raises
    SpecializationCollision unless the system is nonsingular, which
    makes O the unique interpolant."""
    alpha = _validate_index(alpha)
    _, o = _solve(cfg.o_kind, len(alpha), weight(alpha), cfg, cache, False,
                  lambda beta: okounkov_value(alpha, beta, cfg, a, cache))
    return o


def okounkov_ratio_parts(alpha: tuple, beta: tuple, cfg: FieldConfig,
                         a: Scalar, cache: FamilyCache) -> tuple:
    """(num, den) of the prescribed ratio at beta: G_beta at the
    a-shifted (or a-scaled) tilde point of alpha, as an unreduced
    Quotient, and at the base point, as a Scalar.  Kept apart so that
    denominators stay free of a.  The base value does not depend on
    alpha and is memoized."""
    g = g_recursive(beta, cfg, cache)
    t_alpha = _point("tilde", alpha, cfg, cache)
    den = cache.memo(
        ("oko-den", cfg.cache_token(), a.gens, a, beta),
        lambda: g.evaluate(cfg.act(_point("bar", (0,) * len(alpha), cfg,
                                          cache), a)))
    return g.evaluate_unreduced(cfg.act(t_alpha, a)), den


def okounkov_value(alpha: tuple, beta: tuple, cfg: FieldConfig, a: Scalar,
                   cache: FamilyCache) -> Scalar:
    """The prescribed ratio at beta as a single field element."""
    num, den = okounkov_ratio_parts(alpha, beta, cfg, a, cache)
    if den.is_zero():
        raise SpecializationCollision(
            f"base evaluation of index {beta} vanished at a={a}")
    return num.reduced() / den


# ---------------------------------------------------------------------------
# closed-form scalars and binomial coefficients
# ---------------------------------------------------------------------------

def closed_d(alpha: Sequence[int], cfg: FieldConfig) -> Scalar:
    """Product over diagram cells of the (arm, leg) hook factor."""
    alpha = _validate_index(alpha)
    return prod(map(cfg.d_cell, diagram_stats(alpha)), start=cfg.one())


def closed_e(alpha: Sequence[int], cfg: FieldConfig) -> Scalar:
    """Product over diagram cells of the (coarm, coleg) cofactor."""
    alpha = _validate_index(alpha)
    return prod((cfg.e_cell(s, len(alpha)) for s in diagram_stats(alpha)),
                start=cfg.one())


def closed_phi(alpha: Sequence[int], cfg: FieldConfig, a) -> Scalar:
    """Product over diagram cells of the evaluation factor in a."""
    alpha = _validate_index(alpha)
    if not isinstance(a, Scalar):
        a = Scalar.from_fraction(Fraction(a))
    return prod((cfg.phi_cell(s, a) for s in diagram_stats(alpha)),
                start=cfg.one() * Scalar.one(a.gens))


def _binomial(poly: LaurentPoly, upper: tuple, lower: tuple,
              cfg: FieldConfig, cache: FamilyCache, what: str) -> Scalar:
    """poly, the interpolation polynomial of lower, at the spectral point
    of upper over its value at the point of lower; what names the family
    and keys that value in the cache, shared by every upper index."""
    num = poly.evaluate(_point("bar", upper, cfg, cache))
    den = cache.memo(("own-value", what, cfg.cache_token(), lower),
                     lambda: poly.evaluate(_point("bar", lower, cfg, cache)))
    if den.is_zero():
        raise DivisionByZero(f"{what} denominator vanished at index {lower}")
    return num / den


def binom(alpha: Sequence[int], beta: Sequence[int], cfg: FieldConfig,
          cache: FamilyCache) -> Scalar:
    """G_beta at the spectral point of alpha over G_beta at its own
    point; cfg.with_inverted() gives the coefficient at reciprocal q, t."""
    alpha = _validate_index(alpha)
    beta = _validate_index(beta)
    return cache.memo(("binom", cfg.cache_token(), alpha, beta),
                      lambda: _binomial(g_recursive(beta, cfg, cache), alpha,
                                        beta, cfg, cache, "binomial"))


def binom_sym(lam: Sequence[int], mu: Sequence[int], cfg: FieldConfig,
              cache: FamilyCache) -> Scalar:
    """R_mu at the spectral point of lam over R_mu at its own point, on
    partition indices."""
    lam = _validate_index(lam, partition=True)
    mu = _validate_index(mu, partition=True)
    return cache.memo(("binom-sym", cfg.cache_token(), lam, mu),
                      lambda: _binomial(r_sym(mu, cfg, cache), lam, mu, cfg,
                                        cache, "symmetric binomial"))
