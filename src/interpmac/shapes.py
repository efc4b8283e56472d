"""Compositions, integer vectors, permutations, diagram statistics, the
containment order, and spectral points in both coefficient fields.  The
point builders take a field config (variant.py), which calls them as its
`bar` and `base_point` methods."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import DimensionError, UsageError

if TYPE_CHECKING:
    from .variant import FieldConfig


def weight(v: Sequence[int]) -> int:
    return sum(v)


def is_composition(v: Sequence[int]) -> bool:
    return all(x >= 0 for x in v)


def is_partition(v: Sequence[int]) -> bool:
    return is_composition(v) and all(v[i] >= v[i + 1] for i in range(len(v) - 1))


class Permutation:
    """Permutation of {1..n} in one-line notation; w.apply(i) = w(i).

    Vectors transform by (w.act(v))_i = v_{w^{-1}(i)}: values move to the
    positions w prescribes.
    """

    __slots__ = ("word", "_inv")

    def __init__(self, word: Sequence[int]):
        word = tuple(word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise UsageError(f"not a permutation: {word}")
        self.word = word
        inv = [0] * len(word)
        for i, w in enumerate(word):
            inv[w - 1] = i + 1
        self._inv = tuple(inv)

    @staticmethod
    def longest(n: int) -> "Permutation":
        """w_o, sending i to n+1-i."""
        return Permutation(range(n, 0, -1))

    @property
    def n(self) -> int:
        return len(self.word)

    def apply(self, i: int) -> int:
        return self.word[i - 1]

    def inverse(self) -> "Permutation":
        return Permutation(self._inv)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(self*other)(i) = self(other(i))."""
        return Permutation(tuple(self.word[j - 1] for j in other.word))

    def act(self, v: Sequence) -> tuple:
        return tuple(v[self._inv[i] - 1] for i in range(len(v)))

    def reduced_word(self) -> list:
        """Indices i1..ik with self = s_{i1} * s_{i2} * ... * s_{ik}."""
        w = list(self.word)
        rev = []
        changed = True
        while changed:
            changed = False
            for i in range(len(w) - 1):
                if w[i] > w[i + 1]:
                    w[i], w[i + 1] = w[i + 1], w[i]
                    rev.append(i + 1)
                    changed = True
        return rev[::-1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"Permutation{self.word}"


def all_permutations(n: int) -> Iterator[Permutation]:
    import itertools
    for w in itertools.permutations(range(1, n + 1)):
        yield Permutation(w)


def dominant_sort(v: Sequence[int]) -> tuple:
    """(v_plus, w) with v_plus weakly decreasing, v = w.act(v_plus), and w
    the shortest such permutation (equal entries never cross)."""
    idx = sorted(range(len(v)), key=lambda i: (-v[i], i))
    vplus = tuple(v[i] for i in idx)
    w = Permutation(tuple(i + 1 for i in idx))
    return vplus, w


def sharp(v: Sequence[int]) -> tuple:
    """The rotated shift (v_n - 1, v_1, ..., v_{n-1})."""
    return (v[-1] - 1,) + tuple(v[:-1])


def enumerate_compositions(n: int, d: int) -> list:
    """All length-n compositions of weight <= d, graded-lex order
    (weight ascending, then lexicographically descending)."""
    if n < 1:
        raise UsageError("need n >= 1")
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(remaining, -1, -1):
            rec(prefix + (first,), remaining - first, slots - 1)

    for deg in range(d + 1):
        rec((), deg, n)
    return out


def partitions_upto(n: int, d: int) -> list:
    """Partitions with at most n parts and weight <= d, graded-lex order."""
    return [c for c in enumerate_compositions(n, d) if is_partition(c)]


def rearrangements(mu: Sequence[int]) -> list:
    """Distinct compositions with the same multiset of entries as mu."""
    import itertools
    return sorted(set(itertools.permutations(mu)),
                  key=lambda c: (weight(c), tuple(-x for x in c)))


@dataclass(frozen=True)
class CellStats:
    row: int
    col: int
    arm: int
    leg: int
    coarm: int
    coleg: int


def diagram_stats(alpha: Sequence[int]) -> list:
    """Arm/leg/coarm/coleg for every diagram cell, row-major order."""
    if not is_composition(alpha):
        raise UsageError(f"not a composition: {alpha}")
    n = len(alpha)
    out = []
    for i, (ai, coleg) in enumerate(zip(alpha, coleg_vector(alpha)), start=1):
        for j in range(1, ai + 1):
            arm = ai - j
            leg = (sum(1 for k in range(i + 1, n + 1) if j <= alpha[k - 1] <= ai)
                   + sum(1 for k in range(1, i) if j <= alpha[k - 1] + 1 <= ai))
            out.append(CellStats(i, j, arm, leg, j - 1, coleg))
    return out


def coleg_vector(alpha: Sequence[int]) -> tuple:
    """k_i = #{k<i : alpha_k >= alpha_i} + #{k>i : alpha_k > alpha_i}."""
    n = len(alpha)
    return tuple(
        sum(1 for k in range(i) if alpha[k] >= alpha[i])
        + sum(1 for k in range(i + 1, n) if alpha[k] > alpha[i])
        for i in range(n))


def contains(beta: Sequence[int], alpha: Sequence[int]) -> bool:
    """True iff alpha fits inside beta: with w = w_beta * w_alpha^{-1},
    alpha_i < beta_{w(i)} when i < w(i), alpha_i <= beta_{w(i)} otherwise."""
    if len(beta) != len(alpha):
        raise DimensionError(f"length mismatch: {len(alpha)} vs {len(beta)}")
    _, wb = dominant_sort(beta)
    _, wa = dominant_sort(alpha)
    w = wb * wa.inverse()
    for i in range(1, len(alpha) + 1):
        wi = w.apply(i)
        a, b = alpha[i - 1], beta[wi - 1]
        if i < wi:
            if not a < b:
                return False
        elif not a <= b:
            return False
    return True


@dataclass(frozen=True)
class SpectralPoint:
    coords: tuple

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def scale(self, c) -> "SpectralPoint":
        return SpectralPoint(tuple(x * c for x in self.coords))

    def shift(self, c) -> "SpectralPoint":
        return SpectralPoint(tuple(x + c for x in self.coords))


def tau_point(n: int, cfg: FieldConfig) -> SpectralPoint:
    """tau = (1, t^{-1}, ..., t^{1-n})."""
    return SpectralPoint(tuple(cfg.gen_power("t", 1 - j) for j in range(1, n + 1)))


def rho_point(n: int, cfg: FieldConfig) -> SpectralPoint:
    """rho = r*(0, -1, ..., 1-n)."""
    r = cfg.gen("r")
    return SpectralPoint(tuple(r * (1 - j) for j in range(1, n + 1)))


def spectral_qt(v: Sequence[int], cfg: FieldConfig) -> SpectralPoint:
    """v-bar with coordinates q^{v_i} (w_v tau)_i."""
    if cfg.variant != "qt":
        raise UsageError("spectral_qt needs a q,t field")
    _, w = dominant_sort(v)
    winv = w.inverse()
    coords = tuple(
        cfg.gen_power("q", v[i - 1]) * cfg.gen_power("t", 1 - winv.apply(i))
        for i in range(1, len(v) + 1))
    return SpectralPoint(coords)


def spectral_r(v: Sequence[int], cfg: FieldConfig) -> SpectralPoint:
    """v-bar(r) = v + w_v rho."""
    if cfg.variant != "r":
        raise UsageError("spectral_r needs an r field")
    _, w = dominant_sort(v)
    winv = w.inverse()
    r = cfg.gen("r")
    coords = tuple(
        cfg.scalar(v[i - 1]) + r * (1 - winv.apply(i))
        for i in range(1, len(v) + 1))
    return SpectralPoint(coords)


def reciprocal_point(p: SpectralPoint) -> SpectralPoint:
    return SpectralPoint(tuple(x.invert() for x in p.coords))
