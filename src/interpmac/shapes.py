"""Compositions, integer vectors, permutations, diagram statistics and the
containment order.  Spectral points are built by the field configs
(variant.py)."""

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DimensionError, UsageError


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
