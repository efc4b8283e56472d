import random
from math import comb

import pytest

from interpmac.errors import DimensionError
from interpmac.shapes import (CellStats, Permutation, coleg_vector, contains,
                              diagram_stats, dominant_sort,
                              enumerate_compositions, partitions_upto,
                              rearrangements, sharp, spectral_qt, spectral_r,
                              tau_point)
from interpmac.variant import qt_config, r_config

QT = qt_config()
R = r_config()


def _inversions(w: Permutation) -> int:
    """Coxeter length of w: the number of inversions of its word."""
    v = w.word
    return sum(1 for i in range(len(v)) for j in range(i + 1, len(v))
               if v[i] > v[j])


def test_enumerate_compositions_examples():
    assert enumerate_compositions(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert len(enumerate_compositions(2, 2)) == 6
    assert enumerate_compositions(1, 3) == [(0,), (1,), (2,), (3,)]


@pytest.mark.parametrize("n,d", [(1, 5), (2, 4), (3, 3), (4, 2)])
def test_enumerate_compositions_count(n, d):
    comps = enumerate_compositions(n, d)
    assert len(comps) == comb(n + d, n)
    assert len(set(comps)) == len(comps)


def test_dominant_sort_examples():
    assert dominant_sort((2, 2)) == ((2, 2), Permutation((1, 2)))
    assert dominant_sort((0, 1)) == ((1, 0), Permutation((2, 1)))
    assert dominant_sort((1, 0, 1)) == ((1, 1, 0), Permutation((1, 3, 2)))


def test_dominant_sort_exhaustive_minimality():
    # w_v is the unique shortest w with w^{-1}(v) dominant
    import itertools
    for v in [(0, 1), (1, 0, 1), (2, 0, 2), (1, 1, 0)]:
        vplus, w = dominant_sort(v)
        assert w.act(vplus) == tuple(v)
        for u in itertools.permutations(range(1, len(v) + 1)):
            perm = Permutation(u)
            if perm.act(vplus) == tuple(v) and perm != w:
                assert _inversions(perm) > _inversions(w), (v, u)


def test_dominant_sort_random():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        vplus, w = dominant_sort(v)
        assert sorted(vplus, reverse=True) == list(vplus)
        assert w.act(vplus) == v
        if list(v) == sorted(v, reverse=True):
            assert w == Permutation(range(1, n + 1))


def test_permutation_basics():
    w = Permutation((2, 3, 1))
    assert (w.inverse() * w).word == (1, 2, 3)
    assert (w * w.inverse()).word == (1, 2, 3)
    word = w.reduced_word()
    assert len(word) == _inversions(w)
    simple = {1: Permutation((2, 1, 3)), 2: Permutation((1, 3, 2))}
    acc = Permutation((1, 2, 3))
    for i in word:
        acc = acc * simple[i]
    assert acc == w


def test_permutation_action_convention():
    # values move to the positions w prescribes: (w v)_i = v_{w^{-1}(i)}
    w = Permutation((2, 1, 3))
    assert w.act((10, 20, 30)) == (20, 10, 30)
    u = Permutation((2, 3, 1))
    v = (7, 8, 9)
    assert (u * w).act(v) == u.act(w.act(v))


def test_sharp():
    assert sharp((0, 1)) == (0, 0)
    assert sharp((2, 1, 3)) == (2, 2, 1)


def test_diagram_stats_examples():
    assert diagram_stats((0,) * 3) == []
    assert diagram_stats((0, 1)) == [CellStats(2, 1, 0, 1, 0, 0)]
    cells = diagram_stats((2, 1))
    assert [(c.arm, c.leg, c.coarm, c.coleg) for c in cells] == \
        [(1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert [(c.row, c.col) for c in cells] == [(1, 1), (1, 2), (2, 1)]


def test_contains_examples():
    assert contains((0, 1), (0, 1))
    assert contains((0, 2), (0, 1))
    assert not contains((0, 1), (1, 0))
    with pytest.raises(DimensionError):
        contains((1, 2, 3), (1, 2))


def test_contains_padding_on_partitions():
    # on partitions the order is entrywise
    assert contains((3, 1, 0), (2, 1, 0))
    assert not contains((2, 2, 0), (3, 0, 0))


def test_spectral_qt_examples():
    assert spectral_qt((0, 0), QT).coords == tau_point(2, QT).coords
    tinv = QT.gen_power("t", -1)
    q = QT.gen("q")
    assert spectral_qt((0, 1), QT).coords == (tinv, q)
    assert spectral_qt((1, 0), QT).coords == (q, tinv)


def test_spectral_closed_form():
    for alpha in enumerate_compositions(3, 3):
        pt = spectral_qt(alpha, QT)
        ks = coleg_vector(alpha)
        for i in range(3):
            assert pt[i] == QT.gen_power("q", alpha[i]) * \
                QT.gen_power("t", -ks[i])


def test_spectral_r_examples():
    r = R.gen("r")
    assert spectral_r((0, 0), R).coords == (R.zero(), -r)
    assert spectral_r((0, 1), R).coords == (-r, R.one())
    assert spectral_r((1, 0), R).coords == (R.one(), -r)


def test_tilde_examples():
    assert QT.tilde((0, 0)).coords == tau_point(2, QT).coords
    assert R.tilde((1, 0)).coords == (R.zero(), -R.one() - R.gen("r"))
    assert QT.tilde((3,)).coords == (QT.gen_power("q", -3),)


def test_spectral_injectivity_at_default_specialization():
    cfg = qt_config(2, 3)
    for n, d in [(2, 4), (3, 3)]:
        seen = {}
        for beta in enumerate_compositions(n, d):
            key = tuple(c.as_fraction() for c in spectral_qt(beta, cfg))
            assert key not in seen, (beta, seen[key])
            seen[key] = beta


def test_partitions_and_rearrangements():
    assert partitions_upto(2, 2) == [(0, 0), (1, 0), (2, 0), (1, 1)]
    assert rearrangements((2, 1, 1)) == [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
