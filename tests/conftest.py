"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from peakmod import (
    FamilySpec,
    LatticePath,
    double_descents,
    parse_path,
    peaks,
    weak_double_descents,
    weak_peaks,
)
from peakmod.core import DOWN, UP
from peakmod.statistics import PLAIN, PLAIN_STARRED, WEAK, WEAK_STARRED

K1 = FamilySpec(1)
K2 = FamilySpec(2)
K3 = FamilySpec(3)
MOTZKIN = FamilySpec(1, {1: 1})
SCHROEDER = FamilySpec(1, {2: 1})

# the worked big example: k = 2, down-size 10
EXAMPLE_BLOCK = "uuduuuuududd"
EXAMPLE_PATH_TEXT = EXAMPLE_BLOCK + "u" + EXAMPLE_BLOCK + "u" + "uud" + "d"


def oracle_grid():
    """(spec, length) pairs on which the brute-force oracle is checked.

    Pure and ballot families with k <= 3 and end height m <= 3 (down-size
    up to 6, 4, 3 for k = 1, 2, 3), and the level-bearing families with
    levels {1:1}, {2:1} or {1:2, 3:1}, k <= 2, end height 0..2 and length
    up to 7.  Some of the latter open with a level step.
    """
    for k, max_n in ((1, 6), (2, 4), (3, 3)):
        for m in range(4):
            for n in range(max_n + 1):
                yield FamilySpec(k, end_height=m), (k + 1) * n + m
    for levels in ({1: 1}, {2: 1}, {1: 2, 3: 1}):
        for k in (1, 2):
            for m in range(3):
                for length in range(8):
                    yield FamilySpec(k, levels, m), length


def block_tallies(path):
    """The statistic vector of each variant, tallied from the block lists;
    the non-starred variants drop the rightmost peak."""
    k = path.spec.k
    plain = (peaks(path), double_descents(path))
    weak = (weak_peaks(path), weak_double_descents(path))
    out = {}
    for variant, (pts, dds) in ((PLAIN, plain), (WEAK, weak),
                                (PLAIN_STARRED, plain), (WEAK_STARRED, weak)):
        if variant in (PLAIN, WEAK):
            pts = pts[:-1]
        pk = [0] * k
        for _, h in pts:
            pk[h % k] += 1
        out[variant] = tuple(pk) + (len(dds),)
    return out


def uniform_path(rng, k, n):
    """A uniformly random k-Dyck path of down-size n (cycle lemma): of the
    rotations of a shuffled word of kn+1 ups and n downs, the one after
    the last prefix minimum keeps every prefix positive; drop its first
    up."""
    word = ["u"] * (k * n + 1) + ["d"] * n
    rng.shuffle(word)
    h = low = cut = 0
    for i, step in enumerate(word):
        h += 1 if step == "u" else -k
        if h <= low:
            low, cut = h, i + 1
    return "".join((word[cut:] + word[:cut])[1:])


@pytest.fixture
def example_path() -> LatticePath:
    return parse_path(EXAMPLE_PATH_TEXT, K2)


def dyck(text: str, k: int = 2) -> LatticePath:
    return parse_path(text, FamilySpec(k))


@st.composite
def k_dyck_paths(draw, max_k: int = 3, max_n: int = 5) -> LatticePath:
    """A uniform-ish random valid k-Dyck path built by a feasible walk."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(0, max_n))
    ups, downs, h = k * n, n, 0
    steps = []
    while ups or downs:
        moves = []
        if ups:
            moves.append("u")
        if downs and h >= k:
            moves.append("d")
        move = draw(st.sampled_from(moves))
        if move == "u":
            steps.append(UP)
            ups -= 1
            h += 1
        else:
            steps.append(DOWN)
            downs -= 1
            h -= k
    return LatticePath(FamilySpec(k), tuple(steps))
