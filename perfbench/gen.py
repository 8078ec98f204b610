"""Seeded inputs for the benchmark: random k-Dyck paths, chains, trees.

Everything here is derived from a ``random.Random`` built from the seed
the benchmark is given, so one seed always yields the same inputs.  Paths
are strings over ``u``/``d``; trees are JSON text in the form the
``peakmod map psi-inv`` command reads (position keys ``"1".."k+1"``).
All builders are iterative, so depth is never limited by the interpreter.
"""

from __future__ import annotations

import random


def uniform_path(rng: random.Random, k: int, n: int) -> str:
    """A uniformly random k-Dyck path of down-size n (cycle lemma).

    Shuffle k*n+1 ups and n downs; the word sums to +1, so exactly one
    rotation has every prefix sum positive: the one starting right after
    the last prefix minimum.  Dropping its leading up leaves a k-Dyck path,
    and each path arises from exactly k*n+n+1 shuffles.
    """
    word = ["u"] * (k * n + 1) + ["d"] * n
    rng.shuffle(word)
    h = low = cut = 0
    for i, s in enumerate(word):
        h += 1 if s == "u" else -k
        if h <= low:
            low, cut = h, i + 1
    rotated = word[cut:] + word[:cut]
    return "".join(rotated[1:])


def chain_path(k: int, n: int) -> str:
    """u^(kn) d^n: its tree under psi is a chain of n nodes."""
    return "u" * (k * n) + "d" * n


def near_chain_path(rng: random.Random, k: int, n: int) -> str:
    """A chain of down-size n - n//8 with a random path of down-size n//8
    spliced into the middle of its up-run (a fixed place, since where the
    block sits changes the cost of the maps far more than its shape)."""
    m = n // 8
    base = k * (n - m)
    return ("u" * (base // 2) + uniform_path(rng, k, m)
            + "u" * (base - base // 2) + "d" * (n - m))


# ---------------------------------------------------------------------------
# trees, via Lukasiewicz words: preorder of the full (k+1)-ary tree whose
# internal nodes ("I") are the positional tree's nodes and whose leaves ("L")
# are its empty slots
# ---------------------------------------------------------------------------

def path_word(path: str) -> str:
    """The tree word of a k-Dyck path: read it backwards with d -> I and
    u -> L, then close with one L.  A bijection onto trees with as many
    nodes as the path has downs, so uniform paths give uniform trees."""
    return "".join("I" if s == "d" else "L" for s in reversed(path)) + "L"


def chain_word(rng: random.Random, k: int, depth: int,
               bottom: str | None = None) -> str:
    """A chain of ``depth`` nodes, each child in a random slot; the last
    node is replaced by the complete tree word ``bottom`` when given."""
    m = k + 1
    slots = [rng.randrange(m) for _ in range(depth - 1)]
    down = "".join("I" + "L" * s for s in slots)
    up = "".join("L" * (m - 1 - s) for s in reversed(slots))
    return down + (bottom or "I" + "L" * m) + up


def word_to_json(word: str, k: int) -> str:
    """Compact JSON text of the positional tree encoded by ``word``."""
    m = k + 1
    out: list[str] = []
    stack: list[list[int]] = []  # [next slot, children emitted]
    for c in word:
        if stack:
            top = stack[-1]
            slot = top[0]
            top[0] += 1
            if c == "I":
                out.append(f'{"," if top[1] else ""}"{slot + 1}":')
                top[1] += 1
        if c == "I":
            out.append("{")
            stack.append([0, 0])
        while stack and stack[-1][0] == m:
            stack.pop()
            out.append("}")
    if stack:
        raise ValueError("incomplete tree word")
    return "".join(out) if out else "null"
