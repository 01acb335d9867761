"""Independent brute-force enumerator of Langford arrangements.

Ground truth for solution counts and sets: places each number's full chain
of k copies by choosing its start cell, numbers from n down to 1 (larger
numbers have fewer placements, so they prune faster). Deliberately shares
nothing with the propagation engine.
"""

from __future__ import annotations

SIZE_GUARD = 28

SYMMETRY_CHOICES = ("none", "first-less-last")

Arrangement = tuple  # k*n cells over values 1..n


def enumerate_bruteforce(k: int, n: int, symmetry: str = "none") -> list[Arrangement]:
    """All L(k, n) arrangements, lexicographically sorted.

    symmetry "first-less-last" keeps only arrangements whose first cell is
    smaller than the last, dropping one of each reflection pair.
    """
    if symmetry not in SYMMETRY_CHOICES:
        raise ValueError(f"unknown symmetry {symmetry!r}")
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    if k * n > SIZE_GUARD:
        raise ValueError(f"k*n = {k * n} exceeds the enumeration guard {SIZE_GUARD}")

    kn = k * n
    cells = [0] * kn
    found: list[Arrangement] = []

    def place(m: int) -> None:
        if m == 0:
            found.append(tuple(cells))
            return
        gap = m + 1
        span = (k - 1) * gap
        for start in range(kn - span):
            positions = range(start, start + span + 1, gap)
            if all(cells[i] == 0 for i in positions):
                for i in positions:
                    cells[i] = m
                place(m - 1)
                for i in positions:
                    cells[i] = 0

    place(n)
    if symmetry == "first-less-last":
        found = [a for a in found if a[0] < a[-1]]
    found.sort()
    return found
