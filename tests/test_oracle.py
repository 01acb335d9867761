from __future__ import annotations

import pytest

from langford.oracle import SIZE_GUARD, enumerate_bruteforce


def chain_gaps_ok(arr, k):
    n = max(arr)
    for m in range(1, n + 1):
        positions = [i for i, v in enumerate(arr) if v == m]
        if len(positions) != k:
            return False
        if any(b - a != m + 1 for a, b in zip(positions, positions[1:])):
            return False
    return True


def test_2_3_exact_sets():
    assert enumerate_bruteforce(2, 3, "none") == [
        (2, 3, 1, 2, 1, 3),
        (3, 1, 2, 1, 3, 2),
    ]
    assert enumerate_bruteforce(2, 3, "first-less-last") == [(2, 3, 1, 2, 1, 3)]


def test_2_5_empty():
    assert enumerate_bruteforce(2, 5, "none") == []


def test_counts_k2():
    counts = [len(enumerate_bruteforce(2, n, "first-less-last")) for n in range(3, 9)]
    assert counts == [1, 1, 0, 0, 26, 150]


def test_counts_none_doubles():
    assert [len(enumerate_bruteforce(2, n, "none")) for n in range(3, 5)] == [2, 2]


def test_chain_too_long():
    assert enumerate_bruteforce(5, 2, "none") == []


def test_guard_rejected():
    with pytest.raises(ValueError):
        enumerate_bruteforce(2, (SIZE_GUARD // 2) + 1)
    with pytest.raises(ValueError):
        enumerate_bruteforce(1, 3)


def test_emitted_arrangements_satisfy_invariants():
    for k, n in [(2, 7), (3, 9), (4, 7)]:
        for arr in enumerate_bruteforce(k, n, "none"):
            assert len(arr) == k * n
            assert chain_gaps_ok(arr, k)


def test_lexicographic_order():
    arrs = enumerate_bruteforce(2, 7, "none")
    assert arrs == sorted(arrs)


def test_filtered_halves_are_reflections():
    for k, n in [(2, 4), (2, 7), (3, 9)]:
        everything = set(enumerate_bruteforce(k, n, "none"))
        kept = set(enumerate_bruteforce(k, n, "first-less-last"))
        dropped = everything - kept
        assert {tuple(reversed(a)) for a in kept} == dropped
        assert len(everything) == 2 * len(kept)


def test_unknown_symmetry_rejected():
    with pytest.raises(ValueError):
        enumerate_bruteforce(2, 3, "mirror")
