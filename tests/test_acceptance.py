"""Acceptance suite.

Each criterion runs as one test and prints one pass/fail line (visible
with ``pytest -s``, and mirrored by the -v test status). Computed
summaries are cached at module scope so the large polygons are only
dissected once per session.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import (
    crossing_free, float_clusters, lengths, lies_on, rotate_segments, shuffled_rows, split_all,
)
from polydissect import (
    DEFAULT_FUZZ,
    CountSummary,
    PolygonSpec,
    base_segments,
    build_graph,
    count_vertices,
    counts,
    enumerate_faces,
    orbit_census,
    render_svg,
    split_all_fast,
)
from polydissect.geom import close_pairs
from polydissect.reference import reference_table

REFERENCE = {r.n: r for r in reference_table()}

# per-ray tile counts as printed beneath the figures for N = 6..28
CAPTION_PER_RAY = {3: 1, 4: 3, 5: 5, 6: 12, 7: 16, 8: 31,
                   9: 35, 10: 64, 11: 73, 12: 115, 13: 127, 14: 188}

_cache: dict[int, CountSummary] = {}


def summary_for(n: int) -> CountSummary:
    if n not in _cache:
        _cache[n] = counts(PolygonSpec(n))
    return _cache[n]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    rows = [(n, summary_for(n)) for n in range(2, 15)]
    elapsed = time.perf_counter() - start
    bad = [(n, s.E, s.F) for n, s in rows
           if (s.E, s.F) != (REFERENCE[n].E, REFERENCE[n].F)]
    ok = not bad and elapsed < 10.0
    report("1", ok, f"13 rows N=4..28, exact integers, {elapsed:.2f}s of 10s")
    assert not bad, f"count mismatches: {bad}"
    assert elapsed < 10.0


def test_criterion_2_table2_reproduction():
    start = time.perf_counter()
    rows = [(n, summary_for(n)) for n in range(15, 25)]
    elapsed = time.perf_counter() - start
    bad = [(n, s.E, s.F) for n, s in rows
           if (s.E, s.F) != (REFERENCE[n].E, REFERENCE[n].F)]
    ok = not bad and elapsed < 120.0
    report("2", ok, f"10 rows N=30..48, exact integers, {elapsed:.2f}s of 120s")
    assert not bad, f"count mismatches: {bad}"
    assert elapsed < 120.0


def test_criterion_2_stretch_full_range():
    start = time.perf_counter()
    rows = [(n, summary_for(n)) for n in range(25, 40)]
    elapsed = time.perf_counter() - start
    bad = [(n, s.E, s.F) for n, s in rows
           if (s.E, s.F) != (REFERENCE[n].E, REFERENCE[n].F)]
    ok = not bad and elapsed < 900.0
    report("2-stretch", ok, f"15 rows N=50..78, exact integers, {elapsed:.2f}s of 900s")
    assert not bad, f"count mismatches: {bad}"
    assert elapsed < 900.0


def test_criterion_3_face_oracle_equivalence():
    bad = []
    for n in range(2, 13):
        split = split_all_fast(base_segments(PolygonSpec(n)))
        graph = build_graph(split)
        inner = sum(1 for f in enumerate_faces(graph) if not f.is_outer)
        euler = 1 + len(split) - len(graph.vertices)
        if inner != euler:
            bad.append((n, inner, euler))
    report("3", not bad, "traversal face count == 1 + E - V for n = 2..12")
    assert not bad, f"oracle disagreements: {bad}"


def test_criterion_4_orbit_decomposition():
    bad = []
    for n in range(3, 15):
        spec = PolygonSpec(n)
        split = split_all_fast(base_segments(spec))
        census = orbit_census(enumerate_faces(build_graph(split)))
        expected_central = 1 if n % 2 == 0 else 0
        if census.per_ray != CAPTION_PER_RAY[n] or census.central != expected_central:
            bad.append((n, census.per_ray, census.central))
        if census.per_ray * spec.N + census.central != summary_for(n).F:
            bad.append((n, "orbit total", census.per_ray * spec.N + census.central))
    report("4", not bad, "geometric per-ray counts match the figure captions for n = 3..14")
    assert not bad, f"orbit mismatches: {bad}"


def test_criterion_5_divisibility_suite():
    bad = []
    for n in range(2, 40):
        s = summary_for(n)
        N = 2 * n
        if s.E % N != 0:
            bad.append((n, "E", s.E))
        if s.F % N != (1 if n % 2 == 0 else 0):
            bad.append((n, "F", s.F))
        if s.V % N != (1 if n % 2 == 1 else 0):
            bad.append((n, "V", s.V))
    report("5", not bad, "N | E, F mod N, V mod N as required for all n = 2..39")
    assert not bad, f"divisibility failures: {bad}"


def test_criterion_6_property_tests():
    failures = []

    # split length conservation, per base segment, within 1e-8
    for n in (4, 6, 8):
        base = base_segments(PolygonSpec(n))
        frags = split_all_fast(base).frags
        sums = [0.0] * len(base)
        for frag, length in zip(frags.tolist(), lengths(frags).tolist()):
            owners = [i for i, b in enumerate(base.tolist()) if lies_on(frag, b)]
            if len(owners) != 1:
                failures.append((n, "fragment ownership", str(frag)))
                continue
            sums[owners[0]] += length
        for i, length in enumerate(lengths(base).tolist()):
            if abs(sums[i] - length) > 1e-8:
                failures.append((n, "coverage", i, sums[i] - length))

    # crossing-freeness, exhaustive pairwise for n <= 8
    for n in range(2, 9):
        if not crossing_free(split_all_fast(base_segments(PolygonSpec(n)))):
            failures.append((n, "crossing left in split output"))

    # order independence and rotation equivariance of (V, E, F), n <= 10
    rng = random.Random(20260811)
    for n in range(2, 11):
        spec = PolygonSpec(n)
        base = base_segments(spec)
        expected = summary_for(n)
        for trial in range(20):
            split = split_all_fast(shuffled_rows(base, rng))
            v = count_vertices(split)
            if (v, len(split)) != (expected.V, expected.E):
                failures.append((n, "shuffle", trial))
        for trial in range(20):
            rotated = rotate_segments(base, rng.uniform(0.0, 2.0 * math.pi))
            split = split_all_fast(rotated)
            v = count_vertices(split)
            if (v, len(split)) != (expected.V, expected.E):
                failures.append((n, "rotation", trial))

    report("6", not failures,
           "length conservation 1e-8, crossing-freeness n<=8, 20 shuffles/rotations n<=10")
    assert not failures, f"property failures: {failures}"


def same_fragments(rows, other, tol=1e-12):
    """Whether two (E, 4) fragment arrays hold the same segments up to
    orientation: each row lies within ``tol``, coordinate by coordinate, of
    exactly one row of the other, with its ends in one order or the other.

    The rows are paired by their midpoints, less than 2 * tol apart for
    such a pair; the fragments of a split meet only at their ends, so no
    two of one split share a midpoint.
    """
    if rows.shape != other.shape:
        return False
    mids = np.concatenate((rows[:, :2] + rows[:, 2:], other[:, :2] + other[:, 2:])) / 2.0
    i, j = close_pairs(mids, 2.0 * tol)
    i, j = np.minimum(i, j), np.maximum(i, j) - len(rows)
    if not (np.array_equal(np.sort(i), np.arange(len(rows)))
            and np.array_equal(np.sort(j), np.arange(len(rows)))):
        return False
    a, b = rows[i], other[j]
    gap = np.minimum(np.abs(a - b).max(axis=1), np.abs(a - b[:, [2, 3, 0, 1]]).max(axis=1))
    return bool(np.all(gap <= tol))


def check_fast_splitter(ns: range) -> None:
    """The reference and the fast splitter give the same fragments, to
    1e-12 and up to orientation, and the same (V, E, F) for each n."""
    bad = []
    slow_total = 0.0
    fast_total = 0.0
    for n in ns:
        base = base_segments(PolygonSpec(n))
        t0 = time.perf_counter()
        slow = split_all(base)
        slow_total += time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = split_all_fast(base)
        fast_total += time.perf_counter() - t0
        # the reference split has no vertex identity of its own: cluster it by distance
        vs = len(float_clusters(slow, DEFAULT_FUZZ)[1])
        vf = count_vertices(fast)
        if (len(slow), vs) != (len(fast), vf) or not same_fragments(slow, fast.frags):
            bad.append((n, len(slow), len(fast), vs, vf))
    speedup = slow_total / fast_total if fast_total > 0 else float("inf")
    report("7", not bad,
           f"the same fragments to 1e-12 and identical (V, E, F) for"
           f" n = {ns.start}..{ns.stop - 1}; splitter speedup"
           f" x{speedup:.1f} ({slow_total:.2f}s -> {fast_total:.2f}s)")
    assert not bad, f"splitter disagreements: {bad}"


# the reference split_all takes most of its time on n >= 17: those sizes
# run with the slow tests, and the two together cover n = 2..20
def test_criterion_7_fast_splitter_equivalence():
    check_fast_splitter(range(2, 17))


@pytest.mark.slow
def test_criterion_7_fast_splitter_equivalence_large():
    check_fast_splitter(range(17, 21))


def test_criterion_8_render_determinism():
    split = split_all_fast(base_segments(PolygonSpec(5)))
    first = render_svg(split)
    second = render_svg(split)
    lines = first.count("<line ")
    ok = first == second and lines == REFERENCE[5].E
    report("8", ok, f"byte-identical renders, {lines} segment elements of E=80")
    assert first == second
    assert lines == 80
