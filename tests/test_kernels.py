"""Scan parity: the numpy join kernel against the pure-Python reference.

The two implementations compared here are ``_kernels.scan_spheres`` /
``_kernels.sample_spheres`` and the plain DFS in ``reference_scan.py``.
"""

import hashlib
import sys
import threading
from collections import Counter
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import LOOP_SIZES, TABLE_CASES, empty_table, loops, table_complexes
from reference_scan import (
    reference_duplicate_row_groups,
    reference_prefixes,
    reference_sample,
    reference_scan,
)

from aufhebung import _kernels, cli, fillers
from aufhebung.bounds import (
    build_cubical_counterexample,
    build_simplicial_counterexample,
    certify,
    random_skeletal_complex,
)
from aufhebung.complexes import Cell, GeneratorDecl
from aufhebung.fileio import serialize_complex
from aufhebung.fillers import cell_literal, coskeletal_up_to
from aufhebung.shapes import CubeMorphism, SimplexMorphism

SHAPES = ("simplicial", "cubical", "globular", "cyclic")


def assert_same_scan(got, want):
    assert got.n_spheres == want.n_spheres
    assert got.n_missing == want.n_missing
    assert np.array_equal(got.missing, want.missing)
    assert got.overflow == want.overflow


@pytest.mark.parametrize("builder,shape,top", [
    (lambda: build_cubical_counterexample(1)[0], "cubical", 4),
    (lambda: build_cubical_counterexample(2, truncation=6)[0], "cubical", 6),
    (lambda: build_simplicial_counterexample(3, truncation=7)[0], "simplicial", 7),
])
def test_backends_identical(builder, shape, top):
    X = builder()
    for k in range(1, top + 1):
        F2 = X.face_table(k - 1)
        for B, kw in ((X.face_table(k), dict(budget=10 ** 6, miss_cap=32)),
                      (empty_table(shape, k), dict(budget=10 ** 6, miss_cap=5000))):
            assert_same_scan(_kernels.scan_spheres(F2, B, shape, k, **kw),
                             reference_scan(F2, B, shape, k, **kw))


def test_backends_identical_on_budget_overflow():
    X = build_cubical_counterexample(1)[0]
    F2, B = X.face_table(1), X.face_table(2)
    kw = dict(budget=10, miss_cap=4)
    a = _kernels.scan_spheres(F2, B, "cubical", 2, **kw)
    b = reference_scan(F2, B, "cubical", 2, **kw)
    assert a.overflow and b.overflow
    assert a.n_spheres == b.n_spheres == 10
    assert_same_scan(a, b)


def test_blocks_split_inside_a_bucket():
    # one vertex and 4 loops: every slot of a cubical 2-sphere ranges over
    # all 5 one-cells, 625 spheres; tiny blocks cut each range mid-way
    X = loops("cubical", 4, 2)
    F2 = X.face_table(1)
    # the second case lists the smallest 300 of 600 counted spheres, the
    # third the smallest 5 of all 625, kept across blocks that come in
    # planned, not lexicographic, order
    wants = []
    for B, kw in ((X.face_table(2), dict(budget=10 ** 6, miss_cap=700)),
                  (empty_table("cubical", 2), dict(budget=600, miss_cap=300)),
                  (empty_table("cubical", 2), dict(budget=10 ** 6, miss_cap=5))):
        wants.append(reference_scan(F2, B, "cubical", 2, **kw))
        for block in (1, 2, 7, 64):
            with mock.patch.object(_kernels, "BLOCK", block):
                got = _kernels.scan_spheres(F2, B, "cubical", 2, **kw)
            assert_same_scan(got, wants[-1])
    _, prefix, smallest = wants
    assert prefix.overflow and prefix.n_spheres == prefix.n_missing == 600
    assert len(prefix.missing) == 300
    assert smallest.n_spheres == smallest.n_missing == 625 and not smallest.overflow
    assert smallest.missing.tolist() == [[0, 0, 0, i] for i in range(5)]


def counting_membership(tested):
    """Patch ``_kernels._row_set`` to append to ``tested`` the number of
    rows each membership test looks up."""
    row_set = _kernels._row_set

    def counting_row_set(B):
        member = row_set(B)

        def counted_member(Q):
            tested.append(len(Q))
            return member(Q)
        return counted_member

    return mock.patch.object(_kernels, "_row_set", counting_row_set)


def test_counted_spheres_skip_the_membership_test():
    # 14^4 cubical 2-spheres on 13 loops, 27 of them filled: the last slot
    # is counted whole, and only the rows that can still hold one of the
    # smallest unfilled spheres are built and looked up
    X = loops("cubical", 13, 2)
    F2, B = X.face_table(1), X.face_table(2)
    for kw, most in ((dict(), 299),
                     (dict(miss_cap=fillers.WITNESS_CAP), fillers.WITNESS_CAP + len(B))):
        tested = []
        with counting_membership(tested):
            scan = _kernels.scan_spheres(F2, B, "cubical", 2, **kw)
        assert (scan.n_spheres, scan.n_missing, len(scan.missing)) == \
            (14 ** 4, 14 ** 4 - 27, kw.get("miss_cap", 16))
        assert 0 < sum(tested) <= most


def counting_calls(names, calls):
    """Patch the ``_kernels`` functions ``names`` to count their calls in
    the Counter ``calls``."""
    def counted(name):
        f = getattr(_kernels, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    return mock.patch.multiple(_kernels, **{name: counted(name) for name in names})


@pytest.mark.parametrize("shape,n", [("cubical", 1), ("cubical", 2), ("simplicial", 3),
                                     ("globular", 3), ("cyclic", 1)])
def test_boundary_rows_are_checked_only_over_a_counted_interval(shape, n):
    # a scan that counts no sphere from its range sizes, as every scan of
    # a certify-sweep round, neither checks nor deduplicates rows of B;
    # the dense loop scans count, and do so once per scan
    calls = Counter()
    extra = random_skeletal_complex(shape, n, seed=3)
    with counting_calls(["_sphere_rows", "_n_distinct", "scan_spheres"], calls):
        assert certify(shape, n, extra_complexes=[extra], seed=3).ok
    assert calls["scan_spheres"] > 0
    assert calls["_sphere_rows"] == calls["_n_distinct"] == 0
    m, top = LOOP_SIZES["cubical"]
    X = loops("cubical", m, top)
    F2, B = X.face_table(1), X.face_table(2)
    with counting_calls(["_sphere_rows", "_n_distinct"], calls):
        _kernels.scan_spheres(F2, B, "cubical", 2)
    assert calls["_sphere_rows"] == calls["_n_distinct"] == 1


@pytest.mark.parametrize("shape", sorted(LOOP_SIZES))
def test_witness_cells_formatted_once_per_level(shape):
    # the dense loop reports list unfilled witnesses of several faces each
    # over a few distinct cells, and no multi-filled one; each distinct
    # cell is formatted once per level
    m, top = LOOP_SIZES[shape]
    formatted = []
    with mock.patch.object(fillers, "cell_literal",
                           side_effect=lambda c: formatted.append(c) or cell_literal(c)):
        report = coskeletal_up_to(loops(shape, m, top), 1, top)
    literals = [[w.split(", ") for w in lv.unfilled_witnesses] for lv in report.levels]
    assert not any(lv.multi_witnesses for lv in report.levels)
    distinct = sum(len({c for w in lv for c in w}) for lv in literals)
    assert distinct == len(formatted) < sum(len(w) for lv in literals for w in lv)


def test_counted_spheres_against_reference_with_stray_rows():
    # two loops at v and an edge f from v to w: a boundary table with a
    # duplicate row and a row that breaks a cycle equation, read at every
    # budget, so cuts fall before, inside and after the built part; the
    # last planned slot L is the last slot of a cubical 2-sphere, and d_1,
    # between d_0 and d_2, of a simplicial one
    stray_rows_against_reference("cubical", CubeMorphism.identity(0))
    stray_rows_against_reference("simplicial", SimplexMorphism.identity(0))


def stray_rows_against_reference(shape, vertex):
    """The stray-rows check of the 2-spheres of ``shape``, whose vertices
    have the identity ``vertex``."""
    v, w = (Cell(name, vertex) for name in "vw")
    X = loops(shape, 2, 2, [GeneratorDecl("w", 0, ()), GeneratorDecl("f", 1, (v, w))])
    F2, B = X.face_table(1), X.face_table(2)
    order = _kernels.plan_slots(shape, 2)[0]
    spheres = reference_scan(F2, empty_table(shape, 2), shape, 2,
                             miss_cap=10 ** 4).missing
    every = {tuple(map(int, r)) for r in spheres}
    n = len(spheres)
    stray = next(r for r in np.ndindex(*(len(F2),) * len(order)) if r not in every)
    B = np.concatenate([B, B[-1:], B[:1], [stray]]).astype(np.int32)
    # the m-th smallest unfilled sphere ties with the next on slots
    # 0..L-1 for some miss_cap m below, and some last-slot row has more
    # candidates than a block of 1, so chunk cuts fall inside rows
    unfilled = reference_scan(F2, B, shape, 2, miss_cap=10 ** 4).missing
    L = order[-1]
    assert any(np.array_equal(unfilled[m - 1, :L], unfilled[m, :L]) for m in range(1, 5))
    assert any(len(cands) > 1 for placed, cands in reference_prefixes(F2, shape, 2, order)
               if len(placed) == len(order) - 1)
    for block in (1, 3, _kernels.BLOCK):
        for miss_cap in range(5):
            # (some spheres counted without a lookup, budget cut) per scan
            seen = set()
            for budget in range(1, n + 2):
                kw = dict(budget=budget, miss_cap=miss_cap)
                tested = []
                with mock.patch.object(_kernels, "BLOCK", block), \
                        counting_membership(tested):
                    got = _kernels.scan_spheres(F2, B, shape, 2, **kw)
                assert_same_scan(got, reference_scan(F2, B, shape, 2, **kw))
                seen.add((sum(tested) < got.n_spheres, got.overflow))
            # blocks smaller than the level: cuts before, inside and after
            # the built part
            if block < n and miss_cap:
                assert seen == {(False, True), (True, True), (True, False)}


def test_reports_identical_across_backends():
    X = random_skeletal_complex("simplicial", 2, seed=11)
    got = coskeletal_up_to(X, 3, 6).to_json()
    with mock.patch.object(_kernels, "scan_spheres", reference_scan):
        want = coskeletal_up_to(X, 3, 6).to_json()
    assert got == want


def test_slot_plans_pinned():
    # every shape fills its even slots first, then its odd ones: for cubes
    # (1,0), (2,0), ..., (k,0), then (1,1), ..., (k,1); globes keep their
    # order.  Each row of equations is sorted and holds, with q < p, exactly
    # the equations of build_constraints between its slot and one placed
    # earlier, so the rows are pinned too
    for k in range(1, 9):
        for shape in SHAPES:
            eqs = _kernels.build_constraints(shape, k)
            n = len(eqs)
            order, cons = _kernels.plan_slots(shape, k)
            assert order == tuple(range(0, n, 2)) + tuple(range(1, n, 2))
            assert len(cons) == n
            got = []
            for p, row in enumerate(cons):
                assert list(row) == sorted(row)
                for q, a, b in row:
                    assert q < p
                    got.append(frozenset([(order[p], a), (order[q], b)]))
            want = [frozenset([(new, a), (prev, b)])
                    for new, row in enumerate(eqs) for prev, a, b in row]
            assert sorted(map(sorted, got)) == sorted(map(sorted, want))
        cons = _kernels.plan_slots("globular", k)[1]
        assert [list(row) for row in cons] == _kernels.build_constraints("globular", k)
    assert _kernels.plan_slots("simplicial", 4)[0] == (0, 2, 4, 1, 3)
    # c_j d_i == c_i d_(j-1), held by the slot placed later: c_4 d_1 ==
    # c_1 d_3 goes to slot 1, placed after slot 4, as (2, 3, 1)
    assert _kernels.plan_slots("simplicial", 4)[1] == (
        (), ((0, 0, 1),), ((0, 0, 3), (1, 2, 3)),
        ((0, 0, 0), (1, 1, 1), (2, 3, 1)), ((0, 0, 2), (1, 2, 2), (2, 3, 3), (3, 1, 2)))
    # cached and immutable, like the shape tables
    assert _kernels.plan_slots("cubical", 4) is _kernels.plan_slots("cubical", 4)
    assert isinstance(_kernels.plan_slots("cubical", 4)[1][3], tuple)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k", range(1, 7))
def test_planned_equations_are_the_cycle_equations(shape, k):
    # re-oriented toward the slot placed earlier, the plan's equations are
    # build_constraints' equations, each exactly once
    order, cons = _kernels.plan_slots(shape, k)
    assert sorted(order) == list(range(len(cons)))
    placed = {slot: p for p, slot in enumerate(order)}
    want = []
    for new, row in enumerate(_kernels.build_constraints(shape, k)):
        for prev, c_new, c_prev in row:
            if placed[prev] < placed[new]:
                want.append((new, c_new, prev, c_prev))
            else:
                want.append((prev, c_prev, new, c_new))
    got = []
    for p, row in enumerate(cons):
        for q, c_new, c_prev in row:
            assert q < p
            got.append((order[p], c_new, order[q], c_prev))
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("shape", SHAPES)
def test_join_index_ranges_are_the_brute_force_candidates(shape):
    # for the scan's planned orientation and the sampler's given one, every
    # prefix the reference DFS reaches gets exactly the cells that meet all
    # of its slot's equations, in increasing id, prefixes batched per depth
    complexes = [X for sh, n in TABLE_CASES if sh == shape
                 for X in table_complexes(sh, n)]
    complexes.append(random_skeletal_complex(shape, 2, seed=5, truncation=4))
    widest = 0
    for X in complexes:
        for k in range(1, min(4, X.truncation) + 1):
            F2 = X.face_table(k - 1)
            slots = len(_kernels.build_constraints(shape, k))
            planned, cons = _kernels.plan_slots(shape, k)
            for order, index in (
                    (planned, _kernels._JoinIndex(F2, cons)),
                    (range(slots), _kernels.join_index(F2, shape, k))):
                by_depth = {}
                for placed, want in reference_prefixes(F2, shape, k, order):
                    by_depth.setdefault(len(placed), []).append((placed, want))
                for d, pairs in by_depth.items():
                    P = np.array([p for p, _ in pairs], np.int32).reshape(len(pairs), d)
                    lo, hi = index.ranges(d, P)
                    for r, (placed, want) in enumerate(pairs):
                        got = index.cells(d, np.arange(lo[r], hi[r]))
                        assert got.tolist() == want, (shape, k, d, placed)
                        choice = np.array(placed + (0,) * (slots - d), np.int32)
                        assert index.candidates(d, choice).tolist() == want
                    widest = max(widest, len(index.cons[d]))
    # the last slot of a 4-sphere keys on every equation it meets: 6 for the
    # cubical slot (4,1), the widest key here
    assert widest == {"simplicial": 4, "cyclic": 4, "cubical": 6, "globular": 2}[shape]


@st.composite
def scan_inputs(draw):
    """A random face table, boundary table and caps for one sphere shape."""
    shape = draw(st.sampled_from(SHAPES))
    k = draw(st.integers(1, 4))
    eqs = _kernels.build_constraints(shape, k)
    slots = len(eqs)
    width = 1 + max((max(a, b) for row in eqs for _, a, b in row), default=-1)
    n = draw(st.integers(0, 5))
    m = draw(st.integers(1, 3))
    F2 = np.array(draw(st.lists(st.lists(st.integers(0, m - 1), min_size=width,
                                         max_size=width),
                                min_size=n, max_size=n)),
                  dtype=np.int32).reshape(n, width)
    spheres = reference_scan(F2, empty_table(shape, k), shape, k,
                             budget=400, miss_cap=400).missing
    filled = [spheres[i] for i in draw(st.lists(
        st.integers(0, len(spheres) - 1), max_size=6))] if len(spheres) else []
    noise = draw(st.lists(st.lists(st.integers(0, max(n - 1, 0)), min_size=slots,
                                   max_size=slots), max_size=4)) if n else []
    B = np.array([list(r) for r in filled] + noise,
                 dtype=np.int32).reshape(-1, slots)
    kw = dict(budget=draw(st.integers(1, 450)),
              miss_cap=draw(st.integers(0, 20)))
    return F2, B, shape, k, kw


@settings(max_examples=300, deadline=None)
@given(scan_inputs(), st.sampled_from([1, 3, 16, _kernels.BLOCK]))
def test_scan_matches_reference(inputs, block):
    F2, B, shape, k, kw = inputs
    want = reference_scan(F2, B, shape, k, **kw)
    with mock.patch.object(_kernels, "BLOCK", block):
        got = _kernels.scan_spheres(F2, B, shape, k, **kw)
    assert_same_scan(got, want)


@cache
def _complex_levels():
    """(F2, B, shape, k) of the levels from 2 up to at most 6 of the
    counterexample and a random complex for each shape: every boundary row is a sphere, so these catch
    a counted interval checked against the wrong equations."""
    levels = []
    for shape, n, top in (("simplicial", 3, 6), ("cubical", 2, 6),
                          ("cyclic", 2, 4), ("globular", 2, 6)):
        for X in table_complexes(shape, n)[:2]:
            levels += [(X.face_table(k - 1), X.face_table(k), shape, k)
                       for k in range(2, min(top, X.truncation) + 1)]
    return levels


@st.composite
def complex_levels(draw):
    F2, B, shape, k = draw(st.sampled_from(_complex_levels()))
    return F2, B, shape, k, dict(miss_cap=draw(st.integers(0, 20)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(scan_inputs(), complex_levels()),
       st.sampled_from([3, 16, _kernels.BLOCK]), st.data())
def test_full_scans_do_not_depend_on_the_slot_order(inputs, block, data):
    # any slot order gives the same full scan: the scan's plan and the
    # per-process equations read from it are both swapped for one in a
    # random order
    F2, B, shape, k, kw = inputs
    kw["budget"] = 10 ** 6
    order = data.draw(st.permutations(range(len(_kernels.build_constraints(shape, k)))))
    want = reference_scan(F2, B, shape, k, **kw)
    with mock.patch.object(_kernels, "plan_slots", lambda s, j: _kernels._orient(s, j, tuple(order))), \
            mock.patch.object(_kernels, "_planned_equations",
                              _kernels._planned_equations.__wrapped__), \
            mock.patch.object(_kernels, "BLOCK", block):
        got = _kernels.scan_spheres(F2, B, shape, k, **kw)
    assert_same_scan(got, want)


@settings(max_examples=100, deadline=None)
@given(scan_inputs(), st.integers(1, 30), st.integers(0, 2 ** 31 - 1))
def test_sample_matches_reference(inputs, n_samples, seed):
    F2, _, shape, k, _ = inputs
    index = _kernels.join_index(F2, shape, k)
    want = reference_sample(F2, shape, k, n_samples, seed)
    assert _kernels.sample_spheres(index, n_samples, seed) == want
    # an index serves any number of draws and is left as it was
    assert _kernels.sample_spheres(index, n_samples, seed) == want


def test_scan_rejects_non_positive_budget():
    F2 = np.zeros((2, 0), np.int32)
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget must be positive"):
            _kernels.scan_spheres(F2, F2, "simplicial", 1, budget=budget)


def test_sampled_spheres_deterministic():
    X = build_cubical_counterexample(1)[0]
    F2 = X.face_table(1)
    index = _kernels.join_index(F2, "cubical", 2)
    a = _kernels.sample_spheres(index, 25, seed=0)
    b = _kernels.sample_spheres(_kernels.join_index(F2, "cubical", 2), 25, seed=0)
    c = _kernels.sample_spheres(index, 25, seed=1)
    assert a == b
    assert a != c or len(a) < 25
    # samples really are spheres: re-check against the exhaustive scan
    full = _kernels.scan_spheres(F2, empty_table("cubical", 2),
                                 "cubical", 2, budget=10 ** 6, miss_cap=10 ** 4)
    assert not full.overflow and full.n_missing <= 10 ** 4
    all_rows = {tuple(map(int, r)) for r in full.missing}
    assert set(a) <= all_rows


# sha256 of serialize_complex(random_skeletal_complex(shape, n, seed)), as
# the sampler produced them before it drew from the bucket index: random
# complexes, and every benchmark and test input built from them, must not
# change when the scan kernel does
RANDOM_COMPLEX_SHA256 = {
    ('simplicial', 1, 0): '6dc9bf4b6513bf2b1bc81ac3eae6615a811712f8f11c5c93b2092fe5876e3da2',
    ('simplicial', 1, 7): '9498f82863f66bc96d47d12eb11256b0220752992951d014e593412c301d7b90',
    ('simplicial', 1, 401): 'b022e0946db54764356b32be7ccf9ac756277c68e3824d2963dc127cac8ff9b9',
    ('simplicial', 2, 0): '78b68722ded2e1791138d9e169f4c54e99877f72d217fbdb857e429c25f748dd',
    ('simplicial', 2, 7): 'f0079db158c2a4929f5757337cc9c95a299503405fa376d1430fbbe80bd89ae9',
    ('simplicial', 2, 401): '5308d7275e5b087fced37d6dde0dfb8b6029ffcb85d39c041ddb6494adb4c8ba',
    ('simplicial', 3, 0): 'd56b7a746b03fc4b08006bc7146a95b7f2a82887146092b3e61b9239c9843655',
    ('simplicial', 3, 7): '26e5a3db7395e8207b0ec7f1dab65b8f15e49d32dca5aa193b01830b4b023cfc',
    ('simplicial', 3, 401): '5a14c379ad5af8159165e14cb8517193725eeea2db4bc5980e50cdfda095208c',
    ('cubical', 1, 0): '800b2ad6d44a6ed02963615d646e1d35f29cef0bc898adc7aba72530ecb42b53',
    ('cubical', 1, 7): '2112c1815a9b30b99d2f909a3ff4867059bff9140bee1569a388d15f67cef9d7',
    ('cubical', 1, 401): 'caa5f7ddd8b81c5b7fc56c8fb6b012e948f38674bd02a682e737c0a385dbdd0a',
    ('cubical', 2, 0): 'a3271ff36f7e63b3c1136cf2b2f58077f79808af1924cec233a1df2bd3b3c327',
    ('cubical', 2, 7): '146935f57030b2d97da55aaf64bb97d3eacb3b2cf4474cd83b6ec1934ad9b8a3',
    ('cubical', 2, 401): '4ac6205952233cd6582ba3f773d10b4e56ecf5aea50eca978aca051cc2015254',
    ('cubical', 3, 0): 'ae759934cc74412cff6e122e7115e565ae307c1609ffc29ed6cf79524de2b6a3',
    ('cubical', 3, 7): '182deae860eec78740b490ef3fd043a22ee0ee18b9968bc468a33abf57bb8985',
    ('cubical', 3, 401): '9b7011ae59edea3052106da8a344ef78838ca3176f1fad20ab3da0212c3aa5a1',
    ('globular', 1, 0): '9e07fb5dcc21ffbff18557d9ab884ad900254ea67f35898e537af77f1ef0e340',
    ('globular', 1, 7): '04807867b9158c1380ff0f711192eeed5cb57f793f9464c57ee6c7ca0789a0cd',
    ('globular', 1, 401): '37f3b5f7874a2c015ff70ff26dffde15fee4cddc59025ff3e48f351436a5ace9',
    ('globular', 2, 0): '32a1ed5ef9e3d147b2f1d339b2dd9de9349e86f2438f26b072218f7dc9377b9a',
    ('globular', 2, 7): '7fc9543785fd1f3d5ab03da1c75dd45fe0e8f4b10010ae3fd173988131e9f30d',
    ('globular', 2, 401): '09aba1b61f76d32eb169917c88cbd7ff876b595dc68c5550ec2b33a5b6e2e83f',
    ('globular', 3, 0): 'ef042660ead44570fcd3ece98c1a8962d93ce762525e66b192eddc6004880adf',
    ('globular', 3, 7): 'c1cb88d8a0b5590f002e0d3b5dd11e0b29cf72f354caec4ad8db1352322c51bb',
    ('globular', 3, 401): 'aaac178246805d12f0e3526e66b0e835585a41beae96f00eaa2691bc3e1f9f09',
    ('cyclic', 1, 0): '32df100b99656db592e1c2291a666a034e4f22392f771bfd9df0c1edc0803863',
    ('cyclic', 1, 7): 'a1acdd932afa0f253a1399543d923fd8eacb4d610080e86e4bea4b5c5f1ef152',
    ('cyclic', 1, 401): 'd46f747c3211ca2cfa871182840d463c69cabf4f61cf3ea5909c6fb89739aa15',
    ('cyclic', 2, 0): 'f0ab09f9055e616718176e148eb35ab7ad06837e5fcc154f73b15d8f32c9f59c',
    ('cyclic', 2, 7): 'a95a62ba77485b908ab31e097d9032f35c97962c28cef66cc0f1b8832fb17be8',
    ('cyclic', 2, 401): 'ea652247daa4de74217a85c5365dc792b3ca9a5bf2b09258d9ab86c76ca56ad7',
    ('cyclic', 3, 0): 'd36f63f2f0e5d2baec5d8ed3ad03c53cbb0cc872f6ea9b29b786d116e0dd7179',
    ('cyclic', 3, 7): '485bf49c01156c88fcf392df7b339446bb585c26bdabded35e82fa0b31d6054d',
    ('cyclic', 3, 401): '7ab82b666c5943be958950ad9ce6b603ee7b779db0506c2d10444fd5a41ba8b8',
}


def test_random_complexes_unchanged():
    got = {key: hashlib.sha256(serialize_complex(
        random_skeletal_complex(*key)).encode()).hexdigest()
        for key in RANDOM_COMPLEX_SHA256}
    assert got == RANDOM_COMPLEX_SHA256


# sha256 of coskeletal_up_to(loops(shape, m, top), 1, top, budget_spheres=b)
# .to_json(), keyed (shape, b), for the dense scans of the benchmark: 13
# cubical loops over (1, 2] and 30 simplicial loops over (1, 3].  Budgets
# 1000 and 38415 (29790) cut level 2, the second one short of all 14^4
# (31^3) spheres, and 38416 (29791) and 10^6 cut nothing.  Recorded
# before the scan counted its last slot.
LOOP_REPORT_SHA256 = {
    ('cubical', 1000000): '443b49e0b9d01bd18e811388a51369ff3dc61bbe21ae2c855629f8242c46b404',
    ('cubical', 1000): 'ecd25427e85bc6994621477e430e9132c5d30d0f893c11276fdbfb05e5c8413a',
    ('cubical', 38415): '5a7987f435e5b26e67241632d5955b9a0c23d3680dc839d057e6eab342c2111d',
    ('cubical', 38416): '443b49e0b9d01bd18e811388a51369ff3dc61bbe21ae2c855629f8242c46b404',
    ('simplicial', 1000000): '26cb037e655e6b07b350e2afb498beecf555bfda326f050ea6d10ae8b5d2965d',
    ('simplicial', 1000): '020b47e028850cd702cb0982e545ac4f6c3a6e4f5bac3ac2db7a7f8ea4e58edb',
    ('simplicial', 29790): '6c51b6d7ad0f4814de1a22eec900ee68579c4135dcf7014f4baa0ed3bd598849',
    ('simplicial', 29791): '26cb037e655e6b07b350e2afb498beecf555bfda326f050ea6d10ae8b5d2965d',
}


@pytest.mark.parametrize("shape,budget", sorted(LOOP_REPORT_SHA256))
def test_loop_reports_unchanged(shape, budget):
    m, top = LOOP_SIZES[shape]
    report = coskeletal_up_to(loops(shape, m, top), 1, top, budget_spheres=budget)
    got = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert got == LOOP_REPORT_SHA256[shape, budget]


# sha256 of the stdout of `aufhebung verify --shape S --n N --seeds 1`,
# keyed (S, N), for the bound-table rows that CI verifies (simplicial 5,
# about 5 s, is left to CI).  Recorded before the scan counted its last
# slot.
VERIFY_SHA256 = {
    ('globular', 0): 'adc072bcb2d5a606a29004a5fb2b402d4d1db4e2e0ed57d8e67df0de37e16033',
    ('globular', 1): '56d9eb224883755b96dd96ec5591bf8c0252fa49ebcc672cf443a748fcd8e484',
    ('globular', 2): '5b0ab4de8d9d670d23ea26b6b446ff920c3a3eaa84689e80c3381730dd03e543',
    ('globular', 3): '5b4594e3330552f892dbc40aa1d0f3b107917a422ffd86a629c407d3a3b18c2f',
    ('cubical', 0): '1f4ddd537fae578ce8c105ec5681e3e629ca49a28ce5bf52ab74f40416f4a702',
    ('cubical', 1): 'e6617a9ee21fd93df61fe6e4dbecf9cbcdbe4b4a4a8155c44b57b881e431ddbe',
    ('cubical', 2): 'cd7707d4da49550eb66851d8ab0ef795a433ab77076c4a8eac814e750cd5c33b',
    ('cubical', 3): '30131a20ceb67e5b01e030eba71e428fa9393e1039200fb2ee34b217a8779c20',
    ('cubical', 4): 'cf1476190d01354b6dda1dcb31d7194c43d80c23411fb54062f9d41a8961ea97',
    ('simplicial', 0): '58174f4cc32889a6f96146cf3e860d0409c728fdd41795e1cc79a862a812332e',
    ('simplicial', 1): '76f73e7618dbbb0a12dff6dfd67bdb33d58c382b819b687508af02cb4e01960d',
    ('simplicial', 2): '064e68357608d333ab96a5373639171c3c9d40007ec709bebb7672ad6375a7e3',
    ('simplicial', 3): '1a2443be4853a9fa13642077f228d1dbc29b54837c124b4dc87109b822bdb2f6',
    ('simplicial', 4): 'be843bf0559f2407f90caa2ec64bc790b3133dd8216d1e16772f24a4085865f8',
    ('cyclic', 1): 'c17282227e881c2dfd96c73873778a1e019443d08b1ed82e47e4ec67547f0110',
    ('cyclic', 2): '2ddf555539a3b0aa9b5c06e0208cf2eee4e7eedfb258fc23796e3804a88b4822',
    ('cyclic', 3): '7f3ba2db38ac69e89f45bd8a88671e14b548261e5ee52dc678b02f0386b58b69',
}


@pytest.mark.parametrize("shape,n", sorted(VERIFY_SHA256))
def test_verify_output_unchanged(shape, n, capsys):
    assert cli.main(["verify", "--shape", shape, "--n", str(n), "--seeds", "1"]) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == VERIFY_SHA256[shape, n]


def test_sampler_builds_one_generator_per_thread(monkeypatch):
    # a random complex builds its own generator, and the sampler reseeds
    # one per thread instead of building one per generator it draws;
    # threads drawing at once, more than there are cores, with frequent
    # switches, still get the pinned complexes
    real = np.random.RandomState
    built = threading.local()

    def counting(*args):
        built.n = getattr(built, "n", 0) + 1
        return real(*args)

    monkeypatch.setattr(np.random, "RandomState", counting)
    keys = [key for key in RANDOM_COMPLEX_SHA256 if key[1] == 3]
    results = {}

    def draw(name):
        for key in keys:
            built.n = 0
            text = serialize_complex(random_skeletal_complex(*key))
            results[name, key] = built.n, hashlib.sha256(text.encode()).hexdigest()

    threads = [threading.Thread(target=draw, args=(name,)) for name in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4 * len(keys)
    for (_, key), (n_built, digest) in results.items():
        assert n_built <= 2, key
        assert digest == RANDOM_COMPLEX_SHA256[key]


def test_duplicate_row_groups():
    B = np.array([[1, 2], [3, 4], [1, 2], [5, 6], [3, 4], [1, 2]],
                 dtype=np.int32)
    groups = _kernels.duplicate_row_groups(B)
    assert [list(g) for g in groups] == [[0, 2, 5], [1, 4]]
    assert _kernels.duplicate_row_groups(np.zeros((0, 3), np.int32)) == []


def test_duplicate_row_groups_match_reference():
    # seeded small tables with many repeats, and the tables with no rows,
    # no columns or one row
    rng = np.random.default_rng(26)
    tables = [np.zeros((rows, cols), np.int32) for rows in (0, 1, 2, 5) for cols in (0, 1, 3)]
    tables += [rng.integers(0, 3, size=(rng.integers(0, 40), rng.integers(0, 4)),
                            dtype=np.int32) for _ in range(500)]
    for B in tables:
        got, want = _kernels.duplicate_row_groups(B), reference_duplicate_row_groups(B)
        assert len(got) == len(want), B.shape
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), B.shape


def test_find_fillers():
    B = np.array([[1, 2], [3, 4], [1, 2]], dtype=np.int32)
    assert list(_kernels.find_fillers(B, np.array([1, 2], np.int32))) == [0, 2]
    assert list(_kernels.find_fillers(B, np.array([9, 9], np.int32))) == []
    # no cells, or cells with no faces: none fills, or every one does
    for B, filled in ((np.zeros((0, 2), np.int32), []), (np.zeros((3, 0), np.int32), [0, 1, 2])):
        ids = _kernels.find_fillers(B, np.zeros(B.shape[1], np.int32))
        assert ids.dtype == np.int64 and list(ids) == filled
