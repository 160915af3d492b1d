"""Spheres and fillers: cycle equations, constructive routes vs the oracle."""

import pytest
from helpers import enumerate_spheres, first_witness

from aufhebung.bounds import (
    build_cubical_counterexample,
    build_globular_counterexample,
    build_simplicial_counterexample,
    claimed_upper,
    random_skeletal_complex,
)
from aufhebung.complexes import Cell, SkeletalComplex, GeneratorDecl
from aufhebung.fillers import (
    AlgorithmViolation,
    SphereError,
    boundary,
    brute_force_fill,
    constructive_filler,
    constructive_filler_cubical,
    constructive_filler_globular,
    constructive_filler_simplicial,
    coskeletal_up_to,
    is_sphere,
    make_sphere,
    sphere_profile,
)
from aufhebung.shapes import CubeMorphism, SimplexMorphism


def test_boundary_is_sphere():
    for X, _ in (build_cubical_counterexample(1),
                 build_simplicial_counterexample(3)):
        top = 4 if X.shape == "cubical" else 6
        tab = X.tabulate(top)
        for k in range(1, top + 1):
            for c in tab.cells[k]:
                s = boundary(X, c)
                ok, why = is_sphere(X, s)
                assert ok, (c, why)


def test_boundary_of_degenerate_edge():
    X = SkeletalComplex("simplicial", 0, [GeneratorDecl("v", 0, ())],
                        truncation=4)
    e = X.cell("v", "s0")
    s = boundary(X, e)
    v = X.generator_cell("v")
    assert s.faces == (v, v)


def test_boundary_of_degenerate_cube_faces():
    # x b_i repeats x at the two faces perpendicular to direction i
    X, _ = build_cubical_counterexample(1)
    x = X.generator_cell("x")
    c = X.act(x, CubeMorphism.projection(1, 2))
    s = boundary(X, c)
    assert s.faces[0] == x and s.faces[1] == x
    assert all(X.dgn(f) == 1 for f in s.faces[2:])


def test_constant_sphere_from_degenerate_cell():
    X = SkeletalComplex("simplicial", 0, [GeneratorDecl("v", 0, ())],
                        truncation=5)
    c = X.cell("v", "s0 s1")  # the degenerate 2-cell over the vertex
    s = make_sphere(X, (c, c, c, c), 3)
    ok, _ = is_sphere(X, s)
    assert ok


def test_sphere_perturbation_detected():
    # a triangle with two faces swapped violates a located cycle equation
    a, b, c = (Cell(n, SimplexMorphism.identity(0)) for n in "abc")
    gens = [GeneratorDecl("a", 0, ()), GeneratorDecl("b", 0, ()),
            GeneratorDecl("c", 0, ()),
            GeneratorDecl("ab", 1, (b, a)),
            GeneratorDecl("ac", 1, (c, a)),
            GeneratorDecl("bc", 1, (c, b))]
    X = SkeletalComplex("simplicial", 1, gens, truncation=3)
    e = {n: Cell(n, SimplexMorphism.identity(1)) for n in ("ab", "ac", "bc")}
    good = make_sphere(X, (e["bc"], e["ac"], e["ab"]), 2)
    ok, _ = is_sphere(X, good)
    assert ok
    bad = make_sphere(X, (e["ac"], e["bc"], e["ab"]), 2)
    ok, why = is_sphere(X, bad)
    assert not ok and "d_" in why


def test_sphere_arity_checked():
    X, _ = build_cubical_counterexample(1)
    x = X.generator_cell("x")
    with pytest.raises(SphereError):
        make_sphere(X, (x, x, x), 2)


def test_counterexample_spheres_have_no_filler():
    X, s = build_cubical_counterexample(1)
    assert brute_force_fill(X, s).status == "no_filler"
    Y, t = build_simplicial_counterexample(3)
    assert brute_force_fill(Y, t).status == "no_filler"
    assert constructive_filler_cubical(X, s).status == "not_applicable"
    assert constructive_filler_simplicial(Y, t).status == "not_applicable"


def test_point_sphere_filled_by_degenerate_cube():
    X, _ = build_cubical_counterexample(1)
    v = X.generator_cell("v")
    vb = X.act(v, CubeMorphism.projection(1, 1))
    s = make_sphere(X, (vb, vb, vb, vb), 2)
    res = constructive_filler_cubical(X, s)
    assert res.status == "filled"
    oracle = brute_force_fill(X, s)
    assert res.filler in oracle.witnesses


def test_brute_force_finds_boundary_cell():
    X, _ = build_cubical_counterexample(1)
    tab = X.tabulate(4)
    for k in range(1, 5):
        for c in tab.cells[k]:
            res = brute_force_fill(X, boundary(X, c))
            assert c in res.witnesses


def test_globular_filler():
    X, s = build_globular_counterexample(2)
    tab = X.tabulate(5)
    # parallel pairs of degenerate globs are uniquely filled by reflexivity
    for k in range(3, 6):
        for c in tab.cells[k - 1]:
            if X.dgn(c) == 0:
                continue
            pair = make_sphere(X, (c, c), k)
            res = constructive_filler_globular(X, pair)
            assert res.status == "filled"
            oracle = brute_force_fill(X, pair)
            assert oracle.witnesses == (res.filler,)
    # the designated pair of distinct generators has no filler
    assert brute_force_fill(X, s).status == "no_filler"


def _sweep(X, k_lo, k_hi, expect_unique=True):
    """Constructive-vs-oracle comparison on every enumerated sphere."""
    compared = 0
    for k in range(k_lo, k_hi + 1):
        for s in enumerate_spheres(X, k, budget=200000):
            res = constructive_filler(X, s, trace=False)
            if res.status != "filled":
                continue
            compared += 1
            oracle = brute_force_fill(X, s)
            if expect_unique and k > claimed_upper(X.shape, X.skeletal_level):
                assert oracle.witnesses == (res.filler,)
            else:
                assert res.filler in oracle.witnesses
                degenerate = [w for w in oracle.witnesses if X.dgn(w) > 0]
                assert all(w == res.filler for w in degenerate)
    return compared


def test_oracle_equivalence_cubical():
    X, _ = build_cubical_counterexample(1)
    assert _sweep(X, 2, 4) > 0
    Y, _ = build_cubical_counterexample(2, truncation=6)
    assert _sweep(Y, 2, 6) > 0


def test_oracle_equivalence_simplicial():
    X, _ = build_simplicial_counterexample(3, truncation=7)
    assert _sweep(X, 2, 7) > 0


def test_oracle_equivalence_random_complexes():
    for seed in range(4):
        X = random_skeletal_complex("cubical", 2, seed=seed)
        _sweep(X, 2, 6)
        Y = random_skeletal_complex("simplicial", 2, seed=seed)
        _sweep(Y, 2, 6)


def test_profile_sanity():
    # |M| = r and min(M) >= m on every applicable enumerated sphere
    X, _ = build_cubical_counterexample(2, truncation=6)
    checked = 0
    for k in range(2, 7):
        for s in enumerate_spheres(X, k, budget=100000):
            if any(X.dgn(c) == 0 for c in s.faces):
                continue
            prof = sphere_profile(X, s)
            assert len(prof.M) == prof.r
            if prof.M:
                assert min(prof.M) >= prof.m
            checked += 1
    assert checked > 0


def test_trace_names_proof_branches():
    X, _ = build_cubical_counterexample(1)
    x = X.generator_cell("x")
    c = X.act(X.act(x, CubeMorphism.projection(1, 2)),
              CubeMorphism.projection(1, 3))
    res = constructive_filler_cubical(X, boundary(X, c), trace=True)
    assert res.status == "filled"
    assert any("part I" in line for line in res.trace)
    assert any("profile" in line for line in res.trace)


def test_filler_verifies_own_boundary():
    # the verification hook raises when handed an inconsistent sphere that
    # still meets the numeric preconditions; build one by mixing two
    # separate vertices' towers
    gens = [GeneratorDecl("u", 0, ()), GeneratorDecl("w", 0, ())]
    X = SkeletalComplex("cubical", 0, gens, truncation=4)
    u2 = X.cell("u", "b1 b2")
    w2 = X.cell("w", "b1 b2")
    faces = (u2, u2, u2, u2, w2, w2)
    s = make_sphere(X, faces, 3)
    ok, _ = is_sphere(X, s)
    assert not ok  # not a sphere; the constructive op is oblivious and
    # must catch the mismatch through its boundary check
    with pytest.raises(AlgorithmViolation):
        constructive_filler_cubical(X, s)


def test_coskeletal_report_serialises():
    X, _ = build_cubical_counterexample(1)
    rep = coskeletal_up_to(X, 2, 4)
    d = rep.to_dict()
    assert d["coskeletal"] is True
    assert [lv["k"] for lv in d["levels"]] == [3, 4]
    assert rep.to_json() == rep.to_json()


def test_coskeletal_witness_reported():
    X, s = build_cubical_counterexample(1)
    rep = coskeletal_up_to(X, 1, 4)
    assert not rep.coskeletal
    k, witness = first_witness(rep)
    assert k == 2 and witness


def test_single_vertex_every_sphere_uniquely_filled():
    X = SkeletalComplex("simplicial", 0, [GeneratorDecl("v", 0, ())],
                        truncation=5)
    rep = coskeletal_up_to(X, 1, 5)
    assert rep.coskeletal
    for lv in rep.levels:
        assert lv.n_spheres == 1 and lv.coverage == "exhaustive"


def test_tabulation_budget_error():
    from aufhebung.complexes import BudgetError
    X, _ = build_simplicial_counterexample(3)
    with pytest.raises(BudgetError):
        X.tabulate(6, budget_cells=10)
    # the budget holds on every call, also when every layer is memoised
    X.tabulate(6)
    with pytest.raises(BudgetError):
        X.tabulate(6, budget_cells=10)


def test_face_tables_built_once(monkeypatch):
    X, _ = build_cubical_counterexample(2)
    tab = X.tabulate(4)
    again = X.tabulate(6)
    assert tab.faces[3] is again.faces[3]
    assert list(tab.cells[3]) == list(again.cells[3])
    calls = []
    act = SkeletalComplex.act

    def counting_act(self, cell, f):
        calls.append(f)
        return act(self, cell, f)

    monkeypatch.setattr(SkeletalComplex, "act", counting_act)
    third = X.tabulate(6)
    assert calls == []
    assert all(a is b for a, b in zip(again.faces, third.faces))
    with pytest.raises(ValueError):
        third.faces[2][0, 0] = 0
    with pytest.raises(TypeError):
        third.cells[2][0] = X.cells_of_dim(2)[0]


def test_truncated_level_end_to_end():
    # a tiny sphere budget truncates each level to its first spheres in
    # the scan's planned slot order; a witness found there is genuine, but
    # a truncated level without one is inconclusive, never a pass
    X, _ = build_cubical_counterexample(1)
    rep = coskeletal_up_to(X, 1, 2, budget_spheres=5)
    assert rep.partial
    (lv,) = rep.levels
    assert lv.coverage == "truncated"
    assert lv.n_spheres == 5 and lv.n_unfilled == 4
    assert lv.ok is False and rep.coskeletal is False
    assert rep.to_json() == coskeletal_up_to(X, 1, 2, budget_spheres=5).to_json()
    # the window (2, 4] is coskeletal, but three spheres per level show
    # nothing about the rest
    undecided = coskeletal_up_to(X, 2, 4, budget_spheres=3)
    assert undecided.partial and undecided.coskeletal is None
    assert all(l.coverage == "truncated" and l.n_spheres == 3 and l.ok is None
               for l in undecided.levels)
    assert undecided.to_dict()["coskeletal"] is None
    assert all(l["ok"] is None for l in undecided.to_dict()["levels"])


def test_coskeletal_rejects_negative_window_start():
    X, _ = build_cubical_counterexample(1)
    with pytest.raises(ValueError, match="must not be negative"):
        coskeletal_up_to(X, -3, 2)


def test_coskeletal_rejects_empty_window():
    # a window with no level checks nothing, so it certifies nothing
    X, _ = build_cubical_counterexample(2)
    for k_min, upper in ((5, 3), (3, 3)):
        with pytest.raises(ValueError, match="holds no level"):
            coskeletal_up_to(X, k_min, upper)


def test_certify_rejects_vacuous_truncation():
    # no level above the claimed bound would be checked
    from aufhebung.bounds import certify
    for shape, n, top in (("cubical", 1, 2), ("globular", 1, 2),
                          ("cubical", 2, 3)):
        with pytest.raises(ValueError, match="no level above the claimed bound"):
            certify(shape, n, truncation=top)
    extra = random_skeletal_complex("cubical", 1, seed=0, truncation=2)
    with pytest.raises(ValueError, match="truncation 2 leaves no level"):
        certify("cubical", 1, extra_complexes=[extra])
    assert certify("cubical", 1, truncation=3).ok is True


@pytest.mark.parametrize("limit", [
    {"budget_spheres": 0}, {"budget_spheres": -1},
    {"budget_cells": 0},
])
def test_coskeletal_rejects_non_positive_limits(limit):
    X, _ = build_cubical_counterexample(1)
    with pytest.raises(ValueError, match=f"{next(iter(limit))} must be positive"):
        coskeletal_up_to(X, 1, 2, **limit)


@pytest.mark.parametrize("limit", [{"budget_spheres": 0}, {"budget_cells": -2}])
def test_certify_rejects_non_positive_limits(limit):
    from aufhebung.bounds import certify
    with pytest.raises(ValueError, match="must be positive"):
        certify("cubical", 1, **limit)
