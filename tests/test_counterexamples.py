"""Counterexample builders, bound certification, and the cyclic comparison."""

import pytest
from helpers import first_witness
from reference_tables import face_maps, reference_act

from aufhebung.bounds import (
    build_counterexample,
    build_cubical_counterexample,
    build_cyclic_counterexample,
    build_globular_counterexample,
    build_simplicial_counterexample,
    certify,
    claimed_upper,
    random_skeletal_complex,
    simplicial_core,
    underlying_simplicial,
)
from aufhebung.complexes import BudgetError, SkeletalComplex
from aufhebung.fillers import (
    brute_force_fill,
    coskeletal_up_to,
    is_sphere,
)


def test_builder_argument_guards():
    with pytest.raises(ValueError):
        build_cubical_counterexample(-1)
    with pytest.raises(ValueError):
        build_simplicial_counterexample(-1)
    with pytest.raises(ValueError):
        build_globular_counterexample(-1)
    with pytest.raises(ValueError):
        build_cyclic_counterexample(0)


@pytest.mark.parametrize("shape,n,cells,dim", [
    ("simplicial", 12, 1293293, 21), ("cubical", 12, 1293293, 22),
    ("cyclic", 10, 1575306, 17), ("cubical", 2, 7, 3)])
def test_builders_refuse_over_budget_before_building_cells(monkeypatch, shape, n, cells, dim):
    # the first dimension below the designated sphere with more cells than
    # the budget is refused from the generators alone, as tabulation would
    # refuse it, before any cell layer exists
    def no_layers(X, k):
        raise AssertionError("a cell layer was built")

    monkeypatch.setattr(SkeletalComplex, "cells_of_dim", no_layers)
    budget = 10 ** 6 if n > 2 else 5
    with pytest.raises(BudgetError, match=f"^{cells} cells in dimension {dim} exceed"
                                          f" the budget of {budget}$"):
        build_counterexample(shape, n, budget_cells=budget)
    with pytest.raises(BudgetError, match=f"^{cells} cells in dimension {dim} "):
        certify(shape, n, budget_cells=budget)


@pytest.mark.parametrize("shape,n,sphere", [
    ("simplicial", 0, "v1, v0"),
    ("simplicial", 1, "v12, v02, v01"),
    ("simplicial", 2, "v123, v023, v013, v012"),
    ("cubical", 0, "v1, v0"),
    ("globular", 0, "v1, v0"),
])
def test_low_dimensional_witnesses(shape, n, sphere):
    # the boundary of the (n + 1)-simplex (two vertices for n = 0) is
    # n-skeletal and not n-coskeletal, which makes the bound table sharp
    X, s = build_counterexample(shape, n)
    assert X.skeletal_level == n and X.validate().ok
    assert s.k == n + 1 and s.literal() == sphere
    assert brute_force_fill(X, s).status == "no_filler"
    assert coskeletal_up_to(X, n, n + 1).coskeletal is False
    cert = certify(shape, n, extra_complexes=[
        random_skeletal_complex(shape, n, seed=seed) for seed in range(3)])
    assert cert.ok is True and cert.counterexample_fill == "no_filler"
    upper = claimed_upper(shape, n)
    assert (cert.claim.lower_fail, cert.claim.upper_hold) == (upper - 1, upper)
    for report in cert.reports:
        assert all(lv.coverage == "exhaustive" for lv in report.levels)


def test_hollow_tetrahedron_levels():
    X, _ = build_simplicial_counterexample(2)
    assert [g.dim for g in X.generators.values()] == [0] * 4 + [1] * 6 + [2] * 4
    rep = coskeletal_up_to(X, 3, 6)
    assert [(lv.k, lv.n_spheres, lv.n_unfilled) for lv in rep.levels] == \
        [(4, 52, 0), (5, 74, 0), (6, 100, 0)]
    assert rep.coskeletal is True
    assert coskeletal_up_to(X, 2, 3).coskeletal is False


def test_cubical_designated_sphere_n1():
    X, s = build_cubical_counterexample(1)
    x, y = X.generator_cell("x"), X.generator_cell("y")
    assert s.faces == (x, x, y, y)
    assert brute_force_fill(X, s).status == "no_filler"
    assert coskeletal_up_to(X, 2, 4).coskeletal


def test_cubical_designated_sphere_n2():
    X, s = build_cubical_counterexample(2)
    assert s.k == 4
    ok, _ = is_sphere(X, s)
    assert ok
    assert brute_force_fill(X, s).status == "no_filler"


def test_simplicial_designated_sphere_n3():
    X, s = build_simplicial_counterexample(3)
    assert s.k == 5
    ok, _ = is_sphere(X, s)
    assert ok
    assert brute_force_fill(X, s).status == "no_filler"
    assert coskeletal_up_to(X, 5, 7).coskeletal


def test_claimed_upper_values():
    assert claimed_upper("simplicial", 0) == 1
    assert claimed_upper("simplicial", 1) == 2
    assert claimed_upper("simplicial", 3) == 5
    assert claimed_upper("cubical", 1) == 2
    assert claimed_upper("cubical", 2) == 4
    assert claimed_upper("globular", 2) == 3
    assert claimed_upper("cyclic", 2) == 5


def test_certify_cubical_n1():
    extras = [random_skeletal_complex("cubical", 1, seed=s) for s in range(5)]
    cert = certify("cubical", 1, extra_complexes=extras)
    assert cert.ok
    assert cert.claim.lower_fail == 1 and cert.claim.upper_hold == 2
    assert cert.counterexample_fill == "no_filler"


def test_certify_globular():
    extras = [random_skeletal_complex("globular", 2, seed=s) for s in range(5)]
    cert = certify("globular", 2, extra_complexes=extras)
    assert cert.ok
    assert cert.claim.lower_fail == 2 and cert.claim.upper_hold == 3


def test_certify_rejects_wrong_skeletal_level():
    bad = random_skeletal_complex("cubical", 2, seed=0)
    with pytest.raises(ValueError):
        certify("cubical", 1, extra_complexes=[bad])


def test_certificate_deterministic():
    a = certify("cubical", 1, seed=3).to_json()
    b = certify("cubical", 1, seed=3).to_json()
    assert a == b


@pytest.mark.parametrize("shape,n", [
    ("cubical", 0), ("cubical", 2), ("simplicial", 1), ("simplicial", 3),
    ("globular", 0), ("globular", 2), ("cyclic", 1), ("cyclic", 2)])
def test_every_designated_sphere_is_checked(monkeypatch, shape, n):
    from aufhebung import bounds
    seen = []

    def refuse(X, s):
        seen.append(s)
        return False, "refused"

    monkeypatch.setattr(bounds, "is_sphere", refuse)
    with pytest.raises(AssertionError, match="refused"):
        build_counterexample(shape, n)
    assert len(seen) == 1


# -- cyclic comparison --------------------------------------------------------


def test_cyclic_counterexample_n1():
    X, s = build_cyclic_counterexample(1)
    assert brute_force_fill(X, s).status == "no_filler"
    # not (2n - 2) = 0-coskeletal, witnessed at dimension 1
    rep = coskeletal_up_to(X, 0, 4)
    assert not rep.coskeletal
    assert first_witness(rep)[0] == 1
    # (2n + 1) = 3-coskeletal up to the truncation window
    assert coskeletal_up_to(X, 3, 4).coskeletal


def test_cyclic_counterexample_n2():
    X, s = build_cyclic_counterexample(2)
    assert s.k == 3
    assert brute_force_fill(X, s).status == "no_filler"
    rep = coskeletal_up_to(X, 2, 6)
    assert not rep.coskeletal and first_witness(rep)[0] == 3
    assert coskeletal_up_to(X, 5, 6).coskeletal


def test_underlying_simplicial_skeletal_shift():
    for n in (1, 2):
        X, _ = build_cyclic_counterexample(n)
        U, _ = underlying_simplicial(X)
        assert U.shape == "simplicial"
        assert U.skeletal_level == n + 1
        assert U.validate().ok
        assert max(g.dim for g in U.generators.values()) == n + 1


def test_underlying_simplicial_cell_isomorphism():
    # the translated tables agree with the directly tabulated underlying
    # complex, so the two presentations are isomorphic
    X, _ = build_cyclic_counterexample(1)
    U, mapping = underlying_simplicial(X)
    translate = mapping["translate"]
    top = 4
    tabX, tabU = X.tabulate(top), U.tabulate(top)
    for k in range(top + 1):
        assert len(tabX.cells[k]) == len(tabU.cells[k])
        for cell in tabX.cells[k]:
            img = translate(cell)
            assert img in tabU.cells[k]
            if k >= 1:
                for fm_cyc, fm_simp in zip(face_maps(X, k), face_maps(U, k)):
                    assert translate(reference_act(X, cell, fm_cyc)) == \
                        reference_act(U, img, fm_simp)


def test_degeneracy_shift_at_most_one():
    # cyclic degeneracy and underlying simplicial degeneracy differ by <= 1
    for n in (1, 2):
        X, _ = build_cyclic_counterexample(n)
        top = min(X.truncation, 5)
        for k in range(top + 1):
            for cell in X.cells_of_dim(k):
                core, epi = simplicial_core(X, cell)
                cyc_dgn = X.dgn(cell)
                simp_dgn = k - core.dim
                assert abs(cyc_dgn - simp_dgn) <= 1


def test_cyclic_vs_underlying_reports_agree():
    for n in (1, 2):
        X, _ = build_cyclic_counterexample(n)
        U, _ = underlying_simplicial(X)
        top = min(X.truncation, 2 * n + 2)
        for k in range(n + 2, top + 1):
            rx = coskeletal_up_to(X, k - 1, k)
            ru = coskeletal_up_to(U, k - 1, k)
            assert rx.coskeletal == ru.coskeletal
            assert [lv.n_spheres for lv in rx.levels] == \
                [lv.n_spheres for lv in ru.levels]


def test_certify_cyclic():
    cert = certify("cyclic", 1)
    assert cert.ok
    assert cert.claim.upper_hold == 3
    assert cert.expected_cyclic_bound == 1
    assert cert.cyclic_cross_check


def test_random_complexes_validate_and_are_deterministic():
    for shape in ("simplicial", "cubical", "globular", "cyclic"):
        X = random_skeletal_complex(shape, 1, seed=42)
        Y = random_skeletal_complex(shape, 1, seed=42)
        assert X.validate().ok
        assert [g.name for g in X.generators.values()] == \
            [g.name for g in Y.generators.values()]
        assert all(a.faces == b.faces for a, b in
                   zip(X.generators.values(), Y.generators.values()))


def test_build_counterexample_dispatch():
    for shape, n in (("cubical", 1), ("simplicial", 3), ("globular", 1),
                     ("cyclic", 1)):
        X, s = build_counterexample(shape, n)
        assert X.shape == shape
        assert X.validate().ok


def test_hundred_seeds_cubical_n1_all_validate():
    for seed in range(100):
        X = random_skeletal_complex("cubical", 1, seed=seed)
        assert X.validate().ok


@pytest.mark.parametrize("n,extra", [(1, 0), (2, 0), (1, 2)])
def test_cyclic_cross_check_scans_each_complex_once(monkeypatch, n, extra):
    from aufhebung import bounds
    calls = []

    def counted(Y, *args, **kwargs):
        calls.append(Y.shape)
        return coskeletal_up_to(Y, *args, **kwargs)

    Ys = [random_skeletal_complex("cyclic", n, seed) for seed in range(extra)]
    want = certify("cyclic", n, extra_complexes=Ys)
    monkeypatch.setattr(bounds, "coskeletal_up_to", counted)
    cert = certify("cyclic", n, extra_complexes=Ys)
    # the counterexample and each extra complex once, and U once
    assert calls == ["cyclic"] * (1 + extra) + ["simplicial"]
    assert cert.to_json() == want.to_json()
    # each cross-check entry is the one-level report of its own scan
    X, _ = build_cyclic_counterexample(n)
    U, _ = underlying_simplicial(X)
    per_level = []
    for k in range(claimed_upper("cyclic", n) + 1, X.truncation + 1):
        per_level += [coskeletal_up_to(X, k - 1, k), coskeletal_up_to(U, k - 1, k)]
    assert [r.to_dict() for r in cert.cyclic_cross_check] == \
        [r.to_dict() for r in per_level]


def test_certify_cyclic_n2():
    cert = certify("cyclic", 2)
    assert cert.ok
    assert cert.claim.lower_fail == 2 and cert.claim.upper_hold == 5
