"""Independent cross-checks: presentation identities, table coherence, and
the sphere kernel against a naive product-filter enumeration."""

import random
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import LOOP_SIZES, TABLE_CASES, empty_table, enumerate_spheres, loops, table_complexes
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_scan import reference_is_sphere
from reference_tables import (
    ReferenceTables,
    act_cycle_violations,
    act_face_table,
    face_maps,
    reference_act,
    reference_epi_keys,
)

from aufhebung import _kernels, complexes
from aufhebung.bounds import (
    build_counterexample,
    build_cubical_counterexample,
    build_cyclic_counterexample,
    build_globular_counterexample,
    build_simplicial_counterexample,
    random_skeletal_complex,
)
from aufhebung.complexes import Cell, GeneratorDecl, SkeletalComplex, face_arity
from aufhebung.fillers import is_sphere, make_sphere
from aufhebung.shapes import (
    SHAPES,
    CyclicMorphism,
    SimplexMorphism,
    compose,
    count_epis,
    enumerate_epis,
    enumerate_monos,
    epi_composition,
    epi_mono_factor,
    epi_of_rank,
    epi_rank,
    face_step,
    identity,
)


def d(i, n):
    return CyclicMorphism.from_simplex(SimplexMorphism.face(i, n))


def s(j, n):
    return CyclicMorphism.from_simplex(SimplexMorphism.degeneracy(j, n))


def test_cyclic_presentation_identities():
    # the rotation presentation in the +1 convention, as morphism equalities
    for n in range(1, 6):
        t = CyclicMorphism.rotation_map(n)
        t_low = CyclicMorphism.rotation_map(n - 1)
        for i in range(n):
            assert compose(t, d(i, n)) == compose(d(i + 1, n), t_low)
        assert compose(t, d(n, n)) == d(0, n)
    for n in range(5):
        t = CyclicMorphism.rotation_map(n)
        t_hi = CyclicMorphism.rotation_map(n + 1)
        wrap = CyclicMorphism.extra_degeneracy(n + 1)
        assert wrap == compose(s(0, n + 1), t_hi)
        for i in range(n):
            assert compose(t, s(i, n + 1)) == compose(s(i + 1, n + 1), t_hi)
        assert compose(t, s(n, n + 1)) == compose(wrap, t_hi)


def assert_tables_match_act_oracle(X):
    """Every face table of ``X`` up to its truncation is read-only int32
    and equals the act oracle's."""
    for k, got in enumerate(X.tabulate(X.truncation).faces):
        want = act_face_table(X, k)
        assert got.dtype == want.dtype == np.int32 and not got.flags.writeable
        assert got.shape == want.shape and np.array_equal(got, want), (X.shape, k)


@pytest.mark.parametrize("shape,n", TABLE_CASES)
def test_face_tables_match_act_oracle(shape, n):
    for X in table_complexes(shape, n):
        assert_tables_match_act_oracle(X)


@pytest.mark.parametrize("shape", sorted(LOOP_SIZES))
def test_face_tables_match_act_oracle_on_dense_loops(shape):
    assert_tables_match_act_oracle(loops(shape, *LOOP_SIZES[shape]))


def interleaved(Xs, seed):
    """The disjoint union of the complexes ``Xs``, its generators declared
    in a seeded order in which each follows those its faces name and
    changes dimension from the one before wherever it can."""
    left = [GeneratorDecl(f"{i}{g.name}", g.dim,
                          tuple(Cell(f"{i}{c.generator}", c.epi) for c in g.faces))
            for i, X in enumerate(Xs) for g in X.generators.values()]
    rng, placed, order = random.Random(seed), set(), []
    while left:
        ready = [g for g in left if {c.generator for c in g.faces} <= placed]
        g = rng.choice([g for g in ready if order and g.dim != order[-1].dim] or ready)
        left.remove(g)
        placed.add(g.name)
        order.append(g)
    X = Xs[0]
    return SkeletalComplex(X.shape, X.skeletal_level, order, X.truncation)


@pytest.mark.parametrize("shape,n", [("cubical", 2), ("simplicial", 3),
                                     ("globular", 3), ("cyclic", 2)])
def test_face_tables_match_act_oracle_out_of_dimension_order(shape, n):
    # the generators of one dimension are not declared together, so their
    # rows of a face table are not contiguous
    for seed in (1, 2, 3):
        X = interleaved([random_skeletal_complex(shape, n, seed),
                         build_counterexample(shape, n)[0]], seed)
        dims = [g.dim for g in X.generators.values()]
        runs = 1 + sum(a != b for a, b in zip(dims, dims[1:]))
        assert runs > len(set(dims)) and X.validate().ok
        assert_tables_match_act_oracle(X)


def mixed_faces(shape):
    """A vertex v, a loop e at v, then a 2- and a 3-generator, each attached
    to the first sphere with the most distinct generators among its
    faces, one per dimension here, so that some faces are degenerate."""
    v = Cell("v", identity(shape, 0))
    gens = [GeneratorDecl("v", 0, ()),
            GeneratorDecl("e", 1, (v,) * face_arity(shape, 1))]
    for d in (2, 3):
        spheres = enumerate_spheres(SkeletalComplex(shape, d - 1, gens, truncation=d), d)
        faces = max(spheres, key=lambda s: len({c.generator for c in s.faces})).faces
        gens.append(GeneratorDecl(f"t{d}", d, faces))
    return SkeletalComplex(shape, 3, gens, truncation=6)


@pytest.mark.parametrize("shape", SHAPES)
def test_face_tables_match_act_oracle_on_mixed_faces(shape):
    # t2 has faces over generators of dimensions 0 and 1, and t3 over all
    # three lower dimensions, except globular t3: a globular 3-sphere is a
    # parallel pair, so it repeats one generator
    X = mixed_faces(shape)
    assert X.validate().ok
    spans = [len({c.generator_dim for c in X.generators[t].faces}) for t in ("t2", "t3")]
    assert spans == [2, 1 if shape == "globular" else 3]
    assert_tables_match_act_oracle(X)


@pytest.mark.parametrize("shape,n", TABLE_CASES)
def test_tabulation_ranks_each_generator_face_once(shape, n, monkeypatch):
    # a complex ranks each generator face's epi once, however many
    # dimensions it tabulates, and never again
    ranked = []
    monkeypatch.setattr(complexes, "epi_rank",
                        lambda f: ranked.append(f) or epi_rank(f))
    for X in table_complexes(shape, n) + [mixed_faces(shape)]:
        X = SkeletalComplex(X.shape, X.skeletal_level, X.generators.values(), X.truncation)
        ranked.clear()
        X.tabulate(X.truncation)
        X.tabulate(X.truncation)
        assert sorted(map(repr, ranked)) == sorted(
            repr(c.epi) for g in X.generators.values() for c in g.faces)


@pytest.mark.parametrize("shape,n", TABLE_CASES)
def test_faces_match_act_oracle(shape, n):
    # every cell's faces, read off the face table, against the action by
    # each elementary face map
    for X in table_complexes(shape, n):
        for k in range(1, X.truncation + 1):
            fmaps = face_maps(X, k)
            for c in X.cells_of_dim(k):
                assert X.faces(c) == tuple(reference_act(X, c, fm) for fm in fmaps), \
                    (shape, n, k, c)


@pytest.mark.parametrize("shape,n", TABLE_CASES)
def test_cycle_violations_match_act_oracle_on_generators(shape, n):
    for X in table_complexes(shape, n):
        for g in X.generators.values():
            got = list(X.cycle_violations(g.faces, g.dim))
            assert got == list(act_cycle_violations(X, g.faces, g.dim)) == []


@pytest.mark.parametrize("shape,n", TABLE_CASES)
def test_act_matches_reference_act(shape, n):
    # the face-table walk of act against the recursive push, on a seeded
    # sample of each layer: monos from every dimension at or below the
    # cell's, multi-face ones and for cyclic the rotations included, and
    # epis from up to two dimensions above
    rng = random.Random(n)

    def sample(seq, size):
        return rng.sample(seq, min(size, len(seq)))

    for X in table_complexes(shape, n):
        top = min(X.truncation, n + 3)
        for k in range(top + 1):
            maps = [f for j in range(k + 1) for f in sample(enumerate_monos(j, k, shape), 6)]
            maps += [f for j in range(k + 1, min(k + 2, X.truncation) + 1)
                     for f in sample(enumerate_epis(j, k, shape), 4)]
            for c in sample(X.cells_of_dim(k), 20):
                for f in maps:
                    assert X.act(c, f) == reference_act(X, c, f), (shape, n, c, f)


@lru_cache(maxsize=None)
def _oracle_complex(shape, n, seed):
    if seed == 0:
        return build_counterexample(shape, n)[0]
    return random_skeletal_complex(shape, n, seed)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([case for case in TABLE_CASES if case[1] <= 2]),
       st.integers(0, 3), st.data())
def test_cycle_violations_match_act_oracle_on_drawn_families(case, seed, data):
    # a family of (k-1)-cells is either drawn slot by slot, which breaks
    # equations more often than not, or the boundary of a k-cell with
    # some slots redrawn
    X = _oracle_complex(*case, seed)
    k = data.draw(st.integers(1, X.truncation), label="k")
    below = X.cells_of_dim(k - 1)
    if not len(below):
        return
    arity = face_arity(X.shape, k)
    slot = st.integers(0, len(below) - 1)
    if data.draw(st.booleans(), label="from a boundary"):
        cells = X.cells_of_dim(k)
        ids = [below.index(c) for c in X.faces(cells[data.draw(
            st.integers(0, len(cells) - 1), label="cell")])]
        for t in data.draw(st.lists(st.integers(0, arity - 1), max_size=2),
                           label="redrawn slots"):
            ids[t] = data.draw(slot)
    else:
        ids = data.draw(st.lists(slot, min_size=arity, max_size=arity), label="ids")
    faces = tuple(below[i] for i in ids)
    assert list(X.cycle_violations(faces, k)) == list(act_cycle_violations(X, faces, k))


@pytest.mark.parametrize("shape,n", TABLE_CASES)
def test_cell_layers_computed_from_ids(shape, n, monkeypatch):
    # a cell's id is arithmetic: generators in declaration order, each with
    # its epis in rank order, and index inverts indexing
    other = next(sh for sh in SHAPES if sh != shape)
    complexes = table_complexes(shape, n)
    for X in complexes:
        tab = X.tabulate(X.truncation)
        for k, layer in enumerate(tab.cells):
            want = [Cell(name, e) for name, g in X.generators.items()
                    for e in enumerate_epis(k, g.dim, shape)]
            assert list(layer) == want and len(layer) == tab.faces[k].shape[0]
            assert all(layer.index(layer[i]) == i for i in range(len(layer)))
            if want:
                assert layer[-1] == want[-1]
            with pytest.raises(IndexError):
                layer[len(layer)]
            foreign = [None, 0, Cell("no_such_generator", identity(shape, k))]
            if k >= 1:
                foreign += list(tab.cells[k - 1])[:3]
            if k < tab.up_to:
                foreign += list(tab.cells[k + 1])[:3]
            for name, g in X.generators.items():
                foreign += [Cell(name, e) for e in enumerate_epis(k, g.dim, other)[:2]]
                foreign += [Cell(name, f) for f in enumerate_monos(k, g.dim, shape)[:2]
                            if not f.is_epi]
            for c in foreign:
                assert c not in layer, (k, c)
                with pytest.raises(ValueError):
                    layer.index(c)
    # with the shape tables warm, tabulating a fresh copy builds no morphism
    from aufhebung import shapes
    built = []
    for cls in (shapes.SimplexMorphism, shapes.CubeMorphism,
                shapes.GlobeMorphism, shapes.CyclicMorphism):
        def counted(obj, *args, _init=cls.__init__, **kwargs):
            built.append(type(obj))
            _init(obj, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    for X in complexes:
        copy = SkeletalComplex(X.shape, X.skeletal_level, X.generators.values(),
                               X.truncation)
        tab = copy.tabulate(copy.truncation)
        assert [len(layer) for layer in tab.cells] == [f.shape[0] for f in tab.faces]
    assert built == []
    assert tab.cells[0][0] and built  # the counter sees a cell built on demand


def test_shape_tables_are_read_only():
    for shape in ("simplicial", "cubical", "globular", "cyclic"):
        for table in face_step(shape, 3, 1) + (epi_composition(shape, 3, 2, 1),):
            assert table.size and not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0
        assert face_step(shape, 3, 1)[0] is face_step(shape, 3, 1)[0]


def test_shape_tables_match_morphism_algebra():
    # every entry of the integer tables, from the morphism algebra alone: the
    # epi of each rank composed with each elementary face, or followed by each
    # epi, is factored, and its epi part is ranked and its mono read as the
    # face-table columns act walks; the cyclic grid stops one lower, since
    # composing cyclic lifts over the full grid takes about 8 s
    for shape in SHAPES:
        top = 7 if shape == "cyclic" else 8
        for k in range(top + 1):
            fmaps = face_maps(SimpleNamespace(shape=shape), k) if k else []
            for m in range(k + 1):
                face, epi = face_step(shape, k, m)
                assert face.shape == epi.shape == (count_epis(k, m, shape), len(fmaps))
                for e in range(len(face)):
                    f = epi_of_rank(shape, k, m, e)
                    assert epi_rank(f) == e
                    for slot, fm in enumerate(fmaps):
                        mono, rest = epi_mono_factor(compose(f, fm))
                        j = face[e, slot]
                        assert complexes._face_columns(mono) == ([j] if j >= 0 else [])
                        assert epi[e, slot] == epi_rank(rest)
        for a in range(top):
            for b in range(a + 1):
                firsts = enumerate_epis(a, b, shape)
                for c in range(b + 1):
                    thens = enumerate_epis(b, c, shape)
                    table = epi_composition(shape, a, b, c)
                    assert table.shape == (len(firsts), len(thens))
                    for i, first in enumerate(firsts):
                        for t, then in enumerate(thens):
                            assert table[i, t] == epi_rank(compose(then, first))


def _epi_key(f):
    """An epi's integer data as :func:`reference_epi_keys` lists it."""
    if f.shape == "cyclic":
        return (f.rotation, f.delta_part.epis)
    if f.shape == "cubical":
        return tuple(d - 1 for d in f.deletes)
    return () if f.shape == "globular" else f.epis


def test_epi_unranking_matches_key_order():
    # the closed-form unranking lists the epis in the order of the key
    # tuples, epi_rank inverts it, and a rank outside the layer is refused
    for shape in SHAPES:
        for n in range(10):
            for m in range(n + 2):
                epis = enumerate_epis(n, m, shape)
                assert [_epi_key(f) for f in epis] == list(reference_epi_keys(shape, n, m))
                assert [epi_rank(f) for f in epis] == list(range(count_epis(n, m, shape)))
                for rank in (-1, len(epis)):
                    with pytest.raises(IndexError):
                        epi_of_rank(shape, n, m, rank)


def test_shape_tables_build_no_morphisms(monkeypatch):
    # integer data only: no morphism is constructed, composed or factored
    from aufhebung import shapes

    def refuse(*args, **kwargs):
        raise AssertionError("a shape table touched the morphism algebra")

    for cls in (shapes.SimplexMorphism, shapes.CubeMorphism,
                shapes.GlobeMorphism, shapes.CyclicMorphism):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(shapes, "compose", refuse)
    monkeypatch.setattr(shapes, "epi_mono_factor", refuse)
    for shape in ("simplicial", "cubical", "globular", "cyclic"):
        # past the cache, so the tables are really built here; k = 0 has no
        # slots, k = 1 takes the cyclic rotation mod 1, and m = 0, m = k,
        # b = 0, c = 0 and a = b are the edges of the epi sets
        for k, m in ((5, 2), (0, 0), (1, 0), (1, 1), (4, 0), (4, 4)):
            face_step.__wrapped__(shape, k, m)
        for a, b, c in ((5, 3, 1), (0, 0, 0), (3, 0, 0), (4, 2, 0), (3, 3, 1), (2, 2, 2)):
            epi_composition.__wrapped__(shape, a, b, c)


def test_tables_satisfy_all_relations():
    jobs = [
        (build_cubical_counterexample(1)[0], 4),
        (build_cubical_counterexample(2, truncation=6)[0], 5),
        (build_simplicial_counterexample(3, truncation=7)[0], 6),
        (build_globular_counterexample(2)[0], 5),
        (build_cyclic_counterexample(1)[0], 4),
        (build_cyclic_counterexample(2)[0], 4),
    ]
    for seed in range(3):
        jobs.append((random_skeletal_complex("simplicial", 2, seed=seed), 5))
        jobs.append((random_skeletal_complex("cyclic", 1, seed=seed), 4))
    for X, top in jobs:
        assert ReferenceTables(X.tabulate(top)).verify_tables() == []


def _naive_spheres(X, tab, k):
    """Every tuple of (k-1)-cells passing the reference cycle equations, by
    brute product scan; ``is_sphere`` must agree on every tuple."""
    layer = tab.cells[k - 1]
    arity = face_arity(X.shape, k)
    out = []
    for combo in product(range(len(layer)), repeat=arity):
        candidate = make_sphere(X, tuple(layer[i] for i in combo), k)
        ok, _ = reference_is_sphere(X, candidate)
        assert is_sphere(X, candidate)[0] == ok, (X.shape, k, combo)
        if ok:
            out.append(combo)
    return out


def test_kernel_scan_matches_naive_enumeration():
    jobs = [
        (build_cubical_counterexample(1)[0], [2]),
        (build_globular_counterexample(1)[0], [2, 3]),
        (build_cyclic_counterexample(1)[0], [2]),
    ]
    a, b, c = (Cell(n, SimplexMorphism.identity(0)) for n in "abc")
    tri = SkeletalComplex("simplicial", 1, [
        GeneratorDecl("a", 0, ()), GeneratorDecl("b", 0, ()),
        GeneratorDecl("c", 0, ()),
        GeneratorDecl("ab", 1, (b, a)),
        GeneratorDecl("ac", 1, (c, a)),
        GeneratorDecl("bc", 1, (c, b)),
    ], truncation=3)
    jobs.append((tri, [2, 3]))
    for X, ks in jobs:
        tab = X.tabulate(max(ks))
        for k in ks:
            scan = _kernels.scan_spheres(tab.faces[k - 1], empty_table(X.shape, k),
                                         X.shape, k, budget=10 ** 6,
                                         miss_cap=10 ** 5)
            got = [tuple(map(int, row)) for row in scan.missing]
            want = _naive_spheres(X, tab, k)
            assert got == want, (X.shape, k)


def test_naive_filler_counts_match_oracle():
    # count fillers of each naive sphere by scanning boundary tuples via act
    X = build_cubical_counterexample(1)[0]
    tab = X.tabulate(3)
    k = 2
    from aufhebung.fillers import brute_force_fill
    for combo in _naive_spheres(X, tab, k):
        sphere = make_sphere(X, tuple(tab.cells[k - 1][i] for i in combo), k)
        res = brute_force_fill(X, sphere)
        direct = [c for c in tab.cells[k]
                  if tuple(reference_act(X, c, fm) for fm in face_maps(X, k)) == sphere.faces]
        assert list(res.witnesses) == direct
