"""Cell calculus on skeletal complexes: actions, degeneracy laws, tabulation."""

import random

import pytest
from reference_tables import ReferenceTables, act_cycle_violations, face_maps

from aufhebung.bounds import (
    build_cubical_counterexample,
    build_simplicial_counterexample,
)
from aufhebung.complexes import (
    Cell,
    ComplexError,
    GeneratorDecl,
    SkeletalComplex,
    TruncationError,
)
from aufhebung.shapes import (
    CubeMorphism,
    CyclicMorphism,
    GlobeMorphism,
    SimplexMorphism,
    compose,
    count_epis,
    identity,
    normalize,
)


def cubical_pair():
    return build_cubical_counterexample(1)[0]


def single_vertex(shape):
    return SkeletalComplex(shape, 0, [GeneratorDecl("v", 0, ())], truncation=5)


def test_validate_single_vertex():
    assert single_vertex("simplicial").validate().ok
    assert single_vertex("cubical").validate().ok
    assert single_vertex("globular").validate().ok
    assert single_vertex("cyclic").validate().ok


def test_validate_counterexample_complex():
    assert cubical_pair().validate().ok


def _complex(shape, decls):
    """A 2-skeletal complex from (name, dim, face names) triples; every
    face is a generator itself."""
    dims = {name: dim for name, dim, _ in decls}
    return SkeletalComplex(shape, 2, [
        GeneratorDecl(name, dim, tuple(Cell(f, identity(shape, dims[f]))
                                       for f in faces))
        for name, dim, faces in decls], truncation=4)


def _cycle_details(X, name):
    rep = X.validate()
    assert all(v.kind == "cycle" and v.generator == name
               for v in rep.violations)
    return [v.detail for v in rep.violations]


TRIANGLE = [("a", 0, ()), ("b", 0, ()), ("c", 0, ()),
            ("ab", 1, ("b", "a")), ("ac", 1, ("c", "a")), ("bc", 1, ("c", "b"))]


def test_validate_triangle_and_broken_cycle_equation():
    for shape in ("simplicial", "cyclic"):
        good = _complex(shape, TRIANGLE + [("t", 2, ("bc", "ac", "ab"))])
        assert good.validate().ok
        bad = _complex(shape, TRIANGLE + [("t", 2, ("ac", "bc", "ab"))])
        assert _cycle_details(bad, "t") == ["c_2 d_0 != c_0 d_1",
                                            "c_2 d_1 != c_1 d_1"]
    # a square of loops e: v -> v, and one with its last face f: v -> w
    edges = [("v", 0, ()), ("w", 0, ()),
             ("e", 1, ("v", "v")), ("f", 1, ("v", "w"))]
    good = _complex("cubical", edges + [("sq", 2, ("e", "e", "e", "e"))])
    assert good.validate().ok
    bad = _complex("cubical", edges + [("sq", 2, ("e", "e", "e", "f"))])
    assert _cycle_details(bad, "sq") == ["c_3 d_1 != c_1 d_1"]
    # a 2-glob between parallel 1-globs, and one between antiparallel ones
    globs = [("v", 0, ()), ("w", 0, ()),
             ("f", 1, ("v", "w")), ("g", 1, ("v", "w")), ("h", 1, ("w", "v"))]
    good = _complex("globular", globs + [("z", 2, ("f", "g"))])
    assert good.validate().ok
    bad = _complex("globular", globs + [("z", 2, ("f", "h"))])
    assert _cycle_details(bad, "z") == ["c_1 d_0 != c_0 d_0",
                                        "c_1 d_1 != c_0 d_1"]


def test_validate_catches_arity_and_dimension():
    v = Cell("v", SimplexMorphism.identity(0))
    Y = SkeletalComplex("simplicial", 1,
                        [GeneratorDecl("v", 0, ()),
                         GeneratorDecl("e", 1, (v,))], truncation=3)
    rep = Y.validate()
    assert not rep.ok and any(v_.kind == "arity" for v_ in rep.violations)
    Z = SkeletalComplex("simplicial", 0,
                        [GeneratorDecl("v", 0, ()),
                         GeneratorDecl("w", 1, (v, v))], truncation=3)
    rep = Z.validate()
    assert not rep.ok and any(v_.kind == "dimension" for v_ in rep.violations)


# f names e, a 1-cell, as a vertex; t is built on f and so is not sound
BAD_FACE_DIMENSION = ("shape simplicial\nskeletal 2\ngen v dim 0\n"
                      "gen e dim 1 faces v v\ngen f dim 1 faces e v\n"
                      "gen t dim 2 faces f f f\n")


def test_validate_skips_cycle_equations_above_an_unsound_generator():
    from aufhebung.complexes import Violation
    from aufhebung.fileio import parse_complex
    rep = parse_complex(BAD_FACE_DIMENSION).validate()
    assert rep.violations == (Violation(
        "f", "dimension", "face Cell(e, id) has dimension 1, expected 0"),)
    # the cycle equations of the sound generators are still checked, on the
    # sub-complex of the sound ones: s breaks three, u (on the unsound f)
    # is not checked
    X = parse_complex(BAD_FACE_DIMENSION.replace("gen t", "gen u") + (
        "gen a dim 0\ngen b dim 0\ngen ab dim 1 faces b a\n"
        "gen s dim 2 faces ab e ab\n"))
    broken = ["c_1 d_0 != c_0 d_0", "c_2 d_0 != c_0 d_1", "c_2 d_1 != c_1 d_1"]
    assert list(act_cycle_violations(X, X.generators["s"].faces, 2)) == broken
    assert [(v_.generator, v_.kind, v_.detail) for v_ in X.validate().violations] == [
        ("f", "dimension", "face Cell(e, id) has dimension 1, expected 0")] + [
        ("s", "cycle", why) for why in broken]


def test_act_through_a_bad_face_raises_and_an_epi_does_not():
    # f names the 1-cell e as a face, so no face table that holds f can be
    # gathered: a face walk through f or above it raises, while an epi,
    # which reads no table, still gives the degenerate copy
    from aufhebung.fileio import parse_complex
    X = parse_complex(BAD_FACE_DIMENSION)
    for name in ("f", "t"):
        cell = X.generator_cell(name)
        with pytest.raises(ComplexError):
            X.act(cell, SimplexMorphism.face(0, cell.dim))
        s0 = SimplexMorphism.degeneracy(0, cell.dim + 1)
        assert X.act(cell, s0) == Cell(name, s0)


def test_validate_rejects_a_face_that_is_not_a_cell():
    # f's first face names the 1-cell e by a 0-dimensional epi; the face
    # table could not gather it
    v = Cell("v", SimplexMorphism.identity(0))
    w = Cell("w", SimplexMorphism.identity(0))
    X = SkeletalComplex("simplicial", 2, [
        GeneratorDecl("v", 0, ()), GeneratorDecl("w", 0, ()),
        GeneratorDecl("e", 1, (v, w)),
        GeneratorDecl("f", 1, (Cell("e", SimplexMorphism.identity(0)), v)),
        GeneratorDecl("t", 2, (Cell("f", SimplexMorphism.identity(1)),) * 3)],
        truncation=3)
    assert [(v_.generator, v_.kind, v_.detail) for v_ in X.validate().violations] == [
        ("f", "reference", "face Cell(e, id) is not a cell of generator 'e'")]


V = Cell("v", SimplexMorphism.identity(0))
E = Cell("e", SimplexMorphism.identity(1))


@pytest.mark.parametrize("dim,faces,message", [
    (1, (V, Cell("w", SimplexMorphism.identity(0))),
     "face Cell(w, id) of 'x' uses undeclared generator 'w'"),
    (2, (E, V, E), "face Cell(v, id) of 'x' has dimension 0, expected 1"),
    (1, (Cell("e", SimplexMorphism.identity(0)), V),
     "face Cell(e, id) of 'x' is not a cell of generator 'e'"),
    (2, (E, E), "'x' has 2 faces, expected 3"),
    (1, (V, V, V), "'x' has 3 faces, expected 2"),
], ids=["undeclared", "wrong-dimension", "not-a-cell", "too-few", "too-many"])
def test_face_tables_refuse_ill_formed_faces(dim, faces, message):
    # tabulation does not validate: the table of any dimension k at or
    # above x's gathers its faces, and raises ComplexError (no KeyError,
    # and no table with a slot left unfilled) for each, while the tables
    # below it build
    X = SkeletalComplex("simplicial", 2, [
        GeneratorDecl("v", 0, ()), GeneratorDecl("e", 1, (V, V)),
        GeneratorDecl("x", dim, faces)], truncation=4)
    for k in range(dim, 5):
        with pytest.raises(ComplexError) as err:
            X.tabulate(k)
        assert str(err.value) == message
        assert X.tabulate(dim - 1).faces[dim - 1].shape[0] == len(X.cells_of_dim(dim - 1))


def test_act_identity_and_functoriality_fuzz():
    X = cubical_pair()
    rng = random.Random(8)
    tab = X.tabulate(4)
    for _ in range(10 ** 4):
        k = rng.randrange(5)
        cells = tab.cells[k]
        c = cells[rng.randrange(len(cells))]
        assert X.act(c, CubeMorphism.identity(k)) == c
        # a random composable pair through dimension j
        j = rng.randrange(5)
        g = _random_cube_morphism(rng, j, k)
        m = rng.randrange(5)
        f = _random_cube_morphism(rng, m, j)
        assert X.act(X.act(c, g), f) == X.act(c, compose(g, f))


def _random_cube_morphism(rng, dom, cod):
    toks, cur = [], dom
    while cur != cod or rng.random() < 0.3:
        if cur > cod or (cur == cod and cur > 0 and rng.random() < 0.5):
            toks.append(f"b{rng.randrange(1, cur + 1)}")
            cur -= 1
        else:
            toks.append(f"a{rng.randrange(2)}@{rng.randrange(1, cur + 2)}")
            cur += 1
        if len(toks) > 12:
            break
    toks.reverse()
    f = normalize("cubical", toks, dom=dom)
    if f.cod != cod:
        return _random_cube_morphism(rng, dom, cod)
    return f


def test_degeneracy_degree_laws_exhaustive():
    # dgn(x s_i) = dgn(x) + 1 and dgn(x d_i) >= dgn(x) - 1 up to dim 6
    X, _ = build_simplicial_counterexample(3, truncation=7)
    for k in range(7):
        for c in X.cells_of_dim(k):
            for s in X.degeneracy_maps(k):
                assert X.dgn(X.act(c, s)) == X.dgn(c) + 1
            if k >= 1:
                for d in face_maps(X, k):
                    drop = X.dgn(c) - X.dgn(X.act(c, d))
                    assert drop <= 1


def test_cubical_degeneracy_laws():
    for X in (cubical_pair(),
              build_cubical_counterexample(2, truncation=6)[0]):
        top = X.truncation - 1
        for k in range(min(top, 6)):
            for c in X.cells_of_dim(k):
                for s in X.degeneracy_maps(k):
                    assert X.dgn(X.act(c, s)) == X.dgn(c) + 1
                if k >= 1:
                    for d in face_maps(X, k):
                        assert X.dgn(X.act(c, d)) >= X.dgn(c) - 1


def test_ez_decompose_structural():
    X = cubical_pair()
    c = X.cell("x", "b1 b2")
    # a cell is stored as its Eilenberg-Zilber pair: generator and epi
    assert X.generator_cell(c.generator) == X.generator_cell("x")
    assert c.epi == normalize("cubical", "b1 b2", dom=c.dim)
    assert X.dgn(c) == 2


def test_ez_word_entry():
    # v s0 s0 entered as a free word normalises to the canonical epi s0 s1
    X = single_vertex("simplicial")
    w = normalize("simplicial", "s0 s0", dom=2)
    assert w == SimplexMorphism(2, 0, (), (0, 1))
    c = X.cell("v", "s0 s1")
    assert Cell("v", w) == c


def test_ez_oracle_exhaustive():
    # exhaustive tabulated search agrees with the structural representation
    for X in (cubical_pair(), build_simplicial_counterexample(3, truncation=6)[0]):
        top = 4 if X.shape == "cubical" else 5
        tab = X.tabulate(top)
        ref = ReferenceTables(tab)
        for k in range(top):
            for cid, cell in enumerate(tab.cells[k]):
                found = ref.ez_decompose_tabulated(cid, k)
                assert len(found) == 1
                m, y, eps = found[0]
                assert tab.cells[m][y] == Cell(cell.generator,
                                               type(cell.epi).identity(m))
                assert eps == cell.epi


def test_ez_oracle_cyclic_orbits():
    from aufhebung.bounds import build_cyclic_counterexample
    X, _ = build_cyclic_counterexample(1)
    tab = X.tabulate(3)
    ref = ReferenceTables(tab)
    for k in range(3):
        for cid, cell in enumerate(tab.cells[k]):
            found = ref.ez_decompose_tabulated(cid, k)
            # uniqueness up to rotating the core
            assert len(found) == cell.generator_dim + 1
            assert sum(1 for m, y, eps in found
                       if tab.cells[m][y].epi.is_identity and eps == cell.epi) == 1


def test_reduces_matches_deletion_set():
    X = cubical_pair()
    tab = X.tabulate(4)
    for k in range(1, 5):
        for c in tab.cells[k]:
            for i in range(1, k + 1):
                red = X.reduces(c, i)
                # (iii)/(iv): the EZ epi deletes coordinate i
                assert red == (i in c.epi.deletes)
                if red:
                    # (ii) both faces drop, (v)/(vi) the cell regenerates
                    f0 = X.act(c, CubeMorphism.face(i, 0, k))
                    f1 = X.act(c, CubeMorphism.face(i, 1, k))
                    assert f0 == f1
                    assert X.dgn(f0) == X.dgn(c) - 1
                    assert X.act(f0, CubeMorphism.projection(i, k)) == c


def test_coreduced_cells_sharing_a_face_are_equal():
    # cells reduced by a common i sharing one face at i are equal
    X = cubical_pair()
    tab = X.tabulate(4)
    for k in range(1, 5):
        layer = tab.cells[k]
        for i in range(1, k + 1):
            reduced = [c for c in layer if X.reduces(c, i)]
            for a in reduced:
                for b in reduced:
                    for sa in (0, 1):
                        for sb in (0, 1):
                            fa = X.act(a, CubeMorphism.face(i, sa, k))
                            fb = X.act(b, CubeMorphism.face(i, sb, k))
                            if fa == fb:
                                assert a == b


def test_properly_reduces_iff_epi_merges():
    X, _ = build_simplicial_counterexample(3, truncation=6)
    tab = X.tabulate(5)
    for k in range(1, 6):
        for c in tab.cells[k]:
            eps = c.epi
            for i in range(k + 1):
                proper = X.properly_reduces(c, i)
                assert proper == (i <= k - 1 and eps(i) == eps(i + 1))
            # a cell is properly reduced by exactly dgn-many ordinals
            count = sum(X.properly_reduces(c, i) for i in range(k + 1))
            assert count == X.dgn(c)


def test_reduction_implications():
    # proper at i forces plain reduction at i + 1; plain-not-proper at i
    # forces proper at i - 1
    X, _ = build_simplicial_counterexample(3, truncation=6)
    tab = X.tabulate(5)
    for k in range(1, 6):
        for c in tab.cells[k]:
            for i in range(k + 1):
                if X.properly_reduces(c, i) and i + 1 <= k:
                    assert X.reduces(c, i + 1)
                if X.reduces(c, i) and not X.properly_reduces(c, i):
                    assert i >= 1 and X.properly_reduces(c, i - 1)


def test_degenerate_cells_equal_iff_same_faces():
    # two degenerate cells of one dimension with identical face lists agree
    for X in (cubical_pair(),
              build_cubical_counterexample(2, truncation=6)[0],
              build_simplicial_counterexample(3, truncation=6)[0]):
        top = 4 if X.truncation == 4 else 6
        tab = X.tabulate(top)
        for k in range(1, top + 1):
            degen = [c for c in tab.cells[k] if X.dgn(c) > 0]
            seen = {}
            for c in degen:
                key = tuple(X.act(c, fm) for fm in face_maps(X, k))
                assert key not in seen or seen[key] == c
                seen[key] = c


def test_cells_of_dim_counts():
    X = cubical_pair()
    assert [X.count_cells(k) for k in range(5)] == [1, 3, 5, 7, 9]
    for k in range(5):
        cells = X.cells_of_dim(k)
        assert len(cells) == X.count_cells(k)
        assert len(set(cells)) == len(cells)
        assert X.count_cells(k) == sum(
            count_epis(k, g.dim, "cubical") for g in X.generators.values())


def test_single_vertex_cell_counts():
    X = single_vertex("simplicial")
    assert [X.count_cells(k) for k in range(4)] == [1, 1, 1, 1]
    c2 = X.cells_of_dim(2)
    assert list(c2) == [Cell("v", SimplexMorphism(2, 0, (), (0, 1)))]


def test_tabulation_relation_instances():
    # functoriality of the tables: composing elementary actions matches the
    # action of the composite, for every cell and composable generator pair
    X, _ = build_simplicial_counterexample(3, truncation=6)
    tab = X.tabulate(4)
    for k in range(1, 4):
        for c in tab.cells[k]:
            for fm in face_maps(X, k):
                for fm2 in face_maps(X, k - 1) if k >= 2 else []:
                    assert X.act(X.act(c, fm), fm2) == X.act(c, compose(fm, fm2))
                for dm in X.degeneracy_maps(k - 1):
                    assert X.act(X.act(c, fm), dm) == X.act(c, compose(fm, dm))


def test_truncation_guard():
    X = cubical_pair()
    with pytest.raises(TruncationError):
        X.cells_of_dim(5)
    c = X.generator_cell("x")
    w = X.act(c, CubeMorphism.projection(1, 2))
    with pytest.raises(TruncationError):
        X.act(c, CubeMorphism(5, 1, (), (1, 2, 3, 4)))


def test_empty_complex_is_valid_and_vacuously_coskeletal():
    from aufhebung.fillers import coskeletal_up_to
    X = SkeletalComplex("simplicial", 0, [], truncation=3)
    assert X.validate().ok
    assert list(X.cells_of_dim(2)) == []
    rep = coskeletal_up_to(X, 1, 3)
    assert rep.coskeletal
    assert all(lv.coverage == "vacuous" for lv in rep.levels)


def test_globular_cells_one_degeneracy_tower():
    from aufhebung.bounds import build_globular_counterexample
    X, _ = build_globular_counterexample(2)
    # one cell per generator per dimension at or above its own
    assert X.count_cells(0) == 1
    assert X.count_cells(1) == 1
    assert X.count_cells(2) == 3
    assert X.count_cells(3) == 3
    v = X.generator_cell("v")
    up = X.act(v, GlobeMorphism.generator("iot", 1))
    assert up == Cell("v", GlobeMorphism(1, 0, ("iot",)))
    assert X.act(up, GlobeMorphism.generator("sig", 0)) == v
    assert X.act(up, GlobeMorphism.generator("tau", 0)) == v


def test_cyclic_rotation_acts_freely_on_generators():
    from aufhebung.bounds import build_cyclic_counterexample
    X, _ = build_cyclic_counterexample(2)
    x = X.generator_cell("x")
    seen = {x}
    cur = x
    for _ in range(2):
        cur = X.act(cur, CyclicMorphism.rotation_map(2))
        assert cur not in seen
        seen.add(cur)
    assert X.act(cur, CyclicMorphism.rotation_map(2)) == x
