"""Cyclic-category algebra: rotation normal forms and the integer-lift oracle."""

import random
from itertools import combinations_with_replacement

import pytest
from reference_tables import reference_split_lift

from aufhebung.shapes import (
    CyclicMorphism,
    ShapeError,
    SimplexMorphism,
    _split_lift,
    compose,
    enumerate_epis,
    format_morphism,
    normalize,
    parse_token,
    sections_of,
)


def lift_window(f):
    """The values of ``f``'s canonical lift on 0..dom, shifted so that the
    first lies in [0, cod]: one integer tuple per cyclic morphism."""
    vals = tuple(f.lift(x) for x in range(f.dom + 1))
    shift = (vals[0] % (f.cod + 1)) - vals[0]
    return tuple(v + shift for v in vals)


def test_rotation_order():
    # the rotation of [n] has order n + 1
    for n in range(5):
        t = CyclicMorphism.rotation_map(n)
        cur = CyclicMorphism.identity(n)
        for step in range(1, n + 2):
            cur = compose(t, cur)
            if step < n + 1:
                assert not cur.is_identity
        assert cur.is_identity


def test_extra_degeneracy_pairs_with_rotation():
    # following the wrap-around degeneracy with d_0 produces the rotation
    for n in range(1, 6):
        comp = compose(CyclicMorphism.extra_degeneracy(n),
                       CyclicMorphism.from_simplex(SimplexMorphism.face(0, n)))
        assert comp == CyclicMorphism.rotation_map(n - 1)


def test_extra_degeneracy_merges_hidden_position():
    x = CyclicMorphism.extra_degeneracy(3)
    assert x.rotation == 1
    assert x.delta_part == SimplexMorphism(3, 2, (), (0,))
    # underlying set function: identity below n, n wraps to 0
    assert [x(p) for p in range(4)] == [0, 1, 2, 0]


def test_epi_words_carry_at_most_one_extra_degeneracy():
    # every canonical epi pair equals an ordinary word after one optional
    # wrap-around degeneracy applied innermost: check by recomposition
    for n in range(1, 5):
        for m in range(n):
            for e in enumerate_epis(n, m, "cyclic"):
                word = e.delta_part.tokens() + ["t"] * e.rotation
                again = normalize("cyclic", word, dom=n)
                assert again == e


def test_pure_simplex_word_has_zero_rotation():
    f = normalize("cyclic", "d1 s0 s2", dom=4)
    assert f.rotation == 0
    assert f.delta_part == normalize("simplicial", "d1 s0 s2", dom=4)


def test_pair_normal_form_unique_small_dims():
    # distinct (rotation, monotone part) pairs have distinct lifts
    from itertools import combinations_with_replacement
    for n in range(4):
        for m in range(4):
            seen = {}
            for r in range(n + 1):
                for vals in combinations_with_replacement(range(m + 1), n + 1):
                    d = SimplexMorphism.from_table(n, m, vals)
                    f = CyclicMorphism(r, d)
                    w = lift_window(f)
                    assert w not in seen, f"{seen[w]} and {(r, d)} share a lift"
                    seen[w] = (r, d)


def _random_word(rng, dom, length):
    toks, cur = [], dom
    for _ in range(length):
        roll = rng.random()
        if cur > 0 and roll < 0.35:
            toks.append(f"s{rng.randrange(cur)}")
            cur -= 1
        elif cur > 0 and roll < 0.45:
            toks.append(f"s{cur}x")
            cur -= 1
        elif roll < 0.7:
            toks.append("t")
        else:
            toks.append(f"d{rng.randrange(cur + 2)}")
            cur += 1
    toks.reverse()
    return toks


def _lift_of_token(tok, at_dim):
    return parse_token("cyclic", tok, at_dim)


def test_normalize_matches_lift_composition_fuzz():
    rng = random.Random(5)
    for _ in range(1000):
        dom = rng.randrange(5)
        toks = _random_word(rng, dom, rng.randrange(8))
        f = normalize("cyclic", toks, dom=dom)
        # independent route: compose raw generator lifts pointwise
        window = list(range(dom + 1))
        cur = dom
        for tok in reversed(toks):
            g = _lift_of_token(tok, cur)
            window = [g.lift(x) for x in window]
            cur = g.cod
        shift = (window[0] % (cur + 1)) - window[0]
        window = tuple(v + shift for v in window)
        assert lift_window(f) == window
        # set-level evaluation agrees modulo the codomain size
        for p in range(dom + 1):
            assert f(p) == window[p] % (cur + 1)


def test_associativity_fuzz():
    rng = random.Random(6)
    for _ in range(200):
        dom = rng.randrange(4)
        h = normalize("cyclic", _random_word(rng, dom, 4), dom=dom)
        g = normalize("cyclic", _random_word(rng, h.cod, 4), dom=h.cod)
        f = normalize("cyclic", _random_word(rng, g.cod, 4), dom=g.cod)
        assert compose(f, compose(g, h)) == compose(compose(f, g), h)


def test_sections_split():
    e = CyclicMorphism(1, SimplexMorphism(2, 1, (), (0,)))
    secs = sections_of(e)
    assert secs
    ident = CyclicMorphism.identity(1)
    for mu in secs:
        assert compose(e, mu) == ident


def test_extra_degeneracy_dimension_guard():
    with pytest.raises(ShapeError):
        normalize("cyclic", "s2x", dom=3)


def test_rotation_token_rejected_in_simplicial_words():
    with pytest.raises(ShapeError):
        normalize("simplicial", "t", dom=2)


def test_format_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        dom = rng.randrange(5)
        f = normalize("cyclic", _random_word(rng, dom, 6), dom=dom)
        text = format_morphism(f)
        g = normalize("cyclic", text if text != "id" else "", dom=dom)
        assert f == g


def test_underlying_simplex_morphism():
    # the monotone part of the unique (rotation, monotone) factorisation
    f = normalize("cyclic", "d1 s0 s2", dom=4)
    assert f.rotation == 0
    assert f.delta_part == normalize("simplicial", "d1 s0 s2", dom=4)
    # the wrap-around degeneracy followed by d0 is a pure rotation
    g = normalize("cyclic", "s3x d0", dom=2)
    assert g.rotation == 1
    assert g.delta_part.is_identity


def test_split_lift_matches_rotation_search():
    # every monotone degree-one window with dom, cod <= 5, also shifted by
    # a period either way: the closed form gives the rotation and table
    # that the search over all rotations finds
    n = 0
    for dom in range(6):
        for cod in range(6):
            for v0 in range(cod + 1):
                for rest in combinations_with_replacement(range(v0, v0 + cod + 2), dom):
                    for shift in (0, cod + 1, -(cod + 1)):
                        vals = tuple(v + shift for v in (v0,) + rest)
                        assert _split_lift(dom, cod, vals) == reference_split_lift(dom, cod, vals)
                        n += 1
    assert n == 25743
    # the input checks stay: a window that is not monotone, or that climbs
    # past the degree-one bound, is refused
    with pytest.raises(ShapeError, match="not monotone"):
        _split_lift(2, 2, (1, 0, 2))
    with pytest.raises(ShapeError, match="degree-one bound"):
        _split_lift(2, 2, (0, 1, 4))
    with pytest.raises(ShapeError, match="degree-one bound"):
        CyclicMorphism.from_lift(1, 0, (0, 2))
