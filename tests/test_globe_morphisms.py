"""Reflexive-globe algebra: word reduction, empirical confluence, semantics."""

from itertools import product

import pytest
from reference_tables import reference_globe_word

from aufhebung.shapes import (
    GlobeMorphism,
    ShapeError,
    compose,
    enumerate_epis,
    enumerate_monos,
    epi_mono_factor,
    normalize,
    sections_of,
)


def gen(name, n):
    return GlobeMorphism.generator(name, n)


def test_relations():
    for n in range(4):
        assert compose(gen("tau", n + 1), gen("sig", n)) == \
            compose(gen("sig", n + 1), gen("sig", n))
        assert compose(gen("tau", n + 1), gen("tau", n)) == \
            compose(gen("sig", n + 1), gen("tau", n))
        assert compose(gen("iot", n + 1), gen("sig", n)).is_identity
        assert compose(gen("iot", n + 1), gen("tau", n)).is_identity


def test_normal_form_shape():
    f = normalize("globular", "tau sig sig", dom=1)
    assert f.word == ("sig", "sig", "sig")
    g = normalize("globular", "sig sig tau", dom=1)
    assert g.word == ("sig", "sig", "tau")
    h = normalize("globular", "iot iot", dom=2)
    assert h.word == ("iot", "iot")
    assert normalize("globular", "iot sig", dom=1).is_identity


def _valid_words(max_len, start_dims):
    """All generator words (application order right to left) from the start
    dimensions, with every prefix dimension staying in [0, 6]."""
    out = []
    for dom in start_dims:
        frontier = [((), dom)]
        for _ in range(max_len):
            new = []
            for word, cur in frontier:
                for g in ("sig", "tau", "iot"):
                    if g == "iot" and cur == 0:
                        continue
                    nxt = cur - 1 if g == "iot" else cur + 1
                    if nxt > 6:
                        continue
                    new.append(((g,) + word, nxt))
            out.extend((w, dom) for w, _ in new)
            frontier = new
    return out


def _congruence_classes(words_with_dom):
    """Union-find closure of one-step relation rewrites inside the word set."""
    rewrites = [
        (("tau", "sig"), ("sig", "sig")),
        (("tau", "tau"), ("sig", "tau")),
        (("iot", "sig"), ()),
        (("iot", "tau"), ()),
    ]
    index = {wd: i for i, wd in enumerate(words_with_dom)}
    parent = list(range(len(index)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for (word, dom), i in index.items():
        for k in range(len(word) + 1):
            for lhs, rhs in rewrites:
                for src, dst in ((lhs, rhs), (rhs, lhs)):
                    if src and word[k:k + len(src)] != src:
                        continue
                    cand = word[:k] + dst + word[k + len(src):]
                    j = index.get((cand, dom))
                    if j is not None and _word_valid(cand, dom):
                        union(i, j)
    groups = {}
    for wd, i in index.items():
        groups.setdefault(find(i), []).append(wd)
    return list(groups.values())


def _word_valid(word, dom):
    cur = dom
    for g in reversed(word):
        if g == "iot":
            if cur == 0:
                return False
            cur -= 1
        else:
            cur += 1
    return True


def test_normal_form_unique_by_congruence_closure():
    words = [wd for wd in _valid_words(5, range(4)) if _word_valid(wd[0], wd[1])]
    words += [((), d) for d in range(4)]
    classes = _congruence_classes(words)
    for cls in classes:
        normals = {normalize("globular", list(w), dom=d) for w, d in cls}
        assert len(normals) == 1, f"class {cls} has several normal forms"


def _cells(n):
    return [(s, d) for d in range(n) for s in (-1, 1)] + [(0, n)]


def test_semantics_faithful_at_small_degree():
    # distinct normal forms act differently on the cells of the walking glob
    for dom in range(4):
        for cod in range(5):
            seen = {}
            for b in range(dom + 1):
                for top in ((), ("tau",)):
                    rise = cod - (dom - b) - len(top)
                    if rise < 0:
                        continue
                    word = ("sig",) * rise + top + ("iot",) * b
                    try:
                        f = GlobeMorphism(dom, cod, word)
                    except ShapeError:
                        continue
                    table = tuple(f(p) for p in _cells(dom))
                    assert table not in seen, \
                        f"{word} and {seen[table]} act identically"
                    seen[table] = word


def test_eval_examples():
    s = gen("sig", 1)
    assert s((0, 1)) == (-1, 1)
    assert s((1, 0)) == (1, 0)
    t = gen("tau", 1)
    assert t((0, 1)) == (1, 1)
    i = gen("iot", 2)
    assert i((0, 2)) == (0, 1)
    assert i((-1, 1)) == (0, 1)
    assert i((1, 0)) == (1, 0)


def test_epi_mono_and_sections():
    f = normalize("globular", "sig tau iot iot", dom=2)
    mono, epi = epi_mono_factor(f)
    assert mono.is_mono and epi.is_epi and compose(mono, epi) == f
    e = GlobeMorphism(3, 1, ("iot", "iot"))
    secs = sections_of(e)
    assert len(secs) == 2
    for mu in secs:
        assert compose(e, mu).is_identity


def test_enumerate():
    assert enumerate_epis(3, 1, "globular") == [GlobeMorphism(3, 1, ("iot", "iot"))]
    assert len(enumerate_monos(1, 3, "globular")) == 2
    assert enumerate_monos(2, 2, "globular") == [GlobeMorphism.identity(2)]


def test_iot_at_level_zero_rejected():
    with pytest.raises(ShapeError):
        gen("iot", 0)


def _normal_forms(top):
    """Every globe normal form sig^a [tau] iot^b with dom, cod <= top."""
    return [GlobeMorphism(dom, dom - b + rises, ("sig",) * (rises - tau)
                          + ("tau",) * tau + ("iot",) * b)
            for dom in range(top + 1) for b in range(dom + 1)
            for rises in range(top + b - dom + 1) for tau in (0, 1) if rises or not tau]


def test_compose_by_counting_matches_rewriting():
    forms = _normal_forms(5)
    assert len(forms) == 161
    pairs = 0
    for f, g in product(forms, repeat=2):
        if g.cod == f.dom:
            assert compose(f, g).word == reference_globe_word(f.word + g.word)
            pairs += 1
    assert pairs == 4970


def test_word_checks():
    # every word of up to four letters, at every domain level: a word that
    # rewriting would change is refused, and a normal word is checked for
    # its levels
    for length in range(5):
        for word in product(("sig", "tau", "iot"), repeat=length):
            iots = word.count("iot")
            rises = length - iots
            for dom in range(4):
                cod = max(dom - iots + rises, 0)
                if reference_globe_word(word) != word:
                    with pytest.raises(ShapeError, match="not in normal form"):
                        GlobeMorphism(dom, cod, word)
                elif iots > dom:
                    with pytest.raises(ShapeError, match="iot applied at level 0"):
                        GlobeMorphism(dom, cod, word)
                else:
                    assert GlobeMorphism(dom, cod, word).word == word
                    with pytest.raises(ShapeError, match="word maps"):
                        GlobeMorphism(dom, cod + 1, word)
    with pytest.raises(ShapeError, match="unknown globe generator 'foo'"):
        GlobeMorphism(1, 2, ("tau", "sig", "foo"))
