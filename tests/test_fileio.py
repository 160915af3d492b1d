"""Complex file grammar: round trips and located parse errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aufhebung.bounds import (
    build_counterexample,
    random_skeletal_complex,
)
from aufhebung.fileio import (
    ParseError,
    parse_cell,
    parse_complex,
    parse_sphere,
    serialize_complex,
)
from aufhebung.fillers import SphereError, boundary, cell_literal


CUBICAL = """\
# two squares on a point
shape cubical
skeletal 1
truncate 4
gen v dim 0
gen x dim 1 faces v v
gen y dim 1 faces v v
"""


def test_parse_basic():
    X = parse_complex(CUBICAL)
    assert X.shape == "cubical"
    assert X.skeletal_level == 1 and X.truncation == 4
    assert list(X.generators) == ["v", "x", "y"]
    assert X.validate().ok


def test_parse_builds_a_bounded_number_of_complexes(monkeypatch):
    from aufhebung.complexes import SkeletalComplex
    built = []
    init = SkeletalComplex.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SkeletalComplex, "__init__", counted)
    counts = []
    for n in (1, 10, 300):
        built.clear()
        text = "shape simplicial\nskeletal 1\ngen v dim 0\n" + "".join(
            f"gen e{i} dim 1 faces v v\n" for i in range(n))
        X = parse_complex(text)
        assert len(X.generators) == n + 1
        counts.append(len(built))
    assert counts == [1, 1, 1]


def test_round_trip_all_builders():
    for shape, n in (("cubical", 0), ("cubical", 1), ("cubical", 2),
                     ("simplicial", 0), ("simplicial", 1), ("simplicial", 2),
                     ("simplicial", 3), ("globular", 0), ("globular", 2),
                     ("cyclic", 1), ("cyclic", 2)):
        X, _ = build_counterexample(shape, n)
        text = serialize_complex(X)
        Y = parse_complex(text)
        assert serialize_complex(Y) == text
        assert list(Y.generators) == list(X.generators)
        for a, b in zip(X.generators.values(), Y.generators.values()):
            assert (a.name, a.dim, a.faces) == (b.name, b.dim, b.faces)


def test_round_trip_random_complexes():
    for seed in range(3):
        for shape in ("simplicial", "cubical", "globular", "cyclic"):
            X = random_skeletal_complex(shape, 1, seed=seed)
            text = serialize_complex(X)
            Y = parse_complex(text)
            assert serialize_complex(Y) == text


def test_cell_literals():
    X = parse_complex(CUBICAL)
    c = parse_cell(X, "x[b1]")
    assert c.generator == "x" and c.dim == 2
    assert cell_literal(c) == "x[b1]"
    v = parse_cell(X, "v")
    assert v.epi.is_identity
    assert cell_literal(v) == "v"


def test_sphere_literal_round_trip():
    X = parse_complex(CUBICAL)
    s = boundary(X, parse_cell(X, "x[b1]"))
    text = s.literal()
    t = parse_sphere(X, text)
    assert t == s


def test_unknown_generator_rejected_with_line():
    bad = CUBICAL + "gen z dim 1 faces v w\n"
    with pytest.raises(ParseError) as err:
        parse_complex(bad)
    assert err.value.line == 8


def test_arity_mismatch_rejected():
    bad = "shape simplicial\nskeletal 1\ngen v dim 0\ngen e dim 1 faces v\n"
    with pytest.raises(ParseError) as err:
        parse_complex(bad)
    assert err.value.line == 4
    assert "2 faces" in str(err.value)


def test_bad_directives_rejected():
    with pytest.raises(ParseError):
        parse_complex("shape octahedral\nskeletal 0\n")
    with pytest.raises(ParseError):
        parse_complex("skeletal 0\n")
    with pytest.raises(ParseError):
        parse_complex("shape simplicial\n")
    with pytest.raises(ParseError):
        parse_complex("shape simplicial\nskeletal 0\nfrob v\n")
    with pytest.raises(ParseError):
        parse_complex("shape simplicial\nskeletal x\n")


def test_bad_cell_word_rejected():
    bad = "shape simplicial\nskeletal 1\ngen v dim 0\ngen e dim 1 faces v[d0 v\n"
    with pytest.raises(ParseError):
        parse_complex(bad)


def test_comments_and_blank_lines_ignored():
    text = "\n# header\nshape globular\n\nskeletal 0\n  # indented comment\ngen v dim 0  # trailing\n"
    X = parse_complex(text)
    assert X.shape == "globular" and list(X.generators) == ["v"]


HEAD = "shape simplicial\nskeletal 1\n"


@pytest.mark.parametrize("text,line,message", [
    (HEAD + "gen v dim 0\ngen v dim 0\n", 4, "duplicate generator 'v'"),
    (HEAD + "truncate 0\ngen v dim 0\n", 3, "below the skeletal level 1"),
    (HEAD + "gen v dim -1\n", 3, "bad dimension '-1'"),
    ("shape cubical\nskeletal -1\n", 2, "bad skeletal value '-1'"),
    (HEAD + "truncate -2\n", 3, "bad truncate value '-2'"),
])
def test_inconsistent_directives_rejected_with_line(text, line, message):
    # each used to escape as a ComplexError without a line number, or, for
    # a negative dimension, to parse into a complex that validates
    with pytest.raises(ParseError) as err:
        parse_complex(text)
    assert err.value.line == line and message in str(err.value)


# -- fuzz: bad input ends in ParseError (or SphereError), never elsewhere

NAMES = ["v", "w", "x", "e", "1x", "v-w"]
TOKENS = ["d0", "d1", "d2", "s0", "s1", "s2", "s1x", "t", "a0@1", "a1@2", "a@1",
          "b1", "b2", "sig", "tau", "iot", "q", "d99", "s-1", "[", "]"]
NUMBERS = ["-2", "-1", "0", "1", "2", "3", "5", "x", "1.5", ""]


@st.composite
def cell_texts(draw):
    name = draw(st.sampled_from(NAMES))
    if draw(st.booleans()):
        return name
    return f"{name}[{' '.join(draw(st.lists(st.sampled_from(TOKENS), max_size=4)))}]"


@st.composite
def complex_lines(draw):
    kind = draw(st.sampled_from(["shape", "skeletal", "truncate", "gen", "gen", "gen",
                                 "text"]))
    if kind == "shape":
        return "shape " + draw(st.sampled_from(["simplicial", "cubical", "globular",
                                                "cyclic", "octahedral"]))
    if kind in ("skeletal", "truncate"):
        return f"{kind} {draw(st.sampled_from(NUMBERS))}"
    if kind == "text":
        return draw(st.text(max_size=12))
    cells = draw(st.lists(cell_texts(), max_size=5))
    faces = " faces " + " ".join(cells) if cells or draw(st.booleans()) else ""
    return (f"gen {draw(st.sampled_from(NAMES))} dim {draw(st.sampled_from(NUMBERS))}"
            + faces)


@st.composite
def complex_texts(draw):
    # a header first on most draws, so that the generator lines get parsed
    lines = draw(st.lists(complex_lines(), max_size=8))
    if draw(st.integers(0, 3)):
        lines = ["shape " + draw(st.sampled_from(["simplicial", "cubical", "globular",
                                                  "cyclic"])),
                 f"skeletal {draw(st.integers(0, 2))}"] + lines
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(complex_texts())
def test_parse_complex_fuzz(text):
    # only ParseError escapes, and what parses serialises and parses back
    try:
        X = parse_complex(text)
    except ParseError:
        return
    out = serialize_complex(X)
    Y = parse_complex(out)
    assert serialize_complex(Y) == out
    assert (Y.shape, Y.skeletal_level, Y.truncation) == (X.shape, X.skeletal_level,
                                                         X.truncation)
    assert list(Y.generators.values()) == list(X.generators.values())


SPHERE_COMPLEXES = [parse_complex(CUBICAL)] + [
    build_counterexample(shape, n)[0]
    for shape, n in (("simplicial", 1), ("globular", 1), ("cyclic", 1))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SPHERE_COMPLEXES),
       st.lists(cell_texts(), max_size=5).map(", ".join))
def test_parse_sphere_fuzz(X, text):
    try:
        s = parse_sphere(X, text)
    except (ParseError, SphereError):
        return
    assert parse_sphere(X, s.literal()) == s
