"""Morphism algebra for the four shape categories.

Four small categories are supported, each identified by a shape tag:

* ``simplicial`` -- finite non-empty ordinals [n] = {0,...,n} with monotone
  maps, generated by the coface maps d_i (skip i) and codegeneracies s_j
  (hit j twice).
* ``cubical`` -- elementary cubes I^n with morphisms generated by the face
  inclusions a<sign>@<pos> (insert a constant coordinate) and projections
  b<pos> (delete a coordinate).  Cube coordinates are 1-based.
* ``globular`` -- the reflexive globe category: objects are naturals,
  generators sig, tau : n -> n+1 and iot : n+1 -> n subject to
  tau.sig = sig.sig, tau.tau = sig.tau, iot.sig = id = iot.tau.
* ``cyclic`` -- ordinals with monotone maps plus cyclic rotations; every
  morphism factors uniquely as a rotation of the domain followed by a
  monotone map.

Every morphism object is immutable and stored in canonical factored form:
for ordinals and cubes a descending mono part followed by an ascending epi
part, for globes the reduced word, for the cyclic category the unique
(rotation, monotone part) pair.  Free generator words exist only while
:func:`normalize` folds them, so equality of morphisms is plain structural
equality.

Composition is functional: ``compose(f, g)`` applies ``g`` first.  Word
syntax in :func:`parse_word` is whitespace separated and applied right to
left, matching the composition order.

Tabulation does not use the morphism objects: :func:`face_step` and
:func:`epi_composition` give the same facts about epis as integer tables,
computed from integer data alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb

import numpy as np

SHAPES = ("simplicial", "cubical", "globular", "cyclic")

_INDEX_RE = re.compile(r"\d+")


class ShapeError(ValueError):
    """Raised for ill-formed morphisms, words, or mixed-category composites."""


class DomainError(ValueError):
    """Raised when a point is not an element of a morphism's domain."""


# ---------------------------------------------------------------------------
# simplicial


def _delta_apply(i: int, p: int) -> int:
    return p if p < i else p + 1


def _sigma_apply(j: int, p: int) -> int:
    return p if p <= j else p - 1


@dataclass(frozen=True)
class SimplexMorphism:
    """A monotone map [dom] -> [cod] in canonical factored form.

    ``monos`` lists the coface indices i_1 > ... > i_s (the elements of
    [cod] missed by the map); ``epis`` lists the codegeneracy indices
    j_1 < ... < j_t (the j with f(j) = f(j+1)).  The morphism is the
    composite d_{i_1} ... d_{i_s} s_{j_1} ... s_{j_t}, rightmost factor
    applied first.
    """

    dom: int
    cod: int
    monos: tuple[int, ...]
    epis: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dom < 0 or self.cod < 0:
            raise ShapeError("negative ordinal dimension")
        if self.dom - len(self.epis) + len(self.monos) != self.cod:
            raise ShapeError(
                f"dimension bookkeeping violated: {self.dom} - {len(self.epis)}"
                f" + {len(self.monos)} != {self.cod}")
        if any(a <= b for a, b in zip(self.monos, self.monos[1:])):
            raise ShapeError("mono indices must be strictly descending")
        if any(a >= b for a, b in zip(self.epis, self.epis[1:])):
            raise ShapeError("epi indices must be strictly ascending")
        if self.monos and not (0 <= self.monos[-1] and self.monos[0] <= self.cod):
            raise ShapeError("mono index out of range")
        if self.epis and not (0 <= self.epis[0] and self.epis[-1] <= self.dom - 1):
            raise ShapeError("epi index out of range")

    @property
    def shape(self) -> str:
        return "simplicial"

    @classmethod
    def identity(cls, n: int) -> "SimplexMorphism":
        return cls(n, n, (), ())

    @classmethod
    def face(cls, i: int, n: int) -> "SimplexMorphism":
        """d_i : [n-1] -> [n], the monotone injection missing i."""
        if not (0 <= i <= n):
            raise ShapeError(f"face index {i} out of range for [{n - 1}] -> [{n}]")
        return cls(n - 1, n, (i,), ())

    @classmethod
    def degeneracy(cls, j: int, n: int) -> "SimplexMorphism":
        """s_j : [n] -> [n-1], the monotone surjection hitting j twice."""
        if not (0 <= j <= n - 1):
            raise ShapeError(f"degeneracy index {j} out of range for [{n}] -> [{n - 1}]")
        return cls(n, n - 1, (), (j,))

    @classmethod
    def from_table(cls, dom: int, cod: int, values: tuple[int, ...]) -> "SimplexMorphism":
        if len(values) != dom + 1:
            raise ShapeError("value table has wrong length")
        if any(values[k] > values[k + 1] for k in range(dom)):
            raise ShapeError("value table is not monotone")
        if values and not (0 <= values[0] and values[-1] <= cod):
            raise ShapeError("value table out of range")
        epis = tuple(j for j in range(dom) if values[j] == values[j + 1])
        image = set(values)
        monos = tuple(c for c in range(cod, -1, -1) if c not in image)
        return cls(dom, cod, monos, epis)

    def __call__(self, p: int) -> int:
        """Evaluate by folding the stored generator factorisation."""
        if not (0 <= p <= self.dom):
            raise DomainError(f"{p} is not a point of [{self.dom}]")
        for j in reversed(self.epis):
            p = _sigma_apply(j, p)
        for i in reversed(self.monos):
            p = _delta_apply(i, p)
        return p

    def table(self) -> tuple[int, ...]:
        return tuple(self(p) for p in range(self.dom + 1))

    @property
    def is_identity(self) -> bool:
        return not self.monos and not self.epis

    @property
    def is_epi(self) -> bool:
        return not self.monos

    @property
    def is_mono(self) -> bool:
        return not self.epis

    def tokens(self) -> list[str]:
        return [f"d{i}" for i in self.monos] + [f"s{j}" for j in self.epis]


# ---------------------------------------------------------------------------
# cubical


@dataclass(frozen=True)
class CubeMorphism:
    """A cube-category morphism I^dom -> I^cod in canonical factored form.

    ``inserts`` lists (position, sign) pairs with positions strictly
    descending in [1, cod]: the composite inserts the constant ``sign`` at
    each position.  ``deletes`` lists the deleted domain coordinates,
    strictly ascending in [1, dom].
    """

    dom: int
    cod: int
    inserts: tuple[tuple[int, int], ...]
    deletes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dom < 0 or self.cod < 0:
            raise ShapeError("negative cube dimension")
        if self.dom - len(self.deletes) + len(self.inserts) != self.cod:
            raise ShapeError("dimension bookkeeping violated")
        pos = [p for p, _ in self.inserts]
        if any(a <= b for a, b in zip(pos, pos[1:])):
            raise ShapeError("insert positions must be strictly descending")
        if pos and not (1 <= pos[-1] and pos[0] <= self.cod):
            raise ShapeError("insert position out of range")
        if any(s not in (0, 1) for _, s in self.inserts):
            raise ShapeError("insert sign must be 0 or 1")
        if any(a >= b for a, b in zip(self.deletes, self.deletes[1:])):
            raise ShapeError("delete positions must be strictly ascending")
        if self.deletes and not (1 <= self.deletes[0] and self.deletes[-1] <= self.dom):
            raise ShapeError("delete position out of range")

    @property
    def shape(self) -> str:
        return "cubical"

    @classmethod
    def identity(cls, n: int) -> "CubeMorphism":
        return cls(n, n, (), ())

    @classmethod
    def face(cls, i: int, sign: int, n: int) -> "CubeMorphism":
        """a<sign>@<i> : I^{n-1} -> I^n, inserting ``sign`` at position i."""
        if not (1 <= i <= n):
            raise ShapeError(f"face position {i} out of range for I^{n - 1} -> I^{n}")
        if sign not in (0, 1):
            raise ShapeError("face sign must be 0 or 1")
        return cls(n - 1, n, ((i, sign),), ())

    @classmethod
    def projection(cls, i: int, n: int) -> "CubeMorphism":
        """b<i> : I^n -> I^{n-1}, deleting coordinate i."""
        if not (1 <= i <= n):
            raise ShapeError(f"projection position {i} out of range for I^{n}")
        return cls(n, n - 1, (), (i,))

    def coords(self) -> tuple[tuple[str, int], ...]:
        """Output coordinate description: ('c', sign) or ('p', input position).

        Projected input positions occur in strictly increasing order; the
        deleted inputs are exactly the ones that never occur.
        """
        const_at = dict(self.inserts)
        deleted = set(self.deletes)
        survivors = [j for j in range(1, self.dom + 1) if j not in deleted]
        out: list[tuple[str, int]] = []
        take = iter(survivors)
        for c in range(1, self.cod + 1):
            if c in const_at:
                out.append(("c", const_at[c]))
            else:
                out.append(("p", next(take)))
        return tuple(out)

    @classmethod
    def from_coords(cls, dom: int, coords: tuple[tuple[str, int], ...]) -> "CubeMorphism":
        cod = len(coords)
        inserts = tuple((c, entry[1]) for c, entry in
                        zip(range(cod, 0, -1), reversed(coords)) if entry[0] == "c")
        used = {entry[1] for entry in coords if entry[0] == "p"}
        deletes = tuple(j for j in range(1, dom + 1) if j not in used)
        return cls(dom, cod, inserts, deletes)

    def __call__(self, point: tuple[int, ...]) -> tuple[int, ...]:
        if len(point) != self.dom or any(v not in (0, 1) for v in point):
            raise DomainError(f"{point!r} is not a vertex of I^{self.dom}")
        out = []
        for kind, v in self.coords():
            out.append(v if kind == "c" else point[v - 1])
        return tuple(out)

    @property
    def is_identity(self) -> bool:
        return not self.inserts and not self.deletes

    @property
    def is_epi(self) -> bool:
        return not self.inserts

    @property
    def is_mono(self) -> bool:
        return not self.deletes

    def tokens(self) -> list[str]:
        return [f"a{s}@{p}" for p, s in self.inserts] + [f"b{j}" for j in self.deletes]


# ---------------------------------------------------------------------------
# globular


def _reduce_globe_word(word: tuple[str, ...]) -> tuple[str, ...]:
    """Rewrite a sig/tau/iot word to normal form sig^a [tau] iot^b.

    Rules applied at the leftmost-innermost redex until none remain:
    tau.sig -> sig.sig, tau.tau -> sig.tau, iot.sig -> (), iot.tau -> ().
    """
    w = list(word)
    changed = True
    while changed:
        changed = False
        for k in range(len(w) - 1):
            a, b = w[k], w[k + 1]
            if a == "iot" and b in ("sig", "tau"):
                del w[k:k + 2]
                changed = True
                break
            if a == "tau" and b == "sig":
                w[k] = "sig"
                changed = True
                break
            if a == "tau" and b == "tau":
                w[k] = "sig"
                changed = True
                break
    return tuple(w)


@dataclass(frozen=True)
class GlobeMorphism:
    """A reflexive-globe-category morphism dom -> cod as a reduced word.

    The normal form is sig^a [tau] iot^b (rightmost factor applied first):
    first drop ``b`` levels by reflexivity, then optionally pick the target
    side, then climb with sources.
    """

    dom: int
    cod: int
    word: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.dom < 0 or self.cod < 0:
            raise ShapeError("negative globe dimension")
        if self.word != _reduce_globe_word(self.word):
            raise ShapeError(f"word {self.word!r} is not in normal form")
        n = self.dom
        for g in reversed(self.word):
            if g == "iot":
                if n == 0:
                    raise ShapeError("iot applied at level 0")
                n -= 1
            elif g in ("sig", "tau"):
                n += 1
            else:
                raise ShapeError(f"unknown globe generator {g!r}")
        if n != self.cod:
            raise ShapeError(f"word maps {self.dom} to {n}, not {self.cod}")

    @property
    def shape(self) -> str:
        return "globular"

    @classmethod
    def identity(cls, n: int) -> "GlobeMorphism":
        return cls(n, n, ())

    @classmethod
    def generator(cls, name: str, n: int) -> "GlobeMorphism":
        """sig/tau : n -> n+1 or iot : n -> n-1 (n is the domain level)."""
        if name in ("sig", "tau"):
            return cls(n, n + 1, (name,))
        if name == "iot":
            if n == 0:
                raise ShapeError("iot applied at level 0")
            return cls(n, n - 1, ("iot",))
        raise ShapeError(f"unknown globe generator {name!r}")

    def __call__(self, point: tuple[int, int]) -> tuple[int, int]:
        """Evaluate on a cell of the walking dom-glob.

        Points are pairs (side, level) with side in {-1, 0, +1}: the two
        boundary cells of each level below ``dom`` plus the top cell
        (0, dom).  sig embeds a glob as the source face, tau as the target
        face, iot collapses the top dimension.
        """
        side, level = point
        if not (0 <= level <= self.dom) or (side == 0) != (level == self.dom) \
                or side not in (-1, 0, 1):
            raise DomainError(f"{point!r} is not a cell of the {self.dom}-glob")
        n = self.dom
        for g in reversed(self.word):
            if g == "sig":
                if side == 0:
                    side = -1
                n += 1
            elif g == "tau":
                if side == 0:
                    side = 1
                n += 1
            else:
                if level >= n - 1:
                    side, level = 0, n - 1
                n -= 1
        return (side, level)

    @property
    def is_identity(self) -> bool:
        return not self.word

    @property
    def is_epi(self) -> bool:
        return all(g == "iot" for g in self.word)

    @property
    def is_mono(self) -> bool:
        return all(g in ("sig", "tau") for g in self.word)

    def tokens(self) -> list[str]:
        return list(self.word)


# ---------------------------------------------------------------------------
# cyclic

# A cyclic morphism [n] -> [m] is a rotation of [n] followed by a monotone
# map.  The faithful concrete model is the monotone degree-one lift:
# a monotone f : Z -> Z with f(x + n + 1) = f(x) + m + 1, taken modulo
# adding multiples of m + 1.  The basic rotation t : [n] -> [n] lifts to
# x -> x + 1; a monotone map lifts periodically.


def _lift_at(window: tuple[int, ...], cod: int, x: int) -> int:
    """Value at any integer x of the degree-one lift with this window on
    0..dom, where dom = len(window) - 1."""
    q, rem = divmod(x, len(window))
    return window[rem] + q * (cod + 1)


def _split_lift(dom: int, cod: int, vals: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The unique (rotation, monotone value table) pair of a lift window.

    ``vals`` gives a lift on 0..dom; it is first shifted by a multiple of
    cod + 1 so that 0 <= vals[0] <= cod.
    """
    if len(vals) != dom + 1:
        raise ShapeError("lift window has wrong length")
    shift = (vals[0] % (cod + 1)) - vals[0]
    vals = tuple(v + shift for v in vals)
    if any(vals[k] > vals[k + 1] for k in range(dom)):
        raise ShapeError("lift is not monotone")
    if vals[dom] > vals[0] + cod + 1:
        raise ShapeError("lift violates the degree-one bound")
    matches = []
    for r in range(dom + 1):
        table = tuple(_lift_at(vals, cod, y - r) for y in range(dom + 1))
        if 0 <= table[0] and table[-1] <= cod:
            matches.append((r, table))
    if len(matches) != 1:
        raise ShapeError(f"lift does not determine a unique rotation: {matches!r}")
    return matches[0]


@dataclass(frozen=True)
class CyclicMorphism:
    """A cyclic-category morphism: rotate the domain, then map monotonely.

    ``rotation`` is a residue modulo dom + 1 and is applied first; the
    morphism equals delta_part . t^rotation.
    """

    rotation: int
    delta_part: SimplexMorphism

    def __post_init__(self) -> None:
        if not (0 <= self.rotation <= self.delta_part.dom):
            raise ShapeError("rotation out of range")

    @property
    def shape(self) -> str:
        return "cyclic"

    @property
    def dom(self) -> int:
        return self.delta_part.dom

    @property
    def cod(self) -> int:
        return self.delta_part.cod

    @classmethod
    def identity(cls, n: int) -> "CyclicMorphism":
        return cls(0, SimplexMorphism.identity(n))

    @classmethod
    def from_simplex(cls, f: SimplexMorphism) -> "CyclicMorphism":
        return cls(0, f)

    @classmethod
    def rotation_map(cls, n: int, r: int = 1) -> "CyclicMorphism":
        """t^r : [n] -> [n], the rotation p -> p + r mod (n + 1)."""
        return cls(r % (n + 1), SimplexMorphism.identity(n))

    @classmethod
    def extra_degeneracy(cls, n: int) -> "CyclicMorphism":
        """The wrap-around degeneracy [n] -> [n-1] merging n with 0.

        Its lift is x -> x on the window 0..n, so it merges at the hidden
        position n; following it with d_0 gives the rotation of [n-1].
        """
        if n < 1:
            raise ShapeError("extra degeneracy needs dimension >= 1")
        return cls.from_lift(n, n - 1, tuple(range(n + 1)))

    @classmethod
    def from_lift(cls, dom: int, cod: int, vals: tuple[int, ...]) -> "CyclicMorphism":
        r, table = _split_lift(dom, cod, vals)
        return cls(r, SimplexMorphism.from_table(dom, cod, table))

    def lift(self, x: int) -> int:
        """Value of the canonical lift at any integer."""
        y = x + self.rotation
        q, rem = divmod(y, self.dom + 1)
        return self.delta_part(rem) + q * (self.cod + 1)

    def __call__(self, p: int) -> int:
        if not (0 <= p <= self.dom):
            raise DomainError(f"{p} is not a point of [{self.dom}]")
        return self.lift(p) % (self.cod + 1)

    @property
    def is_identity(self) -> bool:
        return self.rotation == 0 and self.delta_part.is_identity

    @property
    def is_epi(self) -> bool:
        return self.delta_part.is_epi

    @property
    def is_mono(self) -> bool:
        return self.delta_part.is_mono

    def tokens(self) -> list[str]:
        return self.delta_part.tokens() + ["t"] * self.rotation


ShapeMorphism = SimplexMorphism | CubeMorphism | GlobeMorphism | CyclicMorphism

_CLASS_BY_SHAPE = {
    "simplicial": SimplexMorphism,
    "cubical": CubeMorphism,
    "globular": GlobeMorphism,
    "cyclic": CyclicMorphism,
}


def identity(shape: str, n: int) -> ShapeMorphism:
    try:
        cls = _CLASS_BY_SHAPE[shape]
    except KeyError:
        raise ShapeError(f"unknown shape {shape!r}") from None
    return cls.identity(n)


# ---------------------------------------------------------------------------
# composition


def compose(f: ShapeMorphism, g: ShapeMorphism) -> ShapeMorphism:
    """The composite f . g (g applied first), in canonical form."""
    if f.shape != g.shape:
        raise ShapeError(f"cannot compose {f.shape} with {g.shape}")
    if g.cod != f.dom:
        raise ShapeError(
            f"dimension mismatch: cod(g) = {g.cod} but dom(f) = {f.dom}")
    if isinstance(f, SimplexMorphism):
        table = tuple(f(g(p)) for p in range(g.dom + 1))
        return SimplexMorphism.from_table(g.dom, f.cod, table)
    if isinstance(f, CubeMorphism):
        inner = g.coords()
        out = []
        for kind, v in f.coords():
            out.append(("c", v) if kind == "c" else inner[v - 1])
        return CubeMorphism.from_coords(g.dom, out)
    if isinstance(f, GlobeMorphism):
        word = _reduce_globe_word(f.word + g.word)
        return GlobeMorphism(g.dom, f.cod, word)
    if isinstance(f, CyclicMorphism):
        vals = tuple(f.lift(g.lift(x)) for x in range(g.dom + 1))
        return CyclicMorphism.from_lift(g.dom, f.cod, vals)
    raise ShapeError(f"unknown morphism type {type(f)!r}")


# ---------------------------------------------------------------------------
# words


def parse_token(shape: str, tok: str, at_dim: int) -> ShapeMorphism:
    """Parse one generator token whose domain dimension is ``at_dim``."""
    try:
        if shape == "simplicial" or shape == "cyclic":
            if tok == "t":
                if shape != "cyclic":
                    raise ShapeError("rotation token in a simplicial word")
                return CyclicMorphism.rotation_map(at_dim)
            if tok.startswith("d"):
                f = SimplexMorphism.face(int(tok[1:]), at_dim + 1)
            elif tok.startswith("s") and tok.endswith("x"):
                if shape != "cyclic":
                    raise ShapeError("extra degeneracy token in a simplicial word")
                n = int(tok[1:-1])
                if n != at_dim:
                    raise ShapeError(
                        f"extra degeneracy {tok!r} expects dimension {n}, got {at_dim}")
                return CyclicMorphism.extra_degeneracy(n)
            elif tok.startswith("s"):
                f = SimplexMorphism.degeneracy(int(tok[1:]), at_dim)
            else:
                raise ShapeError(f"unknown token {tok!r}")
            return CyclicMorphism.from_simplex(f) if shape == "cyclic" else f
        if shape == "cubical":
            if tok.startswith("a"):
                sign_s, _, pos_s = tok[1:].partition("@")
                if not pos_s:
                    raise ShapeError(f"malformed face token {tok!r}")
                return CubeMorphism.face(int(pos_s), int(sign_s), at_dim + 1)
            if tok.startswith("b"):
                return CubeMorphism.projection(int(tok[1:]), at_dim)
            raise ShapeError(f"unknown token {tok!r}")
        if shape == "globular":
            return GlobeMorphism.generator(tok, at_dim)
    except ValueError as exc:
        raise ShapeError(f"malformed token {tok!r}") from exc
    raise ShapeError(f"unknown shape {shape!r}")


def normalize(shape: str, word, dom: int | None = None) -> ShapeMorphism:
    """Fold a generator word (applied right to left) into canonical form.

    ``word`` is a whitespace-separated string, a sequence of tokens, or a
    sequence of morphisms.  ``dom`` fixes the domain dimension; when
    omitted, the smallest consistent domain is chosen.
    """
    if isinstance(word, str):
        tokens = word.split()
    else:
        tokens = list(word)
    if tokens and not isinstance(tokens[0], str):
        out = identity(shape, dom if dom is not None else tokens[-1].dom)
        for f in reversed(tokens):
            out = compose(f, out)
        return out
    if dom is None:
        # indices inside tokens bound how large the smallest domain can be
        digits = [int(m.group()) for t in tokens
                  for m in [_INDEX_RE.search(t)] if m]
        cap = len(tokens) + max(digits, default=0) + 2
        last_err = None
        for guess in range(cap + 1):
            try:
                return normalize(shape, tokens, dom=guess)
            except ShapeError as exc:
                last_err = exc
        raise ShapeError(f"no consistent domain for word {tokens!r}: {last_err}")
    out = identity(shape, dom)
    for tok in reversed(tokens):
        out = compose(parse_token(shape, tok, out.cod), out)
    return out


def format_morphism(f: ShapeMorphism) -> str:
    toks = f.tokens()
    return " ".join(toks) if toks else "id"


# ---------------------------------------------------------------------------
# factorisation and enumeration


def epi_mono_factor(f: ShapeMorphism) -> tuple[ShapeMorphism, ShapeMorphism]:
    """Split f = mono . epi; the mono has empty epi part and vice versa."""
    if isinstance(f, SimplexMorphism):
        mid = f.dom - len(f.epis)
        return (SimplexMorphism(mid, f.cod, f.monos, ()),
                SimplexMorphism(f.dom, mid, (), f.epis))
    if isinstance(f, CubeMorphism):
        mid = f.dom - len(f.deletes)
        return (CubeMorphism(mid, f.cod, f.inserts, ()),
                CubeMorphism(f.dom, mid, (), f.deletes))
    if isinstance(f, GlobeMorphism):
        downs = sum(1 for g in f.word if g == "iot")
        mid = f.dom - downs
        return (GlobeMorphism(mid, f.cod, f.word[:len(f.word) - downs]),
                GlobeMorphism(f.dom, mid, ("iot",) * downs))
    if isinstance(f, CyclicMorphism):
        mono, epi = epi_mono_factor(f.delta_part)
        return (CyclicMorphism.from_simplex(mono), CyclicMorphism(f.rotation, epi))
    raise ShapeError(f"unknown morphism type {type(f)!r}")


@lru_cache(maxsize=None)
def _epi_keys(shape: str, n: int, m: int) -> tuple:
    """Integer data of the epis [n] ->> [m], in rank order.

    Ordinals: the degeneracy indices; cubes: the deleted coordinates,
    0-based; globes: (); cyclic: (rotation, degeneracy indices).  The
    rank order is the order of :func:`enumerate_epis` and so of the cells
    over a generator.
    """
    if m > n or m < 0:
        return ()
    if shape in ("simplicial", "cubical"):
        return tuple(combinations(range(n), n - m))
    if shape == "globular":
        return ((),)
    if shape == "cyclic":
        return tuple((r, js) for r in range(n + 1) for js in combinations(range(n), n - m))
    raise ShapeError(f"unknown shape {shape!r}")


def epi_of_rank(shape: str, n: int, m: int, rank: int) -> ShapeMorphism:
    """The canonical epi [n] ->> [m] at position ``rank`` of :func:`enumerate_epis`."""
    key = _epi_keys(shape, n, m)[rank]
    if shape == "simplicial":
        return SimplexMorphism(n, m, (), key)
    if shape == "cubical":
        return CubeMorphism(n, m, (), tuple(d + 1 for d in key))
    if shape == "globular":
        return GlobeMorphism(n, m, ("iot",) * (n - m))
    r, js = key
    return CyclicMorphism(r, SimplexMorphism(n, m, (), js))


def enumerate_epis(n: int, m: int, shape: str) -> list[ShapeMorphism]:
    """All canonical epimorphisms from dimension n onto dimension m.

    Returns the empty list when m > n.  For ordinals the count is
    binomial(n, n - m); for the cyclic category each choice additionally
    carries one of n + 1 rotations.
    """
    return [epi_of_rank(shape, n, m, rank)
            for rank in range(len(_epi_keys(shape, n, m)))]


def enumerate_monos(m: int, n: int, shape: str) -> list[ShapeMorphism]:
    """All canonical monomorphisms from dimension m into dimension n."""
    if m > n or m < 0:
        return []
    if shape == "simplicial":
        return [SimplexMorphism(m, n, tuple(sorted(cs, reverse=True)), ())
                for cs in combinations(range(n + 1), n - m)]
    if shape == "cubical":
        out = []
        for ps in combinations(range(1, n + 1), n - m):
            for signs in product((0, 1), repeat=n - m):
                ins = tuple(sorted(zip(ps, signs), reverse=True))
                out.append(CubeMorphism(m, n, ins, ()))
        return out
    if shape == "globular":
        if m == n:
            return [GlobeMorphism.identity(n)]
        return [GlobeMorphism(m, n, ("sig",) * (n - m)),
                GlobeMorphism(m, n, ("sig",) * (n - m - 1) + ("tau",))]
    if shape == "cyclic":
        return [CyclicMorphism(r, d)
                for r in range(m + 1)
                for d in enumerate_monos(m, n, "simplicial")]
    raise ShapeError(f"unknown shape {shape!r}")


def face_arity(shape: str, dim: int) -> int:
    """Number of elementary faces of a cell of dimension ``dim``."""
    if dim == 0:
        return 0
    if shape in ("simplicial", "cyclic"):
        return dim + 1
    if shape == "cubical":
        return 2 * dim
    if shape == "globular":
        return 2
    raise ShapeError(f"unknown shape {shape!r}")


def count_epis(n: int, m: int, shape: str) -> int:
    if m > n or m < 0:
        return 0
    if shape in ("simplicial", "cubical"):
        return comb(n, n - m)
    if shape == "globular":
        return 1
    if shape == "cyclic":
        return (n + 1) * comb(n, n - m)
    raise ShapeError(f"unknown shape {shape!r}")


def sections_of(epi: ShapeMorphism) -> list[ShapeMorphism]:
    """The complete list of monomorphisms split by ``epi``."""
    if not epi.is_epi:
        raise ShapeError("sections_of requires an epimorphism")
    ident = identity(epi.shape, epi.cod)
    return [mu for mu in enumerate_monos(epi.cod, epi.dom, epi.shape)
            if compose(epi, mu) == ident]


# ---------------------------------------------------------------------------
# integer epi tables
#
# The k-cells over a generator of dimension m are its epis [k] ->> [m], in
# the order of :func:`_epi_keys`; an epi's *rank* is its position there.
# The tables below depend on the shape alone.  They are built from
# integer data (degeneracy index tuples, delete sets, lift windows), never
# from morphism objects, and are cached per process as read-only arrays;
# one table per (shape, dimensions) key, and the keys are small.


@lru_cache(maxsize=None)
def _epi_ranks(shape: str, n: int, m: int) -> dict:
    return {key: rank for rank, key in enumerate(_epi_keys(shape, n, m))}


def epi_rank(f: ShapeMorphism) -> int:
    """Position of the canonical epi ``f`` in ``enumerate_epis(f.dom, f.cod, f.shape)``."""
    if isinstance(f, SimplexMorphism):
        key = f.epis
    elif isinstance(f, CubeMorphism):
        key = tuple(d - 1 for d in f.deletes)
    elif isinstance(f, GlobeMorphism):
        key = ()
    else:
        key = (f.rotation, f.delta_part.epis)
    return _epi_ranks(f.shape, f.dom, f.cod)[key]


def _epi_values(n: int, js: tuple[int, ...]) -> tuple[int, ...]:
    """Value table on 0..n of the monotone surjection with degeneracy indices js."""
    return tuple(p - sum(1 for j in js if j < p) for p in range(n + 1))


def _merges(table: tuple[int, ...]) -> tuple[int, ...]:
    """Degeneracy indices of a monotone value table: where it repeats."""
    return tuple(x for x in range(len(table) - 1) if table[x] == table[x + 1])


def _missed(table: tuple[int, ...], m: int) -> int:
    """The value in 0..m a monotone table misses, or -1 (at most one is)."""
    return next((c for c in range(m + 1) if c not in table), -1)


def _face_step_entry(shape: str, k: int, m: int, key, slot: int) -> tuple[int, object]:
    """(generator face j or -1, integer data of the epi) of (epi . face map in slot)."""
    if shape == "globular":
        return (-1 if k > m else slot), ()
    if shape == "cubical":
        pos, sign = divmod(slot, 2)
        rest = tuple(d if d < pos else d - 1 for d in key if d != pos)
        if pos in key:
            return -1, rest
        return 2 * (pos - sum(1 for d in key if d < pos)) + sign, rest
    # the elementary face map d_slot : [k - 1] -> [k]
    skip = tuple(x if x < slot else x + 1 for x in range(k))
    if shape == "simplicial":
        values = _epi_values(k, key)
        table = tuple(values[x] for x in skip)
        return _missed(table, m), _merges(table)
    rot, js = key
    values = _epi_values(k, js)
    r, table = _split_lift(k - 1, m, tuple(_lift_at(values, m, x + rot) for x in skip))
    return _missed(table, m), (r, _merges(table))


@lru_cache(maxsize=None)
def face_step(shape: str, k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The face step from dimension k over a generator of dimension m.

    Returns two read-only int32 arrays ``face`` and ``epi`` of shape
    (epis [k] ->> [m], slots), slots in sphere slot order: d_0, ..., d_k
    for simplicial and cyclic shapes; a^0_1, a^1_1, ..., a^0_k, a^1_k for
    cubes; source and target for globes.  The face in a slot of the k-cell
    (g, epi of rank e) is (g, epi of rank ``epi[e, slot]`` onto [m]) when
    ``face[e, slot]`` is -1, since the epi absorbs the face map; otherwise
    it is generator face ``face[e, slot]`` of g acted on by the epi
    [k - 1] ->> [m - 1] of rank ``epi[e, slot]`` (the unique epi-mono
    factorisation).
    """
    slots = face_arity(shape, k)
    keys = _epi_keys(shape, k, m)
    face = np.zeros((len(keys), slots), np.int32)
    epi = np.zeros((len(keys), slots), np.int32)
    for e, key in enumerate(keys):
        for slot in range(slots):
            j, rest = _face_step_entry(shape, k, m, key, slot)
            face[e, slot] = j
            epi[e, slot] = _epi_ranks(shape, k - 1, m if j < 0 else m - 1)[rest]
    face.flags.writeable = epi.flags.writeable = False
    return face, epi


def _compose_keys(shape: str, a: int, b: int, c: int, first, then):
    """Integer data of the composite [a] ->> [b] ->> [c], ``first`` applied first."""
    if shape == "globular":
        return ()
    if shape == "cubical":
        survivors = [x for x in range(a) if x not in first]
        return tuple(sorted(first + tuple(survivors[d] for d in then)))
    if shape == "simplicial":
        inner, outer = _epi_values(a, first), _epi_values(b, then)
        return _merges(tuple(outer[v] for v in inner))
    (r1, js1), (r2, js2) = first, then
    inner, outer = _epi_values(a, js1), _epi_values(b, js2)
    r, table = _split_lift(a, c, tuple(
        _lift_at(outer, c, _lift_at(inner, b, x + r1) + r2) for x in range(a + 1)))
    return r, _merges(table)


@lru_cache(maxsize=None)
def epi_composition(shape: str, a: int, b: int, c: int) -> np.ndarray:
    """Read-only int32 table: (rank of [a] ->> [b], rank of [b] ->> [c]) ->
    rank of their composite [a] ->> [c]."""
    firsts, thens = _epi_keys(shape, a, b), _epi_keys(shape, b, c)
    ranks = _epi_ranks(shape, a, c)
    out = np.array([[ranks[_compose_keys(shape, a, b, c, f, t)] for t in thens]
                    for f in firsts], np.int32).reshape(len(firsts), len(thens))
    out.flags.writeable = False
    return out
