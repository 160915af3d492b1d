"""Finitely presented skeletal complexes and their cell calculus.

A :class:`SkeletalComplex` is generated by finitely many cells with
attaching data; every cell above the generating dimensions is a formal
degeneracy.  Cells are stored in decomposed form as a generator paired
with the canonical epimorphism acting on it, so the degenerate-cell
normal form is structural rather than computed.

:class:`CellLayer` numbers the k-cells without storing them: a cell's id
is its generator's offset plus the rank of its epi, so the layer computes
a cell from its id and an id from its cell.  The faces of every cell are
read from :meth:`SkeletalComplex.face_table`, one table per dimension,
built when first read and kept: :meth:`SkeletalComplex.faces`, the cycle
equations of validation and ``is_sphere``, and the sphere scan, which
reads the two tables of the level it checks, all read them;
:class:`TabulatedPresheaf` holds only cell layers.  A table is gathered
from the shape's integer face-step and epi-composition tables in a few
numpy steps per generator dimension, whatever the number of generators:
the complex plans each dimension's gather once, ranking every generator
face's epi a single time, and each table reads the plans of the
dimensions at or below its own.

The contravariant action :meth:`SkeletalComplex.act` serves what the face
tables do not hold: degeneracies and sections.  It composes the morphism
into the cell's epimorphism and splits off the mono part; the mono is a
walk through the face tables from the generator's own cell, one read per
elementary face, and the epi part composes into the epi of the cell it
reaches.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import shapes
from ._kernels import build_constraints
from .shapes import (
    CubeMorphism,
    CyclicMorphism,
    GlobeMorphism,
    ShapeMorphism,
    SimplexMorphism,
    compose,
    count_epis,
    epi_mono_factor,
    epi_of_rank,
    epi_rank,
    face_arity,
    identity,
)


class ComplexError(ValueError):
    """Raised for ill-formed complexes or out-of-range cell operations."""


class TruncationError(ComplexError):
    """Raised when an action would leave the tabulated window."""


class BudgetError(RuntimeError):
    """Raised when a tabulation exceeds the configured cell budget."""


@dataclass(frozen=True)
class Cell:
    """A cell: a generator acted on by a canonical epimorphism.

    The epi maps the cell's dimension onto the generator's dimension; an
    identity epi means the cell is the generator itself.  For cyclic
    complexes the epi may carry a rotation, in which case the cell is a
    rotated copy and still counts as non-degenerate when the monotone
    part is trivial.
    """

    generator: str
    epi: ShapeMorphism

    @property
    def dim(self) -> int:
        return self.epi.dom

    @property
    def generator_dim(self) -> int:
        return self.epi.cod

    def __repr__(self) -> str:
        return f"Cell({self.generator}, {shapes.format_morphism(self.epi)})"


@dataclass(frozen=True)
class GeneratorDecl:
    """A generating cell with its attaching data.

    ``faces`` holds cells of dimension dim - 1: the ordered face list
    c_0..c_dim for ordinal shapes, the pairs (1,0),(1,1),...,(dim,0),(dim,1)
    for cubes, and the (source, target) pair for globs.  Dimension-0
    generators have no faces.
    """

    name: str
    dim: int
    faces: tuple[Cell, ...]


def make_cell(shape: str, decl: GeneratorDecl, epi_word="",
              dim: int | None = None) -> Cell:
    """The cell of a generator of the given shape under an epi, given as a
    word or as a morphism."""
    if isinstance(epi_word, str):
        toks = epi_word.split()
        if dim is None:
            drop = sum(1 for t in toks if t.startswith("s") or t == "iot"
                       or t.startswith("b"))
            dim = decl.dim + drop
        epi = shapes.normalize(shape, toks, dom=dim)
    else:
        epi = epi_word
    if epi.cod != decl.dim:
        raise ComplexError(
            f"epi lands in dimension {epi.cod}, generator {decl.name!r} has"
            f" dimension {decl.dim}")
    if not epi.is_epi:
        raise ComplexError("cell word must be an epimorphism")
    return Cell(decl.name, epi)


@dataclass(frozen=True)
class Violation:
    generator: str
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


class SkeletalComplex:
    """An n-skeletal presheaf presented by generators and attaching data.

    Immutable after construction; all queries are pure, so instances are
    safe to share across worker threads.  Per dimension, the cell layer,
    the read-only face table of the cells and the gather plan of the
    generators are memoised; a memo entry is computed from immutable data,
    so two threads that race on one entry store equal values.
    """

    def __init__(self, shape: str, skeletal_level: int, generators,
                 truncation: int | None = None):
        if shape not in shapes.SHAPES:
            raise ComplexError(f"unknown shape {shape!r}")
        self.shape = shape
        self.skeletal_level = skeletal_level
        self.generators: dict[str, GeneratorDecl] = {}
        # declaration positions, and the generators of each dimension
        self._position: dict[str, int] = {}
        self._by_dim: dict[int, list[GeneratorDecl]] = {}
        for g in generators:
            if g.name in self.generators:
                raise ComplexError(f"duplicate generator {g.name!r}")
            self._position[g.name] = len(self.generators)
            self.generators[g.name] = g
            self._by_dim.setdefault(g.dim, []).append(g)
        if truncation is None:
            truncation = 2 * skeletal_level + 2
        if truncation < skeletal_level:
            raise ComplexError("truncation below skeletal level")
        self.truncation = truncation
        self._layers: dict[int, CellLayer] = {}
        self._faces_memo: dict[int, np.ndarray] = {}
        self._plans: dict[int, tuple[np.ndarray, dict]] = {}

    # -- construction helpers ------------------------------------------------

    def generator_cell(self, name: str) -> Cell:
        decl = self.generators[name]
        return Cell(name, identity(self.shape, decl.dim))

    def cell(self, name: str, epi_word="", dim: int | None = None) -> Cell:
        """Build a cell from a generator name and an epi word."""
        return make_cell(self.shape, self.generators[name], epi_word, dim)

    # -- validation -----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check arity, dimensions and references of every generator, and
        the cycle equations of every sound one, reported generator by
        generator.

        A generator is sound when it breaks no structural check and every
        generator its faces name is sound.  Only sound generators can be
        gathered into face tables, so the cycle equations are read off this
        complex's tables when every generator is sound, and off those of
        the sub-complex of the sound generators otherwise.
        """
        structural: dict[str, list[Violation]] = {}
        sound: set[str] = set()
        for name, g in self.generators.items():
            found: list[Violation] = []
            if g.dim > self.skeletal_level:
                found.append(Violation(name, "dimension",
                                       f"dim {g.dim} exceeds skeletal level"
                                       f" {self.skeletal_level}"))
            arity = face_arity(self.shape, g.dim)
            if len(g.faces) != arity:
                found.append(Violation(name, "arity",
                                       f"expected {arity} faces, got {len(g.faces)}"))
            else:
                for c in g.faces:
                    if c.generator not in structural:
                        found.append(Violation(name, "reference",
                                               f"face uses undeclared generator"
                                               f" {c.generator!r}"))
                    elif c.dim != g.dim - 1:
                        found.append(Violation(name, "dimension",
                                               f"face {c!r} has dimension {c.dim},"
                                               f" expected {g.dim - 1}"))
                    elif (not c.epi.is_epi
                          or c.generator_dim != self.generators[c.generator].dim):
                        found.append(Violation(name, "reference",
                                               f"face {c!r} is not a cell of"
                                               f" generator {c.generator!r}"))
                if not found and all(c.generator in sound for c in g.faces):
                    sound.add(name)
            structural[name] = found
        Y = self
        if len(sound) < len(self.generators):
            Y = SkeletalComplex(self.shape, self.skeletal_level,
                                [g for name, g in self.generators.items()
                                 if name in sound], self.truncation)
        problems: list[Violation] = []
        for name, g in self.generators.items():
            problems.extend(structural[name])
            if name in sound:
                problems.extend(Violation(name, "cycle", why)
                                for why in Y.cycle_violations(g.faces, g.dim))
        return ValidationReport(not problems, tuple(problems))

    def cycle_violations(self, faces: tuple[Cell, ...], k: int):
        """Yield, in order, each cycle equation of a k-sphere that the
        (k-1)-cells ``faces`` break, as ``c_<slot> d_<column> != c_<slot>
        d_<column>``.  The equations compare ids in the face table of
        dimension k - 1, whose columns are the face slots."""
        cons = build_constraints(self.shape, k)
        if not any(cons):
            return
        layer = self.cells_of_dim(k - 1)
        rows = self.face_table(k - 1)[[layer.index(c) for c in faces]].tolist()
        for new, row in enumerate(cons):
            for prev, a, b in row:
                if rows[new][a] != rows[prev][b]:
                    yield f"c_{new} d_{a} != c_{prev} d_{b}"

    def faces(self, cell: Cell) -> tuple[Cell, ...]:
        """The elementary faces of a cell of dimension >= 1, in sphere slot
        order: its row of the face table of its dimension."""
        k = cell.dim
        if k < 1:
            raise ComplexError("a 0-cell has no faces")
        row = self.face_table(k)[self.cells_of_dim(k).index(cell)]
        below = self.cells_of_dim(k - 1)
        return tuple(below[i] for i in row.tolist())

    # -- the contravariant action ----------------------------------------------

    def act(self, cell: Cell, f: ShapeMorphism) -> Cell:
        """The action cell . f, computed in decomposed normal form.

        The composite of the cell's epi with f factors as mono . epi.  The
        mono's elementary faces walk the face tables down from the
        generator's own cell, outermost face first, one read each; the epi
        then composes into the epi of the cell reached.  An epi reads no
        table.
        """
        if f.cod != cell.dim:
            raise ComplexError(
                f"morphism lands in dimension {f.cod}, cell has dimension"
                f" {cell.dim}")
        if f.dom > self.truncation:
            raise TruncationError(
                f"action result dimension {f.dom} exceeds truncation"
                f" {self.truncation}")
        mono, epi = epi_mono_factor(compose(cell.epi, f))
        columns = _face_columns(mono)
        if not columns:
            return Cell(cell.generator, epi)
        k = mono.cod
        # the generator's own cell has the identity epi, of rank 0
        i = self.cells_of_dim(k).offset[cell.generator]
        for col in columns:
            i = self.face_table(k)[i, col]
            k -= 1
        base = self.cells_of_dim(k)[i]
        return Cell(base.generator, compose(base.epi, epi))

    # -- degeneracy calculus ----------------------------------------------------

    def dgn(self, cell: Cell) -> int:
        return cell.dim - cell.generator_dim

    def reduces(self, cell: Cell, i: int) -> bool:
        """Does the i-face drop the degeneracy by one?"""
        n = cell.dim
        if self.shape in ("simplicial", "cyclic"):
            if not (0 <= i <= n):
                raise ComplexError(f"face index {i} out of range")
            return self.dgn(self.faces(cell)[i]) == self.dgn(cell) - 1
        if self.shape == "cubical":
            if not (1 <= i <= n):
                raise ComplexError(f"face position {i} out of range")
            faces = self.faces(cell)
            return any(self.dgn(faces[2 * (i - 1) + sign]) == self.dgn(cell) - 1
                       for sign in (0, 1))
        raise ComplexError(f"reduces is not defined for shape {self.shape!r}")

    def properly_reduces(self, cell: Cell, i: int) -> bool:
        """Ordinal shapes only: is the cell its own i-face degenerated at i?"""
        if self.shape not in ("simplicial", "cyclic"):
            raise ComplexError("properly_reduces is defined for ordinal shapes")
        n = cell.dim
        if not (0 <= i <= n):
            raise ComplexError(f"face index {i} out of range")
        if i > n - 1:
            return False
        face = self.faces(cell)[i]
        back = self.act(face, self.degeneracy_maps(n - 1)[i])
        return back == cell

    def reduction_profile(self, cell: Cell) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(reducing indices, properly reducing indices) for one cell.

        For cubes the second component repeats the first; proper reduction
        is an ordinal-shape distinction.
        """
        n = cell.dim
        if self.shape == "cubical":
            red = tuple(i for i in range(1, n + 1) if self.reduces(cell, i))
            return red, red
        red = tuple(i for i in range(n + 1) if self.reduces(cell, i))
        proper = tuple(i for i in range(n + 1) if self.properly_reduces(cell, i))
        return red, proper

    # -- cell enumeration ---------------------------------------------------------

    def cells_of_dim(self, k: int) -> "CellLayer":
        """All cells in dimension k: one per generator per canonical epi."""
        if k > self.truncation:
            raise TruncationError(f"dimension {k} exceeds truncation {self.truncation}")
        layer = self._layers.get(k)
        if layer is None:
            layer = self._layers[k] = CellLayer(self, k)
        return layer

    def count_cells(self, k: int) -> int:
        return len(self.cells_of_dim(k))

    def degeneracy_maps(self, k: int) -> list[ShapeMorphism]:
        """The elementary degeneracies hitting dimension k from k + 1."""
        if self.shape == "simplicial":
            return [SimplexMorphism.degeneracy(j, k + 1) for j in range(k + 1)]
        if self.shape == "cyclic":
            out = [CyclicMorphism.from_simplex(SimplexMorphism.degeneracy(j, k + 1))
                   for j in range(k + 1)]
            out.append(CyclicMorphism.extra_degeneracy(k + 1))
            return out
        if self.shape == "cubical":
            return [CubeMorphism.projection(i, k + 1) for i in range(1, k + 2)]
        return [GlobeMorphism.generator("iot", k + 1)]

    def tabulate(self, up_to: int, budget_cells: int = 10 ** 6) -> "TabulatedPresheaf":
        return TabulatedPresheaf.build(self, up_to, budget_cells)

    def _dimension_plan(self, m: int) -> tuple[np.ndarray, dict]:
        """The gather plan of the generators of dimension m, built once.

        Returns ``(gens, faces)``: ``gens`` holds the declaration positions
        of the dimension-m generators, and ``faces`` maps each dimension c
        of a generator that their faces name to four index arrays, one
        entry per such face: the generator's row in ``gens``, the face's
        slot row 1 + j, the face generator's position and the rank of the
        face's epi onto [c].  A generator with the wrong number of faces,
        or a face that is not an (m-1)-cell of a declared generator, raises
        :class:`ComplexError`, so no plan is kept for ill-formed attaching
        data.
        """
        plan = self._plans.get(m)
        if plan is None:
            gens: list[int] = []
            faces: dict[int, list[tuple[int, int, int, int]]] = {}
            arity = face_arity(self.shape, m)
            for g in self._by_dim[m]:
                if len(g.faces) != arity:
                    raise ComplexError(f"{g.name!r} has {len(g.faces)} faces,"
                                       f" expected {arity}")
                for j, c in enumerate(g.faces):
                    if c.dim != m - 1:
                        raise ComplexError(f"face {c!r} of {g.name!r} has dimension"
                                           f" {c.dim}, expected {m - 1}")
                    if c.generator not in self.generators:
                        raise ComplexError(f"face {c!r} of {g.name!r} uses undeclared"
                                           f" generator {c.generator!r}")
                    if (not c.epi.is_epi
                            or c.generator_dim != self.generators[c.generator].dim):
                        raise ComplexError(f"face {c!r} of {g.name!r} is not a cell of"
                                           f" generator {c.generator!r}")
                    faces.setdefault(c.generator_dim, []).append(
                        (len(gens), 1 + j, self._position[c.generator], epi_rank(c.epi)))
                gens.append(self._position[g.name])
            plan = self._plans[m] = (
                np.array(gens, np.intp),
                {c: tuple(np.array(col, np.intp) for col in zip(*entries))
                 for c, entries in faces.items()})
        return plan

    def face_table(self, k: int) -> np.ndarray:
        """The read-only int32 table of the k-cells' face ids, built when
        first read and memoised.

        Row i holds the face ids of the cell with id i in sphere slot
        order: d_0, ..., d_k for simplicial and cyclic cells; a^0_1,
        a^1_1, ..., a^0_k, a^1_k for cubes; source and target for globes.
        The rows of the generators of one dimension m are one gather from
        the shape's integer tables, over a ``targets`` array of shape
        (generators, 1 + faces, W).  Row 0 holds the ids of each
        generator's own (k-1)-cells, where :func:`shapes.face_step` sends
        the faces its epis absorb; row 1 + j holds, per epi [k-1] ->>
        [m - 1], the id of face j acted on by that epi, composed by
        :func:`shapes.epi_composition` for all faces over generators of
        one dimension at once.  The faces are read from
        :meth:`_dimension_plan`, so each generator face is ranked once per
        complex, not once per table.
        """
        table = self._faces_memo.get(k)
        if table is None:
            below, layer = self.cells_of_dim(k - 1), self.cells_of_dim(k)
            table = np.empty((len(layer), face_arity(self.shape, k)), np.int32)
            for m in self._by_dim:
                if m > k:
                    continue
                gens, faces = self._dimension_plan(m)
                flat, own, cells, n_sub = _gather_step(self.shape, k, m)
                targets = np.full((len(gens), 1 + face_arity(self.shape, m),
                                   max(len(own), n_sub)), -1, np.int32)
                targets[:, 0, :len(own)] = below.starts[gens, None] + own
                for c, (row, slot, at, rank) in faces.items():
                    comp = shapes.epi_composition(self.shape, k - 1, m - 1, c)
                    targets[row, slot, :n_sub] = below.starts[at, None] + comp[:, rank].T
                table[layer.starts[gens, None] + cells] = \
                    targets.reshape(len(gens), -1)[:, flat]
            table.flags.writeable = False
            self._faces_memo[k] = table
        return table


def _face_columns(mono: ShapeMorphism) -> list[int]:
    """The face-table columns of a mono's elementary faces, outermost
    first: i per d_i, 2(pos - 1) + sign per cubical insert, 0 per sig and
    1 per tau.  The mono of :func:`shapes.epi_mono_factor` carries no
    rotation, so a cyclic mono is its monotone part."""
    if isinstance(mono, CyclicMorphism):
        mono = mono.delta_part
    if isinstance(mono, SimplexMorphism):
        return list(mono.monos)
    if isinstance(mono, CubeMorphism):
        return [2 * (pos - 1) + sign for pos, sign in mono.inserts]
    return [0 if g == "sig" else 1 for g in mono.word]


@lru_cache(maxsize=None)
def _gather_step(shape: str, k: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The shape's part of the gather of the k-cells over dimension-m
    generators: the flat index ``(face + 1) * W + epi`` into a generator's
    ``targets`` rows of width W, from :func:`shapes.face_step`; the ranks
    of its own (k-1)-cells; the ranks of its k-cells; and the number of
    epis [k-1] ->> [m-1].  Cached per process, read-only."""
    face, epi = shapes.face_step(shape, k, m)
    own = np.arange(count_epis(k - 1, m, shape))
    n_sub = count_epis(k - 1, m - 1, shape)
    flat = (face + 1) * max(len(own), n_sub) + epi
    cells = np.arange(len(face))
    for a in (flat, own, cells):
        a.flags.writeable = False
    return flat, own, cells, n_sub


# ---------------------------------------------------------------------------
# cell layers and tabulation


class CellLayer(Sequence):
    """The k-cells of a complex in id order, computed from their ids.

    The cells over each generator g, in declaration order, are g acted on
    by the canonical epis [k] ->> [dim g] in rank order, the order of
    :func:`shapes.enumerate_epis`.  So a cell's id is ``offset[g]`` plus
    the rank of its epi; ``layer[i]`` builds the one cell with id i,
    unranking its epi by formula with :func:`shapes.epi_of_rank`, and
    nothing per cell or per epi is stored.  ``starts`` holds the offsets
    again as a read-only array, by declaration position, for the
    face-table gathers.
    Read-only and built in O(generators).
    """

    def __init__(self, X: SkeletalComplex, k: int):
        self.shape, self.dim = X.shape, k
        self._generators = X.generators
        self.offset: dict[str, int] = {}
        n = 0
        for name, g in X.generators.items():
            self.offset[name] = n
            n += count_epis(k, g.dim, X.shape)
        self._len = n
        self._names, self._starts = list(self.offset), list(self.offset.values())
        self.starts = np.array(self._starts, np.intp)
        self.starts.flags.writeable = False

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i) -> Cell:
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"cell id {i} out of range for {self._len} cells")
        # a generator without k-cells shares its start with the next one
        j = bisect_right(self._starts, i) - 1
        name = self._names[j]
        return Cell(name, epi_of_rank(self.shape, self.dim, self._generators[name].dim,
                                      i - self._starts[j]))

    def __contains__(self, cell) -> bool:
        if not isinstance(cell, Cell) or cell.generator not in self._generators:
            return False
        epi = cell.epi
        return (epi.shape == self.shape and epi.is_epi and epi.dom == self.dim
                and epi.cod == self._generators[cell.generator].dim)

    def index(self, cell) -> int:
        """The id of a k-cell of the complex; ValueError for any other value."""
        if cell not in self:
            raise ValueError(f"{cell!r} is not a {self.dim}-cell of this complex")
        return self.offset[cell.generator] + epi_rank(cell.epi)


@dataclass
class TabulatedPresheaf:
    """The cell layers of a complex up to a dimension, within its
    truncation and a cell budget.

    ``cells[k]`` is the :class:`CellLayer` of the k-cells: a cell's id is
    its position there, and ``cells[k].index(c)`` gives it back.  The
    face tables over those ids are read with
    :meth:`SkeletalComplex.face_table`, each built when first read, so
    tabulation itself builds no table.
    """

    complex: SkeletalComplex
    up_to: int
    cells: list[CellLayer]

    @classmethod
    def build(cls, X: SkeletalComplex, up_to: int,
              budget_cells: int = 10 ** 6) -> "TabulatedPresheaf":
        if up_to > X.truncation:
            raise TruncationError(
                f"tabulation to {up_to} exceeds truncation {X.truncation}")
        cells = [X.cells_of_dim(k) for k in range(up_to + 1)]
        for k, layer in enumerate(cells):
            if len(layer) > budget_cells:
                raise BudgetError(
                    f"{len(layer)} cells in dimension {k} exceed the budget"
                    f" of {budget_cells}")
        return cls(X, up_to, cells)
