"""Test-side oracle tables for ``TabulatedPresheaf``.

The package tabulates face tables only, the input of the sphere scan, and
gathers them from the shape's integer face-step and epi-composition
tables.  :func:`reference_act` is the cell action that reads the
generators' attaching data and no table: it pushes the mono part of a
morphism into the attaching data recursively.  :func:`face_maps` lists
the elementary face maps in sphere slot order, :func:`act_face_table`
builds the same table the direct way, by acting on every cell with every
elementary face map, and :func:`act_cycle_violations` evaluates the cycle
equations the same way.  :class:`ReferenceTables` adds, from
:func:`reference_act` and ``X.degeneracy_maps``, the elementary
degeneracy tables and, for cyclic complexes, the basic
rotation of each layer.  On those tables it checks every defining relation
of the shape category and recovers Eilenberg-Zilber decompositions by
exhaustive search, independently of the structural representation the
package uses.  :func:`reference_split_lift` finds the rotation of a cyclic
lift window by trying every rotation, where the package reads it off in
closed form; it reads the lift at any integer with :func:`_lift_at`.
:func:`reference_epi_keys` lists the epis' integer data in rank order,
where the package unranks by formula, and :func:`reference_globe_word`
rewrites a globe word until no rule applies, where the package composes
normal forms by counting.  None of this is used by the package.
"""

from itertools import combinations

import numpy as np

from aufhebung._kernels import build_constraints
from aufhebung.complexes import Cell, ComplexError, TruncationError
from aufhebung.shapes import (
    CubeMorphism,
    CyclicMorphism,
    GlobeMorphism,
    ShapeError,
    ShapeMorphism,
    SimplexMorphism,
    compose,
    enumerate_epis,
    epi_mono_factor,
    identity,
)


def reference_act(X, cell: Cell, f: ShapeMorphism) -> Cell:
    """``X.act(cell, f)`` without the face tables: the composite of the
    cell's epi with f factors as mono . epi, and the mono is pushed into
    the generator's attaching data recursively."""
    if f.cod != cell.dim:
        raise ComplexError(
            f"morphism lands in dimension {f.cod}, cell has dimension"
            f" {cell.dim}")
    if f.dom > X.truncation:
        raise TruncationError(
            f"action result dimension {f.dom} exceeds truncation"
            f" {X.truncation}")
    composite = compose(cell.epi, f)
    mono, epi = epi_mono_factor(composite)
    base = _act_mono(X, cell.generator, mono)
    return Cell(base.generator, compose(base.epi, epi))


def _act_mono(X, name: str, mono: ShapeMorphism) -> Cell:
    """Push a monomorphism into a generator's attaching data."""
    decl = X.generators[name]
    if X.shape == "cyclic":
        rot = mono.rotation
        plain = mono.delta_part
        if plain.is_identity:
            return Cell(name, CyclicMorphism.rotation_map(decl.dim, rot))
        i = plain.monos[0]
        rest = SimplexMorphism(plain.dom, plain.cod - 1, plain.monos[1:], ())
        face = decl.faces[i]
        inner = CyclicMorphism.from_simplex(rest)
        tail = reference_act(X, face, inner) if not rest.is_identity else face
        if rot:
            return reference_act(X, tail, CyclicMorphism.rotation_map(tail.dim, rot))
        return tail
    if mono.is_identity:
        return Cell(name, identity(X.shape, decl.dim))
    if X.shape == "simplicial":
        i = mono.monos[0]
        rest = SimplexMorphism(mono.dom, mono.cod - 1, mono.monos[1:], ())
        face = decl.faces[i]
    elif X.shape == "cubical":
        pos, sign = mono.inserts[0]
        rest = CubeMorphism(mono.dom, mono.cod - 1, mono.inserts[1:], ())
        face = decl.faces[2 * (pos - 1) + sign]
    else:  # globular
        outer = mono.word[0]
        rest = GlobeMorphism(mono.dom, mono.cod - 1, mono.word[1:])
        face = decl.faces[0 if outer == "sig" else 1]
    if rest.is_identity:
        return face
    return reference_act(X, face, rest)


def _lift_at(window: tuple[int, ...], cod: int, x: int) -> int:
    """Value at any integer x of the degree-one lift with this window on
    0..dom, where dom = len(window) - 1."""
    q, rem = divmod(x, len(window))
    return window[rem] + q * (cod + 1)


def reference_split_lift(dom: int, cod: int, vals: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """``shapes._split_lift`` by search: the window is shifted so that
    0 <= vals[0] <= cod, then every rotation r in 0..dom is tried, and the
    one whose table, the lift at y - r on 0..dom, lies in [0, cod] must be
    unique.  The input checks are left to ``_split_lift``."""
    shift = (vals[0] % (cod + 1)) - vals[0]
    vals = tuple(v + shift for v in vals)
    matches = []
    for r in range(dom + 1):
        table = tuple(_lift_at(vals, cod, y - r) for y in range(dom + 1))
        if 0 <= table[0] and table[-1] <= cod:
            matches.append((r, table))
    if len(matches) != 1:
        raise ShapeError(f"lift does not determine a unique rotation: {matches!r}")
    return matches[0]


def reference_epi_keys(shape: str, n: int, m: int) -> tuple:
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


def reference_globe_word(word: tuple[str, ...]) -> tuple[str, ...]:
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


def face_maps(X, k) -> list[ShapeMorphism]:
    """The elementary faces from dimension k of ``X``'s shape, in sphere
    slot order: d_0, ..., d_k for simplices and cyclic sets, a^0_1, a^1_1,
    ..., a^0_k, a^1_k for cubes, sig and tau for globes."""
    if X.shape == "simplicial":
        return [SimplexMorphism.face(i, k) for i in range(k + 1)]
    if X.shape == "cyclic":
        return [CyclicMorphism.from_simplex(SimplexMorphism.face(i, k))
                for i in range(k + 1)]
    if X.shape == "cubical":
        return [CubeMorphism.face(i, sign, k)
                for i in range(1, k + 1) for sign in (0, 1)]
    return [GlobeMorphism.generator("sig", k - 1),
            GlobeMorphism.generator("tau", k - 1)]


def act_face_table(X, k):
    """The int32 face table of the k-cells of ``X``, built through
    :func:`reference_act`."""
    layer = X.cells_of_dim(k)
    fmaps = face_maps(X, k) if k >= 1 else []
    below = {c: j for j, c in enumerate(X.cells_of_dim(k - 1))}
    return np.array([[below[reference_act(X, c, fm)] for fm in fmaps] for c in layer],
                    dtype=np.int32).reshape(len(layer), len(fmaps))


def act_cycle_violations(X, faces, k):
    """``X.cycle_violations(faces, k)`` through :func:`reference_act`: each
    broken equation of ``build_constraints`` found by acting on the faces
    with the elementary face maps of dimension k - 1."""
    fmaps = face_maps(X, k - 1) if k >= 2 else []
    for new, row in enumerate(build_constraints(X.shape, k)):
        for prev, a, b in row:
            if reference_act(X, faces[new], fmaps[a]) != reference_act(X, faces[prev], fmaps[b]):
                yield f"c_{new} d_{a} != c_{prev} d_{b}"


class ReferenceTables:
    """A tabulated presheaf with its degeneracy and rotation tables.

    ``degens[k]`` tabulates the elementary degeneracies from dimension k
    into dimension k + 1 (empty at the top dimension), and for cyclic
    complexes ``rotations[k]`` tabulates the basic rotation of each layer.
    """

    def __init__(self, tab):
        X = tab.complex
        self.shape, self.up_to = X.shape, tab.up_to
        self.cells, self.faces = tab.cells, tab.faces
        self.degens: list[np.ndarray] = []
        self.rotations: list[np.ndarray] = []

        def table(layer, maps):
            return np.array([[tab.cells[f.dom].index(reference_act(X, c, f)) for f in maps]
                             for c in layer],
                            dtype=np.int32).reshape(len(layer), len(maps))

        for k, layer in enumerate(tab.cells):
            self.degens.append(table(layer, X.degeneracy_maps(k) if k < tab.up_to else []))
            rot = [CyclicMorphism.rotation_map(k)] if X.shape == "cyclic" else []
            self.rotations.append(table(layer, rot).ravel())

    def nondegenerate_ids(self, k: int) -> set[int]:
        """Ids of k-cells that are not hit by any elementary degeneracy."""
        hit: set[int] = set()
        if k >= 1:
            hit.update(int(v) for v in self.degens[k - 1].ravel())
        out = set(range(len(self.cells[k]))) - hit
        return out

    def act_by_epi(self, cell_id: int, k: int, epi: ShapeMorphism) -> int:
        """Act on a tabulated k-cell by a canonical epi, tables only.

        The epi's elementary degeneracies are applied outermost first (the
        ascending canonical word read left to right); a cyclic rotation,
        which is applied first in the morphism, acts last on the cell at
        the top dimension.
        """
        cur, dim = cell_id, k
        if self.shape == "cyclic":
            word = epi.delta_part.epis
            rot = epi.rotation
        elif self.shape == "simplicial":
            word, rot = epi.epis, 0
        elif self.shape == "cubical":
            word, rot = epi.deletes, 0
        else:
            word, rot = ("iot",) * (epi.dom - epi.cod), 0
        for j in word:
            if self.shape == "simplicial" or self.shape == "cyclic":
                col = j
            elif self.shape == "cubical":
                col = j - 1
            else:
                col = 0
            cur = int(self.degens[dim][cur, col])
            dim += 1
        if dim != epi.dom:
            raise ComplexError("epi word length does not match its dimensions")
        for _ in range(rot):
            cur = int(self.rotations[dim][cur])
        return cur

    def ez_decompose_tabulated(self, cell_id: int, k: int) -> list[tuple[int, int, ShapeMorphism]]:
        """All (dim, id, epi) triples with nondegenerate core reproducing the cell.

        Found by exhaustive search over lower cells and canonical epis; a
        plain shape has exactly one, the cyclic category one per rotation
        of the core.
        """
        out = []
        for m in range(k + 1):
            nondeg = self.nondegenerate_ids(m)
            for eps in enumerate_epis(k, m, self.shape):
                for y in sorted(nondeg):
                    if self.act_by_epi(y, m, eps) == cell_id:
                        out.append((m, y, eps))
        return out

    def verify_tables(self) -> list[str]:
        """Check every defining relation of the shape category on the
        tables alone, instance by instance; returns the violations."""
        bad: list[str] = []

        def note(k, x, what):
            bad.append(f"dim {k} cell {x}: {what}")

        F, D, R = self.faces, self.degens, self.rotations
        for k in range(self.up_to + 1):
            n_cells = len(self.cells[k])
            for x in range(n_cells):
                if self.shape in ("simplicial", "cyclic"):
                    self._verify_ordinal_row(k, x, F, D, note)
                    if self.shape == "cyclic":
                        self._verify_cyclic_row(k, x, F, D, R, note)
                elif self.shape == "cubical":
                    self._verify_cubical_row(k, x, F, D, note)
                else:
                    self._verify_globular_row(k, x, F, D, note)
        return bad

    def _verify_ordinal_row(self, k, x, F, D, note):
        for j in range(k + 1):
            for i in range(j):
                if k >= 2 and F[k - 1][F[k][x, j], i] != F[k - 1][F[k][x, i], j - 1]:
                    note(k, x, f"d{j} d{i} relation fails")
        if k + 2 <= self.up_to:
            for j in range(k + 1):
                for i in range(j + 1):
                    if D[k + 1][D[k][x, j], i] != D[k + 1][D[k][x, i], j + 1]:
                        note(k, x, f"s{j} s{i} relation fails")
        if k + 1 <= self.up_to:
            for j in range(k + 1):
                for i in range(k + 2):
                    got = F[k + 1][D[k][x, j], i]
                    if i < j:
                        want = D[k - 1][F[k][x, i], j - 1]
                    elif i in (j, j + 1):
                        want = x
                    else:
                        want = D[k - 1][F[k][x, i - 1], j]
                    if got != want:
                        note(k, x, f"s{j} d{i} relation fails")

    def _verify_cubical_row(self, k, x, F, D, note):
        for j in range(1, k + 1):
            for i in range(1, j):
                for io in (0, 1):
                    for up in (0, 1):
                        if k >= 2 and F[k - 1][F[k][x, 2 * (j - 1) + io], 2 * (i - 1) + up] != \
                                F[k - 1][F[k][x, 2 * (i - 1) + up], 2 * (j - 2) + io]:
                            note(k, x, f"a@{j} a@{i} relation fails")
        if k + 2 <= self.up_to:
            for j in range(1, k + 2):
                for i in range(1, j + 1):
                    if D[k + 1][D[k][x, j - 1], i - 1] != \
                            D[k + 1][D[k][x, i - 1], j]:
                        note(k, x, f"b{j} b{i} relation fails")
        if k + 1 <= self.up_to:
            for j in range(1, k + 2):
                for i in range(1, k + 2):
                    for sign in (0, 1):
                        got = F[k + 1][D[k][x, j - 1], 2 * (i - 1) + sign]
                        if i < j:
                            want = D[k - 1][F[k][x, 2 * (i - 1) + sign], j - 2]
                        elif i == j:
                            want = x
                        else:
                            want = D[k - 1][F[k][x, 2 * (i - 2) + sign], j - 1]
                        if got != want:
                            note(k, x, f"b{j} a{sign}@{i} relation fails")

    def _verify_globular_row(self, k, x, F, D, note):
        if k + 1 <= self.up_to:
            up = D[k][x, 0]
            for col in (0, 1):
                if F[k + 1][up, col] != x:
                    note(k, x, "iot section relation fails")
        if k >= 2:
            src, tgt = F[k][x, 0], F[k][x, 1]
            for col in (0, 1):
                # tau.sig = sig.sig and tau.tau = sig.tau collapse to:
                # both faces of a face agree with the matching face's face
                if F[k - 1][src, col] != F[k - 1][tgt, col]:
                    note(k, x, "glob faces are not parallel")

    def _verify_cyclic_row(self, k, x, F, D, R, note):
        # with the rotation t: p -> p + 1 the presentation reads
        # t^(k+1) = id, t.d_i = d_(i+1).t (i < k), t.d_k = d_0,
        # t.s_i = s_(i+1).t (i < k), t.s_k = sx.t, sx = s_0.t
        cur = x
        for _ in range(k + 1):
            cur = R[k][cur]
        if cur != x:
            note(k, x, "rotation order exceeds k + 1")
        if k >= 1:
            for i in range(k):
                if F[k][R[k][x], i] != R[k - 1][F[k][x, i + 1]]:
                    note(k, x, f"t d{i} relation fails")
            if F[k][R[k][x], k] != F[k][x, 0]:
                note(k, x, f"t d{k} relation fails")
        if k + 1 <= self.up_to:
            if D[k][x, k + 1] != R[k + 1][D[k][x, 0]]:
                note(k, x, "wrap-around degeneracy relation fails")
            for i in range(k):
                if D[k][R[k][x], i] != R[k + 1][D[k][x, i + 1]]:
                    note(k, x, f"t s{i} relation fails")
            if D[k][R[k][x], k] != R[k + 1][D[k][x, k + 1]]:
                note(k, x, f"t s{k} relation fails")
