"""Spheres, constructive fillers, and the brute-force filler oracle.

A k-sphere is a compatible boundary candidate: an indexed family of
(k-1)-cells satisfying the cycle equations of its shape.  Two independent
routes decide whether a sphere bounds:

* the constructive fillers build the filler as a degenerate copy of a
  least-degenerate face and then *verify* the boundary they produce,
  raising :class:`AlgorithmViolation` on any mismatch -- by design that
  error can only fire if the underlying combinatorics is wrong; and
* :func:`brute_force_fill` scans every cell of the right dimension.

:func:`coskeletal_up_to` enumerates spheres level by level and certifies
existence and uniqueness of fillers.  Its verdicts have three values: True
(every sphere of the window is uniquely filled), False (a witness sphere
is unfilled or has several fillers) and None (a level ran over the sphere
budget before any witness showed up, so nothing is claimed).
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _kernels
from .complexes import (
    Cell,
    SkeletalComplex,
    TruncationError,
    face_arity,
)
from .shapes import (
    CubeMorphism,
    GlobeMorphism,
    SimplexMorphism,
)


class SphereError(ValueError):
    """Raised for families that are not well-formed sphere candidates."""


class AlgorithmViolation(RuntimeError):
    """An internal step of a constructive filler failed.

    The construction replays facts that are forced for any valid input,
    so this firing means a bug, not a property of the input.
    """


def cell_literal(c: Cell) -> str:
    word = " ".join(c.epi.tokens())
    return f"{c.generator}[{word}]" if word else c.generator


@dataclass(frozen=True)
class Sphere:
    """An indexed family of (k-1)-cells subject to the cycle equations.

    Face order: c_0..c_k for ordinal shapes, (1,0),(1,1),...,(k,0),(k,1)
    for cubes, (source, target) for globs.
    """

    shape: str
    k: int
    faces: tuple[Cell, ...]

    def literal(self) -> str:
        return ", ".join(cell_literal(c) for c in self.faces)


def make_sphere(X: SkeletalComplex, faces, k: int | None = None) -> Sphere:
    faces = tuple(faces)
    if not faces:
        raise SphereError("a sphere needs at least one face")
    if k is None:
        k = faces[0].dim + 1
    if len(faces) != face_arity(X.shape, k):
        raise SphereError(
            f"a {k}-sphere of shape {X.shape} has {face_arity(X.shape, k)}"
            f" faces, got {len(faces)}")
    if any(c.dim != k - 1 for c in faces):
        raise SphereError("all faces must have dimension k - 1")
    return Sphere(X.shape, k, faces)


def is_sphere(X: SkeletalComplex, s: Sphere) -> tuple[bool, str | None]:
    """Check the cycle equations; on failure name the first violated one."""
    why = next(X.cycle_violations(s.faces, s.k), None)
    return why is None, why


def boundary(X: SkeletalComplex, cell: Cell) -> Sphere:
    """The boundary sphere of a cell (dimension >= 1)."""
    if cell.dim < 1:
        raise SphereError("boundary needs dimension >= 1")
    return Sphere(X.shape, cell.dim, X.faces(cell))


# ---------------------------------------------------------------------------
# reduction profiles


@dataclass(frozen=True)
class ReductionProfile:
    """Degeneracy bookkeeping of a sphere used by the constructive fillers.

    ``r`` is the minimal face degeneracy, ``m`` the first face index
    attaining it (with its sign for cubes), ``M`` the ordinals reducing
    (properly, for ordinal shapes) that face, and ``l`` one above the
    largest element of M when M is non-empty.
    """

    r: int
    m: int
    sign: int | None
    M: tuple[int, ...]
    l: int | None


def sphere_profile(X: SkeletalComplex, s: Sphere) -> ReductionProfile:
    if X.shape == "cubical":
        dgns = [X.dgn(c) for c in s.faces]
        r = min(dgns)
        pos = dgns.index(r)
        m, sign = pos // 2 + 1, pos % 2
        cm = s.faces[pos]
        M = X.reduction_profile(cm)[0]
    elif X.shape == "simplicial":
        dgns = [X.dgn(c) for c in s.faces]
        r = min(dgns)
        m, sign = dgns.index(r), None
        M = X.reduction_profile(s.faces[m])[1]
    else:
        raise SphereError(f"reduction profiles apply to simplicial and cubical"
                          f" spheres, not {X.shape}")
    l = 1 + max(M) if M else None
    return ReductionProfile(r, m, sign, tuple(M), l)


# ---------------------------------------------------------------------------
# fill results


@dataclass(frozen=True)
class FillResult:
    status: str  # filled | no_filler | not_applicable
    filler: Cell | None = None
    witnesses: tuple[Cell, ...] = ()
    trace: tuple[str, ...] = ()
    profile: ReductionProfile | None = None
    reason: str | None = None


def _verify_boundary(X: SkeletalComplex, filler: Cell, s: Sphere) -> None:
    got = boundary(X, filler)
    for slot, (a, b) in enumerate(zip(got.faces, s.faces)):
        if a != b:
            raise AlgorithmViolation(
                f"constructed filler {cell_literal(filler)} has face"
                f" {cell_literal(a)} at slot {slot}, sphere wants {cell_literal(b)}")


def constructive_filler_cubical(X: SkeletalComplex, s: Sphere,
                                trace: bool = False) -> FillResult:
    """Fill a highly degenerate cubical sphere by a degeneracy of a least
    degenerate face; applicable when k < 2r + 2."""
    if X.shape != "cubical" or s.shape != "cubical":
        raise SphereError("cubical filler needs a cubical sphere")
    k = s.k
    if any(X.dgn(c) == 0 for c in s.faces):
        return FillResult("not_applicable", reason="a face is non-degenerate")
    prof = sphere_profile(X, s)
    r, m = prof.r, prof.m
    if not k < 2 * r + 2:
        return FillResult("not_applicable", profile=prof,
                          reason=f"k = {k} is not below 2r + 2 = {2 * r + 2}")
    c0, c1 = s.faces[2 * (m - 1)], s.faces[2 * (m - 1) + 1]
    if c0 != c1:
        raise AlgorithmViolation(
            f"the two faces at the minimal index {m} differ:"
            f" {cell_literal(c0)} vs {cell_literal(c1)}")
    cm = c0
    M = set(prof.M)
    if len(M) != r or (M and min(M) < m) or any(j > k - 1 for j in M):
        raise AlgorithmViolation(f"reducer set {sorted(M)} violates |M| = r"
                                 f" and m <= j <= k - 1")
    lines: list[str] = []
    if trace:
        lines.append(f"profile: r={r} m={m} M={sorted(M)}")
        for u in range(1, k + 1):
            for io in (0, 1):
                cu = s.faces[2 * (u - 1) + io]
                lines.append(f"face ({u},{io}): {_cubical_branch(X, cu, u, m, M, k)}")
    filler = X.act(cm, CubeMorphism.projection(m, k))
    _verify_boundary(X, filler, s)
    return FillResult("filled", filler=filler, trace=tuple(lines), profile=prof)


def _cubical_branch(X, cu, u, m, M, k) -> str:
    if u == m:
        return "base (projection identity)"
    if u - 1 in M:
        return f"part I (u = {u - 1} + 1)"
    if u < m:
        for p in sorted({m - 1} | M):
            if X.reduces(cu, p):
                return f"part II (p={p}{', p=m-1' if p == m - 1 else ''})"
        raise AlgorithmViolation(f"part II found no reducing p for face {u}")
    K = {m} | {j + 1 for j in M if j + 1 < u} | {j for j in M if j + 1 > u}
    for p in sorted(K):
        if X.reduces(cu, p):
            case = "case 1" if p < u else "case 2"
            return f"part III {case} (p={p})"
    raise AlgorithmViolation(f"part III found no reducing p in K={sorted(K)}"
                             f" for face {u}")


def constructive_filler_simplicial(X: SkeletalComplex, s: Sphere,
                                   trace: bool = False) -> FillResult:
    """Fill a simplicial sphere whose faces all have degeneracy >= 2;
    applicable when k < 2r + 3."""
    if X.shape != "simplicial" or s.shape != "simplicial":
        raise SphereError("simplicial filler needs a simplicial sphere")
    k = s.k
    if any(X.dgn(c) < 2 for c in s.faces):
        return FillResult("not_applicable", reason="a face has degeneracy < 2")
    prof = sphere_profile(X, s)
    r, m, M = prof.r, prof.m, set(prof.M)
    if not k < 2 * r + 3:
        return FillResult("not_applicable", profile=prof,
                          reason=f"k = {k} is not below 2r + 3 = {2 * r + 3}")
    if len(M) != r or any(not (m <= j <= k - 2) for j in M):
        raise AlgorithmViolation(
            f"proper reducer set {sorted(M)} violates |M| = r and m <= j <= k - 2")
    l = prof.l
    assert l is not None  # r >= 2 makes M non-empty
    cm = s.faces[m]
    if not X.reduces(cm, l):
        raise AlgorithmViolation(f"l = {l} does not reduce the minimal face")
    if cm != s.faces[m + 1]:
        raise AlgorithmViolation(
            f"c_m = {cell_literal(cm)} differs from c_(m+1) ="
            f" {cell_literal(s.faces[m + 1])} although k < 2r + 3")
    filler = X.act(cm, SimplexMorphism.degeneracy(m, k))
    # the r + 2 faces forced to be degenerate copies of c_m
    forced = {m} | {j + 1 for j in M} | {l + 1}
    got = X.faces(filler)
    for u in sorted(forced):
        cu = s.faces[u]
        if X.dgn(cu) != r:
            raise AlgorithmViolation(f"face {u} should attain the minimal"
                                     f" degeneracy {r}, has {X.dgn(cu)}")
        if cu != got[u]:
            raise AlgorithmViolation(f"face {u} is not the forced degenerate"
                                     f" copy of the minimal face")
    lines: list[str] = []
    if trace:
        lines.append(f"profile: r={r} m={m} M={sorted(M)} l={l}")
        for u in range(k + 1):
            lines.append(f"face {u}: "
                         f"{_simplicial_branch(X, s.faces[u], u, m, M, l, r, k)}")
    _verify_boundary(X, filler, s)
    return FillResult("filled", filler=filler, trace=tuple(lines), profile=prof)


def _simplicial_branch(X, cu, u, m, M, l, r, k) -> str:
    if u == m or u == m + 1:
        return "base"
    if u - 1 in M:
        return f"forced (u = {u - 1} + 1)"
    if u == l + 1:
        return "forced (u = l + 1)"
    if u < m:
        for p in sorted({m - 1} | M):
            if X.properly_reduces(cu, p):
                if p == m - 1:
                    return "part I (p = m - 1)"
                if p == m:
                    return "part I (p = m)"
                return f"part I (p = {p} > m)"
        raise AlgorithmViolation(f"part I found no properly reducing p for face {u}")
    K = {m} | {j + 1 for j in M if j + 1 < u} | {j for j in M if j + 1 > u}
    if k - 1 in K:
        raise AlgorithmViolation(f"K = {sorted(K)} reaches k - 1 at face {u}")
    if X.dgn(cu) > r:
        for p in sorted(K):
            if X.properly_reduces(cu, p):
                if p == m:
                    return "part II case 1 (p = m)"
                if u == p + 1:
                    return f"part II case 2 (p = {p})"
                if u > p + 1:
                    return f"part II case 3 (p = {p})"
                return f"part II case 4 (p = {p})"
        raise AlgorithmViolation(f"part II found no properly reducing p in"
                                 f" K={sorted(K)} for face {u}")
    proper = set(X.reduction_profile(cu)[1])
    tail = set(range(k - 1 - r, k - 1))
    if proper == tail and not (K & tail):
        if not (k == 2 * r + 2 and m == 0 and M == set(range(r))
                and K == set(range(r + 1)) and u > r + 1):
            raise AlgorithmViolation(
                f"pathological case fired at face {u} with inconsistent data:"
                f" k={k} r={r} m={m} M={sorted(M)} K={sorted(K)}")
        return f"part III pathological (p = {r + 1})"
    for p in sorted(K):
        if X.reduces(cu, p):
            if p < u:
                return f"part III case 1 (p = {p})"
            if p not in M:
                raise AlgorithmViolation(f"part III case 2 expects p in M,"
                                         f" got p = {p}")
            return f"part III case 2 (p = {p})"
    raise AlgorithmViolation(f"part III found no reducing p in K={sorted(K)}"
                             f" for face {u}")


def constructive_filler_globular(X: SkeletalComplex, s: Sphere,
                                 trace: bool = False) -> FillResult:
    """Fill a parallel pair of degenerate globs by the reflexivity image."""
    if X.shape != "globular" or s.shape != "globular":
        raise SphereError("globular filler needs a globular sphere")
    a, b = s.faces
    if X.dgn(a) == 0 or X.dgn(b) == 0:
        return FillResult("not_applicable", reason="a face is non-degenerate")
    if a != b:
        raise AlgorithmViolation(
            "a parallel pair of degenerate globs must be equal")
    filler = X.act(a, GlobeMorphism.generator("iot", s.k))
    _verify_boundary(X, filler, s)
    lines = ("fill by reflexivity image",) if trace else ()
    return FillResult("filled", filler=filler, trace=lines)


def constructive_filler(X: SkeletalComplex, s: Sphere, trace: bool = False) -> FillResult:
    if X.shape == "cubical":
        return constructive_filler_cubical(X, s, trace)
    if X.shape == "simplicial":
        return constructive_filler_simplicial(X, s, trace)
    if X.shape == "globular":
        return constructive_filler_globular(X, s, trace)
    return FillResult("not_applicable",
                      reason="no constructive filler for this shape")


# ---------------------------------------------------------------------------
# the oracle


def brute_force_fill(X: SkeletalComplex, s: Sphere,
                     budget_cells: int = 10 ** 6) -> FillResult:
    """All fillers of a sphere, by exhaustive scan of the k-cell layer."""
    _kernels.require_positive(budget_cells=budget_cells)
    k = s.k
    if k > X.truncation:
        raise TruncationError(f"sphere dimension {k} exceeds truncation")
    tab = X.tabulate(k, budget_cells=budget_cells)
    row = np.array([tab.cells[k - 1].index(c) for c in s.faces], dtype=np.int32)
    ids = _kernels.find_fillers(tab.faces[k], row)
    witnesses = tuple(tab.cells[k][int(i)] for i in ids)
    if len(witnesses) == 1:
        return FillResult("filled", filler=witnesses[0], witnesses=witnesses)
    if not witnesses:
        return FillResult("no_filler", witnesses=())
    return FillResult("filled", filler=witnesses[0], witnesses=witnesses,
                      reason=f"{len(witnesses)} distinct fillers")


# ---------------------------------------------------------------------------
# level-by-level coskeletality

# unfilled and multi-filled spheres a level report lists, at most
WITNESS_CAP = 8


def conjunction(verdicts: Iterable[bool | None]) -> bool | None:
    """Three-valued "and": False if any verdict is False, else None if any
    is None (inconclusive), else True."""
    verdicts = list(verdicts)
    if False in verdicts:
        return False
    return None if None in verdicts else True


@dataclass(frozen=True)
class LevelReport:
    k: int
    n_cells: int
    n_spheres: int
    coverage: str  # exhaustive | truncated | vacuous
    n_unfilled: int
    n_multi: int
    unfilled_witnesses: tuple[str, ...]
    multi_witnesses: tuple[str, ...]

    @property
    def ok(self) -> bool | None:
        """False on a witness, which is genuine also inside a truncated
        prefix; None on a truncated level without one; True otherwise."""
        if self.n_unfilled or self.n_multi:
            return False
        return None if self.coverage == "truncated" else True

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "cells": self.n_cells,
            "spheres": self.n_spheres,
            "coverage": self.coverage,
            "unfilled": self.n_unfilled,
            "multi": self.n_multi,
            "unfilled_witnesses": list(self.unfilled_witnesses),
            "multi_witnesses": list(self.multi_witnesses),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Machine-readable certificate of (non-)coskeletality on a window."""

    shape: str
    skeletal_level: int
    k_min: int
    upper: int
    levels: tuple[LevelReport, ...]

    @property
    def coskeletal(self) -> bool | None:
        return conjunction(level.ok for level in self.levels)

    @property
    def partial(self) -> bool:
        return any(level.coverage == "truncated" for level in self.levels)

    def to_dict(self) -> dict:
        return {
            "shape": self.shape,
            "skeletal": self.skeletal_level,
            "window": [self.k_min, self.upper],
            "coskeletal": self.coskeletal,
            "partial": self.partial,
            "levels": [level.to_dict() for level in self.levels],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def coskeletal_up_to(X: SkeletalComplex, k_min: int, upper: int,
                     budget_spheres: int = 10 ** 6,
                     budget_cells: int = 10 ** 6) -> VerificationReport:
    """Check unique fillability of every k-sphere for k in (k_min, upper].

    Each level is scanned exhaustively.  A level with more than
    ``budget_spheres`` spheres reports its first ``budget_spheres`` in
    the scan's planned slot order (``_kernels.plan_slots``), marked
    ``truncated``: an unfilled or multi-filled sphere
    found there still fails the level, but the level never passes.
    """
    _kernels.require_positive(budget_spheres=budget_spheres,
                              budget_cells=budget_cells)
    if k_min < 0:
        raise ValueError(f"the window start must not be negative, not {k_min}")
    if upper <= k_min:
        raise ValueError(f"the window ({k_min}, {upper}] holds no level")
    if upper > X.truncation:
        raise TruncationError(f"window top {upper} exceeds truncation")
    tab = X.tabulate(upper, budget_cells=budget_cells)
    levels = tuple(_check_level(X, tab, k, budget_spheres)
                   for k in range(k_min + 1, upper + 1))
    return VerificationReport(X.shape, X.skeletal_level, k_min, upper, levels)


def _check_level(X, tab, k, budget_spheres) -> LevelReport:
    F2 = tab.faces[k - 1]
    B = tab.faces[k]
    n_cells = B.shape[0]
    if F2.shape[0] == 0:
        return LevelReport(k, n_cells, 0, "vacuous", 0, 0, (), ())

    # witnesses repeat cells, so each distinct cell is formatted once
    @cache
    def literal(d: int, i: int) -> str:
        return cell_literal(tab.cells[d][i])

    def literals(d: int, ids: np.ndarray) -> str:
        return ", ".join(literal(d, i) for i in ids.tolist())

    dup_groups = _kernels.duplicate_row_groups(B)
    multi = tuple(literals(k - 1, B[g[0]]) + f" -> {len(g)} fillers: " + literals(k, g)
                  for g in dup_groups[:WITNESS_CAP])
    scan = _kernels.scan_spheres(F2, B, X.shape, k, budget=budget_spheres,
                                 miss_cap=WITNESS_CAP)
    unfilled = tuple(literals(k - 1, row) for row in scan.missing)
    return LevelReport(k, n_cells, scan.n_spheres,
                       "truncated" if scan.overflow else "exhaustive",
                       scan.n_missing, len(dup_groups), unfilled, multi)
