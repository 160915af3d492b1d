"""Pure-Python references for the sphere kernels in ``aufhebung._kernels``.

A plain depth-first search over the face table, one candidate cell at a
time, written from the definition: slot ``d`` of a sphere may hold any
cell ``y`` with ``F2[y, col_new] == F2[prev, col_prev]`` for every cycle
equation of slot ``d``.  The scan fills the slots in the order of
``plan_slots``, so its spheres come sorted by that key; the reference
searches in the same slot order but checks the equations as
``build_constraints`` states them, not as the plan re-orients them.  The
tests compare the numpy join kernel against it.

:func:`reference_is_sphere` states the cycle equations a second time, by
hand and through ``reference_tables.reference_act``, so that ``build_constraints`` and the kernel
are checked against a statement that does not come from it.  None of this
is used by the package.
"""

from itertools import islice

import numpy as np
from reference_tables import reference_act

from aufhebung._kernels import SphereScan, build_constraints, plan_slots
from aufhebung.shapes import (
    CubeMorphism,
    CyclicMorphism,
    GlobeMorphism,
    SimplexMorphism,
)


def _next_cells(F, eqs, order, placed):
    """The cells that can fill slot ``order[len(placed)]`` when ``placed``
    holds the cells of slots ``order[:len(placed)]``, in increasing id."""
    at = dict(zip(order, placed))
    new = order[len(placed)]
    # every equation between ``new`` and a filled slot, from either end
    checks = [(c_new, at[prev], c_prev) for prev, c_new, c_prev in eqs[new]
              if prev in at]
    checks += [(c_prev, at[d], c_new) for d, row in enumerate(eqs) if d in at
               for prev, c_new, c_prev in row if prev == new]
    return [y for y in range(len(F))
            if all(F[y][a] == F[z][b] for a, z, b in checks)]


def _spheres(F, eqs, order, placed=()):
    """Spheres sorted by their slots read in ``order``: ``placed`` holds the
    cells of slots ``order[:len(placed)]``."""
    if len(placed) == len(eqs):
        sphere = [0] * len(eqs)
        for t, y in zip(order, placed):
            sphere[t] = y
        yield tuple(sphere)
        return
    for y in _next_cells(F, eqs, order, placed):
        yield from _spheres(F, eqs, order, placed + (y,))


def reference_prefixes(F2, shape, k, order):
    """Every partial sphere the DFS reaches when it fills the slots in
    ``order``, with the cells that can fill the next slot: pairs
    (cells of slots ``order[:p]``, increasing candidate ids), p < slots,
    in depth-first order."""
    eqs = build_constraints(shape, k)
    F = np.asarray(F2).tolist()
    stack = [()]
    while stack:
        placed = stack.pop()
        if len(placed) == len(eqs):
            continue
        cands = _next_cells(F, eqs, order, placed)
        yield placed, cands
        stack.extend(placed + (y,) for y in reversed(cands))


def reference_scan(F2, B, shape, k, budget=10 ** 6, miss_cap=16):
    """The result ``scan_spheres`` must return, found by plain DFS: the
    first ``budget`` spheres in planned order are counted, and the
    lexicographically smallest ``miss_cap`` unfilled ones are listed."""
    eqs = build_constraints(shape, k)
    order, _ = plan_slots(shape, k)
    F = np.asarray(F2).tolist()
    filled = {tuple(row) for row in np.asarray(B).tolist()}
    found = list(islice(_spheres(F, eqs, order), budget + 1))
    counted = found[:budget]
    overflow = len(found) > budget
    missing = sorted(s for s in counted if s not in filled)
    return SphereScan(
        n_spheres=len(counted),
        n_missing=len(missing),
        missing=np.array(missing[:miss_cap], dtype=np.int32).reshape(-1, len(eqs)),
        overflow=overflow,
    )


def reference_sample(F2, shape, k, n_samples, seed, max_tries=None):
    """The spheres ``sample_spheres`` must return: each slot draws from its
    candidates in increasing id order, one ``randint`` per slot."""
    eqs = build_constraints(shape, k)
    F = np.asarray(F2).tolist()
    if max_tries is None:
        max_tries = 20 * n_samples
    rng = np.random.RandomState(seed)
    found = set()
    for _ in range(max_tries):
        if len(found) >= n_samples:
            break
        prefix = ()
        while len(prefix) < len(eqs):
            cands = _next_cells(F, eqs, range(len(eqs)), prefix)
            if not cands:
                break
            prefix += (cands[rng.randint(len(cands))],)
        else:
            found.add(prefix)
    return sorted(found)


def reference_is_sphere(X, s):
    """``fillers.is_sphere`` written out per shape: (ok, first violation)."""
    k = s.k
    c = s.faces
    if k < 2:
        return True, None
    if X.shape in ("simplicial", "cyclic"):
        for j in range(k + 1):
            for i in range(j):
                lhs = reference_act(X, c[j], _dl(X, i, k - 2))
                rhs = reference_act(X, c[i], _dl(X, j - 1, k - 2))
                if lhs != rhs:
                    return False, f"c_{j} d_{i} != c_{i} d_{j - 1}"
        return True, None
    if X.shape == "cubical":
        for j in range(2, k + 1):
            for i in range(1, j):
                for io in (0, 1):
                    for up in (0, 1):
                        lhs = reference_act(X, c[2 * (j - 1) + io],
                                            CubeMorphism.face(i, up, k - 1))
                        rhs = reference_act(X, c[2 * (i - 1) + up],
                                            CubeMorphism.face(j - 1, io, k - 1))
                        if lhs != rhs:
                            return False, f"c^{io}_{j} a{up}@{i} != c^{up}_{i} a{io}@{j - 1}"
        return True, None
    src, tgt = c
    for gen in ("sig", "tau"):
        m = GlobeMorphism.generator(gen, k - 2)
        if reference_act(X, src, m) != reference_act(X, tgt, m):
            return False, f"faces are not parallel at {gen}"
    return True, None


def _dl(X, i, n):
    d = SimplexMorphism.face(i, n + 1)
    return CyclicMorphism.from_simplex(d) if X.shape == "cyclic" else d
