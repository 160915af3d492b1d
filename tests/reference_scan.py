"""Pure-Python reference for the sphere kernels in ``aufhebung._kernels``.

A plain depth-first search over the face table, one candidate cell at a
time, written from the definition: slot ``d`` of a sphere may hold any
cell ``y`` with ``F2[y, col_new] == F2[prev, col_prev]`` for every cycle
equation of slot ``d``.  The tests compare the numpy join kernel against
it; it is not used by the package.
"""

from itertools import islice

import numpy as np

from aufhebung._kernels import SphereScan, build_constraints


def _equations(shape, k):
    slots, con_ptr, con_slot, col_new, col_prev = build_constraints(shape, k)
    return [[(int(con_slot[e]), int(col_new[e]), int(col_prev[e]))
             for e in range(con_ptr[d], con_ptr[d + 1])]
            for d in range(slots)]


def _candidates(F, eqs, prefix):
    return [y for y in range(len(F))
            if all(F[y][c_new] == F[prefix[s]][c_prev]
                   for s, c_new, c_prev in eqs[len(prefix)])]


def _spheres(F, eqs, prefix=()):
    if len(prefix) == len(eqs):
        yield prefix
        return
    for y in _candidates(F, eqs, prefix):
        yield from _spheres(F, eqs, prefix + (y,))


def reference_scan(F2, B, shape, k, budget=10 ** 6, miss_cap=16,
                   store=False, store_cap=0):
    """The result ``scan_spheres`` must return, found by plain DFS."""
    eqs = _equations(shape, k)
    F = np.asarray(F2).tolist()
    filled = {tuple(row) for row in np.asarray(B).tolist()}
    found = list(islice(_spheres(F, eqs), budget + 1))
    counted = found[:budget]
    overflow = len(found) > budget
    missing = [s for s in counted if s not in filled]

    def table(rows):
        return np.array(rows, dtype=np.int32).reshape(len(rows), len(eqs))

    return SphereScan(
        n_spheres=len(counted),
        n_missing=len(missing),
        missing=table(missing[:miss_cap]),
        stored=table(counted[:store_cap]) if store else None,
        overflow=overflow,
        store_overflow=store and not overflow and len(counted) > store_cap,
        backend="reference",
    )


def reference_sample(F2, shape, k, n_samples, seed, max_tries=None):
    """The spheres ``sample_spheres`` must return: each slot draws from its
    candidates in increasing id order, one ``randint`` per slot."""
    eqs = _equations(shape, k)
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
            cands = _candidates(F, eqs, prefix)
            if not cands:
                break
            prefix += (cands[rng.randint(len(cands))],)
        else:
            found.add(prefix)
    return sorted(found)
