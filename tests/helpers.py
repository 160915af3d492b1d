"""Small readers of the package's results, and the complexes the oracle
sweeps tabulate and the dense scans read, shared by the tests.

None of this is used by the package.  Spheres are listed by scanning
against an empty boundary table: every sphere is then unfilled, so the
scan's ``missing`` rows are the spheres themselves, in scan order.
"""

import numpy as np

from aufhebung._kernels import build_constraints, scan_spheres
from aufhebung.bounds import build_counterexample, random_skeletal_complex
from aufhebung.complexes import Cell, GeneratorDecl, SkeletalComplex
from aufhebung.fillers import Sphere
from aufhebung.shapes import identity

# the bound-table rows whose complexes the oracle sweeps tabulate in full
TABLE_CASES = [("cubical", n) for n in (0, 1, 2, 3)] \
    + [("simplicial", n) for n in (0, 1, 2, 3, 4)] \
    + [("globular", n) for n in (0, 1, 2, 3)] + [("cyclic", 1), ("cyclic", 2)]


def table_complexes(shape, n):
    """The counterexample and three random complexes, at default truncation."""
    return [build_counterexample(shape, n)[0]] + [
        random_skeletal_complex(shape, n, seed) for seed in (1, 2, 3)]


# (loops, top level) of the benchmark's dense scans, one vertex with loops
LOOP_SIZES = {"cubical": (13, 2), "simplicial": (30, 3)}


def loops(shape, m, top, extra=()):
    """One vertex ``v`` with loops ``e0``, ..., ``e(m-1)``, and the 1-skeletal
    generators ``extra``, truncated at ``top``."""
    v = Cell("v", identity(shape, 0))
    return SkeletalComplex(shape, 1, [GeneratorDecl("v", 0, ())] + [
        GeneratorDecl(f"e{i}", 1, (v, v)) for i in range(m)] + list(extra),
        truncation=top)


def empty_table(shape, k):
    """A k-cell boundary table with no rows."""
    return np.zeros((0, len(build_constraints(shape, k))), np.int32)


def enumerate_spheres(X, k, budget=10 ** 5):
    """All k-spheres of ``X`` in scan order, for oracle sweeps."""
    tab = X.tabulate(k)
    F2 = tab.faces[k - 1]
    if F2.shape[0] == 0:
        return []
    scan = scan_spheres(F2, empty_table(X.shape, k), X.shape, k,
                        budget=budget, miss_cap=budget)
    if scan.overflow:
        raise RuntimeError(f"sphere enumeration at k={k} exceeded the budget {budget}")
    return [Sphere(X.shape, k, tuple(tab.cells[k - 1][int(i)] for i in row))
            for row in scan.missing]


def first_witness(report):
    """(k, literal) of the first unfilled or multi-filled sphere of a
    coskeletality report, or None."""
    for level in report.levels:
        witnesses = level.unfilled_witnesses + level.multi_witnesses
        if witnesses:
            return level.k, witnesses[0]
    return None
