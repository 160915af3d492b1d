"""Hot kernels for sphere enumeration and filler matching.

Slot ``t`` of a k-sphere is a (k-1)-cell id, and each slot is constrained
against earlier slots by cycle equations of the form

    F2[new, col_new] == F2[prev, col_prev]

listed per slot by :func:`build_constraints`.  Enumerating the
spheres is a conjunctive query over the face table ``F2``, each equation an
equi-join predicate.  :func:`scan_spheres` answers it with one numpy kernel
that extends a frontier of partial spheres slot by slot:

* :func:`plan_slots` fixes the order in which slots are filled (the
  variable order of generic join): the even slots, then the odd ones, for
  every shape and k, and each equation is re-oriented toward the slot
  placed earlier;
* ``F2`` is sorted once per scan for each distinct tuple of columns that
  a slot's equations constrain, each row keyed as one void value, with a
  stable sort; a prefix's candidates for a slot are then one equal-key
  range, found by one ``searchsorted`` pair, so every (prefix, candidate)
  pair the scan materialises is a partial sphere;
* the frontier is a stack of lexicographic blocks, and one expansion
  materialises at most ``BLOCK`` (prefix, candidate) pairs, so memory
  stays O(BLOCK x slots) and spheres come out in depth-first order of
  increasing cell id over the planned slot order;
* a frontier whose next slot is the last planned one, ``L``, is counted
  whole from its range sizes: each of its rows fixes every other slot, so
  the row's spheres share slots 0..L-1 and rise with the candidate;
* complete spheres are built, at most ``BLOCK`` at a time, and looked up
  in the k-cell boundary table, its columns permuted into planned order
  once, only on rows that can still hold one of the unfilled spheres
  reported: the lexicographically smallest in the given slot order, kept
  by a running merge.  Once the merge is full, a row whose slots 0..L-1
  sort after those of its largest sphere is dropped unbuilt, the top-k
  threshold of Fagin, Lotem & Naor (PODS 2001);
* the unfilled count is the misses found when every counted sphere was
  built, and otherwise the counted spheres less the distinct boundary
  rows that are counted spheres.

Fillers are rows of the dimension-k face table, so existence is a sorted
row membership test and uniqueness is duplicate-row detection.  The
benchmark in ``perfbench/`` times the scan end to end and per layer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# most (prefix, candidate) pairs one frontier expansion materialises
BLOCK = 4096


def numba_enabled() -> bool:
    return False


def require_positive(**limits: int) -> None:
    """Raise ValueError for a resource limit that is not positive."""
    for name, value in limits.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, not {value}")


# ---------------------------------------------------------------------------
# constraint tables


def build_constraints(shape: str, k: int) -> list[list[tuple[int, int, int]]]:
    """The cycle equations of a k-sphere, one list per slot.

    Slot d's entry ``(prev, col_new, col_prev)`` is the equation
    ``F2[cell at d, col_new] == F2[cell at prev, col_prev]``, with prev < d
    and columns indexing the elementary faces of a (k-1)-cell in sphere slot
    order: d_0, ..., d_(k-1) for simplicial and cyclic cells; the faces
    a^0_1, a^1_1, ..., a^0_(k-1), a^1_(k-1) of a cube, a^sign_i in column
    2(i-1) + sign; source and target for globes.  A k-sphere's slots are
    ordered the same way one dimension up.  This is the package's only
    statement of the equations.
    """
    if shape in ("simplicial", "cyclic"):
        # c_j d_i == c_i d_(j-1) for i < j
        return [[(i, i, j - 1) for i in range(j)] if k >= 2 else []
                for j in range(k + 1)]
    if shape == "cubical":
        # c^io_j a^up_i == c^up_i a^io_(j-1) for i < j
        return [[(2 * (i - 1) + up, 2 * (i - 1) + up, 2 * (j - 2) + io)
                 for i in range(1, j) for up in (0, 1)] if k >= 2 else []
                for j in range(1, k + 1) for io in (0, 1)]
    if shape == "globular":
        # source and target are parallel
        return [[], [(0, 0, 0), (0, 1, 1)] if k >= 2 else []]
    raise ValueError(f"unknown shape {shape!r}")


@lru_cache(maxsize=None)
def plan_slots(shape: str, k: int) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int, int], ...], ...]]:
    """The order in which the scan fills the slots of a k-sphere, and the
    cycle equations re-oriented to it.

    Returns ``(order, cons)``: ``order[p]`` is the slot filled p-th, and
    ``cons[p]`` lists ``(q, col_new, col_prev)`` for each equation between
    slot ``order[p]`` and an earlier-filled slot ``order[q]``, q < p, in
    the form of :func:`build_constraints`.  The even slots come first,
    then the odd ones, for every shape and every k: for cubes that is
    (1,0), (2,0), ..., (k,0), then (1,1), ..., (k,1), so every slot after
    the first is bound by an equation; globes keep their order.  Cached
    per process; both are tuples.
    """
    n = len(build_constraints(shape, k))
    return _orient(shape, k, tuple(range(0, n, 2)) + tuple(range(1, n, 2)))


def _orient(shape: str, k: int, order: tuple[int, ...]):
    """The plan of :func:`plan_slots` that fills the slots in ``order``."""
    pos = {slot: p for p, slot in enumerate(order)}
    planned: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for new, row in enumerate(build_constraints(shape, k)):
        for prev, c_new, c_prev in row:
            if pos[prev] < pos[new]:
                planned[pos[new]].append((pos[prev], c_new, c_prev))
            else:
                planned[pos[prev]].append((pos[new], c_prev, c_new))
    return order, tuple(tuple(sorted(row)) for row in planned)


def _lex_order(A: np.ndarray) -> np.ndarray:
    """Row order that sorts ``A`` lexicographically, column 0 first."""
    return np.lexsort(A.T[::-1])


def duplicate_row_groups(B: np.ndarray) -> list[np.ndarray]:
    """Groups of row indices of B sharing an identical row (size >= 2)."""
    if B.shape[0] == 0:
        return []
    if B.shape[1] == 0:
        return [np.arange(B.shape[0])] if B.shape[0] >= 2 else []
    order = _lex_order(B)
    S = B[order]
    same = np.all(S[1:] == S[:-1], axis=1)
    groups = []
    start = 0
    for i in range(1, len(S) + 1):
        if i == len(S) or not same[i - 1]:
            if i - start >= 2:
                groups.append(np.sort(order[start:i]))
            start = i
    return groups


def find_fillers(B: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Ids of cells whose full boundary row equals ``row``."""
    return np.nonzero(np.all(B == row[None, :], axis=1))[0]


# ---------------------------------------------------------------------------
# the join


def _void_rows(A: np.ndarray) -> np.ndarray:
    """The rows of the int32 table ``A`` as one void key each."""
    A = np.ascontiguousarray(A, dtype=np.int32)
    return A.view(np.dtype((np.void, 4 * A.shape[1]))).ravel()


class _JoinIndex:
    """Equal-key index of ``F2`` for the cycle equations of one sphere shape.

    Slot d's equations constrain the tuple of columns ``c_new`` of its
    cell.  ``F2`` is sorted once per distinct tuple on those columns, keyed
    as one void row, so the cells that meet every equation of a slot
    against a prefix form one equal-key range.  The sort is stable, so
    every range lists its cell ids in increasing order.
    """

    def __init__(self, F2: np.ndarray, cons: list[list[tuple[int, int, int]]]):
        self.F2 = F2
        self.n = F2.shape[0]
        self.cons = cons
        by_cols: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        # per slot: (prefix slots, their columns, sorted cell ids, sorted keys)
        self.slots: list[tuple[list[int], list[int], np.ndarray, np.ndarray] | None] = []
        for row in cons:
            if not row:
                self.slots.append(None)
                continue
            cols = tuple(c_new for _, c_new, _ in row)
            if cols not in by_cols:
                keys = _void_rows(F2[:, cols])
                cell_ids = np.argsort(keys, kind="stable")
                by_cols[cols] = cell_ids.astype(np.int32), keys[cell_ids]
            self.slots.append(([s for s, _, _ in row], [c for _, _, c in row],
                               *by_cols[cols]))

    def ranges(self, d: int, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Equal-key range [lo, hi) of slot ``d`` for each prefix row of ``P``."""
        if self.slots[d] is None:
            return np.zeros(len(P), np.int64), np.full(len(P), self.n, np.int64)
        prev, c_prev, _, keys = self.slots[d]
        q = _void_rows(self.F2[P[:, prev], c_prev])
        return np.searchsorted(keys, q, "left"), np.searchsorted(keys, q, "right")

    def cells(self, d: int, pos: np.ndarray) -> np.ndarray:
        """Cell ids at sorted positions ``pos`` of slot ``d``."""
        if self.slots[d] is None:
            return pos.astype(np.int32)
        _, _, cell_ids, _ = self.slots[d]
        return cell_ids[pos]

    def candidates(self, d: int, choice: np.ndarray) -> np.ndarray:
        """Increasing cell ids that can fill slot ``d`` after ``choice[:d]``."""
        lo, hi = self.ranges(d, choice[None, :d])
        return self.cells(d, np.arange(lo[0], hi[0]))


def join_index(F2: np.ndarray, shape: str, k: int) -> _JoinIndex:
    """The equal-key index of the face table ``F2`` for the k-spheres of ``shape``."""
    return _JoinIndex(np.ascontiguousarray(F2, dtype=np.int32), build_constraints(shape, k))


class _Frontier:
    """Partial spheres with ``d`` slots filled, each with its equal-key
    range for slot ``d``, read as one flat list of (prefix, candidate)
    pairs in lexicographic order."""

    def __init__(self, d: int, P: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.d, self.P, self.lo, self.hi = d, P, lo, hi
        self.end = np.cumsum(hi - lo)
        # pair t of row r sits at sorted position base[r] + t
        self.base = hi - self.end
        self.size = int(self.end[-1]) if len(P) else 0
        self.pos = 0

    def pairs(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pairs ``t`` of the flat list: (prefix rows, sorted positions)."""
        rows = np.searchsorted(self.end, t, side="right")
        return self.P[rows], self.base[rows] + t

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next at most ``n`` pairs: (prefix rows, sorted positions)."""
        t = np.arange(self.pos, min(self.pos + n, self.size))
        self.pos += len(t)
        return self.pairs(t)

    def rest(self, size: int, keep: np.ndarray | bool = True) -> "_Frontier":
        """The pairs from ``pos`` up to ``size``, on the rows that ``keep``
        selects, as a new frontier."""
        lo = np.maximum(self.lo, self.base + self.pos)
        hi = np.minimum(self.hi, self.base + size)
        keep = keep & (lo < hi)
        return _Frontier(self.d, self.P[keep], lo[keep], hi[keep])


def _row_set(B: np.ndarray):
    """Vectorised membership test for rows of ``B``."""
    if B.shape[0] == 0:
        return lambda Q: np.zeros(len(Q), dtype=bool)
    keys = np.sort(_void_rows(B))

    def member(Q: np.ndarray) -> np.ndarray:
        q = _void_rows(Q)
        i = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        return keys[i] == q

    return member


# ---------------------------------------------------------------------------
# public entry points


@dataclass
class SphereScan:
    """Result of one sphere scan at a fixed dimension."""

    n_spheres: int
    n_missing: int
    missing: np.ndarray
    overflow: bool


def _lex_lt(A: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``A`` lexicographically below ``t``."""
    if not A.shape[1]:
        return np.zeros(len(A), dtype=bool)
    first = np.argmax(A != t, axis=1)
    return A[np.arange(len(A)), first] < t[first]


def _lex_le(A: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``A`` lexicographically at or below ``t``."""
    return _lex_lt(A, t) | np.all(A == t, axis=1)


@lru_cache(maxsize=None)
def _planned_equations(shape: str, k: int) -> tuple[np.ndarray, ...]:
    """The planned cycle equations of :func:`plan_slots` as four index
    arrays, one entry per equation: its slot, the earlier slot, and their
    columns.  Cached per process and read-only."""
    _, cons = plan_slots(shape, k)
    eqs = np.array([(p, q, c_new, c_prev) for p, row in enumerate(cons)
                    for q, c_new, c_prev in row], dtype=np.intp).reshape(-1, 4)
    eqs.flags.writeable = False
    return tuple(eqs.T)


def _sphere_rows(F2: np.ndarray, shape: str, k: int, A: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``A``, slots in planned order, that meet every
    cycle equation: the rows that are k-spheres.  Rows are checked in
    chunks of at most ``BLOCK`` equations, so memory stays O(BLOCK)."""
    p, q, c_new, c_prev = _planned_equations(shape, k)
    step = max(1, BLOCK // max(len(p), 1))
    return np.concatenate([np.ones(0, dtype=bool)] + [
        np.all(F2[R[:, p], c_new] == F2[R[:, q], c_prev], axis=1)
        for R in (A[i:i + step] for i in range(0, len(A), step))])


def _n_distinct(A: np.ndarray) -> int:
    """Number of distinct rows of ``A``: sorted keys, neighbours compared."""
    keys = np.sort(_void_rows(A))
    return min(len(keys), 1) + int(np.count_nonzero(keys[1:] != keys[:-1]))


def scan_spheres(F2: np.ndarray, B: np.ndarray, shape: str, k: int,
                 budget: int = 10 ** 6, miss_cap: int = 16) -> SphereScan:
    """Enumerate the k-spheres over the face table ``F2`` of (k-1)-cells.

    ``B`` is the boundary table of k-cells (one row per cell, in sphere
    slot order); a sphere with no matching row has no filler.  Spheres are
    counted in lexicographic order of the planned slot order of
    :func:`plan_slots`, and ``missing`` holds the lexicographically
    smallest ``miss_cap`` unfilled ones, in slot order.  When more than
    ``budget`` spheres exist, only the first ``budget`` in planned order
    are counted and ``overflow`` is set: every count, and ``missing``,
    then describes that prefix.  Against an empty ``B`` every sphere is
    missing, which lists the spheres themselves.

    A row of a last-slot frontier fixes every slot but ``L = order[-1]``,
    so its spheres share slots ``0..L-1`` and rise with the candidate.
    Each such frontier is counted whole from its range sizes; complete
    spheres are built and looked up in ``B`` only on rows that can still
    hold a witness.  While ``missing`` is short, the next ``miss_cap -
    len(missing) + len(B)`` pairs are built, of which at most ``len(B)``
    are filled; once it is full, a row whose slots ``0..L-1`` sort after
    those of its largest sphere is dropped.  When every counted sphere was
    built, the misses are counted as found; otherwise they are the spheres
    counted less the distinct rows of ``B`` that meet the cycle equations
    and, on overflow, sort before the first uncounted sphere.
    """
    require_positive(budget=budget)
    if miss_cap < 0:
        raise ValueError("miss_cap must not be negative")
    order, cons = plan_slots(shape, k)
    index = _JoinIndex(np.ascontiguousarray(F2, dtype=np.int32), cons)
    slots = len(cons)
    # the rows of B, slots in planned order; a row that is no sphere
    # never equals one, so the membership test reads them all
    filled = B[:, list(order)]
    in_B = _row_set(filled)
    # planned column to_slot[s] holds slot s; not np.argsort, whose first
    # call maps in some 400 KB of sort code
    to_slot = np.array(sorted(range(slots), key=order.__getitem__))
    L = order[-1]
    kept = np.zeros((0, slots), dtype=np.int32)
    n_sph = n_built = n_miss = 0
    first = None     # the first uncounted sphere, on overflow
    root = np.zeros((1, 0), dtype=np.int32)
    stack = [_Frontier(0, root, *index.ranges(0, root))]
    while stack and first is None:
        top = stack[-1]
        if top.d + 1 < slots:
            P, pos = top.take(BLOCK)
            if top.pos == top.size:
                stack.pop()
            # the remainder of ``top`` stays below: its pairs come later
            if len(P):
                Q = np.concatenate([P, index.cells(top.d, pos)[:, None]], axis=1)
                stack.append(_Frontier(top.d + 1, Q, *index.ranges(top.d + 1, Q)))
            continue
        stack.pop()
        if top.size > budget - n_sph:
            P, pos = top.pairs(np.array([budget - n_sph]))
            first = np.append(P[0], index.cells(top.d, pos))
            top = top.rest(budget - n_sph)
        n_sph += top.size
        while miss_cap and top.pos < top.size:
            # at most len(B) of these are filled, so ``kept`` fills up
            n = min(BLOCK, miss_cap - len(kept) + len(B))
            if len(kept) == miss_cap:
                # no sphere of a row whose slots 0..L-1 sort after those
                # of the largest kept row can enter ``kept``
                n = BLOCK
                top = top.rest(top.size, _lex_le(top.P[:, to_slot[:L]], kept[-1, :L]))
            P, pos = top.take(n)
            Q = np.concatenate([P, index.cells(top.d, pos)[:, None]], axis=1)
            n_built += len(Q)
            miss = Q[~in_B(Q)]
            n_miss += len(miss)
            if len(miss):
                miss = miss[:, to_slot]
                if len(kept) == miss_cap:
                    # cut before sorting: only misses below the largest
                    # kept row can enter ``kept``
                    miss = miss[_lex_lt(miss, kept[-1])]
                rows = np.concatenate([kept, miss])
                kept = rows[_lex_order(rows)[:miss_cap]]
    if n_built < n_sph:
        # the filled spheres counted are the distinct sphere rows of B
        # before ``first``
        if first is not None:
            filled = filled[_lex_lt(filled, first)]
        n_miss = n_sph - _n_distinct(filled[_sphere_rows(index.F2, shape, k, filled)])
    return SphereScan(n_spheres=n_sph, n_missing=n_miss,
                      missing=kept, overflow=first is not None)


# one generator per thread for the sampler: reseeding an existing
# RandomState gives the stream of a new one, without the cost of building it
_sampler = threading.local()


def _seeded(seed: int) -> np.random.RandomState:
    """This thread's sampler generator, reseeded with ``seed``."""
    rng = getattr(_sampler, "rng", None)
    if rng is None:
        rng = _sampler.rng = np.random.RandomState()
    rng.seed(seed)
    return rng


def sample_spheres(index: _JoinIndex, n_samples: int, seed: int,
                   max_tries: int | None = None) -> list[tuple[int, ...]]:
    """Seeded random sphere sampling with per-slot constraint propagation.

    ``index`` is a :func:`join_index` of the face table, so draws from one
    table share one index.  Each slot draws uniformly from its candidates,
    in increasing id order, given the slots before it.  Returns a sorted,
    duplicate-free list of spheres; deterministic in (seed, n_samples).
    """
    slots = len(index.cons)
    if max_tries is None:
        max_tries = 20 * n_samples
    rng = _seeded(seed)
    choice = np.zeros(slots, dtype=np.int32)
    found: set[tuple[int, ...]] = set()
    tries = 0
    while len(found) < n_samples and tries < max_tries:
        tries += 1
        dead = False
        for depth in range(slots):
            cands = index.candidates(depth, choice)
            if len(cands) == 0:
                dead = True
                break
            choice[depth] = cands[rng.randint(len(cands))]
        if not dead:
            found.add(tuple(int(v) for v in choice))
    return sorted(found)
