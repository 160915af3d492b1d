"""Counterexample builders and end-to-end bound certification.

For each shape there is a claimed least level ``k`` such that n-skeletal
complexes are k-coskeletal: n + 1 for globs, 2n for cubes, 2n - 1 for
ordinals (with the low-dimensional exceptions 0 -> 1 and 1 -> 2), and a
sandwich of [2n - 1, 2n + 1] for cyclic complexes.  :func:`certify` checks
the claim on a batch of complexes -- the built counterexample plus seeded
random ones -- and witnesses sharpness by exhibiting an unfillable sphere
one level below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations

import numpy as np

from . import _kernels
from .complexes import BudgetError, Cell, GeneratorDecl, SkeletalComplex
from .fillers import (
    Sphere,
    VerificationReport,
    brute_force_fill,
    conjunction,
    coskeletal_up_to,
    is_sphere,
    make_sphere,
)
from .shapes import (
    CubeMorphism,
    CyclicMorphism,
    GlobeMorphism,
    SimplexMorphism,
    count_epis,
    identity,
)


def claimed_upper(shape: str, n: int) -> int:
    """The level from which coskeletality is claimed for n-skeletal input."""
    if shape == "globular":
        return n + 1
    if shape == "cubical":
        return 1 if n == 0 else 2 * n
    if shape == "simplicial":
        return {0: 1, 1: 2}.get(n, 2 * n - 1)
    if shape == "cyclic":
        return 2 * n + 1
    raise ValueError(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# counterexample builders


def _checked(X: SkeletalComplex, faces, k: int,
             budget_cells: int) -> tuple[SkeletalComplex, Sphere]:
    """A built counterexample with its designated k-sphere, once the complex
    validates and the faces satisfy the cycle equations.

    Those checks read the cells of dimensions below k, so a dimension with
    more than ``budget_cells`` cells, counted from the generators alone,
    raises :class:`BudgetError` before any cell layer or table is built.
    """
    for d in range(k):
        n_cells = sum(count_epis(d, g.dim, X.shape) for g in X.generators.values())
        if n_cells > budget_cells:
            raise BudgetError(f"{n_cells} cells in dimension {d} exceed the"
                              f" budget of {budget_cells}")
    rep = X.validate()
    if not rep.ok:
        raise AssertionError(f"counterexample failed validation: {rep.violations}")
    s = make_sphere(X, faces, k)
    ok, why = is_sphere(X, s)
    if not ok:
        raise AssertionError(f"designated sphere fails cycle equations: {why}")
    return X, s


def _simplex_boundary(shape: str, n: int, truncation: int, budget_cells: int
                      ) -> tuple[SkeletalComplex, Sphere]:
    """The boundary of the (n + 1)-simplex, with the designated (n + 1)-sphere
    made of the faces of the missing top simplex: n-skeletal and not
    n-coskeletal.

    Generator ``v<vertices>`` is the face spanned by those vertices; its
    i-th face drops its i-th vertex.  For n = 0 it is two vertices, which
    presents the same way in every shape.
    """
    def name(vs):
        return "v" + "".join(map(str, vs))

    def faces(vs):
        return tuple(Cell(name(vs[:i] + vs[i + 1:]), identity(shape, len(vs) - 2))
                     for i in range(len(vs)))

    gens = [GeneratorDecl(name(vs), d, faces(vs) if d else ())
            for d in range(n + 1) for vs in combinations(range(n + 2), d + 1)]
    X = SkeletalComplex(shape, n, gens, truncation=truncation)
    return _checked(X, faces(tuple(range(n + 2))), n + 1, budget_cells)


def build_cubical_counterexample(n: int, truncation: int | None = None,
                                 budget_cells: int = 10 ** 6
                                 ) -> tuple[SkeletalComplex, Sphere]:
    """One vertex plus two n-cubes on a fully degenerate boundary, with the
    designated 2n-sphere whose lower faces come from one cube and upper
    faces from the other; for n = 0, two vertices and their 1-sphere."""
    if n < 0:
        raise ValueError("the cubical counterexample needs n >= 0")
    if truncation is None:
        truncation = 2 * n + 2
    if n == 0:
        return _simplex_boundary("cubical", 0, truncation, budget_cells)
    vface = Cell("v", CubeMorphism(n - 1, 0, (), tuple(range(1, n))))
    gens = [GeneratorDecl("v", 0, ()),
            GeneratorDecl("x", n, (vface,) * (2 * n)),
            GeneratorDecl("y", n, (vface,) * (2 * n))]
    X = SkeletalComplex("cubical", n, gens, truncation=truncation)
    k = 2 * n
    low = Cell("x", CubeMorphism(k - 1, n, (), tuple(range(1, n))))
    high = Cell("y", CubeMorphism(k - 1, n, (), tuple(range(n + 1, 2 * n))))
    faces = []
    for i in range(1, k + 1):
        c = low if i <= n else high
        faces.extend([c, c])
    return _checked(X, faces, k, budget_cells)


def _pattern_generators(n: int) -> list[GeneratorDecl]:
    """The two-cell pattern: x', y' one level down with fully degenerate
    boundary, and x, y with a single interesting face each."""
    gens = [GeneratorDecl("v", 0, ())]
    if n == 1:
        gens.append(GeneratorDecl("xp", 0, ()))
        gens.append(GeneratorDecl("yp", 0, ()))
    else:
        vdg = Cell("v", SimplexMorphism(n - 2, 0, (), tuple(range(n - 2))))
        gens.append(GeneratorDecl("xp", n - 1, (vdg,) * n))
        gens.append(GeneratorDecl("yp", n - 1, (vdg,) * n))
    vtop = Cell("v", SimplexMorphism(n - 1, 0, (), tuple(range(n - 1))))
    xp = Cell("xp", SimplexMorphism.identity(n - 1))
    yp = Cell("yp", SimplexMorphism.identity(n - 1))
    xfaces = tuple([xp] + [vtop] * n)
    yfaces = tuple([vtop] * n + [yp])
    gens.append(GeneratorDecl("x", n, xfaces))
    gens.append(GeneratorDecl("y", n, yfaces))
    return gens


def build_simplicial_counterexample(n: int, truncation: int | None = None,
                                    budget_cells: int = 10 ** 6
                                    ) -> tuple[SkeletalComplex, Sphere]:
    """The n-skeletal complex (n >= 3) that is not (2n - 2)-coskeletal,
    with its designated (2n - 1)-sphere built from degeneracies of the two
    top generators; for n <= 2 the boundary of the (n + 1)-simplex, which
    is not n-coskeletal."""
    if n < 0:
        raise ValueError("the simplicial counterexample needs n >= 0")
    if truncation is None:
        truncation = 2 * n + 2
    if n < 3:
        return _simplex_boundary("simplicial", n, truncation, budget_cells)
    X = SkeletalComplex("simplicial", n, _pattern_generators(n),
                        truncation=truncation)
    k = 2 * n - 1
    low = Cell("x", SimplexMorphism(k - 1, n, (), tuple(range(n - 2))))
    high = Cell("y", SimplexMorphism(k - 1, n, (), tuple(range(n, 2 * n - 2))))
    return _checked(X, [low] * n + [high] * n, k, budget_cells)


def build_globular_counterexample(n: int, truncation: int | None = None,
                                  budget_cells: int = 10 ** 6
                                  ) -> tuple[SkeletalComplex, Sphere]:
    """Two parallel n-globs over a degenerate tower on one vertex; the
    designated (n + 1)-sphere is the unfillable pair (x, y).  For n = 0,
    two vertices and their 1-sphere."""
    if n < 0:
        raise ValueError("the globular counterexample needs n >= 0")
    if truncation is None:
        truncation = n + 3
    if n == 0:
        return _simplex_boundary("globular", 0, truncation, budget_cells)
    bnd = Cell("v", GlobeMorphism(n - 1, 0, ("iot",) * (n - 1)))
    gens = [GeneratorDecl("v", 0, ()),
            GeneratorDecl("x", n, (bnd, bnd)),
            GeneratorDecl("y", n, (bnd, bnd))]
    X = SkeletalComplex("globular", n, gens, truncation=truncation)
    return _checked(X, (X.generator_cell("x"), X.generator_cell("y")), n + 1,
                    budget_cells)


def build_cyclic_counterexample(n: int, truncation: int | None = None,
                                budget_cells: int = 10 ** 6
                                ) -> tuple[SkeletalComplex, Sphere]:
    """The free cyclic closure of the two-cell pattern, with a designated
    unfillable sphere: the (x, ..., y, ...) sphere for n >= 2, the vertex
    pair (x', y') for n = 1."""
    if n < 1:
        raise ValueError("the cyclic counterexample needs n >= 1")
    if truncation is None:
        truncation = 2 * n + 2
    X = SkeletalComplex("cyclic", n, _cyclic_pattern_generators(n),
                        truncation=truncation)
    if n == 1:
        return _checked(X, (X.generator_cell("xp"), X.generator_cell("yp")), 1,
                        budget_cells)
    k = 2 * n - 1
    low = Cell("x", CyclicMorphism(
        0, SimplexMorphism(k - 1, n, (), tuple(range(n - 2)))))
    high = Cell("y", CyclicMorphism(
        0, SimplexMorphism(k - 1, n, (), tuple(range(n, 2 * n - 2)))))
    return _checked(X, [low] * n + [high] * n, k, budget_cells)


def _cyclic_pattern_generators(n: int) -> list[GeneratorDecl]:
    out = []
    for g in _pattern_generators(n):
        faces = tuple(Cell(c.generator, CyclicMorphism.from_simplex(c.epi))
                      for c in g.faces)
        out.append(GeneratorDecl(g.name, g.dim, faces))
    return out


def build_counterexample(shape: str, n: int, truncation: int | None = None,
                         budget_cells: int = 10 ** 6
                         ) -> tuple[SkeletalComplex, Sphere]:
    if shape == "cubical":
        return build_cubical_counterexample(n, truncation, budget_cells)
    if shape == "simplicial":
        return build_simplicial_counterexample(n, truncation, budget_cells)
    if shape == "globular":
        return build_globular_counterexample(n, truncation, budget_cells)
    if shape == "cyclic":
        return build_cyclic_counterexample(n, truncation, budget_cells)
    raise ValueError(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# the underlying simplicial complex of a cyclic complex


def simplicial_core(X: SkeletalComplex, cell: Cell) -> tuple[Cell, SimplexMorphism]:
    """Split a cyclic cell into its simplicially non-degenerate core and a
    plain epi: the core is obtained by following a section of the epi that
    merges every position an ordinary degeneracy can see."""
    if X.shape != "cyclic":
        raise ValueError("simplicial_core applies to cyclic complexes")
    n = cell.dim
    merges = tuple(j for j in range(n) if cell.epi.lift(j) == cell.epi.lift(j + 1))
    epi = SimplexMorphism(n, n - len(merges), (), merges)
    section = SimplexMorphism(n - len(merges), n,
                              tuple(sorted((j + 1 for j in merges), reverse=True)),
                              ())
    core = X.act(cell, CyclicMorphism.from_simplex(section))
    return core, epi


def _core_name(core: Cell) -> str:
    rot = core.epi.rotation
    plain = core.epi.delta_part
    if plain.is_identity:
        return f"{core.generator}__r{rot}"
    if len(plain.epis) == 1 and plain.epis[0] == rot - 1:
        return f"{core.generator}__e{rot}"
    raise AssertionError(f"cell {core!r} is not a simplicially non-degenerate form")


def underlying_simplicial(X: SkeletalComplex) -> tuple[SkeletalComplex, dict]:
    """The underlying simplicial complex of a cyclic complex, finitely
    presented on the rotations of each generator plus one wrap-around
    degeneracy cell per rotation, together with the cell translation map.

    The output of an n-skeletal input is (n + 1)-skeletal.
    """
    if X.shape != "cyclic":
        raise ValueError("underlying_simplicial applies to cyclic complexes")

    # the faces of the rotations and wrap-around cells repeat one another
    @cache
    def translate(cell: Cell) -> Cell:
        core, epi = simplicial_core(X, cell)
        return Cell(_core_name(core), epi)

    gens: list[GeneratorDecl] = []
    for name, g in X.generators.items():
        for r in range(g.dim + 1):
            cell = Cell(name, CyclicMorphism.rotation_map(g.dim, r))
            faces = tuple(map(translate, X.faces(cell))) if g.dim >= 1 else ()
            gens.append(GeneratorDecl(_core_name(cell), g.dim, faces))
    for name, g in X.generators.items():
        for r in range(1, g.dim + 2):
            epi = CyclicMorphism(r, SimplexMorphism(
                g.dim + 1, g.dim, (), (r - 1,)))
            cell = Cell(name, epi)
            faces = tuple(map(translate, X.faces(cell)))
            gens.append(GeneratorDecl(_core_name(cell), g.dim + 1, faces))
    gens.sort(key=lambda g: g.dim)
    U = SkeletalComplex("simplicial", X.skeletal_level + 1, gens,
                        truncation=X.truncation)
    mapping = {"translate": translate}
    return U, mapping


# ---------------------------------------------------------------------------
# random complexes


def random_skeletal_complex(shape: str, n: int, seed: int,
                            gens_per_dim: int = 2,
                            truncation: int | None = None,
                            max_tries: int = 400) -> SkeletalComplex:
    """A validated random n-skeletal complex, deterministic in the seed.

    Attaching data for each new generator is a random sphere of the
    partial complex one dimension down, sampled slot by slot with the
    cycle equations enforced by constraint propagation.
    """
    if n < 0:
        raise ValueError("a random complex needs n >= 0")
    if truncation is None:
        truncation = 2 * n + 2
    rng = np.random.RandomState(seed)
    counts = [max(1, int(gens_per_dim)) for _ in range(n + 1)]
    gens: list[GeneratorDecl] = [
        GeneratorDecl(f"g0_{i}", 0, ()) for i in range(counts[0])]
    for d in range(1, n + 1):
        partial = SkeletalComplex(shape, d - 1, gens, truncation=truncation)
        layer = partial.tabulate(d - 1).cells[d - 1]
        index = _kernels.join_index(partial.face_table(d - 1), shape, d)
        for i in range(counts[d]):
            rows = _kernels.sample_spheres(index, 1, int(rng.randint(2 ** 31)),
                                           max_tries=max_tries)
            if not rows:
                raise RuntimeError(
                    f"seed {seed}: no sphere found for a dim-{d} generator")
            faces = tuple(layer[j] for j in rows[0])
            gens.append(GeneratorDecl(f"g{d}_{i}", d, faces))
    X = SkeletalComplex(shape, n, gens, truncation=truncation)
    rep = X.validate()
    if not rep.ok:
        raise AssertionError(f"random complex failed validation: {rep.violations}")
    return X


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class BoundClaim:
    """The certified window: some n-skeletal complex fails lower_fail-
    coskeletality, and every tested one is upper_hold-coskeletal up to the
    truncation."""

    shape: str
    n: int
    lower_fail: int
    upper_hold: int

    def to_dict(self) -> dict:
        return {"shape": self.shape, "n": self.n,
                "lower_fail": self.lower_fail, "upper_hold": self.upper_hold}


@dataclass(frozen=True)
class Certificate:
    claim: BoundClaim
    counterexample_fill: str
    witness_sphere: str
    reports: tuple[VerificationReport, ...]
    cyclic_cross_check: tuple[VerificationReport, ...]
    expected_cyclic_bound: int | None
    seed: int
    ok: bool | None
    config: tuple[tuple[str, object], ...] = ()

    def to_dict(self) -> dict:
        return {
            "claim": self.claim.to_dict(),
            "config": dict(self.config),
            "counterexample_fill": self.counterexample_fill,
            "witness_sphere": self.witness_sphere,
            "seed": self.seed,
            "ok": self.ok,
            "reports": [r.to_dict() for r in self.reports],
            "cyclic_cross_check": [r.to_dict() for r in self.cyclic_cross_check],
            "expected_cyclic_bound": self.expected_cyclic_bound,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _per_level(report: VerificationReport) -> list[VerificationReport]:
    """A report split into one report per level, each on its own window."""
    return [replace(report, k_min=level.k - 1, upper=level.k, levels=(level,))
            for level in report.levels]


def certify(shape: str, n: int, extra_complexes=(), seed: int = 0,
            truncation: int | None = None,
            budget_spheres: int = 10 ** 6,
            budget_cells: int = 10 ** 6) -> Certificate:
    """Certify the claimed bound on the built counterexample plus any
    extra complexes; for cyclic input also cross-check coskeletality
    against the underlying simplicial complex.

    ``ok`` is three-valued like the reports it folds: None when a sphere
    budget ran out before any witness showed up.  ``seed`` is recorded
    only: it names the seed the extra complexes were drawn from.
    """
    _kernels.require_positive(budget_spheres=budget_spheres,
                              budget_cells=budget_cells)
    upper = claimed_upper(shape, n)
    extra_complexes = tuple(extra_complexes)
    for top in (truncation,) + tuple(Y.truncation for Y in extra_complexes):
        if top is not None and top <= upper:
            raise ValueError(f"truncation {top} leaves no level above the"
                             f" claimed bound {upper} to check")
    X, s = build_counterexample(shape, n, truncation, budget_cells)
    config = (("shape", shape), ("n", n), ("seed", seed),
              ("extra_complexes", len(extra_complexes)),
              ("truncation", truncation if truncation is not None
               else X.truncation),
              ("budget_spheres", budget_spheres),
              ("budget_cells", budget_cells))
    if truncation is None:
        truncation = X.truncation
    for Y in extra_complexes:
        if Y.skeletal_level != n or not Y.validate().ok:
            raise ValueError("extra complexes must be validated n-skeletal")
    fill = brute_force_fill(X, s, budget_cells=budget_cells)
    reports = tuple(
        coskeletal_up_to(Y, upper, min(truncation, Y.truncation),
                         budget_spheres=budget_spheres,
                         budget_cells=budget_cells)
        for Y in (X,) + extra_complexes)
    verdicts = [fill.status == "no_filler"] + [r.coskeletal for r in reports]
    cross = []
    if shape == "cyclic":
        # U has X's truncation, so reports[0] already holds X's levels
        U, mapping = underlying_simplicial(X)
        under = coskeletal_up_to(U, upper, reports[0].upper,
                                 budget_spheres=budget_spheres,
                                 budget_cells=budget_cells)
        for cyc, simp in zip(_per_level(reports[0]), _per_level(under)):
            cross.extend([cyc, simp])
            verdicts.append(None if None in (cyc.coskeletal, simp.coskeletal)
                            else cyc.coskeletal == simp.coskeletal)
    claim = BoundClaim(shape, n, lower_fail=s.k - 1, upper_hold=upper)
    return Certificate(
        claim=claim,
        counterexample_fill=fill.status,
        witness_sphere=s.literal(),
        reports=reports,
        cyclic_cross_check=tuple(cross),
        expected_cyclic_bound=(2 * n - 1) if shape == "cyclic" else None,
        seed=seed,
        ok=conjunction(verdicts),
        config=config,
    )
