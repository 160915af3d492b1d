"""Expected outputs, derived from the paper and from closed forms.

Nothing here calls into aufhebung: every value is computed from the
benchmark's own inputs, so a check compares the program against an
independent computation rather than against a saved copy of its output.
"""

from __future__ import annotations

import json
from math import comb


def bound_window(shape: str, n: int) -> tuple[int, int]:
    """(lower_fail, upper_hold) for n-skeletal complexes of a shape.

    Globs: n+1-coskeletal, and the two parallel n-globs are not
    n-coskeletal.  Cubes: 2n, with an unfillable 2n-sphere.  Simplices
    (n >= 3): 2n-1, with an unfillable (2n-1)-sphere.  Cyclic sets: 2n+1,
    and not 2n-2.
    """
    if shape == "globular" and n >= 1:
        return n, n + 1
    if shape == "cubical" and n >= 1:
        return 2 * n - 1, 2 * n
    if shape == "simplicial" and n >= 3:
        return 2 * n - 2, 2 * n - 1
    if shape == "cyclic" and n >= 1:
        return 2 * n - 2, 2 * n + 1
    raise ValueError(f"no bound in the table for {shape} n={n}")


def sphere_arity(shape: str, k: int) -> int:
    if shape in ("simplicial", "cyclic"):
        return k + 1
    if shape == "cubical":
        return 2 * k
    return 2


def cells_in_dim(shape: str, gen_dims, k: int) -> int | None:
    """Number of k-cells of a complex presented by generators of the given
    dimensions: the canonical epis from dimension k onto d number C(k, d)
    for ordinals and cubes, and one for globes.  None where the benchmark
    has no closed form (cyclic sets)."""
    if shape in ("simplicial", "cubical"):
        return sum(comb(k, d) for d in gen_dims)
    if shape == "globular":
        return sum(1 for d in gen_dims if d <= k)
    return None


def counterexample_dims(shape: str, n: int) -> dict[str, int]:
    """Generator dimensions of the built counterexample, per the paper:
    one vertex and two n-cells for cubes and globes; the two-cell pattern
    (two (n-1)-cells below two n-cells) for simplices and cyclic sets."""
    if shape in ("cubical", "globular"):
        return {"v": 0, "x": n, "y": n}
    return {"v": 0, "xp": n - 1, "yp": n - 1, "x": n, "y": n}


def random_complex_dims(n: int, gens_per_dim: int = 2) -> list[int]:
    return [d for d in range(n + 1) for _ in range(gens_per_dim)]


def loop_level(shape: str, m: int, k: int) -> dict[str, int]:
    """Closed forms for one vertex with m loops, at level k.

    All (k-1)-cells share their vertices, so at k = 2 every family of
    1-cells is a sphere: (m+1)^4 for cubes, (m+1)^3 for simplices.  The
    2-cells are the 2m+1 degeneracies, each filling exactly one sphere.
    Simplicial 3-spheres are the 3m+1 boundaries of the 3-cells.
    """
    cells = 1 + m * k
    if k == 2:
        spheres = (m + 1) ** (4 if shape == "cubical" else 3)
    elif shape == "simplicial" and k == 3:
        spheres = cells
    else:
        raise ValueError(f"no closed form for {shape} loops at k={k}")
    return {"cells": cells, "spheres": spheres, "unfilled": spheres - cells,
            "multi": 0}


# ---------------------------------------------------------------------------
# monotone maps, for the normalize command


def apply_simplicial_word(tokens: list[str], dom: int) -> tuple[int, list[int]]:
    """Evaluate a face/degeneracy word (applied right to left) on [dom];
    return (cod, value table)."""
    table = list(range(dom + 1))
    cur = dom
    for tok in reversed(tokens):
        i = int(tok[1:])
        if tok[0] == "d":
            table = [p if p < i else p + 1 for p in table]
            cur += 1
        else:
            table = [p if p <= i else p - 1 for p in table]
            cur -= 1
    return cur, table


def canonical_simplicial(cod: int, table: list[int]) -> str:
    """d_{i1}...d_{is} s_{j1}...s_{jt} with the missed values descending
    and the repeated positions ascending; "id" for the identity."""
    image = set(table)
    monos = [f"d{c}" for c in range(cod, -1, -1) if c not in image]
    epis = [f"s{j}" for j in range(len(table) - 1) if table[j] == table[j + 1]]
    return " ".join(monos + epis) or "id"


# ---------------------------------------------------------------------------
# certificates and reports (as dicts, the form the CLI prints)


def check_report(rep: dict, shape: str, window: tuple[int, int],
                 gen_dims, coskeletal: bool = True) -> list[str]:
    """An exhaustive report over the window whose cell counts match the
    closed form and whose verdict is the expected one."""
    errs = []
    lo, hi = window
    if rep["window"] != [lo, hi]:
        errs.append(f"window {rep['window']} != {[lo, hi]}")
    if [lv["k"] for lv in rep["levels"]] != list(range(lo + 1, hi + 1)):
        errs.append(f"levels {[lv['k'] for lv in rep['levels']]} for window {window}")
    if rep["partial"]:
        errs.append(f"report over {window} is partial")
    if rep["coskeletal"] != coskeletal:
        errs.append(f"coskeletal={rep['coskeletal']} over {window}")
    for lv in rep["levels"]:
        if lv["coverage"] != "exhaustive":
            errs.append(f"level {lv['k']} coverage {lv['coverage']}")
        want = cells_in_dim(shape, gen_dims, lv["k"])
        if want is not None and lv["cells"] != want:
            errs.append(f"level {lv['k']}: {lv['cells']} cells, closed form {want}")
        if coskeletal and (lv["unfilled"] or lv["multi"]):
            errs.append(f"level {lv['k']}: unfilled {lv['unfilled']} multi {lv['multi']}")
    return errs


def check_certificate(cert: dict, shape: str, n: int, extra_dims) -> list[str]:
    """A certificate for (shape, n) with one extra complex of the given
    generator dimensions."""
    errs = []
    lower, upper = bound_window(shape, n)
    claim = cert["claim"]
    if (claim["lower_fail"], claim["upper_hold"]) != (lower, upper):
        errs.append(f"claim {claim} != bound table {(lower, upper)}")
    if not cert["ok"]:
        errs.append("certificate not ok")
    if cert["counterexample_fill"] != "no_filler":
        errs.append(f"counterexample_fill {cert['counterexample_fill']}")
    faces = cert["witness_sphere"].split(", ")
    if len(faces) != sphere_arity(shape, lower + 1):
        errs.append(f"witness sphere has {len(faces)} faces")
    trunc = cert["config"]["truncation"]
    # the extra complex is a default random one, truncated at 2n+2
    expected = [(list(counterexample_dims(shape, n).values()), trunc),
                (list(extra_dims), min(trunc, 2 * n + 2))]
    if len(cert["reports"]) != len(expected):
        errs.append(f"{len(cert['reports'])} reports")
    for rep, (gd, top) in zip(cert["reports"], expected):
        errs += check_report(rep, shape, (upper, top), gd)
    cross = cert["cyclic_cross_check"]
    if shape == "cyclic":
        if cert["expected_cyclic_bound"] != 2 * n - 1:
            errs.append(f"expected_cyclic_bound {cert['expected_cyclic_bound']}")
        if len(cross) != 2 * (trunc - upper):
            errs.append(f"{len(cross)} cyclic cross-check reports")
        for cyc, simp in zip(cross[::2], cross[1::2]):
            if cyc["coskeletal"] != simp["coskeletal"]:
                errs.append(f"cyclic/simplicial disagree over {cyc['window']}")
            if cyc["partial"] or simp["partial"]:
                errs.append(f"cross-check over {cyc['window']} is partial")
    elif cross:
        errs.append("cross-check reports for a non-cyclic shape")
    return errs


def check_json_certificate(text: str, shape: str, n: int, extra_dims) -> list[str]:
    try:
        cert = json.loads(text)
    except ValueError as exc:
        return [f"certificate is not JSON: {exc}"]
    return check_certificate(cert, shape, n, extra_dims)
