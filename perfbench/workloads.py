"""The benchmark's workloads: one round of operations each, built from a seed.

A round is a fixed list of operations with distinct seeded inputs.  A run
repeats its round whole, so every run attempts the same mix and per-op
counts from the traced run are exact.  Each operation is a call into the
program (timed) and a check of its output against ``expect`` (untimed).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from aufhebung import bounds, cli, fileio, fillers
from aufhebung.complexes import Cell, GeneratorDecl, SkeletalComplex
from aufhebung.shapes import CubeMorphism, SimplexMorphism

import expect


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Round:
    ops: list[Op]
    # complexes the benchmark wrote to files, to check the file round trip
    written: list[tuple[str, SkeletalComplex]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# certify-sweep: the `aufhebung verify` path, all four shapes

# Weighted so that sorted by cost the cheap kinds fill the lowest 30%, the
# cubical n=2 ops 30-80% (the median) and the simplicial n=3 ops the top
# 20% (the 90th percentile): neither percentile falls between two kinds.
CERTIFY_CYCLE = [("cubical", 2), ("simplicial", 3), ("globular", 3),
                 ("cubical", 2), ("cyclic", 1), ("cubical", 2),
                 ("simplicial", 3), ("cubical", 1), ("cubical", 2),
                 ("cubical", 2)]
CERTIFY_TINY = [("globular", 1), ("cubical", 1)]


def _certify(shape: str, n: int, seed: int):
    extra = bounds.random_skeletal_complex(shape, n, seed=seed)
    return bounds.certify(shape, n, extra_complexes=[extra], seed=seed)


def _check_certificate(shape: str, n: int, cert) -> list[str]:
    return expect.check_certificate(cert.to_dict(), shape, n,
                                    expect.random_complex_dims(n))


def certify_sweep(seed: int, tiny: bool, workdir: str) -> Round:
    rng = random.Random(seed)
    cycle = CERTIFY_TINY if tiny else CERTIFY_CYCLE
    ops = []
    for shape, n in cycle:
        s = rng.randrange(2 ** 31)
        ops.append(Op(f"certify {shape} n={n}", partial(_certify, shape, n, s),
                      partial(_check_certificate, shape, n)))
    return Round(ops)


# ---------------------------------------------------------------------------
# dense-scan: wide, shallow sphere scans on one vertex with m loops

# sizes chosen so that both kinds cost the same (within 1%, timed
# interleaved); the 3:1 weighting keeps the median and the 90th percentile
# off the boundary between the kinds should one of them get faster
DENSE_SIZES = {"cubical": (13, 2), "simplicial": (30, 3)}   # m, top level
DENSE_TINY = {"cubical": (3, 2), "simplicial": (4, 3)}
DENSE_CYCLE = ["cubical", "cubical", "simplicial", "cubical"]


def _loop_decls(shape: str, m: int, rng: random.Random) -> list[GeneratorDecl]:
    """One vertex and m loops, under seeded names in seeded order."""
    ident = (CubeMorphism if shape == "cubical" else SimplexMorphism).identity(0)
    names = [f"e{i}" for i in rng.sample(range(10 * m + 10), m + 1)]
    v = Cell(names[0], ident)
    return ([GeneratorDecl(names[0], 0, ())]
            + [GeneratorDecl(name, 1, (v, v)) for name in names[1:]])


def _dense_scan(shape: str, decls, top: int):
    X = SkeletalComplex(shape, 1, decls, truncation=top)
    return fillers.coskeletal_up_to(X, 1, top)


def _check_dense(shape: str, m: int, top: int, report) -> list[str]:
    rep = report.to_dict()
    errs = expect.check_report(rep, shape, (1, top), [0] + [1] * m,
                               coskeletal=False)
    for lv in rep["levels"]:
        want = expect.loop_level(shape, m, lv["k"])
        got = {key: lv[key] for key in want}
        if got != want:
            errs.append(f"{shape} {m} loops, level {lv['k']}: {got} != {want}")
    return errs


def dense_scan(seed: int, tiny: bool, workdir: str) -> Round:
    rng = random.Random(seed)
    sizes = DENSE_TINY if tiny else DENSE_SIZES
    ops = []
    for shape in DENSE_CYCLE:
        m, top = sizes[shape]
        decls = _loop_decls(shape, m, rng)
        ops.append(Op(f"scan {shape} {m} loops", partial(_dense_scan, shape, decls, top),
                      partial(_check_dense, shape, m, top)))
    return Round(ops)


# ---------------------------------------------------------------------------
# cli-files: the command line on complex files, through cli.main in-process
# (a fresh interpreter per command spends 90% of its time starting up, and
# that start-up time was not steady enough to bound; cli.import_ms
# measures it instead)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command; an exception the command
    lets escape propagates, and the operation counts as failed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _expect_output(rc: int, out: str, want_rc: int, want_out: str | None = None,
                   ) -> list[str]:
    errs = []
    if rc != want_rc:
        errs.append(f"exit {rc}, contract says {want_rc}")
    if want_out is not None and out != want_out:
        errs.append(f"stdout {out!r}, expected {want_out!r}")
    return errs


def _check_plain(want_rc: int, want_out: str, result) -> list[str]:
    rc, out, err = result
    errs = _expect_output(rc, out, want_rc, want_out)
    if err:
        errs.append(f"unexpected stderr {err!r}")
    return errs


def _check_coskeletal(path: str, m: int, result) -> list[str]:
    rc, out, err = result
    errs = _expect_output(rc, out, 1)
    with open(path, encoding="utf-8") as fh:
        if fh.read() != out:
            errs.append("--out file differs from stdout")
    rep = json.loads(out)
    errs += expect.check_report(rep, "cubical", (1, 2), [0] + [1] * m,
                                coskeletal=False)
    want = expect.loop_level("cubical", m, 2)
    got = {key: rep["levels"][0][key] for key in want}
    if got != want:
        errs.append(f"level 2 of {m} loops: {got}, closed form {want}")
    return errs


def _check_counterexample(path: str, shape: str, n: int, result) -> list[str]:
    rc, out, err = result
    errs = _expect_output(rc, out, 0)
    k = expect.bound_window(shape, n)[0] + 1
    prefix = f"# designated {k}-sphere: "
    if not out.startswith(prefix) or out.count("\n") != 1:
        errs.append(f"stdout {out!r} does not name a designated {k}-sphere")
    elif len(out[len(prefix):].strip().split(", ")) != expect.sphere_arity(shape, k):
        errs.append(f"designated sphere {out!r} has the wrong number of faces")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    X = fileio.parse_complex(text)
    if fileio.serialize_complex(X) != text:
        errs.append(f"{path} does not round-trip")
    dims = {name: g.dim for name, g in X.generators.items()}
    if (X.shape, X.skeletal_level, dims) != (shape, n, expect.counterexample_dims(shape, n)):
        errs.append(f"counterexample file has {X.shape} n={X.skeletal_level} {dims}")
    return errs


def _check_verify(shape: str, n: int, result) -> list[str]:
    rc, out, err = result
    return (_expect_output(rc, out, 0)
            + expect.check_json_certificate(out, shape, n, expect.random_complex_dims(n)))


def _check_usage_error(result) -> list[str]:
    rc, out, err = result
    errs = _expect_output(rc, out, 2, "")
    lines = err.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error: "):
        errs.append(f"stderr {err!r} is not one 'error:' line")
    return errs


CLI_LOOPS = 5
COUNTEREXAMPLES = [("cubical", 1), ("cubical", 2), ("globular", 1),
                   ("globular", 2), ("simplicial", 3), ("cyclic", 1)]


def _random_word(rng: random.Random, dom: int, length: int) -> list[str]:
    """A composable face/degeneracy word on [dom], applied right to left."""
    applied, cur = [], dom
    for _ in range(length):
        if cur >= 1 and rng.random() < 0.5:
            applied.append(f"s{rng.randrange(cur)}")
            cur -= 1
        else:
            applied.append(f"d{rng.randrange(cur + 2)}")
            cur += 1
    return applied[::-1]


def cli_files(seed: int, tiny: bool, workdir: str) -> Round:
    """Write the complex files, then the fixed command cycle over them."""
    rng = random.Random(seed)
    written = []

    def save(name: str, X: SkeletalComplex) -> str:
        path = os.path.join(workdir, name)
        fileio.save_complex(X, path)
        written.append((path, X))
        return path

    # the loop count is fixed: the fills hold the median, and their cost
    # grows with m, so a seeded m would move op_p50_ms from seed to seed
    m = CLI_LOOPS
    decls = _loop_decls("cubical", m, rng)
    loops = save("loops.complex", SkeletalComplex("cubical", 1, decls, truncation=2))
    v, *edges = [d.name for d in decls]
    rshape = rng.choice(["cubical", "simplicial"])
    rand = save("random.complex", bounds.random_skeletal_complex(
        rshape, 2, seed=rng.randrange(2 ** 31)))
    # the budget op reads a fixed file: its failure must not depend on the seed
    c2 = save("cubical2.complex", bounds.build_counterexample("cubical", 2)[0])

    # a filled sphere is the boundary of a degenerate 2-cell: x[b1] has
    # faces (x, x, v[b1], v[b1]), x[b2] has (v[b1], v[b1], x, x)
    a, b = rng.sample(edges, 2)
    vd = f"{v}[b1]"
    filled, filler = rng.choice([([a, a, vd, vd], f"{a}[b1]"),
                                 ([vd, vd, a, a], f"{a}[b2]"),
                                 ([vd] * 4, f"{v}[b1 b2]")])
    unfilled = rng.choice([[a, a, b, b], [a, b, vd, vd], [vd, a, vd, a]])
    ce_shape, ce_n = rng.choice(COUNTEREXAMPLES)
    ce_out = os.path.join(workdir, "counterexample.complex")
    report_out = os.path.join(workdir, "report.json")
    dom = rng.randrange(4)
    word = _random_word(rng, dom, rng.randrange(3, 8))
    cod, table = expect.apply_simplicial_word(word, dom)

    commands = [
        (["validate", rand], partial(
            _check_plain, 0, f"valid: 6 generators, {rshape} 2-skeletal, truncation 6\n")),
        (["fill", loops, ", ".join(filled)], partial(_check_plain, 0, f"filled by {filler}\n")),
        (["fill", loops, ", ".join(unfilled)], partial(_check_plain, 1, "no_filler\n")),
        (["coskeletal", loops, "--from", "1", "--to", "2", "--out", report_out],
         partial(_check_coskeletal, report_out, m)),
        (["counterexample", "--shape", ce_shape, "--n", str(ce_n), "--out", ce_out],
         partial(_check_counterexample, ce_out, ce_shape, ce_n)),
        (["normalize", "--shape", "simplicial", "--dom", str(dom), " ".join(word)],
         partial(_check_plain, 0, expect.canonical_simplicial(cod, table) + "\n")),
        # Sorted by cost, validate, counterexample and normalize (2-4 ms)
        # fill the lowest 3/8, the two fills (6 ms) the next quarter around
        # the median, coskeletal (15-16 ms) the next 1/8, and verify (33-37
        # ms), run twice, the top quarter around the 90th percentile.
        *[(["verify", "--shape", "cubical", "--n", "1", "--seeds", "1",
            "--seed", str(rng.randrange(1000))], partial(_check_verify, "cubical", 1))
          for _ in range(2)],
        (["coskeletal", c2, "--from", "4", "--to", "6", "--budget-cells", "2"],
         _check_usage_error),
    ]
    ops = [Op(f"cli {argv[0]}" + (" --budget-cells 2" if "--budget-cells" in argv else ""),
              partial(run_cli, argv), check) for argv, check in commands]
    return Round(ops, written)


WORKLOADS = {
    "certify-sweep": certify_sweep,
    "dense-scan": dense_scan,
    "cli-files": cli_files,
}


def check_written(written) -> list[str]:
    """parse_complex(serialize_complex(X)) gives back X for every file written."""
    errs = []
    for path, X in written:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            Y = fileio.parse_complex(text)
        except fileio.ParseError as exc:
            errs.append(f"{path} does not parse: {exc}")
            continue
        if (text != fileio.serialize_complex(X) or fileio.serialize_complex(Y) != text
                or (Y.shape, Y.skeletal_level, Y.truncation, Y.generators)
                != (X.shape, X.skeletal_level, X.truncation, X.generators)):
            errs.append(f"{path} does not round-trip")
    return errs
