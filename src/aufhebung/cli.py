"""Command-line surface.

Subcommands: ``normalize`` (canonical form of a morphism word),
``validate`` (complex file check), ``fill`` (fill one sphere),
``coskeletal`` (level window report), ``verify`` (bound certificate),
``counterexample`` (emit a built counterexample file).

Exit codes: 0 the claim holds / the sphere is filled; 1 a counterexample
was found / the sphere has no filler; 2 usage or input error, or an
exceeded cell budget; 3 inconclusive: a sphere budget ran out before any
counterexample was found.  A resource limit never exits 1.  Outputs are
pure functions of (arguments, input files, seed).  A usage error prints
one ``error: ...`` line on stderr.

``main`` parses with one parser per process, built by ``build_parser`` on
the first call and reused by every later one; parsing never mutates it.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bounds, complexes, fileio, fillers, shapes

# exit code of a three-valued verdict: holds, fails, inconclusive
EXIT_CODES = {True: 0, False: 1, None: 3}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line; the subparsers
    that ``add_subparsers`` makes are of the same class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _shape_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", required=True, choices=shapes.SHAPES)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="aufhebung",
        description="exact skeleton/coskeleton calculations on finitely"
                    " presented complexes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="canonical form of a morphism word")
    _shape_arg(p)
    p.add_argument("--dom", type=int, default=None,
                   help="domain dimension (default: smallest consistent)")
    p.add_argument("word", help="whitespace separated generator tokens,"
                                " applied right to left")

    p = sub.add_parser("validate", help="check a complex file")
    p.add_argument("file")

    p = sub.add_parser("fill", help="fill one sphere of a complex")
    p.add_argument("file")
    p.add_argument("sphere", help="comma separated cell literals in face order")
    p.add_argument("--trace", action="store_true",
                   help="print which proof branch fired per face")
    p.add_argument("--budget-cells", type=int, default=10 ** 6)

    p = sub.add_parser("coskeletal", help="check coskeletality on a window")
    p.add_argument("file")
    p.add_argument("--from", dest="k_min", type=int, required=True,
                   help="exclusive lower end of the window")
    p.add_argument("--to", dest="upper", type=int, required=True,
                   help="inclusive upper end of the window")
    p.add_argument("--budget-spheres", type=int, default=10 ** 6)
    p.add_argument("--budget-cells", type=int, default=10 ** 6)
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("verify", help="certify the coskeletality bound for a shape")
    _shape_arg(p)
    p.add_argument("--n", type=int, required=True, help="skeletal level")
    p.add_argument("--seeds", type=int, default=0,
                   help="number of extra random complexes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truncate", type=int, default=None)
    p.add_argument("--budget-spheres", type=int, default=10 ** 6)
    p.add_argument("--budget-cells", type=int, default=10 ** 6)
    p.add_argument("--out", default=None, help="write the certificate here")

    p = sub.add_parser("counterexample",
                       help="emit the built counterexample complex")
    _shape_arg(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None, help="write the complex file here")
    return ap


def cmd_normalize(args) -> int:
    f = shapes.normalize(args.shape, args.word, dom=args.dom)
    print(shapes.format_morphism(f))
    return 0


def _load_valid(path: str) -> complexes.SkeletalComplex:
    """The complex in ``path``; ValueError naming its first violation if
    it does not validate."""
    X = fileio.load_complex(path)
    rep = X.validate()
    if not rep.ok:
        v = rep.violations[0]
        raise ValueError(f"invalid complex [{v.generator}] {v.kind}: {v.detail}")
    return X


def cmd_validate(args) -> int:
    X = fileio.load_complex(args.file)
    rep = X.validate()
    if rep.ok:
        print(f"valid: {len(X.generators)} generators,"
              f" {X.shape} {X.skeletal_level}-skeletal,"
              f" truncation {X.truncation}")
        return 0
    for v in rep.violations:
        print(f"invalid [{v.generator}] {v.kind}: {v.detail}")
    return 1


def cmd_fill(args) -> int:
    X = _load_valid(args.file)
    s = fileio.parse_sphere(X, args.sphere)
    # fill first: it tabulates under the budget, and is_sphere reads a
    # face table that it would build with none
    res = fillers.brute_force_fill(X, s, budget_cells=args.budget_cells)
    ok, why = fillers.is_sphere(X, s)
    if not ok:
        print(f"not a sphere: {why}")
        return 2
    con = fillers.constructive_filler(X, s, trace=args.trace)
    if con.status == "filled" and con.filler not in res.witnesses:
        raise fillers.AlgorithmViolation(
            "constructive filler disagrees with the oracle")
    if args.trace:
        for line in con.trace:
            print(f"trace: {line}")
        if con.status == "not_applicable":
            print(f"trace: constructive route not applicable: {con.reason}")
    if res.status == "no_filler":
        print("no_filler")
        return 1
    names = ", ".join(fillers.cell_literal(w) for w in res.witnesses)
    print(f"filled by {names}" + ("" if len(res.witnesses) == 1 else
                                  f" ({len(res.witnesses)} fillers)"))
    return 0


def cmd_coskeletal(args) -> int:
    X = _load_valid(args.file)
    rep = fillers.coskeletal_up_to(
        X, args.k_min, args.upper, budget_spheres=args.budget_spheres,
        budget_cells=args.budget_cells)
    text = rep.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_CODES[rep.coskeletal]


def cmd_verify(args) -> int:
    if args.seeds < 0:
        raise ValueError(f"--seeds must not be negative, got {args.seeds}")
    extras = [bounds.random_skeletal_complex(args.shape, args.n,
                                             seed=args.seed + i,
                                             truncation=args.truncate)
              for i in range(args.seeds)]
    cert = bounds.certify(args.shape, args.n, extra_complexes=extras,
                          seed=args.seed, truncation=args.truncate,
                          budget_spheres=args.budget_spheres,
                          budget_cells=args.budget_cells)
    text = cert.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_CODES[cert.ok]


def cmd_counterexample(args) -> int:
    X, s = bounds.build_counterexample(args.shape, args.n)
    text = fileio.serialize_complex(X)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# designated {s.k}-sphere: {s.literal()}")
    return 0


_HANDLERS = {
    "normalize": cmd_normalize,
    "validate": cmd_validate,
    "fill": cmd_fill,
    "coskeletal": cmd_coskeletal,
    "verify": cmd_verify,
    "counterexample": cmd_counterexample,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use, never at import."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, complexes.BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
