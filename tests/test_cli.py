"""End-to-end CLI checks: every exit code path, deterministic output."""

import json

import pytest

from aufhebung import cli
from aufhebung.cli import main
from aufhebung.shapes import SHAPES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normalize_examples(capsys):
    code, out, _ = run(capsys, "normalize", "--shape", "simplicial", "s0 d0")
    assert code == 0 and out.strip() == "id"
    code, out, _ = run(capsys, "normalize", "--shape", "simplicial", "")
    assert code == 0 and out.strip() == "id"
    code, out, _ = run(capsys, "normalize", "--shape", "cubical", "b1 a0@1")
    assert code == 0 and out.strip() == "id"
    code, out, _ = run(capsys, "normalize", "--shape", "simplicial",
                       "--dom", "3", "s1 s0")
    assert code == 0 and out.strip() == "s0 s2"


def test_normalize_word_error_exit_2(capsys):
    code, _, err = run(capsys, "normalize", "--shape", "simplicial",
                       "--dom", "0", "s1")
    assert code == 2 and "error" in err


def test_counterexample_and_validate(tmp_path, capsys):
    path = tmp_path / "ce.complex"
    code, out, _ = run(capsys, "counterexample", "--shape", "cubical",
                       "--n", "1", "--out", str(path))
    assert code == 0
    assert "designated 2-sphere: x, x, y, y" in out
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "valid" in out


def test_validate_rejects_garbage(tmp_path, capsys):
    p = tmp_path / "bad.complex"
    p.write_text("shape simplicial\nskeletal 1\ngen e dim 1 faces v v\n")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2 and "line 3" in err


def test_fill_no_filler_exit_1(tmp_path, capsys):
    path = tmp_path / "ce.complex"
    run(capsys, "counterexample", "--shape", "cubical", "--n", "1",
        "--out", str(path))
    code, out, _ = run(capsys, "fill", str(path), "x, x, y, y")
    assert code == 1 and out.strip() == "no_filler"


def test_fill_filled_exit_0_with_trace(tmp_path, capsys):
    path = tmp_path / "ce.complex"
    run(capsys, "counterexample", "--shape", "cubical", "--n", "1",
        "--out", str(path))
    code, out, _ = run(capsys, "fill", str(path),
                       "x, x, v[b1], v[b1]", "--trace")
    assert code == 0
    assert "filled by x[b1]" in out
    assert "trace:" in out


def test_fill_rejects_non_sphere(tmp_path, capsys):
    # mixing towers over two different vertices violates the equations
    p = tmp_path / "two.complex"
    p.write_text("shape cubical\nskeletal 0\ntruncate 4\n"
                 "gen u dim 0\ngen w dim 0\n")
    code, out, _ = run(capsys, "fill", str(p),
                       "u[b1 b2], u[b1 b2], u[b1 b2], u[b1 b2], w[b1 b2], w[b1 b2]")
    assert code == 2 and "not a sphere" in out


def test_fill_budget_applies_before_any_face_table(tmp_path, capsys, monkeypatch):
    # one vertex and five loops have six 1-cells: over a budget of three,
    # the fill stops before it reads the faces of any of them
    p = tmp_path / "loops.complex"
    p.write_text("shape cubical\nskeletal 1\ngen v dim 0\n"
                 + "".join(f"gen e{i} dim 1 faces v v\n" for i in range(5)))
    built = []
    face_table = cli.complexes.SkeletalComplex.face_table

    def spy(self, k):
        built.append(k)
        return face_table(self, k)

    monkeypatch.setattr(cli.complexes.SkeletalComplex, "face_table", spy)
    code, out, err = run(capsys, "fill", str(p), "e0, e1, e2, e3", "--budget-cells", "3")
    assert (code, out, built) == (2, "", [])
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "6 cells in dimension 1 exceed the budget of 3" in err


def test_coskeletal_exit_codes(tmp_path, capsys):
    path = tmp_path / "ce.complex"
    run(capsys, "counterexample", "--shape", "cubical", "--n", "1",
        "--out", str(path))
    code, out, _ = run(capsys, "coskeletal", str(path), "--from", "2",
                       "--to", "4")
    assert code == 0 and json.loads(out)["coskeletal"] is True
    code, out, _ = run(capsys, "coskeletal", str(path), "--from", "1",
                       "--to", "4")
    assert code == 1 and json.loads(out)["coskeletal"] is False


def test_coskeletal_single_vertex(tmp_path, capsys):
    p = tmp_path / "pt.complex"
    p.write_text("shape simplicial\nskeletal 0\ntruncate 3\ngen v dim 0\n")
    code, out, _ = run(capsys, "coskeletal", str(p), "--from", "1", "--to", "3")
    assert code == 0 and json.loads(out)["coskeletal"] is True


def test_verify_certificate(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "verify", "--shape", "cubical", "--n", "1",
                       "--seeds", "2", "--out", str(out_path))
    assert code == 0
    cert = json.loads(out)
    assert cert["ok"] is True
    assert cert["claim"] == {"shape": "cubical", "n": 1,
                             "lower_fail": 1, "upper_hold": 2}
    assert json.loads(out_path.read_text()) == cert


@pytest.mark.parametrize("shape,n", [("simplicial", 0), ("simplicial", 1),
                                     ("simplicial", 2), ("cubical", 0),
                                     ("globular", 0)])
def test_verify_low_dimensional_rows(capsys, shape, n):
    # every row of the bound table has a certificate; these exited 2 before
    code, out, err = run(capsys, "verify", "--shape", shape, "--n", str(n),
                         "--seeds", "1")
    cert = json.loads(out)
    assert code == 0 and err == "" and cert["ok"] is True
    assert cert["counterexample_fill"] == "no_filler"


def test_outputs_deterministic(capsys):
    a = run(capsys, "verify", "--shape", "globular", "--n", "1",
            "--seeds", "2", "--seed", "5")
    b = run(capsys, "verify", "--shape", "globular", "--n", "1",
            "--seeds", "2", "--seed", "5")
    assert a == b


def test_usage_error_exit_2(capsys):
    for argv in (["fill"], ["frobnicate"],
                 ["verify", "--shape", "cubical", "--n", "x"],
                 ["validate", "/nonexistent/file.complex"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("shape", ["simplicial", "cubical", "cyclic"])
@pytest.mark.parametrize("n", [16, 40])
def test_counterexample_over_the_cell_budget_exit_2(capsys, shape, n):
    # the designated sphere's faces lie in dimensions of far more than the
    # default 10^6 cells (about 10^9 at n = 16, 10^23 at n = 40); they are
    # counted, not built, and the refusal is one line
    code, out, err = run(capsys, "counterexample", "--shape", shape, "--n", str(n))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "exceed the budget of 1000000" in err


@pytest.mark.parametrize("n", [16, 40])
def test_globular_counterexample_stays_in_budget(capsys, n):
    # one vertex and two n-globs have at most 3 cells in any dimension
    code, out, err = run(capsys, "counterexample", "--shape", "globular", "--n", str(n))
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == f"# designated {n + 1}-sphere: x, y"


def test_help_exit_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: aufhebung") and "counterexample" in out
    code, out, err = run(capsys, "verify", "--help")
    assert code == 0 and err == "" and "--seeds SEEDS" in out


def test_normalize_globular_and_cyclic(capsys):
    code, out, _ = run(capsys, "normalize", "--shape", "globular", "iot sig")
    assert code == 0 and out.strip() == "id"
    code, out, _ = run(capsys, "normalize", "--shape", "globular",
                       "--dom", "1", "tau sig sig")
    assert code == 0 and out.strip() == "sig sig sig"
    code, out, _ = run(capsys, "normalize", "--shape", "cyclic",
                       "--dom", "2", "s3x d0")
    assert code == 0 and out.strip() == "t"
    code, out, _ = run(capsys, "normalize", "--shape", "cyclic",
                       "--dom", "2", "t t t")
    assert code == 0 and out.strip() == "id"


def test_verify_config_round_trips(capsys):
    code, out, _ = run(capsys, "verify", "--shape", "cubical", "--n", "1",
                       "--seeds", "3", "--seed", "9")
    assert code == 0
    cert = json.loads(out)
    assert cert["config"]["shape"] == "cubical"
    assert cert["config"]["n"] == 1
    assert cert["config"]["seed"] == 9
    assert cert["config"]["extra_complexes"] == 3


def test_fill_reports_multiple_fillers(tmp_path, capsys):
    # a generator attached along the boundary of a degenerate cell makes
    # that boundary fillable twice; the constructive route still agrees
    p = tmp_path / "dup.complex"
    p.write_text("shape cubical\nskeletal 2\ntruncate 4\n"
                 "gen v dim 0\n"
                 "gen z dim 2 faces v[b1] v[b1] v[b1] v[b1]\n")
    code, out, _ = run(capsys, "fill", str(p),
                       "v[b1], v[b1], v[b1], v[b1]")
    assert code == 0
    assert "2 fillers" in out


def test_cell_budget_exceeded_exit_2(tmp_path, capsys):
    path = tmp_path / "ce.complex"
    run(capsys, "counterexample", "--shape", "cubical", "--n", "2",
        "--out", str(path))
    code, out, err = run(capsys, "coskeletal", str(path), "--from", "4",
                         "--to", "6", "--budget-cells", "2")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "exceed the budget of 2" in err


@pytest.mark.parametrize("argv", [
    ["coskeletal", "{path}", "--from", "1", "--to", "2", "--budget-spheres", "0"],
    ["coskeletal", "{path}", "--from", "1", "--to", "2", "--budget-cells", "-1"],
    ["verify", "--shape", "cubical", "--n", "1", "--budget-spheres", "0"],
    ["verify", "--shape", "cubical", "--n", "1", "--budget-cells", "0"],
    ["fill", "{path}", "x, x, y, y", "--budget-cells", "0"],
    ["fill", "{path}", "x, x, y, y", "--budget-cells", "-3"],
])
def test_non_positive_budget_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "ce.complex"
    run(capsys, "counterexample", "--shape", "cubical", "--n", "1",
        "--out", str(path))
    code, out, err = run(capsys, *[a.format(path=path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "must be positive" in err


def test_verify_inconclusive_exit_3(capsys):
    # five spheres per level cover too little to certify anything
    code, out, err = run(capsys, "verify", "--shape", "cubical", "--n", "2",
                         "--budget-spheres", "5")
    assert code == 3 and err == ""
    cert = json.loads(out)
    assert cert["ok"] is None
    (rep,) = cert["reports"]
    assert rep["coskeletal"] is None and rep["partial"] is True
    assert [(lv["coverage"], lv["spheres"]) for lv in rep["levels"]] == [
        ("truncated", 5), ("truncated", 5)]


def test_coskeletal_inconclusive_exit_3(tmp_path, capsys):
    path = tmp_path / "ce.complex"
    run(capsys, "counterexample", "--shape", "cubical", "--n", "1",
        "--out", str(path))
    code, out, _ = run(capsys, "coskeletal", str(path), "--from", "2",
                       "--to", "4", "--budget-spheres", "3")
    assert code == 3 and json.loads(out)["coskeletal"] is None
    # a witness inside the truncated prefix still fails the window
    code, out, _ = run(capsys, "coskeletal", str(path), "--from", "1",
                       "--to", "2", "--budget-spheres", "5")
    assert code == 1 and json.loads(out)["levels"][0]["unfilled"] == 4


@pytest.mark.parametrize("argv", [
    ["coskeletal", "{path}", "--from", "1", "--to", "2", "--seed", "1"],
    ["coskeletal", "{path}", "--from", "-3", "--to", "2"],
    ["verify", "--shape", "cubical", "--n", "1", "--truncate", "2"],
    ["verify", "--shape", "globular", "--n", "1", "--truncate", "2"],
    ["verify", "--shape", "cubical", "--n", "1", "--seeds", "-1"],
])
def test_refused_arguments_exit_2(tmp_path, capsys, argv):
    # a removed option, a negative window start, a truncation that leaves
    # no level above the claimed bound, and a negative number of complexes
    path = tmp_path / "ce.complex"
    run(capsys, "counterexample", "--shape", "cubical", "--n", "1",
        "--out", str(path))
    code, out, err = run(capsys, *[a.format(path=path) for a in argv])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "--seeds" in err or "--seeds" not in argv


@pytest.mark.parametrize("shape", SHAPES)
def test_verify_negative_n_exit_2(capsys, shape):
    # the random complexes refuse a negative n as the builders do, with a
    # usage error and no traceback
    code, out, err = run(capsys, "verify", "--shape", shape, "--n", "-1", "--seeds", "1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("k_min,upper", [("5", "3"), ("3", "3")])
def test_coskeletal_empty_window_exit_2(tmp_path, capsys, k_min, upper):
    path = tmp_path / "ce.complex"
    run(capsys, "counterexample", "--shape", "cubical", "--n", "2",
        "--out", str(path))
    code, out, err = run(capsys, "coskeletal", str(path), "--from", k_min,
                         "--to", upper)
    assert code == 2 and out == ""
    assert err == f"error: the window ({k_min}, {upper}] holds no level\n"


def test_coskeletal_face_of_wrong_dimension_exit_2(tmp_path, capsys):
    # the parser checks arity, not face dimensions; tabulation refuses them
    path = tmp_path / "bad.complex"
    path.write_text("shape simplicial\nskeletal 2\ngen v dim 0\n"
                    "gen e dim 1 faces v v\ngen x dim 2 faces v v v\n")
    code, out, err = run(capsys, "coskeletal", str(path), "--from", "1",
                         "--to", "3")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "has dimension 0, expected 1" in err


BAD_FACE_DIMENSION = ("shape simplicial\nskeletal 2\ngen v dim 0\n"
                      "gen e dim 1 faces v v\ngen f dim 1 faces e v\n"
                      "gen t dim 2 faces f f f\n")


@pytest.mark.parametrize("argv", [
    ["coskeletal", "{path}", "--from", "1", "--to", "3"],
    ["fill", "{path}", "e, e, e"],
])
def test_face_of_wrong_dimension_below_a_generator_exit_codes(tmp_path, capsys, argv):
    # t is built on the ill-formed f; validation reports f alone instead of
    # failing on t's cycle equations
    path = tmp_path / "bad.complex"
    path.write_text(BAD_FACE_DIMENSION)
    detail = "[f] dimension: face Cell(e, id) has dimension 1, expected 0"
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (1, f"invalid {detail}\n", "")
    code, out, err = run(capsys, *[a.format(path=path) for a in argv])
    assert (code, out, err) == (2, "", f"error: invalid complex {detail}\n")


# e joins two vertices and f is a loop, so (e, f, e) breaks two cycle
# equations; (f, f, f) is still a sphere of the complex
INVALID_SIMPLICIAL = ("shape simplicial\nskeletal 2\ngen a dim 0\ngen b dim 0\n"
                      "gen e dim 1 faces a b\ngen f dim 1 faces a a\n"
                      "gen x dim 2 faces e f e\n")


@pytest.mark.parametrize("argv", [
    ["coskeletal", "{path}", "--from", "2", "--to", "3"],
    ["fill", "{path}", "f, f, f"],
])
def test_invalid_complex_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "invalid.complex"
    path.write_text(INVALID_SIMPLICIAL)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1 and len(out.splitlines()) == 2
    code, out, err = run(capsys, *[a.format(path=path) for a in argv])
    assert code == 2 and out == ""
    assert err == "error: invalid complex [x] cycle: c_2 d_0 != c_0 d_1\n"


def _reuse_commands(tmp_path):
    """Valid commands, usage errors, --help and refused arguments, over
    every subcommand."""
    path = tmp_path / "ce.complex"
    assert main(["counterexample", "--shape", "cubical", "--n", "1",
                 "--out", str(path)]) == 0
    f = str(path)
    return [
        ["normalize", "--shape", "simplicial", "--dom", "3", "s1 s0"],
        ["verify", "--shape", "cubical", "--n", "x"],
        ["validate", f],
        ["--help"],
        ["fill", f, "x, x, y, y"],
        ["fill"],
        ["fill", f, "x, x, v[b1], v[b1]", "--trace"],
        ["verify", "--shape", "cubical", "--n", "1", "--seeds", "-1"],
        ["coskeletal", f, "--from", "1", "--to", "4"],
        ["frobnicate"],
        ["verify", "--shape", "cubical", "--n", "1", "--seeds", "1"],
        ["coskeletal", f, "--from", "1", "--to", "2", "--seed", "1"],
        ["counterexample", "--shape", "globular", "--n", "1"],
        ["verify", "--help"],
        ["normalize", "--shape", "cubical", "b1 a0@1"],
        ["validate", "/nonexistent/file.complex"],
        ["coskeletal", f, "--from", "2", "--to", "4"],
        ["counterexample", "--shape", "cubical", "--n", "1"],
        ["normalize", "--shape", "simplicial", "--dom", "0", "s1"],
        ["verify", "--shape", "globular", "--n", "1", "--seed", "5"],
    ]


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    commands = _reuse_commands(tmp_path)
    assert len(commands) == 20
    assert {a[0] for a in commands} >= set(cli._HANDLERS)
    builds, inits = [], []
    build, init = cli.build_parser, cli.argparse.ArgumentParser.__init__

    def counted_build():
        builds.append(1)
        return build()

    def counted_init(self, *args, **kwargs):
        inits.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "build_parser", counted_build)
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted_init)
    cli._parser.cache_clear()
    for argv in commands:
        main(argv)
    capsys.readouterr()
    assert len(builds) == 1
    assert len(inits) == 1 + len(cli._HANDLERS)  # the parser and its subparsers


def test_reused_parser_matches_fresh_parser(tmp_path, capsys, monkeypatch):
    # a failed parse or --help leaves nothing behind for the next command
    commands = _reuse_commands(tmp_path)
    capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = [run(capsys, *argv) for argv in commands]
    assert {r[0] for r in fresh} == {0, 1, 2}
    forward = [run(capsys, *argv) for argv in commands]
    backward = [run(capsys, *argv) for argv in reversed(commands)]
    assert forward == fresh and backward[::-1] == fresh
