import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_7class.dot"
GOLDEN_13 = GOLDEN.with_name("golden_13vertex.dot")

SEVEN_CLASS = [
    "zero",
    "udz(1)",
    "pair(1,1)",
    "pair(1,-1)",
    "pair(0.70710678118654746+0.70710678118654746i,0.70710678118654746-0.70710678118654746i)",
    "hyp(0.3)",
    "delta(1)",
]


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "starcong", *args],
        capture_output=True, text=True, env=src_env(), timeout=300)


def test_classify_command():
    res = run_cli("classify", "0,1;1,1i")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "delta(1)  codim 2"

    res = run_cli("classify", "0,0;0,0")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "zero  codim 8"

    res = run_cli("classify", "0,1;1,0")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "pair(1,-1)  codim 4"


def test_classify_json_matrix_input():
    res = run_cli("classify", '{"m": [["0", "1"], ["1", "1i"]]}')
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "delta(1)  codim 2"


@pytest.mark.parametrize("text", [
    '{"m": ["10", "01"]}',
    '{"m": [["1", "0"], "01"]}',
    '{"m": {"ab": 1, "cd": 2}}',
    '{"m": 5}',
    '{"m": [5, 6]}',
])
def test_classify_json_rows_must_be_lists(text, capsys):
    # strings and objects have a length too: their characters or keys are not entries
    from starcong.cli import main

    assert main(["classify", text]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: matrix must have 2 rows of 2 entries\n"


def test_classify_json_number_entries(capsys):
    from starcong.cli import main

    assert main(["classify", '{"m": [[0, 1], [1, "1i"]]}']) == 0
    assert capsys.readouterr().out.splitlines()[0] == "delta(1)  codim 2"


def test_classify_exit_codes():
    assert run_cli("classify", "nonsense").returncode == 2
    assert run_cli("classify", "1,2;3").returncode == 2
    assert run_cli("classify", '{"m":["10","01"]}').returncode == 2
    res = run_cli("classify", "1,0;0,1", "--tol", "inf")
    assert res.returncode == 2
    assert res.stderr == "error: tol must lie in (0, 0.5)\n"
    # ambiguous input: relative determinant right at the tolerance
    res = run_cli("classify", "1,0;0,1.2e-9")
    assert res.returncode == 1
    assert "refused" in res.stderr


def test_codim_command():
    res = run_cli("codim", "udz(1)")
    assert res.returncode == 0
    assert res.stdout.strip() == "5"


def test_codim_empty_argument_is_usage_error(capsys):
    from starcong.cli import main

    for form in ("pair(1,,-1)", "udz(1,)", "hyp(0.5,,)"):
        assert main(["codim", form]) == 2
        assert capsys.readouterr().out == ""
    res = run_cli("codim", "pair(1,,-1)")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "bad canonical form: 'pair(1,,-1)'" in res.stderr


def test_codim_near_antipodal_pair():
    # a generic pair 1e-12 off the antipodal boundary: codim 2, so the arrow
    # to delta is refused by codimension monotonicity
    res = run_cli("codim", "pair(1,-1-1e-12i)")
    assert res.returncode == 0
    assert res.stdout.strip() == "2"

    res = run_cli("arrow", "pair(1,-1-1e-12i)", "delta(1)")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "reachable: false"
    assert "CodimMonotonicity" in lines[1]


@pytest.mark.parametrize("source, target", [
    ("pair(1,-1)", "pair(1,-1-1e-13i)"),
    ("pair(1,1)", "pair(1,1+1e-13i)"),
    ("pair(1,-1)", "hyp(0.99999999999999)"),
])
def test_arrow_near_degenerate_pair_certificate(source, target):
    # a target 1e-13 off the source's class: the spectral gap is tiny, but any
    # positive gap proves the non-arrow
    res = run_cli("arrow", source, target)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "reachable: false"
    assert "SpectrumGap" in lines[1]


@pytest.mark.parametrize("args", [
    ("arrow", "pair(1,1)", "hyp(1e-13)"),
    ("arrow", "pair(1,-1)", "hyp(1e-13i)"),
    ("sample", "hyp(1e-13)"),
])
def test_tiny_hyperbolic_cosquare_spectrum(args):
    # hyp(sigma) with 0 < |sigma| <= 1e-12 has the cosquare spectrum
    # {1/conj(sigma), sigma}, though its representative is nearly singular
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr


def test_arrow_command():
    res = run_cli("arrow", "udz(1)", "delta(-1i)")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "reachable: true"

    res = run_cli("arrow", "pair(1,-1)", "delta(1i)")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "reachable: false"
    assert "DetPhaseGap" in lines[1]

    res = run_cli("arrow", "zero", "zero")
    assert res.returncode == 0
    assert "lazy path" in res.stdout


def test_arrow_pair_to_delta_near_plus_minus_lambda():
    # tau off lambda by 5e-10 or 1e-13: no slack grants the arrow, so it is
    # refused at every delta with DetPhaseGap margin |tau - 1| |tau + 1|
    for target, margin in (("delta(0.99999999999999989+5e-10i)", "1.0000000000000003e-09"),
                           ("delta(1+1e-13i)", "2.0000000000000001e-13")):
        for delta in ("1e-4", "5e-10"):
            res = run_cli("arrow", "pair(1,-1)", target, "--delta", delta)
            assert res.returncode == 0, res.stderr
            assert res.stdout.splitlines() == ["reachable: false", f"certificate: DetPhaseGap  margin {margin}"]


def test_witness_tiny_delta_is_a_domain_error():
    # E[0,0] is the difference of (S* N S)[0,0] and lam, both of modulus 1, so
    # its rounding bound, about 2e-15, cannot fit a budget of 1e-170
    res = run_cli("witness", "udz(1)", "delta(-1i)", "--delta", "1e-170")
    assert res.returncode == 1
    assert res.stderr.startswith("error: witness verification failed")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["witness", "arrow"])
def test_witness_udz_to_hyp_near_the_unit_circle_exits_cleanly(command):
    # |sigma| < 1, but alpha^2 + beta^2 - 1 rounds to 0 for this sigma
    res = run_cli(command, "udz(1)", "hyp(0.74353246951357754+0.66869983309332504i)")
    assert res.returncode in (0, 1), res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    # source + E is nearly singular (relative determinant 2.25e-16), but the
    # congruence itself is certified
    ("witness", "udz(1)", "delta(-1i)", "--delta", "1e-7"),
    # a target about 1e-7 off pair(m, -m): classify calls source + E delta(m),
    # though the congruence is certified
    ("arrow", "udz(0.99298409166059098+0.11824801778038843i)",
     "pair(0.49202956955240412-0.87057848737840748i,-0.49202948249455292+0.87057853658136009i)"),
])
def test_witness_needs_no_classification(args):
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


@pytest.mark.parametrize("delta", ["1e-9", "1e-12", "1e-13", "1e-14"])
def test_witness_halves_past_a_refused_scale(delta):
    # a scale giving ||E|| = delta would leave the rounding bound on E[0,0] no
    # room; the closed-form scale gives delta / 12 here, with room to spare
    from test_perturb import assert_exact_witness

    from starcong import Hyperbolic, UnitDirectZero, witness
    from starcong.jsonutil import render_json

    res = run_cli("witness", "udz(1)", "hyp(0)", "--delta", delta, "--format", "json")
    assert res.returncode == 0, res.stderr
    w = witness(UnitDirectZero(1), Hyperbolic(0), float(delta))
    assert w.norm_E <= float(delta) / 2
    assert json.loads(res.stdout)["outputs"]["witness"] == json.loads(render_json(w.to_json_dict()))
    assert_exact_witness(UnitDirectZero(1), Hyperbolic(0), float(delta), w)


def test_witness_from_zero_at_tiny_delta_verifies():
    # source + E = (delta / ||N||) N: the norm scales, so nothing underflows
    res = run_cli("witness", "zero", "pair(1,1i)", "--delta", "1e-170")
    assert res.returncode == 0, res.stderr
    assert "source + E lies in class pair(1,1i)" in res.stdout
    assert res.stderr == ""


@pytest.mark.parametrize("text", ["1e-170,0;0,1e-170i", "1e170,0;0,1e170i"])
def test_classify_extreme_scale(text):
    res = run_cli("classify", text)
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "pair(1,1i)  codim 2"
    assert res.stderr == ""


def test_classify_overflowing_norm():
    # every entry is finite but the Frobenius norm exceeds the largest double
    big = run_cli("classify", "1e308,1e308;1e308,1e308i")
    assert big.returncode == 0, big.stderr
    assert big.stdout == run_cli("classify", "1,1;1,1i").stdout


def test_certificate_margin_is_a_json_number():
    import json
    import math

    res = run_cli("arrow", "pair(1,1)", "hyp(5e-324)", "--format", "json")
    assert res.returncode == 0, res.stderr
    margin = json.loads(res.stdout)["outputs"]["certificate"]["margin"]
    assert isinstance(margin, float) and math.isfinite(margin)


def test_witness_command():
    res = run_cli("witness", "zero", "hyp(0.5)", "--delta", "1e-3")
    assert res.returncode == 0
    assert "||E||" in res.stdout
    assert "source + E lies in class hyp(0.5)" in res.stdout

    res = run_cli("witness", "udz(1)", "delta(1i)")
    assert res.returncode == 1
    assert "HalfPlaneMargin" in res.stderr


def test_printed_matrices_reparse():
    from starcong.cli import parse_matrix
    from starcong import witness, Zero, DeltaTau, realize
    import numpy as np

    w = witness(Zero(), DeltaTau(1), 1e-3)
    from starcong.cli import _format_entries

    M = realize(Zero()) + w.E
    assert np.array_equal(parse_matrix(_format_entries(M.ravel().tolist())), M)
    assert np.array_equal(parse_matrix(_format_entries(w.E.ravel().tolist())), w.E)


def test_graph_golden_file():
    res = run_cli("graph", *SEVEN_CLASS)
    assert res.returncode == 0
    assert res.stdout == GOLDEN.read_text()


#: 13 forms, one more than the udz rows' Python loop takes, with udz -> delta
#: arrows that an antipodal pair implies; tests/data/golden_13vertex.dot is their DOT.
THIRTEEN = ["zero", "udz(1)", "udz(1i)", "udz(-1)", "pair(1,-1)", "pair(1,1)", "pair(1,1i)", "pair(0.6+0.8i,-0.6-0.8i)",
            "hyp(0)", "hyp(0.3)", "delta(1)", "delta(-1)", "delta(1i)"]


def test_graph_array_path_golden_file():
    res = run_cli("graph", *THIRTEEN)
    assert res.returncode == 0
    assert res.stdout == GOLDEN_13.read_text()


def test_graph_stdout_closed_mid_stream_is_a_quiet_exit_141():
    # 120 udz and 120 hyp forms make 14400 edge lines, about 0.9 MB of DOT:
    # more than the pipe and both ends' buffers hold, so the process is
    # still writing when its reader goes away after the first line
    forms = [f"udz({math.cos(k / 20):.17g}{math.sin(k / 20):+.17g}i)" for k in range(120)]
    forms += [f"hyp({k / 200})" for k in range(120)]
    with subprocess.Popen([sys.executable, "-m", "starcong", "graph", *forms], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=src_env()) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=300)
    assert first == b"digraph closure {\n"
    assert err == b""
    assert proc.returncode == 141


def test_graph_duplicate_exit_2():
    res = run_cli("graph", "zero", "zero")
    assert res.returncode == 2


def test_graph_empty():
    res = run_cli("graph")
    assert res.returncode == 0
    assert res.stdout.startswith("digraph closure {")


def test_graph_json_format():
    import json

    res = run_cli("graph", "zero", "udz(1)", "hyp(0)", "--format", "json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["outputs"]["vertices"] == ["zero", "udz(1)", "hyp(0)"]
    assert out["outputs"]["edges"] == [[0, 1], [1, 2]]


def test_sample_command_deterministic_bytes():
    a = run_cli("sample", "pair(1,1)", "--delta", "1e-3", "--samples", "2000",
                "--seed", "5", "--format", "json")
    b = run_cli("sample", "pair(1,1)", "--delta", "1e-3", "--samples", "2000",
                "--seed", "5", "--format", "json")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli("sample", "pair(1,1)", "--delta", "1e-3", "--samples", "2000",
                "--seed", "6", "--format", "json")
    assert a.stdout != c.stdout


@pytest.mark.parametrize("seed, code", [("0", 0), ("18446744073709551615", 0),
                                        ("-1", 2), ("18446744073709551616", 2), ("18446744073709551617", 2)])
def test_sample_seed_range(seed, code, capsys):
    from starcong.cli import main

    assert main(["sample", "zero", "--samples", "10", "--seed", seed]) == code
    assert capsys.readouterr().err == ("error: seed must lie in [0, 2^64)\n" if code else "")


@pytest.mark.parametrize("delta", ["0", "nan", "0.2"])
def test_witness_bad_delta_is_usage_error(delta):
    # an arrow with a witness, and a non-arrow that needs none
    for args in (("witness", "udz(1)", "delta(-1i)"), ("arrow", "pair(1,-1)", "delta(1i)", "--format", "json")):
        res = run_cli(*args, "--delta", delta)
        assert res.returncode == 2
        assert "delta must lie in (0, 0.1]" in res.stderr


def test_witness_command_deterministic_bytes():
    args = ("witness", "pair(1,-1)", "delta(1)", "--delta", "1e-4", "--format", "json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_selftest():
    res = run_cli("selftest")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "ok" in res.stdout
    # selftest prints text only; it has no --format option
    assert run_cli("selftest", "--format", "json").returncode == 2


def test_selftest_reports_a_failing_suite(monkeypatch, capsys):
    from starcong import cli

    monkeypatch.setattr(cli, "tangent_space_dim", lambda M: -1)
    assert cli.main(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  codim table and deformation profiles",
        "ok  classification round-trips",
        "ok  witnesses and obstruction certificates",
        "FAIL  1 selftest suite(s) failed",
    ]


@pytest.mark.parametrize("seed, code", [("0", 0), ("18446744073709551600", 0), ("-1", 2),
                                        ("18446744073709551601", 2), ("18446744073709551616", 2)])
def test_selftest_seed_range(seed, code, capsys):
    # the round trips draw the 16 grid members from seeds seed .. seed + 15,
    # which must all lie in [0, 2^64); the top seed is 2^64 - 16
    from starcong.cli import main

    assert main(["selftest", "--seed", seed]) == code
    out = capsys.readouterr()
    assert out.err == ("error: seed must lie in [0, 2^64 - 16]\n" if code else "")
    assert out.out.endswith("ok  all selftest suites passed\n") if code == 0 else out.out == ""


def test_usage_error_exit_code():
    assert run_cli("no-such-command").returncode == 2
    assert run_cli().returncode == 2


@pytest.mark.parametrize("args", [
    ("codim", "udz(1)", "--format", "json"),
    ("codim", "udz(1)"),
    ("classify", "0,1;1,1i"),
    ("graph", *SEVEN_CLASS),
])
def test_closed_stdout_is_a_quiet_exit_141(args):
    # the reader of stdout has exited before the process writes, as after a
    # `| head -1` that already returned: nothing on stderr (no traceback), and
    # 128 + SIGPIPE, not the domain-refusal code 1
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run([sys.executable, "-m", "starcong", *args], stdout=write_end,
                             stderr=subprocess.PIPE, text=True, env=src_env(), timeout=300)
    finally:
        os.close(write_end)
    assert res.stderr == ""
    assert res.returncode == 141


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    from starcong import __version__

    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__


NO_NUMPY_PROBE = """
import contextlib, io, sys
import starcong
assert "numpy" not in sys.modules, "import starcong"
assert not [m for m in sys.modules if m.startswith("starcong.")], "import starcong"
assert set(starcong.__all__) <= set(dir(starcong)), "dir(starcong)"
from starcong import cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(code)
print(*sorted(m for m in ("numpy", "dataclasses", "inspect", "fractions", "decimal", "starcong.closure",
                         "starcong.perturb", "starcong.rng") if m in sys.modules))
"""


def run_no_numpy_probe(*args):
    """Run ``cli.main(args)`` in a fresh process.

    Its stdout is the exit code, if any, then which of numpy, dataclasses,
    inspect, fractions, decimal, ``starcong.closure``, ``starcong.perturb``
    and ``starcong.rng`` loaded.
    """
    return subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE, *args],
                          capture_output=True, text=True, env=src_env(), timeout=300)


def test_graph_json_streams_the_whole_report():
    # the edges are written row by row, in index order, zero's row where its
    # index falls: the bytes are render_json's of the whole report, on the
    # loop path (at most 12 forms) and the array path, zero first, in the
    # middle and last, and with no edges
    import contextlib
    import io

    from starcong import __version__, cli, format_form, hasse_subgraph, parse_form
    from starcong.jsonutil import render_json

    texts = ["zero", "udz(1)", "udz(1i)", "udz(-1)", "pair(1,-1)", "pair(1,1)", "pair(1,1i)",
             "pair(0.6+0.8i,-0.6-0.8i)", "hyp(0)", "hyp(0.3)", "delta(1)", "delta(-1)", "delta(1i)", "delta(-1i)"]
    forms = [parse_form(t) for t in texts]
    for verts in (forms, forms[::-1], forms[7:] + forms[:7], forms[:6], forms[9:10], []):
        args = [format_form(v) for v in verts]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["graph", *args, "--format", "json"]) == 0
        edges = hasse_subgraph(verts).edges.tolist()
        assert bool(edges) == (len(verts) > 1)
        report = {"command": "graph", "version": __version__, "inputs": {"forms": args},
                  "outputs": {"vertices": args, "edges": edges}}
        assert out.getvalue() == render_json(report) + "\n"


SEVEN_FORMS = ("zero", "udz(1)", "pair(1,1i)", "pair(1,-1)", "hyp(0.3)", "delta(1)", "delta(1i)")


@pytest.mark.parametrize("args", [
    (),
    ("codim", "udz(1)"),
    ("arrow", "udz(1)", "pair(1,1i)"),                          # witness
    ("arrow", "pair(1,1i)", "hyp(0.3)"),                        # CodimMonotonicity
    ("arrow", "udz(1)", "delta(1i)", "--format", "json"),       # HalfPlaneMargin
    ("arrow", "pair(1,1)", "hyp(0.5)"),                         # SpectrumGap
    ("arrow", "pair(1,-1)", "delta(1i)"),                       # DetPhaseGap
    ("witness", "zero", "hyp(0.3)"),
    ("witness", "udz(1)", "delta(1)", "--format", "json"),
    ("classify", "0,1;1,1i"),                                   # inline, delta(1)
    ("classify", '{"m":[["0","1"],["1","1i"]]}', "--format", "json"),
    ("classify", "0,0;0,0"),                                    # the zero branch
    ("selftest",),
    ("selftest", "--seed", "3"),
    ("graph", *SEVEN_FORMS),
    ("graph", *SEVEN_FORMS, "--format", "json"),
])
def test_scalar_commands_leave_numpy_unloaded(args):
    # no scalar subcommand loads numpy, dataclasses or inspect, the exact rank
    # runs on Python ints without fractions or decimal, classify and codim
    # load neither closure nor perturb, arrow and witness not rng (only the
    # sampler and selftest's random congruences use it), and graph on a few
    # forms loads closure
    res = run_no_numpy_probe(*args)
    assert res.returncode == 0, res.stderr
    loaded = {"arrow": "starcong.closure starcong.perturb", "witness": "starcong.closure starcong.perturb",
              "selftest": "starcong.closure starcong.perturb starcong.rng", "graph": "starcong.closure"}
    assert res.stdout == ("0\n" if args else "") + loaded.get(args[0] if args else "", "") + "\n"


def test_graph_past_the_scalar_size_loads_numpy():
    # past 12 forms the udz rows are numpy blocks: 13 forms with a udz load
    # numpy, 13 hyp forms, which have no udz row, do not
    from starcong.closure import _SCALAR_GRAPH_MAX

    hyps = [f"hyp({k / 100})" for k in range(_SCALAR_GRAPH_MAX + 1)]
    for forms, numpy in ((hyps, False), (["udz(1)", *hyps[1:]], True)):
        res = run_no_numpy_probe("graph", *forms)
        assert res.returncode == 0, res.stderr
        code, loaded = res.stdout.split("\n", 1)
        assert code == "0" and "starcong.closure" in loaded.split()
        assert ("numpy" in loaded.split()) == numpy, loaded  # numpy brings inspect


JSON_PROBE = """
import contextlib, io, sys
from starcong import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in ("json", "starcong.jsonutil") if m in sys.modules))
"""


@pytest.mark.parametrize("args, loaded", [
    (("codim", "udz(1)"), ""),
    (("classify", "0,1;1,1i"), ""),
    (("arrow", "udz(1)", "pair(1,1i)"), ""),                    # witness
    (("arrow", "pair(1,1i)", "hyp(0.3)"), ""),                  # certificate
    (("witness", "zero", "hyp(0.3)"), ""),
    (("selftest",), ""),
    (("graph", "zero", "udz(1)"), ""),                          # DOT
    (("classify", '{"m":[["0","1"],["1","1i"]]}'), " json"),    # JSON input, text output
    (("codim", "udz(1)", "--format", "json"), " json starcong.jsonutil"),
])
def test_text_format_commands_leave_json_unloaded(args, loaded):
    # json is imported only to read a JSON matrix, jsonutil only to print a JSON report
    res = subprocess.run([sys.executable, "-c", JSON_PROBE, *args],
                         capture_output=True, text=True, env=src_env(), timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "0" + loaded + "\n"


def test_classify_refuses_nonfinite_input_without_numpy():
    res = run_no_numpy_probe("classify", "1e309,0;0,1")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "2\n\n"
    assert res.stderr == "error: matrix contains NaN or Inf entries\n"


#: One call per subcommand line of the cli-process benchmark rotation.
PROCESS_CASES = [
    ("classify", "--format", "json", "--", "0.3,1;-0.2,1i"),
    ("codim", "udz(0.6+0.8i)", "--format", "json"),
    ("arrow", "udz(1)", "pair(1,1i)", "--format", "json"),
    ("arrow", "pair(1,1i)", "hyp(0.3)", "--format", "json"),
    ("witness", "zero", "hyp(0.3)", "--delta", "1e-3", "--format", "json"),
    ("sample", "pair(1,-1)", "--delta", "1e-3", "--samples", "2000", "--seed", "3", "--format", "json"),
    ("graph", "zero", "udz(1)", "pair(1,1i)", "pair(1,-1)", "hyp(0.3)", "delta(1)", "delta(-1i)"),
    ("selftest", "--seed", "3"),
]


@pytest.mark.parametrize("args", PROCESS_CASES)
def test_fresh_process_prints_what_main_prints(args):
    # this process has numpy loaded; a fresh `classify`, `codim`, `arrow` or
    # `witness` process does not, and must print the same bytes
    import contextlib
    import io

    import numpy  # noqa: F401
    from starcong.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(args))
    res = run_cli(*args)
    assert code == 0
    assert res.returncode == 0 and res.stdout == buf.getvalue()


@pytest.mark.parametrize("args", [args for args in PROCESS_CASES if "json" in args] + [
    ("graph", "zero", "udz(1)", "hyp(0)", "--format", "json"),
])
def test_json_report_envelope(args, capsys):
    from starcong import __version__
    from starcong.cli import main

    assert main(list(args)) == 0
    report = json.loads(capsys.readouterr().out)
    head = ["command", "version", "seed"] if args[0] == "sample" else ["command", "version"]
    assert list(report) == head + ["inputs", "outputs"]
    assert report["command"] == args[0] and report["version"] == __version__
