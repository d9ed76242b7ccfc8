import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_7class.dot"

SEVEN_CLASS = [
    "zero",
    "udz(1)",
    "pair(1,1)",
    "pair(1,-1)",
    "pair(0.70710678118654746+0.70710678118654746i,0.70710678118654746-0.70710678118654746i)",
    "hyp(0.3)",
    "delta(1)",
]


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "starcong", *args],
        capture_output=True, text=True, env=env, timeout=300)


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
    # ambiguous input: relative determinant right at the tolerance
    res = run_cli("classify", "1,0;0,1.2e-9")
    assert res.returncode == 1
    assert "refused" in res.stderr


def test_codim_command():
    res = run_cli("codim", "udz(1)")
    assert res.returncode == 0
    assert res.stdout.strip() == "5"


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
    # a target 1e-13 off the source's class: the spectral gap lies below the
    # SpectrumGap floor, but any positive gap proves the non-arrow
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
    # tau 5e-10 off lambda: E absorbs tau - lambda, so the witness verifies
    res = run_cli("arrow", "pair(1,-1)", "delta(0.99999999999999989+5e-10i)")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "reachable: true"
    assert lines[1].startswith("witness at delta 0.0001")
    assert lines[2].startswith("E = ")


def test_witness_tiny_delta_is_a_domain_error():
    # E[0,0] is the difference of (S* N S)[0,0] and lam, both of modulus 1, so
    # its rounding bound, about 2e-15, cannot fit a budget of 1e-170
    res = run_cli("witness", "udz(1)", "delta(-1i)", "--delta", "1e-170")
    assert res.returncode == 1
    assert res.stderr.startswith("error: witness verification failed")
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
    # the first scale whose ||E|| fits sits at delta itself, leaving the rounding
    # bound on E[0,0] no room; the next halving fits with room to spare
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
    assert "classify(source + E) = pair(1,1i)" in res.stdout
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
    assert "classify(source + E) = hyp(0.5)" in res.stdout

    res = run_cli("witness", "udz(1)", "delta(1i)")
    assert res.returncode == 1
    assert "HalfPlaneMargin" in res.stderr


def test_printed_matrices_reparse():
    from starcong.cli import parse_matrix
    from starcong import witness, Zero, DeltaTau, realize
    import numpy as np

    w = witness(Zero(), DeltaTau(1), 1e-3)
    from starcong.cli import format_matrix

    M = realize(Zero()) + w.E
    assert np.array_equal(parse_matrix(format_matrix(M)), M)
    assert np.array_equal(parse_matrix(format_matrix(w.E)), w.E)


def test_graph_golden_file():
    res = run_cli("graph", *SEVEN_CLASS)
    assert res.returncode == 0
    assert res.stdout == GOLDEN.read_text()


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


def test_usage_error_exit_code():
    assert run_cli("no-such-command").returncode == 2
    assert run_cli().returncode == 2


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    from starcong import __version__

    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__


NO_NUMPY_PROBE = """
import contextlib, io, sys
import starcong
assert "numpy" not in sys.modules, "import starcong"
from starcong import cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, code
print("numpy" in sys.modules)
"""


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
])
def test_scalar_commands_leave_numpy_unloaded(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE, *args],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


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
    # this process has numpy loaded; a fresh `codim`, `arrow` or `witness`
    # process does not, and must print the same bytes
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
