"""Command-line interface.

Subcommands: classify, codim, arrow, witness, sample, graph, selftest.
Matrices are written inline as ``a11,a12;a21,a22`` with complex literals, or
as JSON ``{"m":[["..",".."],["..",".."]]}``.  Exit codes: 0 success,
1 domain refusal (no arrow, ambiguous classification), 2 usage or parse
errors, 141 (128 + SIGPIPE) when the reader of stdout went away before the
output was written.  Output is byte-stable for fixed arguments and version.

Under ``--format json`` every subcommand but selftest prints one report with
the keys ``command``, ``version``, ``inputs`` and ``outputs`` in that order;
``sample`` adds ``seed`` after ``version``.

Every subcommand loads ``forms``, ``stratify``, ``linalg`` and ``errors``;
``jsonutil`` is loaded only to print a JSON report and ``json`` only to read
a JSON matrix or print a report.  Each handler imports what else it runs:
``codim`` nothing more; ``classify`` ``canonical``; ``arrow``
and ``witness`` ``perturb`` (with ``closure`` and ``rng``); ``graph``
``closure``; ``sample`` ``perturb`` and ``canonical``; ``selftest`` all of
these.  ``classify``, ``codim``, ``arrow``, ``witness``, ``selftest``, and
``graph`` on at most 12 forms (``closure._SCALAR_GRAPH_MAX``) or on no udz
form, run on Python scalars and never import numpy; only ``sample``, and
``graph`` on more than 12 forms with a udz among them, load it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .errors import (
    AmbiguousClassification,
    DuplicateVertex,
    FormSyntaxError,
    InvalidInput,
    NoArrow,
    StarcongError,
)
from .forms import (DeltaTau, Hyperbolic, UnitDirectZero, UnitPair, Zero, _entries, format_complex, format_form,
                    forms_close, parse_complex, parse_form)
from .stratify import codimension, tangent_space_dim, versal_profile

USAGE_ERROR = 2
DOMAIN_ERROR = 1
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that signal ended


def parse_matrix(text: str) -> list[list[complex]]:
    text = text.strip()
    if text.startswith("{"):
        import json

        try:
            rows = json.loads(text)["m"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FormSyntaxError(f"bad JSON matrix: {exc}") from exc
    else:
        rows = [r.split(",") for r in text.split(";")]
    if not (type(rows) is list and len(rows) == 2 and all(type(r) is list and len(r) == 2 for r in rows)):
        raise FormSyntaxError("matrix must have 2 rows of 2 entries")
    return [[parse_complex(str(e)) for e in row] for row in rows]


def _format_entries(m) -> str:
    """``m00,m01;m10,m11`` for the entries (m00, m01, m10, m11) of a 2x2 matrix."""
    return ";".join(",".join(format_complex(z) for z in row) for row in (m[:2], m[2:]))


def _emit(args, inputs: dict, outputs: dict, lines, **head) -> int:
    """Print the report envelope under ``--format json``, else the text ``lines``."""
    if args.format == "json":
        from .jsonutil import render_json

        print(render_json({"command": args.cmd, "version": __version__, **head, "inputs": inputs, "outputs": outputs}))
    else:
        print(*lines, sep="\n")
    return 0


def _cmd_classify(args) -> int:
    from .canonical import classify

    M = parse_matrix(args.matrix)
    rep = classify(M, args.tol)
    cd = codimension(rep.form)
    form_text = format_form(rep.form)
    return _emit(
        args,
        {"matrix": _format_entries(M[0] + M[1]), "tol": args.tol},
        {"form": form_text, "codim": cd, "margin": rep.margin, "scale": rep.scale},
        [f"{form_text}  codim {cd}", f"margin {rep.margin:.17g}"],
    )


def _cmd_codim(args) -> int:
    form = parse_form(args.form)
    cd = codimension(form)
    profile = versal_profile(form)
    outputs = {
        "codim": cd,
        "versal_grid": [list(row) for row in profile.grid],
        "star_count": profile.star_count,
        "eps_count": profile.eps_count,
    }
    return _emit(args, {"form": format_form(form)}, outputs, [str(cd)])


def _cmd_arrow(args) -> int:
    from .closure import reachable
    from .perturb import _check_delta, no_arrow_certificate, witness

    src = parse_form(args.source)
    dst = parse_form(args.target)
    _check_delta(args.delta)
    ok = reachable(src, dst)
    outputs: dict = {"reachable": ok}
    lines = [f"reachable: {'true' if ok else 'false'}"]
    if ok and src != dst:
        w = witness(src, dst, args.delta)
        outputs["witness"] = w.to_json_dict()
        lines.append(f"witness at delta {args.delta:.17g}: ||E|| = {w.norm_E:.17g}")
        lines.append(f"E = {_format_entries(w.E_entries)}")
    elif ok:
        lines.append("lazy path of length 0")
    else:
        cert = no_arrow_certificate(src, dst)
        outputs["certificate"] = cert.to_json_dict()
        lines.append(f"certificate: {cert.kind}  margin {cert.margin:.17g}")
    inputs = {"source": format_form(src), "target": format_form(dst), "delta": args.delta}
    return _emit(args, inputs, outputs, lines)


def _cmd_witness(args) -> int:
    from .perturb import witness

    src = parse_form(args.source)
    dst = parse_form(args.target)
    w = witness(src, dst, args.delta)
    perturbed = [m + e for m, e in zip(_entries(src), w.E_entries)]
    return _emit(
        args,
        {"source": format_form(src), "target": format_form(dst), "delta": args.delta},
        {"witness": w.to_json_dict(), "perturbed": _format_entries(perturbed), "certified_form": format_form(dst)},
        [
            f"E = {_format_entries(w.E_entries)}",
            f"||E|| = {w.norm_E:.17g} <= delta = {args.delta:.17g}",
            f"source + E lies in class {format_form(dst)}",
        ],
    )


def _cmd_sample(args) -> int:
    from .perturb import sample_neighborhood

    form = parse_form(args.form)
    rep = sample_neighborhood(form, args.delta, args.samples, args.seed)
    hist = "  ".join(f"{k}:{v}" for k, v in rep.histogram.items() if v)
    drift = "none" if rep.max_spectrum_drift is None else f"{rep.max_spectrum_drift:.17g}"
    return _emit(
        args,
        {"form": format_form(form), "delta": args.delta, "samples": args.samples},
        rep.to_json_dict(),
        [f"histogram {hist}", f"max spectrum drift {drift}"],
        seed=args.seed,
    )


def _cmd_graph(args) -> int:
    from .closure import hasse_subgraph, to_dot

    forms = [parse_form(t) for t in args.forms]
    graph = hasse_subgraph(forms)
    if args.format == "dot":
        to_dot(graph, sys.stdout)  # written as made: 10^4 forms give half a GB of DOT
        return 0
    outputs = {"vertices": [format_form(v) for v in graph.vertices], "edges": graph._pair_list()}
    return _emit(args, {"forms": [format_form(f) for f in forms]}, outputs, [])


def _cmd_selftest(args) -> int:
    grid = _selftest_grid()
    if not 0 <= args.seed <= 2**64 - len(grid):  # the round trips use seeds seed .. seed + len(grid) - 1
        raise InvalidInput(f"seed must lie in [0, 2^64 - {len(grid)}]")
    suites = (
        ("codim table and deformation profiles", _codims_agree),
        ("classification round-trips", lambda forms: _round_trips(forms, args.seed)),
        ("witnesses and obstruction certificates", _arrows_certified),
    )
    failures = 0
    for name, passes in suites:
        ok = passes(grid)
        failures += not ok
        print(f"{'ok' if ok else 'FAIL'}  {name}")
    if failures:
        print(f"FAIL  {failures} selftest suite(s) failed")
        return DOMAIN_ERROR
    print("ok  all selftest suites passed")
    return 0


def _selftest_grid() -> list:
    u = [complex(math.cos(t), math.sin(t)) for t in (math.pi * k / 7.0 + 0.05 for k in range(4))]
    return [
        Zero(), *map(UnitDirectZero, u),
        UnitPair(u[0], u[3]), *(UnitPair(v, v) for v in u[:2]), *(UnitPair(v, -v) for v in u[:2]),
        Hyperbolic(0.3), Hyperbolic(0.1 + 0.2j), *map(DeltaTau, u),
    ]


def _rows(form):
    """The representative of ``form`` as two rows of Python complex, read by classify and the rank without numpy."""
    m = _entries(form)
    return [m[:2], m[2:]]


def _codims_agree(grid) -> bool:
    return all(
        codimension(form) == 8 - tangent_space_dim(_rows(form)) == 2 * profile.star_count + profile.eps_count
        for form, profile in zip(grid, map(versal_profile, grid))
    )


def _round_trips(grid, seed: int) -> bool:
    from .canonical import classify, random_congruence

    return all(
        forms_close(classify(_rows(form)).form, form, 1e-9)
        and forms_close(classify(random_congruence(form, seed + k)[1]).form, form, 1e-6)
        for k, form in enumerate(grid)
    )


def _arrows_certified(grid) -> bool:
    from .closure import reachable
    from .perturb import no_arrow_certificate, witness

    try:
        for src, dst in ((s, d) for s in grid for d in grid if s != d):
            if reachable(src, dst):
                witness(src, dst, 1e-4)
            elif not no_arrow_certificate(src, dst).margin > 0:
                return False
    except StarcongError:
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starcong",
        description="canonical forms of 2x2 complex matrices under *congruence "
                    "and their perturbation closure graph",
    )
    parser.add_argument("--version", action="version", version=f"starcong {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p, delta=None, fmt=("text", "json")):
        p.add_argument("--format", choices=fmt, default=fmt[0])
        if delta is not None:
            p.add_argument("--delta", type=float, default=delta)

    p = sub.add_parser("classify", help="canonical form of a matrix")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=1e-9)
    add_common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("codim", help="codimension and deformation profile of a form")
    p.add_argument("form")
    add_common(p)
    p.set_defaults(fn=_cmd_codim)

    p = sub.add_parser("arrow", help="closure-arrow query with witness or certificate")
    p.add_argument("source")
    p.add_argument("target")
    add_common(p, delta=1e-4)
    p.set_defaults(fn=_cmd_arrow)

    p = sub.add_parser("witness", help="explicit perturbation realizing an arrow")
    p.add_argument("source")
    p.add_argument("target")
    add_common(p, delta=1e-4)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("sample", help="classify a Monte Carlo sample of a neighborhood")
    p.add_argument("form")
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, delta=1e-4)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("graph", help="Hasse subgraph of the closure order")
    p.add_argument("forms", nargs="*")
    add_common(p, fmt=("dot", "json"))
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away: point stdout at /dev/null so the
        # flush at shutdown is silent (the Python docs' note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (FormSyntaxError, DuplicateVertex, InvalidInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NoArrow, AmbiguousClassification) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except StarcongError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
