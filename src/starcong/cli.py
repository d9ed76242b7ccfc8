"""Command-line interface.

Subcommands: classify, codim, arrow, witness, sample, graph, selftest.
Matrices are written inline as ``a11,a12;a21,a22`` with complex literals, or
as JSON ``{"m":[["..",".."],["..",".."]]}``.  Exit codes: 0 success,
1 domain refusal (no arrow, ambiguous classification), 2 usage or parse
errors.  Output is byte-stable for fixed arguments and version.

``codim``, ``arrow`` and ``witness`` run on Python scalars and never import
numpy; ``classify``, ``sample``, ``graph`` and ``selftest`` load it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .closure import hasse_subgraph, reachable, to_dot
from .errors import (
    AmbiguousClassification,
    DuplicateVertex,
    FormSyntaxError,
    InvalidInput,
    NoArrow,
    StarcongError,
)
from .forms import _entries, format_complex, format_form, parse_complex, parse_form, forms_close, realize
from .jsonutil import render_json
from .perturb import _check_delta, no_arrow_certificate, sample_neighborhood, witness
from .stratify import codimension, tangent_space_dim, versal_profile

USAGE_ERROR = 2
DOMAIN_ERROR = 1


def parse_matrix(text: str) -> np.ndarray:
    text = text.strip()
    if text.startswith("{"):
        try:
            rows = json.loads(text)["m"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FormSyntaxError(f"bad JSON matrix: {exc}") from exc
    else:
        rows = [r.split(",") for r in text.split(";")]
    if not (type(rows) is list and len(rows) == 2 and all(type(r) is list and len(r) == 2 for r in rows)):
        raise FormSyntaxError("matrix must have 2 rows of 2 entries")
    import numpy as np

    return np.array([parse_complex(str(e)) for row in rows for e in row], dtype=np.complex128).reshape(2, 2)


def format_matrix(M: np.ndarray) -> str:
    return _format_entries(M.ravel().tolist())


def _format_entries(m) -> str:
    """``m00,m01;m10,m11`` for the entries (m00, m01, m10, m11) of a 2x2 matrix."""
    return ";".join(",".join(format_complex(z) for z in row) for row in (m[:2], m[2:]))


def _emit(report: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(render_json(report))
    else:
        for line in text_lines:
            print(line)


def _cmd_classify(args) -> int:
    from .canonical import classify

    M = parse_matrix(args.matrix)
    rep = classify(M, args.tol)
    cd = codimension(rep.form)
    form_text = format_form(rep.form)
    report = {
        "command": "classify",
        "version": __version__,
        "inputs": {"matrix": format_matrix(M), "tol": args.tol},
        "outputs": {"form": form_text, "codim": cd, "margin": rep.margin, "scale": rep.scale},
    }
    _emit(report, args.format, [f"{form_text}  codim {cd}", f"margin {rep.margin:.17g}"])
    return 0


def _cmd_codim(args) -> int:
    form = parse_form(args.form)
    cd = codimension(form)
    profile = versal_profile(form)
    report = {
        "command": "codim",
        "version": __version__,
        "inputs": {"form": format_form(form)},
        "outputs": {
            "codim": cd,
            "versal_grid": [list(row) for row in profile.grid],
            "star_count": profile.star_count,
            "eps_count": profile.eps_count,
        },
    }
    _emit(report, args.format, [str(cd)])
    return 0


def _cmd_arrow(args) -> int:
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
    report = {
        "command": "arrow",
        "version": __version__,
        "inputs": {"source": format_form(src), "target": format_form(dst), "delta": args.delta},
        "outputs": outputs,
    }
    _emit(report, args.format, lines)
    return 0


def _cmd_witness(args) -> int:
    src = parse_form(args.source)
    dst = parse_form(args.target)
    w = witness(src, dst, args.delta)
    perturbed = [m + e for m, e in zip(_entries(src), w.E_entries)]
    report = {
        "command": "witness",
        "version": __version__,
        "inputs": {"source": format_form(src), "target": format_form(dst), "delta": args.delta},
        "outputs": {
            "witness": w.to_json_dict(),
            "perturbed": _format_entries(perturbed),
            "certified_form": format_form(dst),
        },
    }
    _emit(
        report,
        args.format,
        [
            f"E = {_format_entries(w.E_entries)}",
            f"||E|| = {w.norm_E:.17g} <= delta = {args.delta:.17g}",
            f"source + E lies in class {format_form(dst)}",
        ],
    )
    return 0


def _cmd_sample(args) -> int:
    form = parse_form(args.form)
    rep = sample_neighborhood(form, args.delta, args.samples, args.seed)
    report = {
        "command": "sample",
        "version": __version__,
        "seed": args.seed,
        "inputs": {"form": format_form(form), "delta": args.delta, "samples": args.samples},
        "outputs": rep.to_json_dict(),
    }
    hist = "  ".join(f"{k}:{v}" for k, v in rep.histogram.items() if v)
    drift = "none" if rep.max_spectrum_drift is None else f"{rep.max_spectrum_drift:.17g}"
    _emit(report, args.format, [f"histogram {hist}", f"max spectrum drift {drift}"])
    return 0


def _cmd_graph(args) -> int:
    forms = [parse_form(t) for t in args.forms]
    graph = hasse_subgraph(forms)
    if args.format == "json":
        report = {
            "command": "graph",
            "version": __version__,
            "inputs": {"forms": [format_form(f) for f in forms]},
            "outputs": {
                "vertices": [format_form(v) for v in graph.vertices],
                "edges": graph.edges.tolist(),
            },
        }
        print(render_json(report))
    else:
        sys.stdout.write(to_dot(graph))
    return 0


def _cmd_selftest(args) -> int:
    failures = 0
    failures += _selftest_codim_table()
    failures += _selftest_round_trip(args.seed)
    failures += _selftest_certificates()
    if failures:
        print(f"FAIL  {failures} selftest suite(s) failed")
        return DOMAIN_ERROR
    print("ok  all selftest suites passed")
    return 0


def _selftest_grid():
    import math as _m

    phases = [_m.pi * k / 7.0 + 0.05 for k in range(8)]
    units = [complex(_m.cos(t), _m.sin(t)) for t in phases]
    forms = [parse_form("zero")]
    forms += [parse_form(f"udz({format_complex(u)})") for u in units[:4]]
    forms += [parse_form(f"pair({format_complex(units[0])},{format_complex(units[3])})")]
    forms += [parse_form(f"pair({format_complex(u)},{format_complex(u)})") for u in units[:2]]
    forms += [parse_form(f"pair({format_complex(u)},{format_complex(-u)})") for u in units[:2]]
    forms += [parse_form("hyp(0.3)"), parse_form("hyp(0.1+0.2i)")]
    forms += [parse_form(f"delta({format_complex(u)})") for u in units[:4]]
    return forms


def _selftest_codim_table() -> int:
    bad = 0
    for form in _selftest_grid():
        cd = codimension(form)
        profile = versal_profile(form)
        if cd != 8 - tangent_space_dim(realize(form)) or 2 * profile.star_count + profile.eps_count != cd:
            bad += 1
    print(("ok" if bad == 0 else "FAIL") + "  codim table and deformation profiles")
    return 1 if bad else 0


def _selftest_round_trip(seed: int) -> int:
    from .canonical import classify, random_congruence

    bad = 0
    for k, form in enumerate(_selftest_grid()):
        got = classify(realize(form)).form
        if not forms_close(got, form, 1e-9):
            bad += 1
        _, member = random_congruence(form, seed + k)
        got = classify(member).form
        if not forms_close(got, form, 1e-6):
            bad += 1
    print(("ok" if bad == 0 else "FAIL") + "  classification round-trips")
    return 1 if bad else 0


def _selftest_certificates() -> int:
    bad = 0
    grid = _selftest_grid()
    for src in grid:
        for dst in grid:
            if src == dst:
                continue
            try:
                if reachable(src, dst):
                    witness(src, dst, 1e-4)
                else:
                    cert = no_arrow_certificate(src, dst)
                    if not cert.margin > 0:
                        bad += 1
            except StarcongError:
                bad += 1
    print(("ok" if bad == 0 else "FAIL") + "  witnesses and obstruction certificates")
    return 1 if bad else 0


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
        return args.fn(args)
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
