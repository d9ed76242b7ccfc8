"""``no_arrow_certificate`` on every ordered pair of a fixed form set, byte for byte.

Each line of ``data/golden_certificates.jsonl`` holds one ordered pair of
forms and the certificate's JSON, or the class and message of the error the
call raised (ArrowExists, or InvalidInput for a pair of equal forms).  The
forms are the union of the 7-class and 13-vertex golden sets of
``test_cli`` and the 28 far vertices of the closure-arrow benchmark at seed
1.  Rewrite the file with

    PYTHONPATH=src python tests/test_golden_certificates.py
"""

import json
import sys
from pathlib import Path

from starcong import Hyperbolic, StarcongError, UnitPair, format_form, no_arrow_certificate, parse_form
from starcong.perturb import CERTIFICATE_KINDS

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_certificates.jsonl"


def golden_line(source, target) -> str:
    """The JSON line of one ordered pair: its certificate, or the error it raised."""
    line = {"source": format_form(source), "target": format_form(target)}
    try:
        line["certificate"] = no_arrow_certificate(source, target).to_json_dict()
    except StarcongError as exc:
        line["error"], line["message"] = type(exc).__name__, str(exc)
    return json.dumps(line)


def test_certificates_golden_bytes():
    lines = GOLDEN.read_text().splitlines()
    pairs = [(rec["source"], rec["target"]) for rec in map(json.loads, lines)]
    texts = list(dict.fromkeys(s for s, _ in pairs))
    assert len(texts) == 40 and pairs == [(s, t) for s in texts for t in texts]
    forms = {t: parse_form(t) for t in texts}
    assert all(format_form(f) == t for t, f in forms.items())
    got = [golden_line(forms[s], forms[t]) for s, t in pairs]
    assert got == lines


def test_certificate_data_holds_numbers():
    # data keeps the certificate's numbers; to_json_dict formats the complex
    # ones, and gives the golden line's certificate for one pair of each kind
    lines = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    first = {}
    for rec in lines:
        if "certificate" in rec:
            first.setdefault(rec["certificate"]["kind"], rec)
    assert sorted(first) == sorted(CERTIFICATE_KINDS)
    types = {
        "codim_source": int, "codim_target": int, "lambda": complex, "im_lambda_conj_tau": float,
        "spectrum_source": tuple, "spectrum_target": tuple, "det_source": complex, "det_target": complex,
        "det_phase_source": complex, "det_phase_target": complex, "rank_source_sum": int, "rank_target_sum": int,
    }
    for kind, rec in first.items():
        cert = no_arrow_certificate(parse_form(rec["source"]), parse_form(rec["target"]))
        assert cert.kind == kind and cert.data
        for key, value in cert.data.items():
            assert type(value) is types[key], (kind, key, value)
            if type(value) is tuple:
                assert len(value) == 2 and all(type(z) is complex for z in value), (kind, key, value)
        assert cert.to_json_dict() == rec["certificate"]
    cert = no_arrow_certificate(UnitPair(1, 1), Hyperbolic(0.3))
    assert cert.data["spectrum_source"] == (1 + 0j, 1 + 0j)
    assert cert.to_json_dict()["data"]["spectrum_source"] == ["1", "1"]
    pair = (format_form(UnitPair(1, 1)), format_form(Hyperbolic(0.3)))
    golden = next(rec for rec in lines if (rec["source"], rec["target"]) == pair)
    assert cert.to_json_dict() == golden["certificate"]


def _golden_forms() -> list:
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "bench"))
    sys.path.insert(0, str(root / "tests"))
    from test_cli import SEVEN_CLASS, THIRTEEN
    from workloads import ClosureArrow

    far = [form for form, _, _ in ClosureArrow(1, root)._vertex_set(0)]
    return list(dict.fromkeys([parse_form(t) for t in SEVEN_CLASS + THIRTEEN] + far))


if __name__ == "__main__":
    verts = _golden_forms()
    GOLDEN.write_text("".join(golden_line(s, t) + "\n" for s in verts for t in verts))
