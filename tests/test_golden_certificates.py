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

from starcong import StarcongError, format_form, no_arrow_certificate, parse_form

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
