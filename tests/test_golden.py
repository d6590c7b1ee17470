"""Golden regression test: every README CLI command reproduces its captured report.

Strings, ints and bools must match exactly and floats to 1e-12, so a
refactor that keeps the numbers passes and one that changes them fails.
Recapture the files in tests/golden/ only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""
import csv
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from demerlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_TOL = 1e-12

COMMANDS = {
    "lemma-good-as-new": "lemma good-as-new --seed 2",
    "lemma-union": "lemma union --instances 1000 --seed 7",
    "lemma-or-bound": "lemma or-bound --witness-qubits 1 --seed 7 --shots 100000",
    "amplify-plan": "amplify plan --alice 1 --witness 2",
    "amplify-plan-desk": "amplify plan --alice 1 --witness 1 --desk",
    "demerlin-build-rac4": "demerlin build --toy rac4",
    "demerlin-run-rac2": "demerlin run --toy rac2 --seed 3 --shots 20000",
    "demerlin-run-coin": "demerlin run --toy coin --seed 3 --final-vote",
    "demerlin-run-coin-shots": "demerlin run --toy coin --final-vote --shots 20000 --seed 0",
    "rac-audit": "rac audit --n 8 --w 4 --seed 1 --format csv",
    "rac-reduce": "rac reduce --w 4 --n 8",
    "rac-fingerprint": "rac fingerprint --bits 8 --m-bits 6 --trials 10000",
    "advice-ma-fix": "advice ma-fix --n 2 --seed 7",
    "advice-qma-fix": "advice qma-fix --n 3 --seed 7",
    "advice-qcma-train": "advice qcma-train --n 1 --seed 7",
    "advice-qcma-train-n2": "advice qcma-train --n 2 --seed 7",
    "lemma-or-bound-w2": "lemma or-bound --witness-qubits 2 --shots 20000 --seed 7",
    "lemma-or-bound-w3": "lemma or-bound --witness-qubits 3 --seed 7",
    "demerlin-run-rac4": "demerlin run --toy rac4",
}


def _golden_path(name: str) -> Path:
    suffix = ".csv" if "--format csv" in COMMANDS[name] else ".json"
    return GOLDEN / (name + suffix)


def _cell(text: str):
    if text in ("True", "False"):
        return text == "True"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse(path: Path):
    text = path.read_text()
    if path.suffix == ".csv":
        return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]
    return json.loads(text)


def _mismatches(got, want, where="report"):
    if isinstance(want, float) and isinstance(got, float):
        if got == want or abs(got - want) <= FLOAT_TOL:
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def _run(name: str, out: Path) -> int:
    return main(shlex.split(COMMANDS[name]) + ["--out", str(out)])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_matches_golden(name, tmp_path):
    out = tmp_path / _golden_path(name).name
    assert _run(name, out) == 0
    assert _mismatches(_parse(out), _parse(_golden_path(name))) == []


def test_mismatch_tolerances():
    assert _mismatches({"p": 0.25, "ok": True}, {"p": 0.25 + 1e-13, "ok": True}) == []
    assert _mismatches({"p": 0.25}, {"p": 0.25 + 1e-11})
    assert _mismatches({"ok": 1}, {"ok": True})
    assert _mismatches([1, "a"], [1, "b"])


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for cmd in COMMANDS:
        if _run(cmd, _golden_path(cmd)) != 0:
            sys.exit(f"{cmd}: exit code is not 0")
