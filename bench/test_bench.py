"""Tests of the benchmark itself: tracing, repeatable counts, the output check.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import demerlab.demerlin  # noqa: E402
import demerlab.protocol  # noqa: E402
from demerlab.amplify import identity_plan  # noqa: E402
from demerlab.toys import coin_protocol  # noqa: E402

from check import binomial_agrees, check_job, parse_report  # noqa: E402
from layers import Tracer, layer_totals  # noqa: E402
from workloads import build_jobs, run_pass  # noqa: E402


def _traced_pass(jobs):
    tracer = Tracer()
    tracer.install()
    try:
        results = run_pass(jobs)
    finally:
        tracer.uninstall()
    return results, tracer.spans


def test_call_through_aliased_import_is_counted_and_restored():
    original = demerlab.protocol.rest_projector
    p, _ = coin_protocol()
    d = demerlab.demerlin.demerlinize(p, identity_plan(1, 1))
    tracer = Tracer()
    tracer.install()
    try:
        # demerlin binds its own name via `from .protocol import rest_projector`
        assert demerlab.demerlin.rest_projector is demerlab.protocol.rest_projector
        assert demerlab.demerlin.rest_projector is not original
        demerlab.demerlin.evaluate_demerlinized(d, "0", "1")
    finally:
        tracer.uninstall()
    assert demerlab.protocol.rest_projector is original
    assert demerlab.demerlin.rest_projector is original
    totals = layer_totals(tracer.spans)
    assert totals["demerlin.evaluate.calls"] == 1
    assert totals["protocol.rest_projector.calls"] == 1
    assert totals["qcore.to_matrix.amps"] == 4 ** p.verifier.n_qubits
    rest_dim = 2 ** (p.verifier.n_qubits - p.bob_bits)
    assert totals["demerlin.evaluate.flops_computed"] == d.t_rounds * 2 * 2 * 8 * rest_dim ** 3


def test_spans_nest_under_their_callers():
    p, _ = coin_protocol()
    d = demerlab.demerlin.demerlinize(p, identity_plan(1, 1))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request = "0:0"
        demerlab.demerlin.evaluate_demerlinized(d, "0", "0")
    finally:
        tracer.uninstall()
    by_layer = {s[3]: s for s in tracer.spans}
    assert by_layer["protocol.rest_projector"][1] == by_layer["demerlin.evaluate"][0]
    assert by_layer["demerlin.evaluate"][1] is None
    assert {s[2] for s in tracer.spans} == {"0:0"}
    assert len({s[0] for s in tracer.spans}) == len(tracer.spans)


def test_traced_reports_are_byte_identical_to_untraced():
    jobs = build_jobs("demerlin-toys", 0) + build_jobs("amplified-coin", 0)
    plain = run_pass(jobs)
    traced, _ = _traced_pass(jobs)
    assert [(r[0], r[2], r[3]) for r in traced] == [(r[0], r[2], r[3]) for r in plain]


def test_counts_repeat_between_traced_runs():
    jobs = build_jobs("demerlin-toys", 0)
    first = layer_totals(_traced_pass(jobs)[1])
    second = layer_totals(_traced_pass(jobs)[1])
    counts = {k for k in first if not k.endswith("_s")}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["protocol.rest_projector.calls"] == 76
    assert first["protocol.rest_projector.distinct"] == 8


def test_output_check():
    report = ('{"pass": true, "p": 0.25, "summary": {"monte_carlo": '
              '{"estimate": 0.5, "stderr": 0.01, "within_3_sigma": true}}}')
    ref = {"job": parse_report(report)}
    assert check_job("job", 0, report, ref) == []
    assert check_job("job", 0, report.replace("0.25", "0.25000000001"), ref) == []
    assert check_job("job", 0, report.replace("0.25", "0.2500001"), ref)
    assert check_job("job", 0, report.replace('"estimate": 0.5', '"estimate": 0.6'), ref) == []
    assert check_job("job", 0, report.replace("true}}}", "false}}}"), ref)
    assert check_job("job", 0, report.replace('"pass": true', '"pass": false'), None)
    assert check_job("job", 1, report, ref)
    csv_report = "n,pass\n8,True\n"
    assert check_job("csv", 0, csv_report, None) == []
    assert check_job("csv", 0, csv_report.replace("True", "False"), None)


def test_binomial_agreement():
    p_rac2 = 0.9999961853027344  # the rac2 yes pair: 0.076 misses expected in 20000 shots
    assert binomial_agrees(1.0, p_rac2, 20000)
    assert binomial_agrees(19999 / 20000, p_rac2, 20000)  # Pr[>= 1 miss] = 0.073
    assert binomial_agrees(19996 / 20000, p_rac2, 20000)  # Pr[>= 4 misses] = 1.4e-6
    assert not binomial_agrees(19995 / 20000, p_rac2, 20000)  # Pr[>= 5 misses] = 2e-8
    assert binomial_agrees(0.9765, 0.9632990143468491, 2000)  # 3.1 sigma
    assert not binomial_agrees(0.9, 0.9632990143468491, 2000)
    assert binomial_agrees(0.505, 0.5, 20000)  # 1.4 sigma
    assert not binomial_agrees(0.52, 0.5, 20000)  # 5.7 sigma
    assert not binomial_agrees(0.48, 0.5, 20000)
    assert not binomial_agrees(0.50001, 0.5, 20000)  # not a fraction of the shots
    assert binomial_agrees(0.0, 0.0, 100) and not binomial_agrees(0.01, 0.0, 100)


def _run_report(estimate: float, flag: bool, row_pass: bool = True) -> str:
    """A `demerlin run --shots` report in the shape the CLI writes it."""
    rows = [{"x": "01", "y": "1", "f": 1, "p_accept": 0.9999961853027344, "pass": row_pass}]
    return json.dumps({
        "params": {"shots": 20000}, "results": rows,
        "summary": {"pass": row_pass and flag,
                    "monte_carlo": {"x": "01", "y": "1", "estimate": estimate,
                                    "stderr": 5e-05, "within_3_sigma": flag}},
        "pass": row_pass and flag})


def test_program_z_test_false_alarm_is_a_note_not_a_failure():
    notes = []
    assert check_job("run", 1, _run_report(0.99995, False), None, notes) == []
    assert len(notes) == 1 and "exited 1" in notes[0]
    assert check_job("run", 0, _run_report(1.0, True), None, notes) == []
    assert len(notes) == 1
    # a failed bound, or an estimate the exact test rejects, still fails the job
    assert check_job("run", 1, _run_report(0.99995, False, row_pass=False), None)
    assert check_job("run", 1, _run_report(0.99975, False), None)
    assert check_job("run", 0, _run_report(0.99975, True), None)
    assert check_job("run", 2, _run_report(0.99995, False), None)
