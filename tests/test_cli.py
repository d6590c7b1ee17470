import json

import pytest

from demerlab.cli import main


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


def test_or_bound_reference_instance(tmp_path):
    code, payload = run_cli(["lemma", "or-bound", "--witness-qubits", "1",
                             "--seed", "7", "--instances", "3"], tmp_path, "or.json")
    assert code == 0
    doc = json.loads(payload)
    ref_row = doc["results"][0]
    assert ref_row["case"] == "eta-two-thirds"
    assert ref_row["exact"] >= 1 / 9 - 1e-9
    assert ref_row["meets_one_ninth"]


def test_determinism_byte_identical(tmp_path):
    args = ["rac", "audit", "--n", "8", "--w", "4", "--seed", "1"]
    _, first = run_cli(args, tmp_path, "a.json")
    _, second = run_cli(args, tmp_path, "b.json")
    assert first == second


def test_determinism_across_subcommands(tmp_path):
    for args in (["lemma", "union", "--instances", "10", "--seed", "5"],
                 ["demerlin", "run", "--toy", "rac2", "--seed", "3"],
                 ["advice", "qcma-train", "--n", "1", "--seed", "2"]):
        _, first = run_cli(args, tmp_path, "x.json")
        _, second = run_cli(args, tmp_path, "y.json")
        assert first == second, args


def test_seed_changes_output(tmp_path):
    _, first = run_cli(["lemma", "union", "--instances", "5", "--seed", "1"],
                       tmp_path, "s1.json")
    _, second = run_cli(["lemma", "union", "--instances", "5", "--seed", "2"],
                        tmp_path, "s2.json")
    assert first != second


def test_demerlin_run_report_fields(tmp_path):
    code, payload = run_cli(["demerlin", "run", "--toy", "rac2", "--seed", "3"],
                            tmp_path, "dem.json")
    assert code == 0
    doc = json.loads(payload)
    summary = doc["summary"]
    assert set(summary) >= {"W", "T", "p_accept_yes_min", "p_accept_no_max",
                            "gates", "qubits", "bounds"}
    # cross-check against module-level direct calls
    from demerlab.cli import _demerlinized_from_toy
    from demerlab.demerlin import evaluate_demerlinized, resource_report

    d, f = _demerlinized_from_toy("rac2")
    yes = min(evaluate_demerlinized(d, x, y).p_accept
              for (x, y), v in f.pairs() if v == 1)
    assert summary["p_accept_yes_min"] == pytest.approx(yes, abs=1e-12)
    assert summary["gates"] == resource_report(d).gates


def test_exit_code_contract(tmp_path, monkeypatch):
    # force a failing audit by breaking a bound check through the toy registry
    code, payload = run_cli(["rac", "audit", "--n", "4", "--w", "2", "--seed", "1"],
                            tmp_path, "ok.json")
    assert code == 0
    import demerlab.cli as cli_mod

    def broken(args):
        rep = {"version": "x", "command": "demo", "seed": 0, "params": {},
               "results": [{"pass": False}], "pass": False}
        return rep

    parser_args = ["rac", "audit", "--n", "4", "--w", "2", "--out",
                   str(tmp_path / "fail.json")]
    monkeypatch.setattr(cli_mod, "_run_rac_audit", broken)
    args = cli_mod.build_parser().parse_args(parser_args)
    rep = getattr(cli_mod, args.handler)(args)
    assert rep["pass"] is False


def test_csv_format_fixed_columns(tmp_path):
    out = tmp_path / "audit.csv"
    code = main(["rac", "audit", "--n", "4", "--w", "2", "--seed", "1",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == ("n,w,a,seed,block_length,min_distance,completeness,"
                      "min_detection,rounds,soundness_after_rounds,pass")


def test_amplify_plan_cli(tmp_path):
    code, payload = run_cli(["amplify", "plan", "--alice", "1", "--witness", "1",
                             "--desk"], tmp_path, "plan.json")
    assert code == 0
    doc = json.loads(payload)
    assert doc["results"][0]["ell"] == 1
    assert doc["results"][0]["u"] == 7


def exit_and_stderr(argv, capsys):
    """Exit code of `demerlab argv` (usage errors exit from argparse) and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rac", "audit", "--w", "0"],
    ["rac", "audit", "--n", "0"],
    ["rac", "audit", "--n", "3", "--w", "2"],
    ["lemma", "union", "--instances", "0"],
    ["lemma", "good-as-new", "--instances", "-1"],
    ["rac", "fingerprint", "--trials", "0"],
    ["lemma", "union", "--seed", "-1"],
    ["lemma", "union", "--instances", "two"],
    ["amplify", "plan", "--alice", "1", "--witness", "0"],
    ["amplify", "plan", "--alice", "1", "--witness", "2", "--c-u", "1"],
    ["rac", "audit", "--a", "2"],
    ["lemma", "or-bound", "--witness-qubits", "4", "--instances", "1"],  # random draws stop at 3
    # the table protocol at n=4 needs 4 + 16 + 1 + 1 = 22 qubits, above the cap of 16
    ["advice", "ma-fix", "--n", "4"],
    ["advice", "qma-fix", "--n", "4"],
    ["advice", "qcma-train", "--n", "4"],
    # the rac audits enumerate 2^n inputs, capped at n = 16
    ["rac", "audit", "--n", "40"],
    ["rac", "audit", "--n", "17", "--w", "1"],
    ["rac", "reduce", "--w", "16"],  # n defaults to 2w = 32
])
def test_invalid_input_exits_2_with_one_line(argv, capsys):
    code, err = exit_and_stderr(argv, capsys)
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_or_bound_past_the_random_limit_fails_before_drawing(monkeypatch, capsys, tmp_path):
    import demerlab.qlemmas as qlemmas

    draws = []
    gaussian = qlemmas.complex_gaussian
    monkeypatch.setattr(qlemmas, "complex_gaussian",
                        lambda rng, shape: draws.append(shape) or gaussian(rng, shape))
    code, err = exit_and_stderr(["lemma", "or-bound", "--witness-qubits", "4"], capsys)
    assert code == 2 and len(err.strip().splitlines()) == 1
    assert "only up to 3 witness qubits" in err and "constructed family" in err
    assert draws == []
    assert main(["lemma", "or-bound", "--witness-qubits", "3", "--instances", "1",
                 "--out", str(tmp_path / "or.json")]) == 0
    assert draws


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "report.json"
    code, err = exit_and_stderr(["lemma", "union", "--instances", "1", "--out", str(out)],
                                capsys)
    assert code == 2 and len(err.strip().splitlines()) == 1


def test_parser_is_built_once(tmp_path, monkeypatch):
    import demerlab.cli as cli_mod

    built = []
    real = cli_mod.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli_mod, "build_parser", counting)
    cli_mod._parser.cache_clear()
    argv = ["lemma", "union", "--instances", "1", "--out", str(tmp_path / "u.json")]
    assert main(argv) == 0 and main(argv) == 0
    assert built == [1]


def test_package_reads_no_environment_variables():
    # flags are the one way to configure a run: no module reads os.environ or os.getenv
    import ast
    from pathlib import Path

    import demerlab

    hits = []
    for path in sorted(Path(demerlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("environ", "getenv", "environb", "putenv"):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def test_loop_value_errors_exit_2(capsys, monkeypatch):
    import demerlab.cli as cli_mod
    import demerlab.demerlin as demerlin_mod
    from demerlab.protocol import OneWayQmaProtocol
    from demerlab.qcore import UnitaryCircuit, basis_state, ry_gate, x_gate
    from demerlab.toys import coin_protocol

    # a verifier that writes Bob's register, even to undo it, cannot be sliced per Bob input
    _, f = coin_protocol()
    for gates in [(ry_gate(0, 0.4),), (x_gate(0), x_gate(0))]:
        leaky = OneWayQmaProtocol(
            bob_bits=1, alice_qubits=1, witness_qubits=1, ancilla_qubits=0,
            verifier=UnitaryCircuit(3, gates), accept_qubit=1,
            alice_encode=lambda x: basis_state(1, "0"))
        monkeypatch.setattr(cli_mod, "demerlin_toy", lambda name: (leaky, f))
        for command in ("build", "run"):  # build fails in the precondition audit
            code, err = exit_and_stderr(["demerlin", command, "--toy", "coin"], capsys)
            assert code == 2 and "block diagonal" in err and len(err.strip().splitlines()) == 1
    monkeypatch.undo()

    for name, value, message in [("RESIDUAL_BOUND", -1.0, "not invariant"),
                                 ("MAX_REACHABLE_DIM", 0, "grew past")]:
        monkeypatch.setattr(demerlin_mod, name, value)
        code, err = exit_and_stderr(["demerlin", "run", "--toy", "coin"], capsys)
        assert code == 2 and message in err and len(err.strip().splitlines()) == 1
        monkeypatch.undo()


def test_violated_bound_still_exits_1(tmp_path, monkeypatch):
    import demerlab.cli as cli_mod

    def broken(args):
        return {"version": "x", "command": "demo", "seed": 0, "params": {},
                "results": [{"pass": False}], "pass": False}

    monkeypatch.setattr(cli_mod, "_run_rac_audit", broken)
    assert main(["rac", "audit", "--out", str(tmp_path / "fail.json")]) == 1


# The pass rule through real handlers: a report passes iff every row passed and so
# did its summary; a Monte-Carlo cross-check outside the summary never fails it.


def test_one_failing_row_fails_the_report(tmp_path, monkeypatch):
    import dataclasses

    import demerlab.cli as cli_mod

    real = cli_mod.good_as_new_check
    calls = []

    def fail_random_2(rho, m):  # call 0 is the projector equality, call 3 is random-2
        calls.append(None)
        r = real(rho, m)
        return dataclasses.replace(r, passed=False) if len(calls) == 4 else r

    monkeypatch.setattr(cli_mod, "good_as_new_check", fail_random_2)
    code, payload = run_cli(["lemma", "good-as-new", "--instances", "5", "--seed", "2"],
                            tmp_path, "gan.json")
    doc = json.loads(payload)
    assert code == 1 and doc["pass"] is False
    assert [r["case"] for r in doc["results"] if not r["pass"]] == ["random-2"]
    assert len(doc["results"]) == 6


def test_failed_summary_check_fails_the_report(tmp_path, monkeypatch):
    import demerlab.cli as cli_mod

    monkeypatch.setattr(cli_mod, "agrees_within_sigma", lambda *a: False)
    code, payload = run_cli(["demerlin", "run", "--toy", "rac2", "--shots", "200"],
                            tmp_path, "run.json")
    doc = json.loads(payload)
    assert all(r["pass"] for r in doc["results"])
    assert doc["summary"]["monte_carlo"]["within_3_sigma"] is False
    assert doc["summary"]["pass"] is False and doc["pass"] is False and code == 1


def test_or_bound_sigma_check_does_not_feed_pass(tmp_path, monkeypatch):
    import demerlab.cli as cli_mod

    monkeypatch.setattr(cli_mod, "agrees_within_sigma", lambda *a: False)
    code, payload = run_cli(["lemma", "or-bound", "--shots", "2000"], tmp_path, "or.json")
    doc = json.loads(payload)
    assert doc["results"][0]["monte_carlo"]["within_3_sigma"] is False
    assert doc["pass"] is True and code == 0
