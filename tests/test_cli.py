"""Command-line interface: flags, report schema, exit codes, determinism."""

import argparse
import builtins
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import corpus_path
from hypothesis import HealthCheck, example, given, settings, strategies as st

import grafcet_lint
from grafcet_lint import cli, ingest, model
from grafcet_lint.cli import main


def _run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_text_report_and_exit_code(corpus, capsys):
    code, out, _ = _run(capsys, "analyze", str(corpus("fig5.grafcet.json")))
    assert code == 0
    assert "covered=True, bound=2" in out
    assert "no findings" in out


def test_findings_fail_the_run(corpus, capsys):
    code, out, _ = _run(capsys, "analyze", str(corpus("fig2_g2.grafcet.json")))
    assert code == 1
    assert "[error] race" in out


def test_fail_on_error_ignores_warnings(corpus, capsys):
    path = str(corpus("fig2_g7.grafcet.json"))
    assert _run(capsys, "analyze", path)[0] == 1
    assert _run(capsys, "analyze", path, "--fail-on", "error")[0] == 0


def test_missing_file_is_usage_error(capsys):
    code, _, err = _run(capsys, "analyze", "missing.json")
    assert code == 2
    assert "missing.json" in err


def test_malformed_spec_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.grafcet.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "analyze", str(bad))
    assert code == 2
    assert "invalid JSON" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_json_report_schema(corpus, capsys):
    code, out, _ = _run(capsys, "analyze", str(corpus("fig5.grafcet.json")),
                        "--format", "json", "--dump-invariants")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert len(report["spec"]["sha256"]) == 64
    partial = report["partials"]["c"]
    assert partial["boundedness"] == {
        "covered": True, "bound": 2, "uncovered_steps": [],
        "per_step_bound": {"s1": 2, "s2": 2, "s3": 1, "s4": 1, "s5": 1},
    }
    assert partial["s_invariants"] == [
        {"s1": 2, "s2": 2, "s3": 1, "s4": 1, "s5": 1}]
    assert partial["t_invariants"] == []
    assert report["variables"]["k"] == {"type": "int", "lo": 0, "hi": 4}
    assert report["execution_bounds"]["c.actions[0]"]["count"] == 4


def test_dump_invariants_with_text_format_is_usage_error(corpus, capsys):
    code, out, err = _run(capsys, "analyze", str(corpus("fig5.grafcet.json")),
                          "--format", "text", "--dump-invariants")
    assert code == 2
    assert out == ""
    assert err == "grafcet-lint: --dump-invariants requires --format json\n"


def test_json_report_is_deterministic(corpus, capsys):
    args = ("analyze", str(corpus("g_rit.grafcet.json")), "--format", "json",
            "--no-timings")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second
    assert "timings_ms" not in json.loads(first)


def test_coactive_evidence_is_independent_of_hash_seed(tmp_path):
    # s1 splits into s2..s5: a is written at s2 and s3, b at s4 and s5, so
    # four step pairs witness the violation and the report must name one
    # of them whatever order Python's string hashing gives to sets.
    outputs = {"type": "bool", "kind": "output", "init": 0}
    doc = {
        "name": "split",
        "variables": [{"name": "a", **outputs}, {"name": "b", **outputs}],
        "partials": [{
            "id": "G",
            "steps": [{"id": "s1", "initial": True}] + [{"id": f"s{i}"} for i in range(2, 6)],
            "transitions": [{"id": "t", "from": ["s1"], "to": ["s2", "s3", "s4", "s5"]}],
            "actions": [{"kind": "continuous", "step": s, "var": v}
                        for s, v in (("s2", "a"), ("s3", "a"), ("s4", "b"), ("s5", "b"))],
        }],
        "queries": [{"name": "q", "kind": "never-coactive",
                     "a": {"var": "a"}, "b": {"var": "b"}}],
    }
    path = tmp_path / "split.grafcet.json"
    path.write_text(json.dumps(doc))
    src = str(Path(grafcet_lint.__file__).parents[1])
    reports = set()
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "grafcet_lint.cli", "analyze", str(path),
             "--format", "json", "--no-timings"],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 1, proc.stderr
        reports.add(proc.stdout)
    assert len(reports) == 1


def test_infinite_bounds_serialize(corpus, capsys):
    _, out, _ = _run(capsys, "analyze", str(corpus("fig2_g7.grafcet.json")),
                     "--format", "json")
    report = json.loads(out)
    assert report["execution_bounds"]["G7.actions[0]"]["count"] == "inf"


def test_queries_sidecar_and_naive_flag(corpus, capsys):
    spec = str(corpus("g_rit.grafcet.json"))
    queries = str(corpus("g_rit.queries.json"))
    code, out, _ = _run(capsys, "analyze", spec, "--queries", queries,
                        "--fail-on", "error")
    assert code == 0
    assert "query-violation" not in out
    code, out, _ = _run(capsys, "analyze", spec, "--queries", queries,
                        "--naive", "--fail-on", "error")
    assert code == 1
    assert "query-violation" in out


def test_queries_embedded_in_spec(tmp_path, corpus, capsys):
    doc = json.loads(corpus("fig5.grafcet.json").read_text())
    doc["queries"] = [{"name": "q", "kind": "never-concurrent",
                       "steps": ["c.s3", "c.s4"]}]
    path = tmp_path / "embedded.grafcet.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "analyze", str(path), "--fail-on", "error")
    assert code == 1
    assert "query-violation" in out
    # A sidecar replaces the embedded queries.
    sidecar = tmp_path / "none.queries.json"
    sidecar.write_text(json.dumps({"queries": []}))
    code, out, _ = _run(capsys, "analyze", str(path), "--queries", str(sidecar),
                        "--fail-on", "error")
    assert code == 0
    assert "query-violation" not in out


def test_bad_queries_file(tmp_path, corpus, capsys):
    q = tmp_path / "q.json"
    q.write_text(json.dumps({"queries": [{"kind": "nope"}]}))
    code, _, err = _run(capsys, "analyze", str(corpus("fig5.grafcet.json")),
                        "--queries", str(q))
    assert code == 2
    assert "unknown kind" in err


def _fig5_with(**fields):
    doc = json.loads(corpus_path("fig5.grafcet.json").read_text())
    return json.dumps({**doc, **fields}).encode()


def _fig5_with_cond(cond):
    return _fig5_with(partials=[{
        "id": "c", "steps": [{"id": "1", "initial": True}],
        "transitions": [{"id": "t", "from": ["1"], "to": ["1"], "cond": cond}]}])


def _fig5_partial_with(**fields):
    doc = json.loads(_fig5_with())
    return _fig5_with(partials=[{**doc["partials"][0], **fields}])


def _fig5_with_init(digits):
    return _fig5_with().replace(b'"init": 0', b'"init": ' + digits)


def _fig5_with_value(digits):
    return _fig5_with().replace(b'"k + 1"', b'"' + digits + b'"')


def _fig5_with_step(**fields):
    steps = json.loads(_fig5_with())["partials"][0]["steps"]
    return _fig5_partial_with(steps=[{**steps[0], **fields}, *steps[1:]])


def _fig5_with_action(**fields):
    return _fig5_partial_with(actions=[{"step": "s5", **fields}])


def _coactive_sidecar(value):
    return json.dumps({"queries": [{"kind": "never-coactive",
                                    "a": {"var": "k", "value": value},
                                    "b": {"var": "x"}}]}).encode()


@pytest.mark.parametrize("spec, sidecar, message", [
    pytest.param(_fig5_with(queries=5), None, "list of objects", id="embedded-number"),
    pytest.param(_fig5_with(queries=[5]), None, "list of objects",
                 id="embedded-list-of-number"),
    pytest.param(_fig5_with(queries="x"), None, "list of objects", id="embedded-string"),
    pytest.param(b"\xff" + _fig5_with(), None, "not valid UTF-8", id="spec-not-utf8"),
    pytest.param(_fig5_with_cond("(" * 3000 + "k > 0" + ")" * 3000), None,
                 "nesting deeper", id="deep-parentheses"),
    pytest.param(_fig5_with_cond("!" * 3000 + "k > 0"), None, "nesting deeper",
                 id="deep-negation"),
    pytest.param(None, b'[{"kind": "never-concurrent"}]', "list of objects",
                 id="sidecar-list"),
    pytest.param(None, b'{"queries": 5}', "list of objects", id="sidecar-queries-number"),
    pytest.param(None, b'{"querys": [{"kind": "never-concurrent", "steps": ["c.zz", "c.s1"]}]}',
                 "one member is 'queries', found members ['querys']",
                 id="sidecar-misspelled-key"),
    pytest.param(None, b"{}", "one member is 'queries', found members []",
                 id="sidecar-empty-object"),
    pytest.param(None, b'{"queries": [], "version": 1}',
                 "one member is 'queries', found members ['queries', 'version']",
                 id="sidecar-extra-member"),
    pytest.param(None, b'{"queries": [{"kind": "never-concurrent", "steps": [1, 2]}]}',
                 "two global step ids", id="sidecar-step-not-string"),
    pytest.param(None, b'{"queries": [{"kind": "never-concurrent", "steps": ["c.s1", "c.s1"]}]}',
                 "names 'c.s1' twice", id="sidecar-same-step-twice"),
    pytest.param(None, b'{"queries": [{"kind": "never-coactive", "a": {"var": "x"},'
                       b' "b": {"var": "x", "value": false}}]}',
                 "terms 'a' and 'b' both name 'x'", id="sidecar-same-variable-twice"),
    pytest.param(None, b'{"queries": [{"kind": "never-coactive", "a": {"var": []},'
                       b' "b": {"var": "k"}}]}', "missing term", id="sidecar-var-not-string"),
    pytest.param(None, b'{"queries": [\xff]}', "cannot read queries",
                 id="sidecar-not-utf8"),
    pytest.param(b"[" * 100_000, None, "nested too deeply", id="spec-deep-json"),
    pytest.param(None, b"[" * 100_000, "cannot read queries", id="sidecar-deep-json"),
    pytest.param(None, _coactive_sidecar("false"), "must be true or false",
                 id="sidecar-value-string"),
    pytest.param(None, _coactive_sidecar(0), "must be true or false",
                 id="sidecar-value-number"),
    pytest.param(None, _coactive_sidecar(None), "must be true or false",
                 id="sidecar-value-null"),
    pytest.param(_fig5_with_init(b"1" * 5000), None, "invalid JSON", id="spec-int-5000-digits"),
    pytest.param(None, b'{"queries": [], "n": ' + b"1" * 5000 + b"}", "cannot read queries",
                 id="sidecar-int-5000-digits"),
    pytest.param(_fig5_with_init(b"1" * 400), None, "signed 64-bit", id="init-400-digits"),
    pytest.param(_fig5_with_init(str(2**63).encode()), None, "signed 64-bit",
                 id="init-above-int64"),
    pytest.param(_fig5_with_cond("k > " + "1" * 5000), None, "64-bit range",
                 id="cond-literal-5000-digits"),
    pytest.param(_fig5_with_cond("1" * 400 + "*k > 0"), None, "64-bit range",
                 id="cond-coefficient-400-digits"),
    pytest.param(_fig5_with_cond(f"k > {2**63}"), None, "64-bit range",
                 id="cond-literal-above-int64"),
    pytest.param(_fig5_with_value(b"1" * 5000), None, "64-bit range",
                 id="value-5000-digits"),
    pytest.param(_fig5_with_value(b"1" * 400), None, "64-bit range", id="value-400-digits"),
    pytest.param(_fig5_partial_with(actions=1), None, "'actions' must be a list",
                 id="actions-number"),
    pytest.param(_fig5_partial_with(transitions=1.5), None, "'transitions' must be a list",
                 id="transitions-float"),
    pytest.param(_fig5_partial_with(enclosings=0), None, "'enclosings' must be a list",
                 id="enclosings-zero"),
    pytest.param(_fig5_partial_with(enclosings=None), None, "'enclosings' must be a list",
                 id="enclosings-null"),
    pytest.param(None, _coactive_sidecar(True), "requires Boolean variables",
                 id="sidecar-coactive-integer"),
    pytest.param(None, b'{"queries": [{"kind": "never-concurrent", "name": ["x"],'
                       b' "steps": ["c.s1", "c.s2"]}]}', "'name' must be a string",
                 id="sidecar-name-list"),
    pytest.param(_fig5_with(queries=[{"kind": "never-concurrent", "name": {"a": 1},
                                      "steps": ["c.s1", "c.s2"]}]), None,
                 "'name' must be a string", id="embedded-name-object"),
    pytest.param(_fig5_with_step(initial=1), None, "'initial' must be true or false",
                 id="initial-number"),
    pytest.param(_fig5_with_step(marked="yes"), None, "'marked' must be true or false",
                 id="marked-string"),
    pytest.param(_fig5_with_step(initial=None), None, "'initial' must be true or false",
                 id="initial-null"),
    pytest.param(_fig5_with_action(kind="forcing", target="c", situation="init", cond="x"),
                 None, "(forcing action): unknown field 'cond'", id="forcing-cond"),
    pytest.param(_fig5_with_action(kind="continuous", var="k", value="1"), None,
                 "(continuous action): unknown field 'value'", id="continuous-value"),
    pytest.param(_fig5_with_action(kind="continuous", var="k", trigger="activation"), None,
                 "(continuous action): unknown field 'trigger'", id="continuous-trigger"),
    pytest.param(_fig5_with_action(kind="stored", var="k", value="1", target="c"), None,
                 "(stored action): unknown field 'target'", id="stored-target"),
    pytest.param(_fig5_with_action(kind="pulse", var="k"), None, "unknown action kind 'pulse'",
                 id="action-kind-unknown"),
    pytest.param(_fig5_partial_with(actions=[5]), None, "actions[0]: expected an object",
                 id="action-number"),
    pytest.param(_fig5_with_init(b"true"), None, "init must be an integer", id="init-bool"),
    pytest.param(None, b'{"queries": [{"kind": "never-coactive", "b": {"var": "k"},'
                       b' "a": {"var": "k", "valeu": false}}]}',
                 "term 'a': unknown field 'valeu'", id="sidecar-term-misspelled-value"),
    pytest.param(_fig5_with(queries=[{"kind": "never-concurrent", "nmae": "q",
                                      "steps": ["c.s1", "c.s2"]}]), None,
                 "unknown field 'nmae'", id="embedded-query-extra-member"),
    pytest.param(_fig5_with_action(kind="stored", step="zz", var="k", value="1"), None,
                 "action attached to unknown step 'zz'", id="action-unknown-step"),
    pytest.param(_fig5_with_action(kind="forcing", target="ZZ", situation="init"), None,
                 "forcing targets unknown partial Grafcet 'ZZ'", id="forcing-unknown-target"),
    pytest.param(_fig5_with(variables=[{"name": "k", "kind": "internal", "type": "float",
                                        "init": 0}]), None,
                 "type must be bool or int", id="variable-type-float"),
    pytest.param(_fig5_with(partials=[{"id": "c", "steps": [{"id": "1", "initial": True}],
                                       "transitions": [{"id": "t", "from": [1], "to": ["1"]}]}]),
                 None, "expected a list of strings", id="transition-from-number"),
    pytest.param(_fig5_with_cond(5), None, "condition must be a string", id="cond-number"),
    pytest.param(_fig5_with_cond("2*3 > 1"), None, "expected a variable after '*'",
                 id="cond-constant-product"),
    pytest.param(_fig5_with_cond("k + Xc.s1 > 0"), None,
                 "step variables are Boolean, not integers", id="cond-step-variable-in-sum"),
    pytest.param(None, b'{"queries": [{"kind": "never-coactive", "a": {"var": "nope"},'
                       b' "b": {"var": "x"}}]}', "unknown variable 'nope'",
                 id="sidecar-coactive-unknown-variable"),
])
def test_malformed_input_is_usage_error(tmp_path, capsys, spec, sidecar, message):
    path = tmp_path / "spec.grafcet.json"
    path.write_bytes(spec or _fig5_with())
    argv = ["analyze", str(path)]
    if sidecar is not None:
        (tmp_path / "q.json").write_bytes(sidecar)
        argv += ["--queries", str(tmp_path / "q.json")]
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert message in err
    assert len(err.splitlines()) == 1


def test_coactive_query_on_integer_is_usage_error_with_naive(tmp_path, corpus, capsys):
    """The refined mode's case is ``sidecar-coactive-integer`` above."""
    (tmp_path / "q.json").write_bytes(_coactive_sidecar(True))
    code, _, err = _run(capsys, "analyze", str(corpus("fig5.grafcet.json")),
                        "--queries", str(tmp_path / "q.json"), "--naive")
    assert code == 2
    assert "requires Boolean variables, got 'k'" in err


def test_int64_bounds_are_accepted(tmp_path, capsys):
    low, high = str(-2**63).encode(), str(2**63 - 1).encode()
    path = tmp_path / "spec.grafcet.json"
    for spec in (_fig5_with_init(high), _fig5_with_init(low), _fig5_with_value(high),
                 _fig5_with_cond(f"k > {2**63 - 1} | k > -{2**63}")):
        path.write_bytes(spec)
        assert _run(capsys, "analyze", str(path))[0] in (0, 1)


def test_analyze_reads_the_spec_once_and_validates_once(corpus, monkeypatch, capsys):
    path = str(corpus("g_rit.grafcet.json"))
    opened = []
    real_open, real_validate = io.open, model.validate

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    validated = []

    def counting_validate(spec):
        validated.append(spec.name)
        return real_validate(spec)

    for owner in (builtins, io):
        monkeypatch.setattr(owner, "open", counting_open)
    for owner in (model, ingest):
        monkeypatch.setattr(owner, "validate", counting_validate)
    code, out, _ = _run(capsys, "analyze", path, "--format", "json")
    assert code == 1 and json.loads(out)["partials"]
    assert opened.count(path) == 1
    assert validated == ["g_rit"]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_report_digest_is_of_the_file_bytes(tmp_path, corpus, capsys, newline):
    doc = json.dumps(json.loads(corpus("fig5.grafcet.json").read_text()), indent=2)
    path = tmp_path / "spec.grafcet.json"
    path.write_bytes(doc.replace("\n", newline).encode())
    code, out, _ = _run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["spec"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_unencodable_text_report_is_a_usage_error(tmp_path):
    # fig5 exits 0, so exit 1 could only come from the traceback.
    path = tmp_path / "spec.grafcet.json"
    path.write_bytes(_fig5_with(name="Prüfstand"))
    src = str(Path(grafcet_lint.__file__).parents[1])
    env = {**os.environ, "PYTHONIOENCODING": "ascii",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    command = [sys.executable, "-m", "grafcet_lint.cli", "analyze", str(path)]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "--format json" in proc.stderr, proc.stderr
    proc = subprocess.run([*command, "--format", "json"],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["spec"]["name"] == "Prüfstand"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_output_is_a_usage_error(corpus, fmt):
    # The pipe's read end is closed before the run starts, so every write
    # fails, whether the report outruns the pipe buffer or not.
    src = str(Path(grafcet_lint.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "grafcet_lint.cli", "analyze",
             str(corpus("g_rit.grafcet.json")), "--format", fmt,
             "--queries", str(corpus("g_rit.queries.json"))],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, check=False)
    finally:
        os.close(write)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, \
        proc.stderr


def test_internal_error_exits_2_with_its_traceback(corpus, capsys, monkeypatch):
    # A crash must not read as findings (exit 1), nor as a one-line usage error.
    def crash(spec):
        raise RuntimeError("analysis crashed")

    monkeypatch.setattr(cli, "analyze_spec", crash)
    code, _, err = _run(capsys, "analyze", str(corpus("fig5.grafcet.json")))
    assert code == 2
    assert "Traceback" in err and "RuntimeError: analysis crashed" in err
    assert len(err.splitlines()) > 1, err


def test_oracle_subcommand(corpus, capsys):
    code, out, _ = _run(capsys, "oracle", str(corpus("fig5.grafcet.json")))
    assert code == 0
    facts = json.loads(out)
    assert "c.s5" in facts["reachable"]
    assert ["c.s3", "c.s4"] in facts["concurrent_pairs"]
    assert facts["var_values"]["k"] == [0, 1]
    assert facts["states_seen"] > 0 and not facts["inconclusive"]

    code, out, _ = _run(capsys, "oracle", str(corpus("fig5.grafcet.json")),
                        "--max-states", "1")
    assert code == 0
    facts = json.loads(out)
    assert facts["states_seen"] == 0 and facts["inconclusive"]


_ONE_STEP = {"id": "P", "steps": [{"id": "1", "initial": True}]}
# ``lamp`` holds whenever P.1 is active, so t1 can fire; the semantic oracle
# would read the output's init value instead.
_READS_CONTINUOUS = {
    "id": "P",
    "steps": [{"id": "1", "initial": True}, {"id": "2"}],
    "transitions": [{"id": "t1", "from": ["1"], "to": ["2"], "cond": "lamp"}],
    "actions": [{"kind": "continuous", "step": "1", "var": "lamp"}],
}


@pytest.mark.parametrize("variables, partial, message", [
    ([{"name": "n", "kind": "input", "type": "int"}], _ONE_STEP,
     "semantic mode does not support integer inputs"),
    ([{"name": f"x{i}", "kind": "input", "type": "bool"} for i in range(7)], _ONE_STEP,
     "semantic mode supports at most 6 Boolean inputs, got 7"),
    ([{"name": "lamp", "kind": "output", "type": "bool", "init": 0}], _READS_CONTINUOUS,
     "semantic mode does not support conditions on the continuously written output 'lamp'"),
], ids=["int-input", "7-bool-inputs", "continuous-output"])
def test_oracle_semantic_rejects_unenumerable_inputs(tmp_path, capsys, variables, partial,
                                                     message):
    path = tmp_path / "spec.grafcet.json"
    path.write_text(json.dumps({"name": "t", "variables": variables, "partials": [partial]}))
    code, out, err = _run(capsys, "oracle", str(path), "--mode", "semantic")
    assert code == 2
    assert out == ""
    assert err == f"grafcet-lint: {message}\n"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_oracle_max_states_must_be_positive(corpus, capsys, value):
    code, out, err = _run(capsys, "oracle", str(corpus("fig5.grafcet.json")),
                          "--max-states", value)
    assert code == 2
    assert out == ""
    assert err == "grafcet-lint: --max-states must be a positive integer\n"


def _run_alone(capsys, *args):
    """``_run`` on a freshly built parser, as in a process of its own."""
    cli._parser.cache_clear()
    return _run(capsys, *args)


def test_cli_import_leaves_out_unused_modules():
    # A CI job starts one interpreter per spec, so every module the import
    # pulls in is paid on each run; the ``oracle`` subcommand adds the oracle's
    # imports. ``-S`` keeps site-packages' own imports out of the measurement.
    src = str(Path(grafcet_lint.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "unused = {'typing', 'pathlib', 'random', 'dataclasses', 'inspect'}; "
            "import grafcet_lint.cli; "
            "print(sorted((unused | {'grafcet_lint.oracle'}) & set(sys.modules))); "
            "import grafcet_lint.oracle; print(sorted(unused & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n[]\n", proc.stdout


def test_cli_import_compiles_nothing_and_leaves_out_hashlib(corpus):
    # Records compile their ``__init__`` on first construction, and the spec
    # digest and finding ids import ``hashlib``, which loads OpenSSL, on first
    # use; a text report needs neither. ``functools`` builds namedtuples with
    # ``eval`` when imported, so only the package's own compiles count.
    src = str(Path(grafcet_lint.__file__).parents[1])
    code = ("import contextlib, io, sys\n"
            "compiled = []\n"
            "def hook(event, args):\n"
            "    if event == 'compile' and args[1] == '<string>':\n"
            "        compiled.append(sys._getframe(1).f_globals['__name__'])\n"
            "sys.addaudithook(hook)\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import grafcet_lint.cli\n"
            "hashlib = {'hashlib', '_hashlib'}\n"
            "print([m for m in compiled if m.startswith('grafcet_lint')])\n"
            "print(sorted(hashlib & set(sys.modules)))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = grafcet_lint.cli.main(['analyze', sys.argv[2]])\n"
            "print(code, sorted(hashlib & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src,
                           str(corpus("fig5.grafcet.json"))],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n[]\n0 []\n", proc.stdout


def test_parser_is_built_once_per_process(corpus, monkeypatch, capsys):
    # argparse looks its own class up by name inside ``__init__``, so a
    # subclass put in its place would recurse; count through ``__init__``.
    built, real_init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    path = str(corpus("fig5.grafcet.json"))
    for argv in (["analyze", path], ["analyze", path, "--format", "json"],
                 ["analyze", path, "--format", "xml"], ["oracle", path],
                 ["--help"], ["frobnicate"]) * 5:
        _run(capsys, *argv)
    # The subparsers are the only other parsers built.
    assert built == ["grafcet-lint", "grafcet-lint analyze", "grafcet-lint oracle"]


def test_reused_parser_prints_what_a_fresh_one_prints(corpus, capsys):
    path = str(corpus("fig5.grafcet.json"))
    calls = [("analyze", path, "--format", "xml"), ("--help",),
             ("analyze", path, "--no-timings"), ("analyze", "--help"),
             ("analyze", path, "--fail-on", "never"), ("analyze",),
             ("analyze", path, "--format", "json", "--no-timings")]
    alone = [_run_alone(capsys, *argv) for argv in calls]
    in_sequence = [_run(capsys, *argv) for argv in calls]
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [2, 0, 0, 0, 2, 2, 0]
    assert alone[0][2].startswith("usage: grafcet-lint analyze")
    assert alone[1][1].startswith("usage: grafcet-lint")


def test_flags_do_not_carry_over_to_the_next_call(corpus, capsys):
    spec = str(corpus("g_rit.grafcet.json"))
    plain = ("analyze", spec, "--format", "json", "--no-timings")
    flagged = plain + ("--dump-invariants", "--queries",
                       str(corpus("g_rit.queries.json")), "--naive")
    fresh = _run_alone(capsys, *plain)
    assert _run(capsys, *flagged) != fresh
    assert _run(capsys, *plain) == fresh


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _written(obj) -> str:
    sink = io.StringIO()
    cli._write_json(obj, sink.write)
    sink.write("\n")
    return sink.getvalue()


@pytest.mark.parametrize("spec", sorted(p.name for p in corpus_path("").iterdir()
                                        if p.name.endswith(".grafcet.json")))
def test_report_writer_matches_json_dumps_on_corpus(monkeypatch, capsys, spec):
    """The CLI prints each report exactly as ``json.dumps`` would print its dict."""
    reports, real_build_report = [], cli.build_report

    def recording_build_report(*args, **kwargs):
        reports.append(real_build_report(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "build_report", recording_build_report)
    argv = ["analyze", str(corpus_path(spec)), "--format", "json"]
    sidecar = corpus_path(spec.replace(".grafcet.json", ".queries.json"))
    if sidecar.is_file():
        argv += ["--queries", str(sidecar)]
    for extra in ([], ["--dump-invariants"], ["--no-timings"],
                  ["--dump-invariants", "--no-timings"]):
        main(argv + extra)
        out = capsys.readouterr().out
        assert out == _dumps(reports[-1])
    assert ["timings_ms" in r for r in reports] == [True, True, False, False]
    assert [all("incidence" in p for p in r["partials"].values()) for r in reports] == \
        [False, True, False, True]


_CHARS = st.one_of(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\xe9\u2028\U0001f600'),
                   st.characters())
_STRINGS = st.text(_CHARS, max_size=8)
_SCALARS = st.one_of(_STRINGS, st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                     st.booleans(), st.none())


@given(st.recursive(_SCALARS | st.lists(_STRINGS),
                    lambda inner: st.lists(inner, max_size=5)
                    | st.dictionaries(_STRINGS, inner, max_size=5),
                    max_leaves=40))
@settings(deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example({})
@example([])
@example({"": [], "b": {}, "a": [[], {}]})
@example([True, 1, 1.0, False, 0, 0.0, -0.0, None, "1"])
@example({"k\u00e9y": ['q"uote', "back\\slash", "ctl\x01\n", "\U0001f600"]})
@example(["a", ["b", 2], "c"])
@example(["G1.a", "G1.b", "s/ash"])  # no item needs escaping
@example(["G1.a", 'q"', "G1.b\u00e9"])  # some items do
def test_report_writer_matches_json_dumps(obj):
    assert _written(obj) == _dumps(obj)


@pytest.mark.parametrize("obj", [{1, 2}, ("tuple",), [b"x"], {"a": float("nan")},
                                 [float("inf")], {1: "key is not a string"}])
def test_report_writer_rejects_what_is_not_json(obj):
    with pytest.raises(TypeError):
        _written(obj)
