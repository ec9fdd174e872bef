"""Fast self-test of the benchmark harness; runs no freqdyn command.

    python3 -m pytest -q benchmark/test_harness.py
"""

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] calls a [2, 5] (which calls b [3, 4]) and then a [6, 7]
    rec = spans.Recorder(clock=FakeClock([0, 2, 3, 4, 5, 6, 7, 10]))
    b = rec.wrap("b", lambda: None)
    a = rec.wrap("a", lambda inner: inner and inner())
    outer = rec.wrap("outer", lambda: (a(b), a(None)))
    outer()
    assert rec.totals["outer"] == [1, 10, 6]
    assert rec.totals["a"] == [2, 4, 3]
    assert rec.totals["b"] == [1, 1, 1]


def test_wrapper_closes_span_when_call_raises():
    rec = spans.Recorder(clock=FakeClock([0, 1, 5, 9]))

    def fails():
        raise ValueError("boom")

    traced = rec.wrap("fails", fails)

    def outer():
        try:
            traced()
        except ValueError:
            pass

    rec.wrap("outer", outer)()
    assert rec.totals["fails"] == [1, 4, 4]
    assert rec.totals["outer"] == [1, 9, 5]


def test_install_rebinds_every_name_a_caller_looks_up(monkeypatch):
    base = types.ModuleType("fakepkg.base")

    def leaf():
        return "UNKNOWN"

    base.leaf = leaf
    user = types.ModuleType("fakepkg.user")
    user.leaf = leaf  # as ``from .base import leaf`` binds it
    user.TABLE = {"go": leaf}
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.base", base)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)

    rec = spans.Recorder()
    bound = spans.install(rec, targets=(("fakepkg.base", "leaf"),), package="fakepkg")
    assert sorted(bound["base.leaf"]) == [
        "fakepkg.base.leaf", "fakepkg.user.TABLE['go']", "fakepkg.user.leaf"]
    user.leaf()
    user.TABLE["go"]()
    base.leaf()
    assert rec.totals["base.leaf"][0] == 3


def test_result_hooks_count_islands_and_unknown_verdicts():
    rec = spans.Recorder()
    spans.RESULT_HOOKS["runaway.collect_islands"](rec, (1, 2, 3))
    unknown = types.SimpleNamespace(name="UNKNOWN")
    for verdict in (unknown, types.SimpleNamespace(name="DISJOINT"), unknown):
        spans.RESULT_HOOKS["geometry.disjointness"](rec, verdict)
    assert rec.counts == {"runaway.islands": 3, "geometry.disjointness.unknown": 2}


def _result(label="s", exit_code=0, stderr="", artifacts=None, verdicts="PP"):
    result = run.StepResult(label, exit_code, 2.0, 10.0, {"main_s": 1.5, "import_s": 0.5},
                            stderr, [])
    result.artifacts = {"summary.txt": [3, "ab"]} if artifacts is None else artifacts
    result.verdicts = verdicts
    return result


def test_check_step_reports_each_mismatch():
    step = run.Step("s", "cmd", "c.ini", (), 1, "PF")
    good = _result(exit_code=1, verdicts="PF")
    assert run.check_step(step, good, good.artifacts) == []
    bad = _result(exit_code=2, stderr="Traceback (most recent call last):", verdicts="PP")
    problems = run.check_step(step, bad, bad.artifacts)
    assert problems == ["exit 2, expected 1", "traceback on stderr", "verdicts PP, expected PF"]
    empty = _result(exit_code=1, artifacts={}, verdicts="")
    assert "no artifacts written" in run.check_step(step, empty, {})


def test_failed_ops_counts_failed_steps_over_all_repetitions():
    ok, bad = _result(), _result()
    bad.problems.append("exit 2, expected 0")
    reps = [run.Rep(False, 4.0, [ok, bad]), run.Rep(False, 4.0, [ok, ok])]
    assert run.failed_ops(reps) == (4, 1)
    assert run.end_to_end(reps)["setup_s"] == 1.0
    assert run.end_to_end(reps)["artifact_bytes"] == 6


def test_layer_metrics_sum_assemble_and_read_zero_for_unreached_layers():
    untraced = _result(label="dense")
    traced = _result(label="dense")
    traced.record["spans"] = {
        "approx.assemble_dense_target": [1, 2.0, 1.5],
        "approx.assemble_spaceable_target": [1, 1.0, 0.5],
        "geometry.disjointness": [4, 1.0, 1.0],
    }
    traced.record["counts"] = {"geometry.disjointness.unknown": 1}
    metrics = run.layer_metrics([run.Rep(False, 3.0, [untraced])], [run.Rep(True, 3.5, [traced])])
    value = {name: entry["value"] for name, entry in metrics.items()}
    assert value["approx.assemble.self_s"] == 2.0
    assert value["geometry.disjointness.calls"] == 4
    assert value["geometry.disjointness.unknown_ratio"] == 0.25
    assert value["trace.overhead_s"] == 0.5
    assert value["cli.import_s"] == 0.5
    assert value["step.dense.wall_s"] == 2.0 and value["step.strong.wall_s"] == 0
    assert set(metrics) == set(run.layer_units())


def test_digest_comparison_names_the_changed_artifact(tmp_path):
    (tmp_path / "cmd").mkdir()
    (tmp_path / "cmd" / "summary.txt").write_text("# head\nPASS: a\nNOTE: b\nFAIL: c\n")
    (tmp_path / "cmd" / "member1.json").write_text(json.dumps({"degree": 7}))
    first = _result(artifacts={}, verdicts="")
    run.inspect_artifacts(first, str(tmp_path))
    assert first.verdicts == "PF" and first.degree_max == 7
    step = run.Step("s", "cmd", "c.ini", (), 0, "PF")
    again = _result(artifacts={}, verdicts="")
    run.inspect_artifacts(again, str(tmp_path))
    assert run.check_step(step, again, first.artifacts) == []

    (tmp_path / "cmd" / "member1.json").write_text(json.dumps({"degree": 8}))
    changed = _result(artifacts={}, verdicts="")
    run.inspect_artifacts(changed, str(tmp_path))
    assert run.check_step(step, changed, first.artifacts) == [
        "artifacts differ from the first repetition: " + os.path.join("cmd", "member1.json")]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20))) == (50.0, 9)
    assert run.tail_percentile(list(range(11))) == (100.0 / 11, 0)


def test_benchmark_json_lists_exactly_the_metrics_the_harness_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
