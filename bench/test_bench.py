"""Tests of the benchmark itself, on a tiny mix of each workload."""

import json
from pathlib import Path

import pytest

import run
import speed
import tracer
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """One small case kind per workload, one setup sample, a scratch output dir."""
    monkeypatch.setattr(workloads, "TRIGONAL_GENERA", (5,))
    monkeypatch.setattr(workloads, "TETRAGONAL_MIX", ((6, None),))
    monkeypatch.setattr(workloads, "FORM_NVARS", (3,))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.delenv("APOLAR_KIT_THREADS", raising=False)
    (tmp_path / "work").mkdir()
    return tmp_path


@pytest.fixture(scope="module")
def cli():
    return run._load_package()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_emits_every_metric(tiny, cli, workload):
    metrics, summary, results = run.end_to_end(workload, 1, 0, cli, tiny)
    assert summary["failed"] == 0, [r["problems"] for r in results]
    assert {k: v["unit"] for k, v in metrics.items()} == END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric(tiny, cli, workload):
    metrics, summary, results = run.traced(workload, 1, 0, cli, tiny)
    assert summary["failed"] == 0, [r["problems"] for r in results]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
    assert (tiny / f"spans-{workload}-1.jsonl.gz").exists()
    pipeline_s = sum(metrics[k]["value"] for k in PER_LAYER
                     if k.startswith(("curvegen.", "pipeline.")) and k.endswith("_s"))
    if workload == "forms":
        assert pipeline_s == 0
        assert metrics["apolarity.inverse_s"]["value"] > 0
    else:
        assert metrics["pipeline.alpha_s"]["value"] > 0
        assert metrics["curvegen.ideal_s"]["value"] > 0


def test_tracer_restores_the_package(cli):
    from apolar_kit import core, pipeline
    before = (pipeline.alpha_map, pipeline.change_coordinates,
              core.ExactMatrix.__dict__["rank"])
    with tracer.Tracer() as t:
        assert pipeline.alpha_map is not before[0]
        core.ExactMatrix([[1, 2], [3, 4]]).rank()
    assert (pipeline.alpha_map, pipeline.change_coordinates,
            core.ExactMatrix.__dict__["rank"]) == before
    assert [s.name for s in t.spans] == ["core.elim"]
    assert t.spans[0].data == (4, 3)


def test_self_time_excludes_children():
    outer = tracer.Span("a", None, "c", False)
    outer.start, outer.end = 0.0, 10.0
    inner = tracer.Span("b", 0, "c", False)
    inner.start, inner.end, inner.instr = 2.0, 5.0, 1.0
    assert tracer.self_times([outer, inner]) == [6.0, 3.0]


def test_corrupted_case_is_counted_as_failed(tiny, cli, monkeypatch):
    original = cli.verify_trigonal_fermat

    def corrupted(*args, **kwargs):
        report = original(*args, **kwargs)
        report["trials"][0]["detected_rank"] += 1
        return report

    monkeypatch.setattr(cli, "verify_trigonal_fermat", corrupted)
    _, summary, results = run.end_to_end("trigonal", 1, 0, cli, tiny)
    assert summary["failed"] == summary["attempted"] == len(results) == 1
    assert "detected_rank" in results[0]["problems"][0]


def test_unstable_report_fails_the_traced_run(tiny, cli, monkeypatch):
    original = cli._cmd_apolar
    calls = []

    def drifting(args):
        calls.append(1)
        return dict(original(args), calls=len(calls))

    monkeypatch.setattr(cli, "_cmd_apolar", drifting)
    _, summary, results = run.traced("forms", 1, 0, cli, tiny)
    problems = [p for r in results for p in r["problems"]]
    assert summary["failed"] > 0
    assert any("differs" in p for p in problems)


def test_main_exits_nonzero_on_a_failed_case(tiny, cli, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tiny)
    monkeypatch.setattr(cli, "verify_tetragonal_bound",
                        lambda *a, **k: {"passed": True, "trials": [{}]})
    code = run.main(["--workload", "tetragonal", "--seed", "1", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_case_time_is_the_median_of_its_runs_and_runs_must_agree():
    def result(s, digest):
        return {"id": "c", "group": "g", "s": s, "wall_s": 2 * s, "sample": 0,
                "rss_mb": 50.0, "digest": digest, "problems": [], "report": {}}

    passes = [[result(2.0, "a"), result(1.0, "a")],
              [result(9.0, "a"), result(1.0, "b")],
              [result(1.5, "a"), result(1.0, "a")]]
    steady, drifting = run.per_case(passes)
    assert steady["s"] == 2.0 and steady["runs_s"] == [2.0, 9.0, 1.5]
    assert steady["wall_s"] == 4.0
    assert not steady["problems"]
    assert drifting["problems"] == ["report differs between runs of the same case"]


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    probe = speed.SpeedProbe()
    # the kernel took twice its reference time in the samples around the
    # run, and once seven times: the median of the four ignores that one
    probe.samples = [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S, 7 * speed.REFERENCE_S]
    monkeypatch.setattr(probe, "sample",
                        lambda: probe.samples.append(2 * speed.REFERENCE_S))
    runs = [{"s": 8.0, "sample": 1}, {"s": None, "sample": 1}]
    run.at_reference_speed([runs], probe)
    assert runs[0] == {"s": 4.0, "wall_s": 8.0, "sample": 1}
    assert runs[1]["s"] is None


def test_a_slow_run_stops_starting_rounds(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(run.time, "perf_counter", lambda: float(next(clock)))

    class Echo:
        def run(self, case):
            return case

    rounds = [[1, 2], [3, 4], [5, 6]]
    # every clock reading is one tick later: the third round would start
    # at tick 5 and take one more, past OVERRUN * 3 = 5.1 ticks
    assert run.run_passes(rounds, Echo(), 3, 3.0) == [[1, 2, 3, 4]]
    assert run.run_passes(rounds, Echo(), 2, 10.0) == [[1, 2, 3, 4, 5, 6]] * 2


def test_forked_call_returns_its_value_or_raises():
    assert run.run_forked(lambda: 6 * 7) == 42
    with pytest.raises(RuntimeError, match="ZeroDivisionError"):
        run.run_forked(lambda: 1 / 0)


def test_tail_has_ten_samples_beyond():
    value, percentile = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_inputs_follow_the_seed(tmp_path):
    first = workloads.make_round("forms", 5, 2, tmp_path)
    text = [p.read_text() for p in sorted(tmp_path.glob("*.form.json"))]
    again = workloads.make_round("forms", 5, 2, tmp_path)
    assert [c.argv for c in first] == [c.argv for c in again]
    assert text == [p.read_text() for p in sorted(tmp_path.glob("*.form.json"))]
    other = workloads.make_round("trigonal", 6, 0, tmp_path)
    assert [c.argv for c in other] != [c.argv for c in workloads.make_round("trigonal", 5, 0, tmp_path)]
