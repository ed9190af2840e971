"""Tests of the benchmark itself: failures are counted, tracing is exact.

    python3 -m pytest -q bench/test_bench.py
"""

import importlib
import json
import signal
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import speedmeter  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

products = importlib.import_module("crossedprod.products")
classify_mod = importlib.import_module("crossedprod.classify")

SMALL_PAIRS = [("cyclic:2", "cyclic:2"), ("cyclic:4", "cyclic:2"), ("cyclic:2", "symmetric:3")]


def checked_pass(wl, ops):
    return run.check_pass(wl, run.run_pass(wl, ops))


def test_clean_pass_has_no_failures():
    result = checked_pass(workloads.EnumerateBulk(0), SMALL_PAIRS)
    assert (result["ops"], result["failed"]) == (3, 0)
    assert result["systems"] == 2 + 6 + 32


def test_corrupted_output_is_a_failure(monkeypatch):
    monkeypatch.setattr(products, "center_pairs", lambda sys_obj: frozenset())
    result = checked_pass(workloads.EnumerateBulk(0), SMALL_PAIRS)
    assert result["failed"] == 3
    assert "disagreements" in result["failures"][0]


def test_raising_operation_is_a_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("engine broke")

    monkeypatch.setattr(classify_mod, "enumerate_raw_systems", broken)
    result = checked_pass(workloads.EnumerateBulk(0), SMALL_PAIRS)
    assert result["failed"] == 3
    assert "engine broke" in result["failures"][0]


def test_cli_digest_mismatch_is_a_failure(monkeypatch):
    wl = workloads.CliRequests(0)
    op = wl.strata["decompose-small"]["requests"][0]["id"]
    assert checked_pass(wl, [op])["failed"] == 0
    monkeypatch.setitem(wl.requests[op], "digest", "0" * 64)
    assert checked_pass(wl, [op])["failed"] == 1


def test_speed_meter_scales_by_the_loop_samples():
    meter = speedmeter.SpeedMeter()
    result, wall, cpu, raw_wall, raw_cpu = meter.measure(lambda: speedmeter._loop(400_000))
    assert result == speedmeter._loop(400_000)
    assert len(meter._samples) > 2, "the alarm should have sampled during the operation"
    factor = speedmeter.REF_LOOP_S / statistics.fmean(meter._samples)
    assert (wall, cpu) == pytest.approx((raw_wall * factor, raw_cpu * factor))
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_speed_meter_stops_on_exceptions():
    def broken():
        raise RuntimeError("op broke")

    with pytest.raises(RuntimeError):
        speedmeter.SpeedMeter().measure(broken)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert run.tail(values, 90.0) == (89.0, 10)
    assert run.tail(values, 50.0) == (49.0, 50)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    cols = {
        "name": [tracer._name_id(n) for n in ("outer", "inner", "inner")],
        "start": [0.0, 1.0, 5.0],
        "end": [10.0, 3.0, 6.0],
        "parent": [-1, 0, 0],
    }
    cols = {k: np.array(v) for k, v in cols.items()}
    assert tracer.self_times(cols) == pytest.approx({"outer": 7.0, "inner": 3.0})


def test_trace_counts_repeat_and_originals_come_back():
    wl = workloads.ClassifyWitness(0)
    originals = {(m, f): getattr(importlib.import_module(f"crossedprod.{m}"), f) for (m, f) in tracing.TRACED}
    job = ("cyclic:2", "cyclic:4", "eq2")
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wl.run(job)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["classify.classify.calls"] == 1
    assert counts[0]["classify.are_equivalent_2.calls"] > 0
    assert counts[0]["cli.classify.stdout_bytes"] > 0
    for (m, f) in tracing.TRACED:
        assert getattr(importlib.import_module(f"crossedprod.{m}"), f) is originals[(m, f)]


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, faster, list(zip(parent, faster)), "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, list(zip(parent, slower)), "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, parent, list(zip(parent, parent)), "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy[::-1], list(zip(noisy, noisy[::-1])), "lower", 0.1)[0] == "unresolved"
    more_failures = (0, 1)
    assert compare.verdict(parent, faster, list(zip(parent, faster)), "lower", 0.1, more_failures)[0] == "failing"
    assert compare.verdict(parent, faster, list(zip(parent, faster)), "lower", 0.1, (2, 2))[0] == "improved"


def test_compare_marks_every_metric_failing(tmp_path, capsys):
    record = json.loads((BENCH / "baseline" / "result-cli-requests-1-trace0.json").read_text(encoding="utf-8"))
    for side, factor, failed in (("parent", 1.0, 0), ("change", 0.5, 1)):
        (tmp_path / side).mkdir()
        for seed in range(1, 11):
            metrics = {k: dict(v, value=v["value"] * factor * (1 + seed / 1000)) for k, v in record["metrics"].items()}
            doc = dict(record, seed=seed, failed=failed, metrics=metrics)
            (tmp_path / side / f"result-cli-requests-{seed}-trace0.json").write_text(json.dumps(doc))
    compare.main([str(tmp_path / "parent"), str(tmp_path / "change")])
    rows = [line for line in capsys.readouterr().out.splitlines() if "wins" in line]
    assert len(rows) == len(record["metrics"])
    assert all(row.endswith("failing") for row in rows)
