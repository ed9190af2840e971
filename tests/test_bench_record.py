import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_record.py"
E2E = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def _write_records(directory, sha, wall, seconds=15.0):
    """One untraced and one traced holder-sweep record per seed; every metric
    reads 1.0 but wall_s, which reads wall[seed - 1]."""
    directory.mkdir()
    provenance = {"cpu_model": "CPU", "nproc": 2, "python": "3.11.7", "numpy": "2.0.0",
                  "git_sha": sha, "src_sha256": sha * 2, "workers": 1, "pinned_cpu": None}
    for seed, w in enumerate(wall, start=1):
        for trace in (0, 1):
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in E2E}
            metrics["wall_s"]["value"] = w
            rec = {"workload": "holder-sweep", "seed": seed, "seconds": seconds, "trace": trace,
                   "provenance": dict(provenance, seed=seed), "attempted": 10, "failed": 0,
                   "metrics": metrics}
            (directory / f"result-holder-sweep-{seed}-trace{trace}.json").write_text(json.dumps(rec))


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=60)


def test_bench_record_writes_both_sides_and_the_verdicts(tmp_path):
    _write_records(tmp_path / "parent", "a", [0.15, 0.16, 0.14, 0.15, 0.15, 0.16, 0.15, 0.14, 0.15, 0.15])
    _write_records(tmp_path / "change", "b", [0.11, 0.10, 0.11, 0.11, 0.12, 0.11, 0.10, 0.11, 0.11, 0.16])
    out = tmp_path / "BENCH.json"
    done = _run(tmp_path / "parent", tmp_path / "change", out)
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["provenance"]["parent"] == {"cpu_model": "CPU", "nproc": 2, "python": "3.11.7",
                                           "numpy": "2.0.0", "git_sha": "a", "src_sha256": "aa"}
    assert doc["provenance"]["change"]["git_sha"] == "b"
    assert list(doc["workloads"]) == ["holder-sweep"]
    sweep = doc["workloads"]["holder-sweep"]
    assert sweep["seeds"] == list(range(1, 11)) and sweep["seconds"] == 15.0
    assert sweep["failed"] == {"parent": 0, "change": 0}
    assert set(sweep["metrics"]) == {m["name"] for m in E2E}
    wall = sweep["metrics"]["wall_s"]
    assert wall["parent"]["median"] == 0.15 and wall["change"]["median"] == 0.11
    assert wall["parent"]["q1"] <= wall["parent"]["median"] <= wall["parent"]["q3"]
    assert (wall["wins"], wall["verdict"]) == (0.9, "improved")
    assert (sweep["metrics"]["cpu_s"]["wins"], sweep["metrics"]["cpu_s"]["verdict"]) == (0.0, "unchanged")


def test_bench_record_refuses_mixed_runs(tmp_path):
    _write_records(tmp_path / "parent", "a", [0.15, 0.16])
    _write_records(tmp_path / "change", "b", [0.11, 0.10], seconds=6.0)
    done = _run(tmp_path / "parent", tmp_path / "change", tmp_path / "BENCH.json")
    assert done.returncode != 0 and "--seconds" in done.stderr
    assert not (tmp_path / "BENCH.json").exists()
