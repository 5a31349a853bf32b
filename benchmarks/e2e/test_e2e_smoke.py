"""Smoke test of the end-to-end benchmark (collected by tier-1).

Runs all four phases and the traced run at ~1/50 scale on one
workload and a non-default seed, and holds ``BENCHMARK.json`` to its
schema and to the layer table.  Asserts outputs and shapes only --
never a timing.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.SPEC
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SCALE = 0.02
SEED = 7  # the default everywhere else is 1


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [e["name"] for group in ("workloads", "end_to_end", "per_layer") for e in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for e in SPEC["end_to_end"]:
        assert set(e) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(e["unit"]) and e["better"] in ("lower", "higher")
        assert 0 <= e["bound"] <= 0.25
    for e in SPEC["per_layer"]:
        assert set(e) == {"name", "unit", "better"}
        assert UNIT.fullmatch(e["unit"]) and e["better"] in ("lower", "higher")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) < 64 * 1024


def test_layer_table_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(e["name"], e["unit"], e["better"]) for e in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in LAYER_METRICS]
    end_to_end = {e["name"] for e in SPEC["end_to_end"]}
    layers = {p.name for p in (HERE.parents[1] / "src" / "repro").iterdir() if p.is_dir()}
    for m in LAYER_METRICS:
        # every layer metric says which end-to-end metric it should move, and where
        assert m.moves and set(m.moves) <= end_to_end, m.name
        assert m.where in WORKLOADS, m.name
        assert m.name.split(".")[0] in layers | {"bench", "trace"}, m.name


def test_same_seed_same_inputs(tmp_path):
    w = WORKLOADS["dense-pe"].scaled(SCALE)
    first = gen.generate(w, SEED, tmp_path / "a")["sha256"]
    again = gen.generate(w, SEED, tmp_path / "b")["sha256"]
    other = gen.generate(w, SEED + 1, tmp_path / "c")["sha256"]
    assert first == again
    assert all(first[name] != other[name] for name in ("refs.fa", "reads.fq"))


def test_all_phases_and_traced_run_at_small_scale():
    result = run.end_to_end(WORKLOADS["sparse-se"], SEED, seconds=2.0, scale=SCALE)
    assert result["correct"], result["detail"]["checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
    assert all(v > 0 for v in result["metrics"].values())
    assert result["metrics"]["ok_share"] == 1.0
    samples = result["detail"]["samples"]
    assert all(len(samples[name]) >= 5 for name in ("time_to_query_s", "reads_per_s",
                                                     "served_reads_per_s", "request_p95_ms"))

    traced = run.traced(WORKLOADS["sparse-se"], SEED, seconds=2.0, scale=SCALE)
    assert traced["correct"], traced["detail"]["checks"]
    assert traced["failed"] == 0
    assert list(traced["metrics"]) == [m.name for m in LAYER_METRICS]
    spans = json.loads(Path(traced["detail"]["trace_file"]).read_text())["spans"]
    assert spans and all(s["end"] >= s["start"] for s in spans)
    assert {s["name"].split(".")[0] for s in spans} >= {
        "genomics", "pipeline", "hashing", "warpcore", "sort", "core", "taxonomy", "api",
        "parallel"}
    # no work directory, server or worker is left behind
    assert not list(run.OUT_DIR.glob("work-*"))
