"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import htsolve  # noqa: E402
import htsolve.cli  # noqa: E402

from perfbench import harness, speed, workloads  # noqa: E402
from perfbench import run as bench  # noqa: E402

# one cheap input per layer: chain (grounder), casp bike (configkit, search),
# gated valuation program (search grid, dl), founded bike and program (oracle)
SAMPLE = (
    ("datalog-ground", "chain0-n10"),
    ("config-casp", "bike0-w2-2-v2"),
    ("valuation-wide", "val5-k4-d2"),
    ("founded", "fbike5-w1-2-v2-pin"),
    ("founded", "fprog3-a5-x3-d1"),
)


def _prepared(seed: int, workdir: Path) -> list:
    inputs = []
    for workload, name in SAMPLE:
        inputs += [i for i in workloads.generate(workload, seed) if i.name == name]
    assert len(inputs) == len(SAMPLE)
    oracles = workloads.load_oracles()
    return [
        harness.Prepared(p.input, p.path, workloads.reference(p.input, oracles))
        for p in harness.prepare(inputs, workdir)
    ]


def _error_ratio(records) -> float:
    return sum(not r.ok for r in records) / len(records)


def test_corrupted_reference_raises_error_ratio(tmp_path):
    prepared = _prepared(11, tmp_path)
    baseline = _error_ratio(harness.run_round(prepared, speed.Gauge()))
    assert baseline == 0.0

    first = prepared[0]
    bad = dataclasses.replace(first.reference, full="0" * 20, first=frozenset({"0" * 20}))
    records = harness.run_round([dataclasses.replace(first, reference=bad)] + prepared[1:],
                                speed.Gauge())

    assert _error_ratio(records) > baseline
    assert [(r.input, r.error) for r in records if not r.ok] == [
        ("chain0-n10", "WrongAnswer"), ("chain0-n10", "WrongAnswer")
    ]


def test_corrupted_reference_makes_the_command_fail(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    monkeypatch.setattr(bench, "SETUPS", 1)
    inputs = workloads.generate("founded", 3)
    cache = tmp_path / "refs" / f"founded-3-{bench._source_key()}.json"
    cache.parent.mkdir()
    cache.write_text("[" + ",".join('["0", 0, ["0"]]' for _ in inputs) + "]")

    code = bench.main(["--workload", "founded", "--seed", "3", "--seconds", "0"])

    assert code == 1
    assert '"correct": false' in capsys.readouterr().out.splitlines()[-1]


def test_traced_counts_repeat_exactly(tmp_path):
    original_ground = htsolve.cli.ground
    counts = []
    for n in range(2):
        prepared = _prepared(5, tmp_path / str(n))
        records, metrics, _ = bench.traced_run(prepared, 0.0, tmp_path / f"spans{n}.jsonl")
        assert all(r.ok for r in records)
        counts.append({
            k: v for k, (v, unit) in metrics.items()
            if unit != "s" and k != "trace.overhead_ratio"  # the only timed ratio
        })

    assert counts[0] == counts[1]
    for name in ("dl.assert_calls", "search.grid_points", "grounder.candidates",
                 "semantics.candidates", "semantics.oracle_calls", "size.atoms"):
        assert counts[0][name] > 0, name
    assert htsolve.cli.ground is original_ground


def test_gauge_scales_by_the_samples_around_an_interval():
    gauge = speed.Gauge()
    slow, fast = 2 * speed.REFERENCE_S, speed.REFERENCE_S / 2
    gauge.samples = [(t, slow) for t in range(20)] + [(t, fast) for t in range(100, 120)]
    gauge._mids = [t for t, _ in gauge.samples]

    assert gauge.scale(5.0, 6.0) == 0.5  # only slow samples are near
    assert gauge.scale(100.0, 119.0) == 2.0  # the fast samples inside it


def test_samples_inside_a_job_are_left_out_of_its_time():
    gauge = speed.Gauge()
    with gauge.inside() as stolen:
        end = time.perf_counter() + 3 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(gauge.samples) >= 2
    assert stolen[0] >= sum(s for _, s in gauge.samples)
