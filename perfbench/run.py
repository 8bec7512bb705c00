#!/usr/bin/env python3
"""Run one workload of the htsolve benchmark for one seed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload config-casp --seed 1 --seconds 15 --trace 0

Workloads: config-casp, datalog-ground, valuation-wide, founded (see
``perfbench/WORKLOADS.md``).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports per-layer metrics, the tracing overhead included, and
writes its spans to ``perfbench/out/``.  Times are reference seconds, the
measured seconds corrected for the machine's speed by ``perfbench/speed.py``;
the measured values are printed after the metrics.

Every metric is printed as ``<workload> <name> = <value> <unit>``; the last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``error_ratio`` is ``failed / attempted``.

Exit status: 0 when every finished job gave its reference answers, 1 when
some answer differed from its reference, 2 when the checkout lacks the
htsolve sources or the test oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUPS = 7  # set-up is repeated and its median reported
SETUP_SAMPLES = 5  # gauge samples before and after each set-up


def _arguments(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("config-casp", "datalog-ground", "valuation-wide", "founded"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def set_up(workload: str, seed: int, workdir: Path):
    """Import htsolve afresh, generate and write the inputs, warm up once."""
    from perfbench import harness, workloads

    for name in [n for n in sys.modules if n == "htsolve" or n.startswith("htsolve.")]:
        del sys.modules[name]
    importlib.import_module("htsolve")
    prepared = harness.prepare(workloads.generate(workload, seed), workdir)
    for request in ("full", "first"):
        harness.execute(prepared[0], request)
    return prepared


def set_ups(workload: str, seed: int, workdir: Path):
    """``SETUPS`` set-ups, gauged as jobs are: their measured and reference
    seconds, and the inputs the last one prepared."""
    from perfbench import speed

    gauge = speed.Gauge()
    intervals = []  # (start, end, seconds without the samples inside)
    for _ in range(SETUPS):
        for _ in range(SETUP_SAMPLES):
            gauge.sample()
        with gauge.inside() as stolen:
            start = time.perf_counter()
            prepared = set_up(workload, seed, workdir)
            end = time.perf_counter()
        intervals.append((start, end, end - start - stolen[0]))
    for _ in range(SETUP_SAMPLES):
        gauge.sample()
    measured = [s for _, _, s in intervals]
    scaled = [s * gauge.scale(start, end) for start, end, s in intervals]
    return measured, scaled, prepared


def _source_key() -> str:
    """Hash of every file a reference depends on."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "htsolve").glob("*.py"))
    files += [ROOT / "tests" / "oracles.py", ROOT / "perfbench" / "workloads.py"]
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def references(workload: str, seed: int, inputs) -> list:
    """References of the inputs, computed once per seed and kept on disk."""
    from perfbench import workloads

    cache = OUT / "refs" / f"{workload}-{seed}-{_source_key()}.json"
    if cache.is_file():
        rows = json.loads(cache.read_text(encoding="utf-8"))
        return [workloads.Reference(full, n, frozenset(first)) for full, n, first in rows]
    oracles = workloads.load_oracles()
    refs = [workloads.reference(inp, oracles) for inp in inputs]
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps([[r.full, r.answers, sorted(r.first)] for r in refs]),
                   encoding="utf-8")
    tmp.replace(cache)
    return refs


def traced_run(prepared, seconds: float, spans_path: Path):
    """Alternate untraced and traced rounds; per-layer metrics per round.

    The gauge samples between jobs only, and span times are scaled to
    reference seconds by the factor of the job they belong to.
    """
    import htsolve
    from htsolve.core import atoms_of, rule_variables

    from perfbench import harness, speed, tracing

    tracer = tracing.Tracer()
    gauge = speed.Gauge()
    counts: Counter = Counter()
    plain, traced = [], []  # records of each untraced / traced round
    job = 0  # id of the next traced job; traced jobs are numbered in order
    origin = start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # gauge samples between jobs only, so that they do not lengthen spans
        plain.append(harness.run_round(prepared, gauge, inside=False))
        jobs = []
        tracer.install(htsolve)
        try:
            for p in prepared:
                for request in ("full", "first"):
                    gauge.sample()
                    idx = tracer.begin_job(job)
                    rec = harness.run_job(p, request)
                    jobs.append((rec, tracer.end_job(idx)))
                    job += 1
        finally:
            tracer.remove()
        traced.append([rec for rec, _ in jobs])
        for rec, calls in jobs:
            counts.update(tracing.job_counts(tracer.spans, calls, atoms_of, rule_variables))
            counts["cli.bytes_out"] += rec.bytes_out
    gauge.sample()
    records = [r for rs in plain + traced for r in rs]
    harness.rescale(records, gauge)
    tracer.write(spans_path, origin)
    scale = {job: r.scaled / r.seconds if r.seconds else 1.0
             for job, r in enumerate(r for rs in traced for r in rs)}
    metrics = tracing.layer_metrics(
        tracing.span_times(tracer.spans, scale), counts, len(traced))
    untraced_s = statistics.mean(sum(r.scaled for r in rs) for rs in plain)
    traced_s = statistics.mean(sum(r.scaled for r in rs) for rs in traced)
    metrics.update({
        "trace.untraced_round_s": (untraced_s, "s"),
        "trace.traced_round_s": (traced_s, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.spans": (len(tracer.spans) / len(traced), "count"),
    })
    return records, metrics, {"rounds": len(traced), "spans_file": str(spans_path)}


def _by_job(records) -> dict:
    out: dict = {}
    for r in records:
        out.setdefault(f"{r.input}/{r.request}", []).append(r.scaled * 1000.0)
    return out


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "htsolve" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        print("perfbench: src/htsolve or tests/oracles.py missing; run from a full "
              "checkout", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import harness, workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        measured_setups, setups, prepared = set_ups(args.workload, args.seed, workdir)
        refs = references(args.workload, args.seed, [p.input for p in prepared])
        prepared = [harness.Prepared(p.input, p.path, r) for p, r in zip(prepared, refs)]
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            records, metrics, extra = traced_run(
                prepared, args.seconds, OUT / f"spans-{tag}.jsonl")
        else:
            level = workloads.TAIL_LEVEL[args.workload]
            m = harness.measure(prepared, args.seconds, level)
            records = m.records
            metrics, extra = harness.end_to_end(m, statistics.median(setups), level)
            measured, _ = harness.end_to_end(
                m, statistics.median(measured_setups), level, measured=True)
            extra["measured"] = {k: round(v, 6) for k, (v, _) in measured.items()}
            extra["gauge_median_ms"] = m.gauge.median_s() * 1000.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.ok for r in records)
    wrong = sorted({r.input + "/" + r.request for r in records if r.error == "WrongAnswer"})
    extra.update({
        "errors": dict(Counter(f"{r.input}/{r.request}: {r.error}"
                               for r in records if not r.ok)),
        "setups_s": setups,
        "measured_setups_s": measured_setups,
    })
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    by_job = {key: statistics.median(ms) for key, ms in _by_job(records).items()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**result, "details": {**extra, "latency_ms_by_job": by_job}}, indent=1),
        encoding="utf-8")

    notes = {}
    if "latency_tail_level" in extra:
        notes["latency_tail_ms"] = (f" (p{extra['latency_tail_level']:g} of "
                                    f"{extra['latency_samples']} samples)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}{notes.get(name, '')}")
    print(f"{args.workload} error_ratio = {failed / len(records):.6g} ratio "
          f"({failed} of {len(records)} jobs failed)")
    for name, value in extra.items():
        print(f"{args.workload} {name} = {value}")
    if wrong:
        print(f"perfbench: answers differ from the reference: {', '.join(wrong)}",
              file=sys.stderr)
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
