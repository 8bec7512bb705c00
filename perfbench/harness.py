"""Jobs, rounds and end-to-end metrics of the benchmark.

A *job* takes one input from source text to checked answers through the
entry points a user calls.  Every input gives two jobs per round:

* a full job.  Program inputs run ``htsolve.cli.run(["solve", FILE, ...])``
  with stdout captured; configuration inputs follow the
  ``scripts/configure_bike.py`` loop (parse -> load_model -> translate ->
  ground -> solve -> decode_instance -> check_instance);
* a one-answer request, ``solve FILE ... --models 1`` through the CLI.  For
  a configuration input the file holds the translated model, written while
  the inputs are prepared.

Load is a closed loop with one client: one process runs the jobs one after
another and a round runs every job once.  A run repeats whole rounds until
the measured time reaches its budget, so every input weighs the same in
every run.  A gauge sample (``speed.Gauge``) is taken before every job, and
the metrics are computed from the jobs' times in reference seconds.

Nothing in here imports ``htsolve`` at module level: set-up imports it
afresh several times, and every job looks the package up when it runs.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .speed import Gauge
from .workloads import Input, Reference, config_key, digest

EXTEND = 3

_INST = re.compile(r"inst\(([^,()]+),([^,()]+)\)\Z")
_PARENT = re.compile(r"parentOf\(([^,()]+),([^,()]+)\)\Z")
_VAL = re.compile(r"val\(([^,()]+),([^,()]+)\)=(-?\d+)\Z")


class JobError(Exception):
    """A job ended without answers, such as a CLI exit code other than 10/20."""


@dataclass(frozen=True)
class Prepared:
    """An input together with its program file and its reference."""

    input: Input
    path: str
    reference: Reference = None


@dataclass
class Record:
    """The outcome of one job."""

    input: str
    request: str  # "full" or "first"
    seconds: float
    ok: bool
    answers: int = 0
    bytes_out: int = 0
    error: str = ""
    start: float = 0.0  # perf_counter() when the job began and ended
    end: float = 0.0
    scaled: float = 0.0  # seconds in reference seconds, set after the run


def prepare(inputs, workdir: Path) -> list:
    """Write each input's program file; configurations are translated first."""
    import htsolve
    from htsolve.configkit import EMPTY_INSTANCE

    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for inp in inputs:
        text = inp.text
        if inp.kind == "config":
            model = _loaded(htsolve.load_model(htsolve.parse_program(text)))
            partial = EMPTY_INSTANCE
            if inp.partial:
                partial = _loaded(htsolve.load_instance(htsolve.parse_program(inp.partial)))
            text = htsolve.pretty_print(htsolve.translate(model, partial, inp.semantics)) + "\n"
        path = workdir / f"{inp.name}.lp"
        path.write_text(text, encoding="utf-8")
        out.append(Prepared(inp, str(path)))
    return out


def _loaded(result):
    if isinstance(result, list):
        raise JobError("; ".join(str(d) for d in result))
    return result


def _cli(path: str, args) -> str:
    import htsolve.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = htsolve.cli.run(["solve", path, *args])
    if code not in (10, 20):
        raise JobError(f"solve exited with {code}")
    return buf.getvalue()


def _config_job(inp: Input) -> tuple:
    import htsolve
    from htsolve.configkit import EMPTY_INSTANCE

    model = _loaded(htsolve.load_model(htsolve.parse_program(inp.text)))
    partial = EMPTY_INSTANCE
    if inp.partial:
        partial = _loaded(htsolve.load_instance(htsolve.parse_program(inp.partial)))
    program = htsolve.translate(model, partial, inp.semantics)
    g = htsolve.ground(program)
    answers = htsolve.solve(g, inp.semantics, htsolve.value_bounds(model), inp.engine)
    keys = set()
    for inst in {htsolve.decode_instance(a) for a in answers}:
        key = config_key(inst.individuals, inst.parents, inst.values)
        if htsolve.check_instance(model, inst):
            key = "invalid " + key
        keys.add(key)
    return digest("\n".join(sorted(keys))), len(keys), 0


def _decode_cli_config(out: str) -> str:
    """The configuration key of a one-answer CLI output, read from its text."""
    lines = out.splitlines()
    if len(lines) < 3 or lines[0] != "Answer: 1" or lines[-1] != "SATISFIABLE":
        return "malformed"
    individuals, parents, values = [], [], []
    for token in lines[1].split():
        if m := _INST.match(token):
            individuals.append(m.groups())
        elif m := _PARENT.match(token):
            parents.append(m.groups())
    present = {i for i, _ in individuals}
    if len(lines) == 4 and lines[2].startswith("val "):
        for token in lines[2][4:].split():
            m = _VAL.match(token)
            if m and m.group(1) in present:
                values.append((m.group(1), m.group(2), int(m.group(3))))
    return config_key(individuals, parents, values)


def execute(p: Prepared, request: str) -> tuple:
    """Run one job: (digest of its answers, answers delivered, stdout bytes)."""
    inp = p.input
    if request == "full" and inp.kind == "config":
        return _config_job(inp)
    if request == "full":
        out = _cli(p.path, inp.solve_args)
        return digest(out), out.count("Answer: "), len(out)
    out = _cli(p.path, inp.solve_args + ("--models", "1"))
    key = _decode_cli_config(out) if inp.kind == "config" else out
    return digest(key), out.count("Answer: "), len(out)


def run_job(p: Prepared, request: str, gauge: Gauge = None) -> Record:
    """Run one job and check its answers against the reference.

    With a gauge, the gauge samples inside the job, and their time is left
    out of the job's.
    """
    name, ref = p.input.name, p.reference
    error = ""
    with gauge.inside() if gauge else contextlib.nullcontext([0.0]) as stolen:
        start = time.perf_counter()
        try:
            got, answers, bytes_out = execute(p, request)
        except Exception as exc:  # contained: the run goes on and counts it
            error = type(exc).__name__
        end = time.perf_counter()
    seconds = end - start - stolen[0]
    if not error and not (got == ref.full if request == "full" else got in ref.first):
        error = "WrongAnswer"
    if error:
        return Record(name, request, seconds, False, error=error, start=start, end=end)
    return Record(name, request, seconds, True, answers, bytes_out, start=start, end=end)


def run_round(prepared, gauge: Gauge, inside: bool = True) -> list:
    """Both jobs of every input once, each after a gauge sample; with
    ``inside``, the gauge samples inside the jobs too."""
    records = []
    for p in prepared:
        for request in ("full", "first"):
            gauge.sample()
            records.append(run_job(p, request, gauge if inside else None))
    return records


def rescale(records, gauge: Gauge) -> None:
    """Set each record's time in reference seconds from the gauge samples."""
    for r in records:
        r.scaled = r.seconds * gauge.scale(r.start, r.end)


@dataclass
class Measurement:
    """Whole rounds of records, and the gauge samples taken between jobs."""

    rounds: list = field(default_factory=list)  # of lists of records
    gauge: Gauge = field(default_factory=Gauge)

    @property
    def records(self) -> list:
        return [r for records in self.rounds for r in records]


def measure(prepared, seconds: float, tail_level: float) -> Measurement:
    """Run whole rounds until ``seconds`` have passed and the tail is defined.

    The tail percentile needs at least 10 correct samples beyond it, so a
    slow run goes on for more rounds, up to ``EXTEND`` times its length,
    rather than report a lower percentile.
    """
    m = Measurement()
    start = time.perf_counter()
    while True:
        m.rounds.append(run_round(prepared, m.gauge))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (
            _beyond(m.records, tail_level) >= 10 or elapsed >= EXTEND * seconds
        ):
            m.gauge.sample()
            rescale(m.records, m.gauge)
            return m


def _beyond(records, level: float) -> float:
    return sum(r.ok for r in records) * (100.0 - level) / 100.0


def percentile(samples, level: float) -> float:
    """Nearest-rank percentile ``level`` of the samples; 0 when there are none.

    No samples means no job answered correctly, and the run fails anyway.
    """
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * level / 100.0)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(m: Measurement, setup_s: float, tail_level: float,
               measured: bool = False) -> dict:
    """End-to-end metrics of one untraced measurement, and details of them.

    Times are reference seconds (``speed``), or the measured seconds when
    ``measured`` is true.  A round's time is the sum of its jobs' times, the
    gauge samples between them left out.  Rates are the median over rounds
    of jobs (answers) per second of round time.  Latency percentiles are
    nearest-rank and cover jobs that finished with the reference answers; a
    job that raised or answered wrongly shows in ``failed`` and
    ``error_ratio`` instead.
    """
    def secs(r):
        return r.seconds if measured else r.scaled

    good = [r for r in m.records if r.ok]
    latencies = [secs(r) * 1000.0 for r in good]
    first = [secs(r) * 1000.0 for r in good if r.request == "first"]
    walls = [sum(secs(r) for r in rs) for rs in m.rounds]
    jobs = [sum(r.ok for r in rs) / wall for rs, wall in zip(m.rounds, walls)]
    answers = [sum(r.answers for r in rs if r.ok) / wall
               for rs, wall in zip(m.rounds, walls)]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (statistics.median(jobs), "1/s"),
        "answers_per_s": (statistics.median(answers), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50.0), "ms"),
        "latency_tail_ms": (percentile(latencies, tail_level), "ms"),
        "first_answer_p50_ms": (percentile(first, 50.0), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }, {
        "latency_tail_level": tail_level,
        "latency_samples": len(latencies),
        "first_answer_samples": len(first),
        "rounds": len(m.rounds),
        "round_s": walls,
    }
