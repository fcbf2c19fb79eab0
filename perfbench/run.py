"""beatsched benchmark: one command for every workload and metric.

Run from the root of a beatsched checkout:

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 55 --trace 0

--trace 0 measures one workload's end-to-end metrics with tracing off.
Each workload is a single-process closed loop: one caller, the next
instance starts when the previous one has finished. The fixed, seeded
instance list runs in whole passes while the next pass still fits in
--seconds (at least MIN_PASSES), and each instance's time is its minimum
over the passes, which keeps host noise out of the figures. An
instance's first execution is checked against the workload's oracle
outside the timed region; every later execution must reproduce its
result summary.

--trace 1 is the separate traced run. It profiles the chains, pairs and
route_search generators and the CLI at the seed, whichever --workload is
named, because each layer is measured on the workload that exercises
it; --seconds does not apply. Each instance runs once untraced and once
with the span wrappers installed. The run reports the per-layer metrics
listed in BENCHMARK.json and writes the spans to perfbench/out/.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MEASURED = ("pairs", "route_search")  # the end-to-end workloads
PROFILED = ("chains",) + MEASURED  # in-process workloads of the traced run
MIN_PASSES = 3
SETUP_SAMPLES = 5
SETUP_EVERY = 3  # passes between two set-up samples
PROBE_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ------------------------------------------------------------------ helpers


def digest(summaries) -> str:
    """Order-independent hash of the instances' numeric results."""
    text = "\n".join(sorted(repr(s) for s in summaries))
    return hashlib.sha256(text.encode()).hexdigest()


def read_steal_s() -> float | None:
    """Host-wide steal time so far, from /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_wall_s(command: list[str], env: dict) -> float:
    started = time.perf_counter()
    subprocess.run(command, check=True, capture_output=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - started


class SetupProbe:
    """Fresh-interpreter set-up time: import beatsched, build the inputs.

    The child prints time.monotonic() when its inputs are ready; the
    sample is that reading minus the parent's reading before the start.
    """

    def __init__(self, workload: str, seed: int, env: dict) -> None:
        self.command = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
        self.env = env
        self.samples: list[float] = []
        # one untimed start compiles the bytecode, as an installed package has it
        self._start()

    def _start(self) -> float:
        return float(subprocess.run(
            self.command, check=True, capture_output=True, cwd=ROOT, env=self.env, timeout=CHILD_TIMEOUT_S,
        ).stdout.decode().split()[-1])

    def sample(self) -> None:
        started = time.monotonic()
        self.samples.append(self._start() - started)


class Tally:
    """Attempted and failed instance executions, with the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"{label}: {'; '.join(problems)}")


def run_instance(workload, index: int, inp, tally: Tally, tracer=None, expected=None) -> tuple[float, tuple]:
    """Run one instance; returns its seconds and its result summary.

    The first execution of an instance is checked against the workload's
    oracle; a repeat must reproduce the first execution's summary
    (`expected`). Both happen after the clock stops. With a tracer, the
    span wrappers are installed for exactly this execution.
    """
    label = f"{workload.name}[{index}]"
    if tracer is not None:
        tracer.instance = index
        tracer.install()
    started = time.perf_counter()
    try:
        result = workload.execute(inp)
    except Exception:  # a raising instance is a failed instance; keep going
        result = None
        problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    if result is None:
        tally.record(label, problems)
        return elapsed, (index, "raised")
    try:
        summary = workload.summary(inp, result)
        if expected is None:
            problems = workload.check(inp, result)
        elif summary != expected:
            problems = [f"result {summary!r} differs from the first execution's {expected!r}"]
        else:
            problems = []
    except Exception:  # the oracle itself hit an error on this result
        problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        summary = (index, "check raised")
    tally.record(label, problems)
    return elapsed, summary


def recorded(section: str, key: str, seed: int):
    """A value recorded in baseline.json for this seed, or None."""
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(section, {}).get(key, {}).get(str(seed))


# ------------------------------------------------------ end-to-end (trace 0)


def measure(name: str, seed: int, seconds: float, env: dict) -> tuple[bool, Tally, dict, list[str]]:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    setup = SetupProbe(name, seed, env)
    inputs = workload.build(seed)
    tally = Tally()
    times = [float("inf")] * len(inputs)
    first: list = [None] * len(inputs)
    passes = 0
    steal_before = read_steal_s()
    started = time.perf_counter()
    last_pass = 0.0
    # whole passes while the next one still fits in the measuring time; the
    # set-up samples are spread over the run like the instance samples
    while passes < MIN_PASSES or time.perf_counter() - started + last_pass <= seconds:
        pass_started = time.perf_counter()
        if passes % SETUP_EVERY == 0:
            setup.sample()
        for index, inp in enumerate(inputs):
            elapsed, summary = run_instance(workload, index, inp, tally, expected=first[index])
            times[index] = min(times[index], elapsed)
            if first[index] is None:
                first[index] = summary
        passes += 1
        last_pass = time.perf_counter() - pass_started
    wall = time.perf_counter() - started
    while len(setup.samples) < SETUP_SAMPLES:
        setup.sample()
    steal_after = read_steal_s()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result_digest = digest(first)

    notes = [
        f"workload {name}, seed {seed}: {len(inputs)} instances x {passes} passes "
        f"in {wall:.1f} s; each instance timed as its minimum over the passes",
        f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup.samples)}",
    ]
    if steal_before is not None and steal_after is not None:
        notes.append(f"host steal time during the passes: {steal_after - steal_before:.2f} s (diagnostic)")
    correct = tally.failed == 0
    expected_digest = recorded("digests", name, seed)
    notes.append(f"result digest sha256:{result_digest}")
    if expected_digest is not None:
        if expected_digest != result_digest:
            correct = False
            tally.failed = tally.attempted
            notes.append(f"digest differs from the recorded sha256:{expected_digest}; every instance counts as failed")
        else:
            notes.append("digest matches the recorded baseline")
    metrics = {
        "instances_per_s": len(inputs) / sum(times),
        "instance_ms.p50": statistics.median(times) * 1000,
        "instance_ms.p90": percentile(times, 90) * 1000,
        "setup_s": statistics.median(setup.samples),
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    return correct, tally, metrics, notes


# -------------------------------------------------------- per-layer (trace 1)


def profile_in_process(name: str, seed: int, tally: Tally) -> tuple[dict, list[str]]:
    from spans import COUNTERS, Tracer, write_spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.build(seed)
    tracer = Tracer()
    plain, traced = [], []
    for index, inp in enumerate(inputs):
        # each instance runs once untraced and once traced; alternating which
        # goes first keeps warm-up effects out of the overhead ratio
        first = None
        for with_tracer in ((None, tracer) if index % 2 == 0 else (tracer, None)):
            elapsed, summary = run_instance(workload, index, inp, tally, with_tracer, first)
            (plain if with_tracer is None else traced).append(elapsed)
            first = summary if first is None else first
    spans_path = OUT_DIR / f"{name}-seed{seed}.spans.csv.gz"
    written = write_spans(spans_path, tracer.span_rows())
    summary = tracer.summary()
    metrics = {}
    # a function or counter the workload never reaches reads 0
    for function, stats in summary["functions"].items():
        metrics[f"{name}.{function}.calls"] = stats["calls"]
        metrics[f"{name}.{function}.self_s"] = stats["self_s"]
    counters = summary["counters"]
    for counter in COUNTERS:
        metrics[f"{name}.{counter}"] = counters.get(counter, 0)
    run_s = summary["functions"]["simulator.run"]["total_s"]
    metrics[f"{name}.simulator.beats_per_s"] = counters.get("simulator.run.beats", 0) / run_s if run_s else 0.0
    evaluated = counters.get("optimizer.grid_points.evaluated", 0)
    points = evaluated + counters.get("optimizer.grid_points.skipped", 0)
    metrics[f"{name}.optimizer.evaluated_ratio"] = evaluated / points if points else 0.0
    metrics[f"{name}.trace.overhead_ratio"] = sum(traced) / sum(plain)
    notes = [f"{name}: traced {len(inputs)} instances, {written} spans -> {spans_path.relative_to(ROOT)}"]
    return metrics, notes


def profile_cli(seed: int, env: dict, tally: Tally) -> tuple[dict, list[str]]:
    from spans import write_spans
    from workloads import build_cli, check_cli, run_cli

    interpreter = statistics.median(
        child_wall_s([sys.executable, "-c", "pass"], env) for _ in range(PROBE_SAMPLES)
    )
    importing = statistics.median(
        child_wall_s([sys.executable, "-c", "import beatsched.cli"], env) for _ in range(PROBE_SAMPLES)
    )
    spans_json = OUT_DIR / "cli-call.spans.json"
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    def traced_command(args):
        return [sys.executable, str(HERE / "cli_traced.py"), str(spans_json), *args]

    by_subcommand: dict[str, list[float]] = {}
    plain_total = traced_total = parse_self = 0.0
    rows = []
    calls = build_cli(seed)
    for inp in calls:
        index, args = inp[0], inp[1]
        # one untraced and one traced process per call, alternating which goes first
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            started = time.perf_counter()
            result = run_cli(inp, traced_command) if traced else run_cli(inp)
            elapsed = time.perf_counter() - started
            tally.record(f"cli[{index}]{' traced' if traced else ''}", check_cli(inp, result))
            if not traced:
                plain_total += elapsed
                by_subcommand.setdefault(args[0], []).append(elapsed)
                continue
            traced_total += elapsed
            traced_call = json.loads(spans_json.read_text(encoding="utf-8"))
            parse_self += traced_call["functions"]["cli.parse_scenario"]["self_s"]
            rows.extend([span[0], span[1], index, *span[3:]] for span in traced_call["spans"])
    spans_json.unlink(missing_ok=True)
    spans_path = OUT_DIR / f"cli-seed{seed}.spans.csv.gz"
    written = write_spans(spans_path, rows)
    metrics = {
        "cli.interpreter_s": interpreter,
        "cli.import_s": importing - interpreter,
        "cli.parse_scenario.self_s": parse_self,
        "cli.trace.overhead_ratio": traced_total / plain_total,
    }
    for subcommand, samples in by_subcommand.items():
        metrics[f"cli.{subcommand}.s"] = statistics.median(samples)
    notes = [f"cli: traced {len(calls)} calls, {written} spans -> {spans_path.relative_to(ROOT)}"]
    return metrics, notes


def profile(seed: int, env: dict, wanted: dict) -> tuple[bool, Tally, dict, list[str]]:
    tally = Tally()
    found: dict = {}
    notes: list[str] = []
    for name in PROFILED:
        metrics, more = profile_in_process(name, seed, tally)
        found.update(metrics)
        notes.extend(more)
    metrics, more = profile_cli(seed, env, tally)
    found.update(metrics)
    notes.extend(more)
    missing = sorted(set(wanted) - set(found))
    if missing:
        raise RuntimeError(f"traced run produced no value for {missing}")
    counts = {name: found[name] for name, unit in wanted.items() if unit == "count"}
    expected_counts = recorded("counters", "all", seed)
    if expected_counts is not None:
        moved = sorted(name for name in counts if counts[name] != expected_counts.get(name))
        notes.append(
            f"work counters differ from the recorded baseline: {', '.join(moved)}" if moved
            else "work counters match the recorded baseline exactly"
        )
    return tally.failed == 0, tally, {name: found[name] for name in wanted}, notes


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=MEASURED)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum measuring time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "beatsched" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        return fail(f"{ROOT} is not a beatsched checkout: src/beatsched/ and scenarios/ are required")
    sys.path.insert(0, str(src))
    import beatsched

    if not Path(beatsched.__file__).resolve().is_relative_to(src):
        return fail(f"imported beatsched from {beatsched.__file__}, not from {src}")
    from workloads import cli_env

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    env = cli_env()
    if args.trace:
        correct, tally, metrics, notes = profile(args.seed, env, units)
    else:
        correct, tally, metrics, notes = measure(args.workload, args.seed, args.seconds, env)

    for line in notes:
        print(line)
    for name, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{name:48s} {shown} {units[name]}")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"failed_ratio {tally.failed}/{tally.attempted} = {ratio:.4f}")
    for example in tally.examples:
        print(f"  failure: {example}")
    print(f"correctness check: {'PASS' if correct else 'FAIL'}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
