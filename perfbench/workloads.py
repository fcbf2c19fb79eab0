"""Seeded workloads of the beatsched benchmark.

A workload turns a seed into a list of raw inputs and runs one instance
at a time through the public beatsched API. Inputs are only what a user
would hand the library: coordinates plus a radius, or a vertex graph,
so the timed part of an instance covers every step from
`derive_relation` and `PathPair` construction onward.

Library functions are looked up on the package at call time
(`bs.analyze`, not a bound import), so the tracer's wrappers see them.

Each in-process workload also has an oracle (`check`, outside the timed region)
and a `summary` of the numeric results that feeds the run's digest.
Summaries leave out witnesses and beat-order-dependent values (delays,
buffer depths), which later changes may legitimately alter.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Any, Callable

import beatsched as bs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PARAMS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
EXPECTED_DIR = HERE / "cli_expected"


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]
    execute: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    summary: Callable[[Any, Any], tuple]


def _rng(workload: str, seed: int) -> Random:
    return Random(f"{workload}/{seed}")


def _line(rng: Random, n_senders: int, gap: list[float], start=(0.0, 0.0), direction=(1.0, 0.0)):
    """n_senders + 1 points (senders plus destination) along a ray."""
    x, y = start
    points = []
    for _ in range(n_senders + 1):
        points.append((x, y))
        step = rng.uniform(*gap)
        x += step * direction[0]
        y += step * direction[1]
    return points


def _stratum(rng: Random, low: float, high: float, index: int, strata: int) -> float:
    width = (high - low) / strata
    return low + width * (index + rng.random())


def _pair_from_points(points1, points2, radius: float) -> bs.PathPair:
    positions = {(1, seq): p for seq, p in enumerate(points1, start=1)}
    path1 = bs.PrimaryPath(id=1, n_senders=len(points1) - 1)
    path2 = None
    if points2 is not None:
        positions.update({(2, seq): p for seq, p in enumerate(points2, start=1)})
        path2 = bs.PrimaryPath(id=2, n_senders=len(points2) - 1)
    topology = bs.GeometricTopology(positions, interference_radius=radius)
    skeleton = bs.PathPair(path1=path1, path2=path2, relation=bs.InterferenceRelation())
    return bs.PathPair(path1=path1, path2=path2, relation=bs.derive_relation(topology, skeleton))


# ------------------------------------------------------------------ chains

CHAINS = PARAMS["chains"]


def build_chains(seed: int) -> list:
    rng = _rng("chains", seed)
    low, high = CHAINS["lengths"]
    inputs = []
    for n in range(low, high + 1):
        for r_low, r_high in CHAINS["radius_strata"]:
            inputs.append((_line(rng, n, CHAINS["gap"]), rng.uniform(r_low, r_high)))
    return inputs


def run_chain(inp):
    points, radius = inp
    pair = _pair_from_points(points, None, radius)
    report = bs.analyze(pair)
    period = bs.intrinsic_period(pair, 1)
    schedule = bs.schedule_primary(pair, 1)
    sim = bs.run(pair, schedule, n_periods=CHAINS["measured_periods"])
    delays = bs.measure_delay(pair, schedule, CHAINS["delay_blocks"])
    return pair, report, period, schedule, sim, delays


def check_chain(inp, result) -> list[str]:
    pair, report, period, schedule, sim, delays = result
    n = pair.path1.n_senders
    problems = []
    if schedule.period != period:
        problems.append(f"schedule period {schedule.period} != intrinsic period {period}")
    if sim.violations:
        problems.append(f"{sim.violations} interference violations")
    if sim.measured_throughput != Fraction(1, schedule.period):
        problems.append(f"rate {sim.measured_throughput} != 1/{schedule.period}")
    if delays[1][0] != n:
        problems.append(f"first-block delay {delays[1][0]} != {n} senders")
    if bs.validate_path_rules(pair, 1).ok and period != report.interference_intensity:
        problems.append(f"period {period} != interference intensity {report.interference_intensity}")
    return problems


def summarize_chain(inp, result) -> tuple:
    pair, report, period, schedule, sim, delays = result
    return (
        pair.path1.n_senders,
        report.interference_intensity,
        report.concurrency_intensity,
        report.intrinsic_interference_degree,
        report.intrinsic_concurrency_degree,
        report.dominant,
        period,
        str(sim.measured_throughput),
        delays[1][0],
    )


# ------------------------------------------------------------------- pairs

PAIRS = PARAMS["pairs"]


def build_pairs(seed: int) -> list:
    rng = _rng("pairs", seed)
    low, high = PAIRS["senders"]
    strata = PAIRS["radius_strata"]
    t_low, t_high = PAIRS["traversals"]
    inputs = []
    for n1 in range(low, high + 1):
        for n2 in range(low, high + 1):
            for g, geometry in enumerate(PAIRS["geometries"]):
                # the radius strata alternate over the (n1, n2, geometry) cells
                r_low, r_high = strata[(n1 + n2 + g) % len(strata)]
                points1 = _line(rng, n1, PAIRS["gap"])
                if geometry == "parallel":
                    start = (rng.uniform(*PAIRS["parallel_start_x"]), rng.uniform(*PAIRS["parallel_offset_y"]))
                    direction = (1.0, 0.0)
                else:
                    angle = rng.uniform(*PAIRS["crossing_angle"])
                    direction = (math.cos(angle), math.sin(angle))
                    reach = (n2 + 1) / 2
                    cx = rng.uniform(0.2, max(points1[-1][0] - 0.2, 0.4))
                    start = (cx - reach * direction[0], -reach * direction[1])
                inputs.append((
                    points1,
                    _line(rng, n2, PAIRS["gap"], start, direction),
                    rng.uniform(r_low, r_high),
                    (rng.random(), rng.random()),
                    rng.randint(t_low, t_high),
                    (rng.randint(t_low, t_high), rng.randint(t_low, t_high)),
                ))
    return inputs


def run_pair(inp):
    points1, points2, radius, picks, equal_traversals, unequal_traversals = inp
    pair = _pair_from_points(points1, points2, radius)
    reports = [bs.analyze(pair, pair.path_nodes(pid)) for pid in (1, 2)]
    spacings = []
    for pid, pick in zip((1, 2), picks):
        lowest = bs.intrinsic_period(pair, pid)
        reachable = [
            s for s in range(lowest, pair.path(pid).n_senders + 1)
            if bs.is_reachable_period(pair, pid, s)
        ]
        spacings.append(reachable[int(pick * len(reachable))])
    equal = bs.schedule_pair_equal(pair, spacings[0], spacings[1], equal_traversals)
    unequal = bs.schedule_pair_unequal(pair, spacings[0], spacings[1], *unequal_traversals)
    schedules = (equal, unequal)
    sims = [bs.run(pair, s, n_periods=PAIRS["measured_periods"]) for s in schedules]
    delays = [bs.measure_delay(pair, s, PAIRS["delay_blocks"]) for s in schedules]
    return pair, reports, spacings, schedules, sims, delays


def check_pair(inp, result) -> list[str]:
    pair, reports, spacings, schedules, sims, delays = result
    problems = []
    for schedule, sim, delay in zip(schedules, sims, delays):
        audit = bs.audit_schedule(pair, schedule)
        if not audit.ok:
            problems.append(f"{schedule.kind} audit failed: {audit.problems[:2]}")
        counts = schedule.activation_counts
        expected = Fraction(counts[1] + counts[2], schedule.period)
        if bs.predicted_throughput(schedule) != expected:
            problems.append(f"{schedule.kind} predicted rate != {expected}")
        if sim.measured_throughput != expected:
            problems.append(f"{schedule.kind} measured rate {sim.measured_throughput} != {expected}")
        if sim.violations:
            problems.append(f"{schedule.kind}: {sim.violations} interference violations")
        if any(len(delay[pid]) != PAIRS["delay_blocks"] for pid in (1, 2)):
            problems.append(f"{schedule.kind}: delay run delivered too few blocks")
    return problems


def summarize_pair(inp, result) -> tuple:
    pair, reports, spacings, schedules, sims, delays = result
    return (
        pair.path1.n_senders,
        pair.path2.n_senders,
        tuple(r.interference_intensity for r in reports),
        tuple(r.concurrency_intensity for r in reports),
        tuple(spacings),
        tuple((s.period, tuple(sorted(s.activation_counts.items()))) for s in schedules),
        tuple(str(sim.measured_throughput) for sim in sims),
    )


# ------------------------------------------------------------ route_search

ROUTES = PARAMS["route_search"]


def _grid(rng: Random, width: int, height: int):
    adjacency: dict[str, list[str]] = {}
    positions: dict[str, tuple[float, float]] = {}
    jitter = ROUTES["jitter"]
    for x in range(width):
        for y in range(height):
            name = f"v{x}.{y}"
            positions[name] = (x + rng.uniform(-jitter, jitter), y + rng.uniform(-jitter, jitter))
            adjacency[name] = [
                f"v{x + dx}.{y + dy}" for dx, dy in ((1, 0), (0, 1))
                if x + dx < width and y + dy < height
            ]
    return adjacency, positions


def build_routes(seed: int) -> list:
    rng = _rng("route_search", seed)
    r_low, r_high = ROUTES["radius"]
    inputs = []
    for config in ROUTES["configs"]:
        width, height = config["grid"]
        for index in range(config["count"]):
            adjacency, positions = _grid(rng, width, height)
            inputs.append((
                adjacency,
                positions,
                ("v0.0", f"v{width - 1}.0"),
                (f"v0.{height - 1}", f"v{width - 1}.{height - 1}"),
                config["max_hops"],
                _stratum(rng, r_low, r_high, index, config["count"]),
                config["max_traversals"],
            ))
    return inputs


def run_routes(inp):
    adjacency, positions, ends1, ends2, max_hops, radius, max_traversals = inp
    routes1 = bs.routes_from_graph(adjacency, positions, *ends1, max_hops)
    routes2 = bs.routes_from_graph(adjacency, positions, *ends2, max_hops)
    space = bs.SearchSpace(routes1=routes1, routes2=routes2, max_traversals=max_traversals)
    return routes1, routes2, bs.optimize(bs.DiskScenario(interference_radius=radius), space)


def check_routes(inp, result) -> list[str]:
    routes1, routes2, best = result
    problems = []
    audit = bs.audit_schedule(best.pair, best.schedule)
    if not audit.ok:
        problems.append(f"winning schedule fails its audit: {audit.problems[:2]}")
    sim = bs.run(best.pair, best.schedule, n_periods=ROUTES["recheck_periods"])
    if sim.violations:
        problems.append(f"winning schedule: {sim.violations} interference violations")
    if sim.measured_throughput != best.best_throughput:
        problems.append(f"re-simulated rate {sim.measured_throughput} != claimed {best.best_throughput}")
    evaluated = [c.throughput for c in best.search_log if c.throughput is not None]
    if max(evaluated) != best.best_throughput:
        problems.append(f"best rate {best.best_throughput} is not the grid maximum {max(evaluated)}")
    return problems


def summarize_routes(inp, result) -> tuple:
    routes1, routes2, best = result
    evaluated = sum(1 for c in best.search_log if c.note == "evaluated")
    return (
        len(routes1),
        len(routes2),
        best.best_route_indices,
        (best.best_period1, best.best_period2),
        (best.best_traversals1, best.best_traversals2),
        best.best_support_size,
        str(best.best_throughput),
        best.schedule.period,
        evaluated,
        len(best.search_log) - evaluated,
    )


# --------------------------------------------------------------------- cli
# The CLI calls are run by the traced run only: each is a new process, so
# they measure interpreter start and imports (the `cli` layer).

CLI_CALLS = PARAMS["cli"]["calls"]


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def expected_output(index: int) -> Path:
    return EXPECTED_DIR / f"{index:02d}.out"


def build_cli(seed: int) -> list:
    """Every call once, in a seeded order, with its recorded stdout."""
    calls = [
        (index, call["args"], call.get("stdin", ""), expected_output(index).read_bytes())
        for index, call in enumerate(CLI_CALLS)
    ]
    _rng("cli", seed).shuffle(calls)
    return calls


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "beatsched.cli", *args]


def run_cli(inp, command=cli_command):
    index, args, stdin, expected = inp
    return subprocess.run(
        command(args),
        input=stdin.encode(),
        capture_output=True,
        cwd=ROOT,
        env=cli_env(),
        timeout=120,
    )


def check_cli(inp, result) -> list[str]:
    index, args, stdin, expected = inp
    problems = []
    if result.returncode != 0:
        problems.append(f"exit code {result.returncode}: {result.stderr.decode(errors='replace').strip()[-200:]}")
    if result.stdout != expected:
        problems.append(f"stdout differs from {expected_output(index).name}")
    return problems


WORKLOADS = {
    "chains": Workload("chains", build_chains, run_chain, check_chain, summarize_chain),
    "pairs": Workload("pairs", build_pairs, run_pair, check_pair, summarize_pair),
    "route_search": Workload("route_search", build_routes, run_routes, check_routes, summarize_routes),
}
