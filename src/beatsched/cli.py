"""Command-line front end: scenario files in, reports and schedules out.

A scenario is a JSON object declaring one or two chains plus either a
geometric topology (positions and a disk radius, the relation is
derived) or an explicit interference matrix. Scenarios may also carry
an `optimize` section with candidate routes for the grid search, which
only the `optimize` subcommand reads.

All emitted JSON is deterministic: keys are sorted, exact rationals are
written as {"num": ..., "den": ...} objects, and any randomness in the
verify corpus flows from the --seed flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Sequence

from .analysis import analyze
from .errors import ConfigurationError, ConsistencyError, DomainError, SchemaError
from .matching import _max_support
from .model import (
    PathPair,
    PrimaryPath,
    _check_half_duplex,
    _check_radius,
    _disk_masks,
    _MatrixError,
    _point,
    _row_masks,
    validate_path_rules,
)
from .optimizer import (
    DiskScenario,
    RouteCandidate,
    SearchSpace,
    _clamped_range,
    _PointError,
    optimize,
    routes_from_graph,
)
from .periods import build_matrix, intrinsic_period
from .scheduler import (
    Schedule,
    predicted_throughput,
    schedule_pair_equal,
    schedule_pair_unequal,
    schedule_primary,
)
from .simulator import default_warmup_periods, measure_delay, run
from .verify import DEFAULT_SEED, run_criteria


# ------------------------------------------------------------- utilities


def fraction_dict(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(path, message)


def _checked(path: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """make(*args, **kwargs): a library check or constructor, given the raw
    scenario values. Its refusal becomes a SchemaError at `path`, or, for
    a route's point, at that point under `path`."""
    try:
        return make(*args, **kwargs)
    except _PointError as exc:
        raise SchemaError(f"{path}[{exc.index}]", exc.problem) from None
    except (DomainError, ConfigurationError) as exc:
        raise SchemaError(path, str(exc)) from None


def _disk(path: str, radius: Any, half_duplex: Any) -> DiskScenario:
    """The disk model of the section at `path`, checked once, by
    DiskScenario. A refusal is placed at the key whose value fails first,
    found by checking the two values one at a time."""
    try:
        return DiskScenario(radius, half_duplex)
    except (DomainError, ConfigurationError):
        _checked(f"{path}.interference_radius", _check_radius, radius)
        _checked(f"{path}.half_duplex", _check_half_duplex, half_duplex)
        raise


# ------------------------------------------------------------- scenario


@dataclass
class Scenario:
    pair: PathPair
    disk: DiskScenario | None  # the radius and duplex mode of a topology scenario


def _parse_paths(data: dict) -> tuple[PrimaryPath, PrimaryPath | None]:
    raw = data.get("paths")
    _expect(isinstance(raw, list) and raw, "$.paths", "expected a non-empty list of path declarations")
    _expect(len(raw) <= 2, "$.paths", "at most two paths are supported")
    parsed = []
    for k, entry in enumerate(raw):
        _expect(isinstance(entry, dict), f"$.paths[{k}]", "expected an object")
        parsed.append(_checked(f"$.paths[{k}]", PrimaryPath, entry.get("id"), entry.get("n_senders")))
    ids = [p.id for p in parsed]
    _expect(ids == [1] or ids == [1, 2], "$.paths", "path ids must be [1] or [1, 2]")
    return parsed[0], parsed[1] if len(parsed) == 2 else None


def _parse_topology(raw: Any, paths: Sequence[PrimaryPath]) -> tuple[DiskScenario, list[list[tuple[float, float]]]]:
    """The disk model and each path's points, senders then destination."""
    _expect(isinstance(raw, dict), "$.topology", "expected an object")
    disk = _disk("$.topology", raw.get("interference_radius"), raw.get("half_duplex", True))
    positions_raw = raw.get("positions")
    _expect(isinstance(positions_raw, dict), "$.topology.positions", "expected an object keyed by path id")
    routes = []
    for path in paths:
        key = str(path.id)
        row = positions_raw.get(key)
        row_path = f"$.topology.positions.{key}"
        _expect(isinstance(row, list), row_path, "expected a list of points")
        _expect(
            len(row) == path.n_senders + 1,
            row_path,
            f"path {path.id} declares {path.n_senders} senders, so "
            f"{path.n_senders + 1} points are needed (senders plus destination), "
            f"got {len(row)}",
        )
        routes.append([_checked(f"{row_path}[{k}]", _point, value) for k, value in enumerate(row)])
    extra = set(positions_raw) - {str(p.id) for p in paths}
    _expect(not extra, "$.topology.positions", f"unknown path keys {sorted(extra)}")
    return disk, routes


def _parse_relation(raw: Any, path1: PrimaryPath, path2: PrimaryPath | None) -> PathPair:
    """The pair of a relation matrix; a row is checked for its length before its entries."""
    _expect(isinstance(raw, dict), "$.relation", "expected an object")
    matrix = raw.get("matrix")
    n = path1.n_senders + (path2.n_senders if path2 else 0)
    _expect(
        isinstance(matrix, list) and len(matrix) == n,
        "$.relation.matrix",
        f"expected {n} rows (senders of path 1 then path 2, in order)",
    )
    try:
        conflicts, _ = _row_masks(matrix, n)
    except _MatrixError as exc:
        at = f"$.relation.matrix[{exc.row}]"
        _expect(exc.col is not None and len(matrix[exc.row]) == n, at, f"expected {n} entries")
        raise SchemaError(f"{at}[{exc.col}]", "expected 0 or 1") from None
    return _checked("$.relation.matrix", PathPair._from_conflicts, path1, path2, conflicts)


def _parse_route_list(raw: Any, path: str) -> tuple[RouteCandidate, ...]:
    _expect(isinstance(raw, list) and raw, path, "expected a non-empty list of routes")
    routes = []
    for k, points in enumerate(raw):
        route_path = f"{path}[{k}]"
        _expect(isinstance(points, list), route_path, "expected a list of points (senders plus destination)")
        routes.append(_checked(route_path, RouteCandidate, tuple(points), f"route{k}"))
    return tuple(routes)


def _parse_graph_routes(raw: Any) -> list[tuple[RouteCandidate, ...]]:
    """Routes 1 and 2 through one graph, whose vertices and edges are read once."""
    base = "$.optimize.graph"
    _expect(isinstance(raw, dict), base, "expected an object")
    vertices = raw.get("vertices")
    _expect(isinstance(vertices, dict) and vertices, f"{base}.vertices", "expected an object of vertex positions")
    positions = {name: _checked(f"{base}.vertices.{name}", _point, value) for name, value in vertices.items()}
    edges = raw.get("edges")
    _expect(isinstance(edges, list), f"{base}.edges", "expected a list of [a, b] pairs")
    adjacency: dict[str, list[str]] = {name: [] for name in positions}
    for k, edge in enumerate(edges):
        _expect(
            isinstance(edge, list) and len(edge) == 2,
            f"{base}.edges[{k}]",
            "expected an [a, b] pair",
        )
        a, b = edge
        for v in (a, b):
            _expect(
                isinstance(v, str) and v in positions,
                f"{base}.edges[{k}]",
                f"unknown vertex {v!r}",
            )
        adjacency[a].append(b)
        adjacency[b].append(a)
    sides = []
    for which in (1, 2):
        spec = raw.get(f"route{which}")
        spec_path = f"{base}.route{which}"
        _expect(isinstance(spec, dict), spec_path, "expected an object with source/destination/max_hops")
        source = spec.get("source")
        destination = spec.get("destination")
        max_hops = spec.get("max_hops", 8)
        _expect(isinstance(source, str) and source in positions, f"{spec_path}.source", "expected a known vertex name")
        _expect(
            isinstance(destination, str) and destination in positions,
            f"{spec_path}.destination",
            "expected a known vertex name",
        )
        found = _checked(spec_path, routes_from_graph, adjacency, positions, source, destination, max_hops)
        _expect(
            bool(found),
            spec_path,
            f"no simple path from {source!r} to {destination!r} within {max_hops} hops",
        )
        sides.append(found)
    return sides


def _parse_optimize(raw: Any, disk: DiskScenario | None) -> tuple[DiskScenario, SearchSpace]:
    base = "$.optimize"
    _expect(isinstance(raw, dict), base, "expected an object")
    radius = raw.get("interference_radius")
    if radius is None and disk is not None:
        radius = disk.interference_radius
    disk = _disk(base, radius, raw.get("half_duplex", disk.half_duplex if disk else True))
    if "graph" in raw:
        _expect(
            "routes1" not in raw and "routes2" not in raw,
            base,
            "give either a graph or fixed routes, not both",
        )
        routes1, routes2 = _parse_graph_routes(raw["graph"])
    else:
        _expect(
            "routes1" in raw and "routes2" in raw,
            base,
            "expected routes1 and routes2 (or a graph section)",
        )
        routes1 = _parse_route_list(raw["routes1"], f"{base}.routes1")
        routes2 = _parse_route_list(raw["routes2"], f"{base}.routes2")
    max_traversals = raw.get("max_traversals", 4)
    space = _checked(f"{base}.max_traversals", SearchSpace, routes1, routes2, max_traversals=max_traversals)
    # SearchSpace checks each period range; one field at a time, so a
    # refusal is placed at the key it names
    for name in ("period_range1", "period_range2"):
        space = _checked(f"{base}.{name}", replace, space, **{name: raw.get(name)})
    return disk, space


def parse_scenario(data: Any) -> Scenario:
    _expect(isinstance(data, dict), "$", "scenario must be a JSON object")
    path1, path2 = _parse_paths(data)
    has_topology = "topology" in data
    has_relation = "relation" in data
    _expect(
        has_topology != has_relation,
        "$",
        "exactly one of topology or relation must be present",
    )
    if not has_topology:
        return Scenario(pair=_parse_relation(data["relation"], path1, path2), disk=None)
    disk, routes = _parse_topology(data["topology"], [p for p in (path1, path2) if p is not None])
    conflicts = _disk_masks(routes, disk.interference_radius, disk.half_duplex)
    return Scenario(pair=PathPair._from_conflicts(path1, path2, conflicts), disk=disk)


def _read_text(filename: str, kind: str) -> str:
    try:
        with open(filename, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {kind} file: {exc}") from None


def _read_stdin(kind: str) -> str:
    try:
        return sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {kind} from stdin: {exc}") from None


def _decode_json(text: str, invalid: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the int str limit
        raise SchemaError("$", f"{invalid}: {exc}") from None
    except RecursionError:
        raise SchemaError("$", f"{invalid}: nested too deeply to parse") from None


def _load_scenario_json(filename: str) -> Any:
    return _decode_json(_read_text(filename, "scenario"), "invalid JSON")


def load_scenario(filename: str) -> Scenario:
    """The pair and disk model; only `cmd_optimize` reads the optimize section."""
    return parse_scenario(_load_scenario_json(filename))


# ------------------------------------------------------------- rendering


def _emit(payload: Any, out) -> None:
    # one write: json.dump would write each of the encoder's small chunks
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def schedule_timeline(pair: PathPair, schedule: Schedule) -> str:
    """Rows are senders, columns beats; X marks an activated sender."""
    category_codes = {"joint": "J", "path1-only": "1", "path2-only": "2"}
    lines = []
    header = "".join(
        category_codes.get(beat.category, "?") for beat in schedule.beats
    )
    lines.append(f"{'beat category':>10}  {header}")
    for path_id in sorted(schedule.path_periods):
        path = pair.path(path_id)
        active_by_seq: dict[int, set[int]] = {
            seq: set() for seq in range(1, path.n_senders + 1)
        }
        for index, beat in enumerate(schedule.beats):
            act = beat.activation_for(path_id)
            if act is None:
                continue
            for seq in act.members:
                active_by_seq[seq].add(index)
        for seq in range(1, path.n_senders + 1):
            row = "".join(
                "X" if index in active_by_seq[seq] else "."
                for index in range(schedule.period)
            )
            lines.append(f"{f'n{path_id}.{seq}':>10}  {row}")
    return "\n".join(lines)


def spacetime_diagram(pair: PathPair, trace: list[dict]) -> str:
    """Rows are nodes plus destinations, columns beats; a digit is the
    final digit of the block serial leaving that node in that beat."""
    beats = len(trace)
    rows: dict[str, list[str]] = {}
    for path in pair.paths:
        for seq in range(1, path.n_senders + 1):
            rows[f"n{path.id}.{seq}"] = ["."] * beats
        rows[f"dest{path.id}"] = ["."] * beats
    for index, event in enumerate(trace):
        for move in event["moves"]:
            serial_digit = move["block"].split("b", 1)[1][-1]
            origin = move["from"]
            if origin in rows:
                rows[origin][index] = serial_digit
            if move["to"].startswith("dest"):
                rows[move["to"]][index] = serial_digit
    lines = [f"{name:>10}  {''.join(cells)}" for name, cells in rows.items()]
    return "\n".join(lines)


def support_grid(ones: Sequence[int], width: int, witness) -> str:
    """The matrix of these row masks, one row a line, each witness entry shown as *."""
    rows = [list(f"{row | 1 << width:b}"[:0:-1]) for row in ones]  # bit 0 first; the top bit marks the width
    for r, c in witness:
        rows[r - 1][c - 1] = "*"
    return "\n".join(" ".join(cells) for cells in rows)


# ------------------------------------------------------------- commands


def _pair_spacings(pair: PathPair, args) -> tuple[int, int]:
    """The --spacing1/--spacing2 values, each defaulting to its path's
    intrinsic period; an explicit 0 is passed on and rejected downstream."""
    return tuple(
        intrinsic_period(pair, path_id) if given is None else given
        for path_id, given in ((1, args.spacing1), (2, args.spacing2))
    )


def _build_schedule(scenario: Scenario, args) -> Schedule:
    pair = scenario.pair
    mode = args.mode
    if mode == "auto":
        mode = "equal" if pair.has_pair() else "primary"
    if mode == "primary":
        # the chosen path's own flag; an unknown path is rejected downstream
        spacing = {1: args.spacing1, 2: args.spacing2}.get(args.path)
        return schedule_primary(pair, args.path, spacing)
    pair.require_pair()
    spacing1, spacing2 = _pair_spacings(pair, args)
    counts = (args.traversals,) * 2 if mode == "equal" else (args.traversals1, args.traversals2)
    # a cycle has at most each path's spacing per traversal, and the
    # builders refuse a spacing above the path's sender count
    caps = (min(spacing1, pair.path1.n_senders), min(spacing2, pair.path2.n_senders))
    _within(counts[0] * caps[0] + counts[1] * caps[1], MAX_SCHEDULE_BEATS,
            "the schedule has up to {} beats (traversals x spacings)", "lower the traversal counts")
    if mode == "equal":
        return schedule_pair_equal(pair, spacing1, spacing2, args.traversals)
    return schedule_pair_unequal(
        pair, spacing1, spacing2, args.traversals1, args.traversals2
    )


def cmd_analyze(args, out) -> int:
    scenario = load_scenario(args.scenario)
    pair = scenario.pair
    payload: dict[str, Any] = {"paths": {}}
    for path in pair.paths:
        nodes = pair.path_nodes(path.id)
        report = analyze(pair, nodes)
        rules = validate_path_rules(pair, path.id)
        payload["paths"][str(path.id)] = {
            "n_senders": path.n_senders,
            "interference_intensity": report.interference_intensity,
            "interference_witness": [str(n) for n in report.interference_witness],
            "concurrency_intensity": report.concurrency_intensity,
            "concurrency_witness": [str(n) for n in report.concurrency_witness],
            "intrinsic_interference_degree": report.intrinsic_interference_degree,
            "intrinsic_concurrency_degree": report.intrinsic_concurrency_degree,
            "dominant": report.dominant,
            "monotonicity_rules_hold": rules.ok,
            "intrinsic_period": intrinsic_period(pair, path.id),
        }
    if pair.has_pair():
        joint = analyze(pair)
        payload["joint"] = {
            "interference_intensity": joint.interference_intensity,
            "interference_witness": [str(n) for n in joint.interference_witness],
            "concurrency_intensity": joint.concurrency_intensity,
        }
    _emit(payload, out)
    return 0


def cmd_matrix(args, out) -> int:
    scenario = load_scenario(args.scenario)
    pair = scenario.pair
    pair.require_pair()
    spacing1, spacing2 = _pair_spacings(pair, args)
    matrix = build_matrix(pair, spacing1, spacing2)
    payload = {
        "spacing1": spacing1,
        "spacing2": spacing2,
        "rows": matrix.as_lists(),
    }
    _emit(payload, out)
    for row in matrix.as_lists():
        out.write(" ".join(map(str, row)) + "\n")
    return 0


def _read_matrix_input(filename: str) -> tuple[list[int], int]:
    """Row masks and width of JSON rows, each checked for its entries before its length, or of grid lines."""
    text = _read_stdin("matrix") if filename == "-" else _read_text(filename, "matrix")
    stripped = text.strip()
    if not stripped:
        raise SchemaError("$", "matrix input is empty")
    if stripped[0] in "[{":
        data = _decode_json(stripped, "invalid JSON matrix")
        if isinstance(data, dict):
            data = data.get("rows")
        _expect(isinstance(data, list) and data, "$", "expected a list of rows")
        try:
            return _row_masks(data)
        except _MatrixError as exc:
            at = f"$[{exc.row}]"
            _expect(exc.col is None and isinstance(data[exc.row], list), at, "expected a row of 0/1 entries")
            raise SchemaError(at, f"expected {len(data[0])} entries, as in row 0") from None
    rows = []
    for line in stripped.splitlines():
        line = line.strip().replace(" ", "")
        if not line:
            continue
        if not set(line) <= {"0", "1"}:
            raise SchemaError("$", f"grid lines must be 0/1 characters, got {line!r}")
        rows.append(line)
    _expect(bool(rows), "$", "no grid rows found")
    _expect(
        len({len(r) for r in rows}) == 1, "$", "grid rows have unequal lengths"
    )
    return [int(row[::-1], 2) for row in rows], len(rows[0])


def cmd_support(args, out) -> int:
    ones, width = _read_matrix_input(args.matrix)
    # _max_support raises ConsistencyError rather than return an invalid witness
    witness, size = _max_support(ones, width)
    payload = {
        "support_size": size,
        "witness": [list(e) for e in witness],
        "witness_valid": True,
    }
    _emit(payload, out)
    out.write(support_grid(ones, width, witness) + "\n")
    return 0


def cmd_schedule(args, out) -> int:
    scenario = load_scenario(args.scenario)
    pair = scenario.pair
    # every builder audits its schedule and raises ConsistencyError on a problem
    schedule = _build_schedule(scenario, args)
    payload = {
        "schedule": schedule.to_dict(),
        "predicted_throughput": fraction_dict(predicted_throughput(schedule)),
        "audit_ok": True,
        "audit_problems": [],
    }
    _emit(payload, out)
    out.write(schedule_timeline(pair, schedule) + "\n")
    return 0


def cmd_simulate(args, out) -> int:
    scenario = load_scenario(args.scenario)
    pair = scenario.pair
    schedule = _build_schedule(scenario, args)
    _within(args.periods * sum(schedule.activation_counts.values()), MAX_LISTED_VALUES,
            "the output lists up to {} delays (periods x activations per period)", "lower --periods")
    if args.trace:
        warmup = default_warmup_periods(pair, schedule) if args.warmup is None else args.warmup
        _within((warmup + args.periods) * schedule.period, MAX_TRACED_BEATS,
                "the trace has {} beats ((warmup + periods) x period)", "lower --periods or --warmup")
    report = run(
        pair,
        schedule,
        n_periods=args.periods,
        warmup_periods=args.warmup,
        collect_trace=args.trace,
    )
    payload = {
        "window_start": report.window_start,
        "window_beats": report.window_beats,
        "periods_measured": report.periods_measured,
        "delivered": {str(k): v for k, v in report.delivered.items()},
        "per_path_throughput": {
            str(k): fraction_dict(v) for k, v in report.per_path_throughput.items()
        },
        "measured_throughput": fraction_dict(report.measured_throughput),
        "predicted_throughput": fraction_dict(predicted_throughput(schedule)),
        "delays": {str(k): v for k, v in report.delays.items()},
        "interference_violations": report.violations,
        "violation_examples": report.violation_examples,
        "max_buffer_depth": report.max_buffer_depth,
    }
    _emit(payload, out)
    if args.trace and report.trace is not None:
        for event in report.trace:
            out.write(json.dumps(event, sort_keys=True) + "\n")
        out.write(spacetime_diagram(pair, report.trace) + "\n")
    return 0 if report.ok else 1


# The most grid points `optimize` may walk. Each evaluated point is one entry
# of the printed search log (about 300 bytes), so this also bounds the output.
MAX_GRID_POINTS = 250_000

# The most beats a schedule built from the traversal flags may have. The
# unequal builder's support search grows with the product of the two
# paths' beats; at this size it takes under a second on a 2-vCPU Xeon.
MAX_SCHEDULE_BEATS = 2_000

# The most delays `delay` or `simulate` may list: blocks x scheduled paths,
# or measured periods x activations per period. At this size a call
# peaks near 190 MB, about 85 bytes per listed delay.
MAX_LISTED_VALUES = 2_000_000

# The most beats `simulate --trace` may record, (warmup + measured
# periods) x period. The trace is built whole before a line is written, at
# about 1.3 KB per beat, so at this size a call peaks near 150 MB.
MAX_TRACED_BEATS = 100_000


def _within(count: int, limit: int, what: str, remedy: str) -> None:
    """Refuse a call whose size, counted from its flags before any work,
    is above its limit: `what` names the size with a {} for the count."""
    if count > limit:
        raise ConfigurationError(f"{what.format(count)}, more than the limit of {limit}; {remedy}")


def _grid_points(space: SearchSpace) -> int:
    """Grid points of a search before any geometry is looked at: route
    pairs x spacings of each route x traversal pairs. A spacing counts when
    it lies in the route's period range and in 1..n_senders; the search
    drops those below a route's interference intensity, so this bounds its
    grid from above."""

    def spacings(routes, given):
        clamped = (_clamped_range(given, 1, route.n_senders) for route in routes)
        return sum(max(0, hi - lo + 1) for lo, hi in clamped)

    return (
        spacings(space.routes1, space.period_range1)
        * spacings(space.routes2, space.period_range2)
        * space.max_traversals ** 2
    )


def cmd_optimize(args, out) -> int:
    data = _load_scenario_json(args.scenario)
    disk = parse_scenario(data).disk
    # presence, not truth: `"optimize": null` is a section to reject
    if "optimize" not in data:
        raise ConfigurationError("scenario has no optimize section (routes or graph needed)")
    disk, space = _parse_optimize(data["optimize"], disk)
    # replace() runs SearchSpace's own checks on the flags' values
    space = replace(
        space,
        period_range1=space.period_range1 if args.period_range1 is None else args.period_range1,
        period_range2=space.period_range2 if args.period_range2 is None else args.period_range2,
        max_traversals=space.max_traversals if args.max_traversals is None else args.max_traversals,
    )
    _within(_grid_points(space), MAX_GRID_POINTS,
            "the optimize grid has up to {} points (route pairs x spacings x traversal pairs)",
            "lower max_traversals or narrow the period ranges")
    result = optimize(disk, space)
    payload = {
        "best": {
            "routes": [
                {"index": result.best_route_indices[0], "label": result.best_routes[0].label},
                {"index": result.best_route_indices[1], "label": result.best_routes[1].label},
            ],
            "spacing1": result.best_period1,
            "spacing2": result.best_period2,
            "traversals1": result.best_traversals1,
            "traversals2": result.best_traversals2,
            "support_size": result.best_support_size,
            "throughput": fraction_dict(result.best_throughput),
            "period": result.schedule.period,
        },
        "schedule": result.schedule.to_dict(),
        "search_log": [
            {
                "route1": c.route1,
                "route2": c.route2,
                "spacing1": c.period1,
                "spacing2": c.period2,
                "traversals1": c.traversals1,
                "traversals2": c.traversals2,
                "support_size": c.support_size,
                "period": c.period,
                "throughput": None if c.throughput is None else fraction_dict(c.throughput),
                "note": c.note,
            }
            for c in result.search_log
        ],
    }
    _emit(payload, out)
    return 0


def cmd_verify(args, out) -> int:
    numbers = None
    if args.only:
        try:
            numbers = sorted({int(v) for v in args.only.split(",")})
        except ValueError:
            raise ConfigurationError(
                f"--only expects comma-separated check numbers, got {args.only!r}"
            ) from None
    results = run_criteria(seed=args.seed, numbers=numbers, instances=args.instances)
    for result in results:
        out.write(result.line() + "\n")
    failed = [r for r in results if not r.passed]
    out.write(
        f"{len(results) - len(failed)}/{len(results)} checks passed "
        f"(seed {args.seed})\n"
    )
    return 1 if failed else 0


def cmd_delay(args, out) -> int:
    scenario = load_scenario(args.scenario)
    schedule = _build_schedule(scenario, args)
    _within(args.blocks * len(schedule.path_periods), MAX_LISTED_VALUES,
            "the output lists {} delays (blocks x scheduled paths)", "lower --blocks")
    delays = measure_delay(scenario.pair, schedule, args.blocks)
    payload = {
        "blocks": args.blocks,
        "delays": {str(k): v for k, v in delays.items()},
    }
    _emit(payload, out)
    return 0


# ------------------------------------------------------------- dispatch


def _add_schedule_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=("auto", "primary", "equal", "unequal"),
        default="auto",
        help="schedule construction (auto: primary for one chain, equal for two)",
    )
    parser.add_argument("--path", type=int, default=1, help="chain id for primary mode")
    parser.add_argument(
        "--spacing1", type=int, default=None, help="phase spacing of path 1 (default: intrinsic)"
    )
    parser.add_argument(
        "--spacing2", type=int, default=None, help="phase spacing of path 2 (default: intrinsic)"
    )
    parser.add_argument(
        "--traversals", type=int, default=1, help="traversals per period in equal mode"
    )
    parser.add_argument(
        "--traversals1", type=int, default=1, help="path-1 traversals in unequal mode"
    )
    parser.add_argument(
        "--traversals2", type=int, default=1, help="path-2 traversals in unequal mode"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beatsched",
        description=(
            "Interference-free beat scheduling for chains of relaying "
            "senders: structural analysis, schedule synthesis, exact "
            "simulation, and exhaustive search."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="intensities, degrees, and intrinsic periods")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("matrix", help="joint phase concurrency matrix of a pair")
    p.add_argument("scenario")
    p.add_argument("--spacing1", type=int, default=None)
    p.add_argument("--spacing2", type=int, default=None)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("support", help="maximum support set of a 0/1 matrix")
    p.add_argument("matrix", help="JSON file, ASCII grid file, or - for stdin")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("schedule", help="synthesize a periodic schedule")
    p.add_argument("scenario")
    _add_schedule_flags(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="run a schedule beat by beat and measure")
    p.add_argument("scenario")
    _add_schedule_flags(p)
    p.add_argument("--periods", type=int, default=5, help="measured whole periods")
    p.add_argument(
        "--warmup", type=int, default=None, help="warmup periods (default: safe bound)"
    )
    p.add_argument("--trace", action="store_true", help="emit per-beat events and a space-time diagram")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("delay", help="end-to-end delays of the first blocks")
    p.add_argument("scenario")
    _add_schedule_flags(p)
    p.add_argument("--blocks", type=int, default=1, help="blocks to track per path")
    p.set_defaults(func=cmd_delay)

    p = sub.add_parser("optimize", help="exhaustive route/spacing/traversal search")
    p.add_argument("scenario")
    p.add_argument("--max-traversals", type=int, default=None, dest="max_traversals")
    p.add_argument(
        "--period-range1", type=int, nargs=2, default=None, dest="period_range1",
        metavar=("LO", "HI"),
    )
    p.add_argument(
        "--period-range2", type=int, nargs=2, default=None, dest="period_range2",
        metavar=("LO", "HI"),
    )
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--instances",
        type=int,
        default=None,
        help="randomized corpus size (checks keep their contractual minimums)",
    )
    p.add_argument("--only", default=None, help="comma-separated check numbers")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except (SchemaError, ConfigurationError, DomainError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (as with `| head`). Point stdout at devnull so
        # that the interpreter's final flush does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
