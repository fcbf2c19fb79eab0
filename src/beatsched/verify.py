"""Property suite: randomized and exhaustive checks of the core claims.

Everything here is driven by one explicit seed so the whole suite is
reproducible beat for beat. The checks mirror the acceptance criteria:
each one builds its own corpus, exercises the public modules, and
returns a small result record with a pass flag, a human-readable
summary, and the elapsed time.

The corpus generators double as general-purpose scenario factories:
random chains on a line for the single-path claims, random parallel or
crossing chain pairs in the plane for the joint claims, and raw binary
matrices for the matching claims.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Sequence

from .analysis import interference_intensity
from .errors import DomainError
from .matching import brute_force_max_support, max_support_set, validate_support_set
from .model import PathPair, PrimaryPath, _disk_masks, _row_masks
from .periods import build_matrix, continuation, intrinsic_period, is_reachable_period
from .scheduler import (
    audit_schedule,
    predicted_throughput,
    schedule_pair_equal,
    schedule_pair_unequal,
    schedule_primary,
)
from .simulator import measure_delay, run

DEFAULT_SEED = 42

__all__ = [
    "DEFAULT_SEED",
    "CriterionResult",
    "random_line_scenario",
    "random_pair_scenario",
    "random_binary_matrix",
    "pair_from_joint_matrix",
    "line_corpus",
    "pair_corpus",
    "run_criteria",
    "CRITERIA",
]


# ---------------------------------------------------------------- corpora


_LINE_MAX_SENDERS = 12  # of random_line_scenario
_PAIR_MAX_SENDERS = 8  # per chain of random_pair_scenario


def random_line_scenario(rng: Random) -> PathPair:
    """One chain on a line: random sender count, gaps, and disk radius."""
    n = rng.randint(1, _LINE_MAX_SENDERS)
    x = 0.0
    points = []
    for _ in range(n + 1):
        points.append((x, 0.0))
        x += rng.uniform(0.6, 1.6)
    conflicts = _disk_masks([points], rng.uniform(0.2, 3.2), half_duplex=True)
    return PathPair._from_conflicts(PrimaryPath(id=1, n_senders=n), None, conflicts)


def random_pair_scenario(rng: Random) -> PathPair:
    """Two chains in the plane, parallel or crossing, under one disk radius."""
    n1 = rng.randint(1, _PAIR_MAX_SENDERS)
    n2 = rng.randint(1, _PAIR_MAX_SENDERS)
    points1 = []
    x = 0.0
    for _ in range(n1 + 1):
        points1.append((x, 0.0))
        x += rng.uniform(0.6, 1.6)
    span1 = x
    if rng.random() < 0.5:
        # parallel chain at a random vertical offset
        dx, dy = 1.0, 0.0
        start = (rng.uniform(-2.0, 2.0), rng.uniform(0.3, 3.0))
    else:
        # chain crossing path 1 somewhere near its middle
        angle = rng.uniform(0.35, 1.55)
        dx, dy = math.cos(angle), math.sin(angle)
        reach = (n2 + 1) / 2
        cx = rng.uniform(0.2, max(span1 - 0.2, 0.4))
        start = (cx - reach * dx, -reach * dy)
    px, py = start
    points2 = []
    for _ in range(n2 + 1):
        points2.append((px, py))
        step = rng.uniform(0.6, 1.6)
        px += step * dx
        py += step * dy
    conflicts = _disk_masks([points1, points2], rng.uniform(0.2, 2.2), half_duplex=True)
    return PathPair._from_conflicts(PrimaryPath(id=1, n_senders=n1), PrimaryPath(id=2, n_senders=n2), conflicts)


def random_binary_matrix(
    rng: Random, max_rows: int = 5, max_cols: int = 6
) -> list[list[int]]:
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    density = rng.uniform(0.1, 0.95)
    return [
        [1 if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def pair_from_joint_matrix(c_rows: Sequence[Sequence[int]]) -> PathPair:
    """Realize an arbitrary joint concurrency matrix with concrete chains.

    Each path gets one sender per phase and full internal interference,
    so the phase subsets are singletons and the joint matrix of the
    returned pair (at spacings = chain lengths) is exactly `c_rows`:
    cross pairs interfere wherever the requested entry is 0.
    """
    ones, n2 = _row_masks(c_rows)
    n1 = len(ones)
    if not n1 or not n2:
        raise DomainError("joint matrix needs at least one row and one column")
    own1, own2 = (1 << n1) - 1, ((1 << n2) - 1) << n1  # dense masks: path 2's senders follow path 1's
    conflicts = [own1 ^ 1 << i | own2 & ~row << n1 for i, row in enumerate(ones)]
    conflicts += [own2 ^ 1 << n1 + j | sum(1 << i for i, row in enumerate(ones) if not row >> j & 1) for j in range(n2)]
    return PathPair._from_conflicts(PrimaryPath(id=1, n_senders=n1), PrimaryPath(id=2, n_senders=n2), conflicts)


def line_corpus(seed: int, instances: int) -> list[PathPair]:
    rng = Random(seed)
    return [random_line_scenario(rng) for _ in range(instances)]


@dataclass(frozen=True)
class PairCase:
    """One randomized joint scenario with its chosen spacings and counts."""

    pair: PathPair
    period1: int
    period2: int
    traversals_equal: int
    traversals1: int
    traversals2: int


def pair_corpus(seed: int, instances: int) -> list[PairCase]:
    rng = Random(seed + 1)
    cases = []
    for _ in range(instances):
        pair = random_pair_scenario(rng)
        t1_base = intrinsic_period(pair, 1)
        t2_base = intrinsic_period(pair, 2)
        period1 = rng.randint(t1_base, pair.path(1).n_senders)
        period2 = rng.randint(t2_base, pair.path(2).n_senders)
        cases.append(
            PairCase(
                pair=pair,
                period1=period1,
                period2=period2,
                traversals_equal=rng.randint(1, 3),
                traversals1=rng.randint(1, 3),
                traversals2=rng.randint(1, 3),
            )
        )
    return cases


# ---------------------------------------------------------------- results


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number:2d}  {self.title} ({self.details}, {self.seconds:.2f}s)"


def _criterion(
    number: int, title: str
) -> Callable[[Callable[..., tuple[bool, str]]], Callable[..., CriterionResult]]:
    """Register a check body under its criterion number and title.

    The body returns (passed, details); the registered check times it and
    returns its CriterionResult. A randomized check's `instances` default
    is its corpus floor (see run_criteria).
    """

    def register(body: Callable[..., tuple[bool, str]]) -> Callable[..., CriterionResult]:
        @functools.wraps(body)
        def check(*args, **kwargs) -> CriterionResult:
            started = time.perf_counter()
            passed, details = body(*args, **kwargs)
            return CriterionResult(number, title, passed, details, time.perf_counter() - started)

        check.number = number
        return check

    return register


# ---------------------------------------------------------------- checks


@_criterion(1, "intrinsic period equals interference intensity")
def check_intrinsic_equals_intensity(
    seed: int = DEFAULT_SEED, instances: int = 200
) -> tuple[bool, str]:
    """Smallest reachable spacing always equals the max clique size."""
    bad = 0
    for pair in line_corpus(seed, instances):
        istar, _ = interference_intensity(pair, pair.path_nodes(1))
        if intrinsic_period(pair, 1) != istar:
            bad += 1
    return bad == 0, f"{instances} random chains, {bad} mismatches"


@_criterion(2, "reachable spacings are exactly intensity..N")
def check_reachability_window(
    seed: int = DEFAULT_SEED, instances: int = 200
) -> tuple[bool, str]:
    """Spacings below the intensity are unreachable, the rest up to N reachable."""
    bad = 0
    for pair in line_corpus(seed, instances):
        n = pair.path(1).n_senders
        istar, _ = interference_intensity(pair, pair.path_nodes(1))
        for spacing in range(1, n + 1):
            if is_reachable_period(pair, 1, spacing) != (spacing >= istar):
                bad += 1
    return bad == 0, f"{instances} chains, every spacing tried, {bad} misses"


@_criterion(3, "single-chain rate is exactly 1 over the period")
def check_single_path_throughput(
    seed: int = DEFAULT_SEED, instances: int = 200
) -> tuple[bool, str]:
    """Simulated single-chain rate is exactly one block per intrinsic period."""
    bad = 0
    violations = 0
    for pair in line_corpus(seed, instances):
        schedule = schedule_primary(pair, 1)
        report = run(pair, schedule, n_periods=5)
        violations += report.violations
        if report.measured_throughput != Fraction(1, schedule.period):
            bad += 1
    ok = bad == 0 and violations == 0
    return ok, f"{instances} chains, {bad} rate misses, {violations} violations"


@_criterion(4, "first block delay equals the chain length")
def check_first_block_delay(
    seed: int = DEFAULT_SEED, instances: int = 200
) -> tuple[bool, str]:
    """Cold-start first delivery takes exactly one beat per sender."""
    bad = 0
    for pair in line_corpus(seed, instances):
        schedule = schedule_primary(pair, 1)
        delays = measure_delay(pair, schedule, 1)
        if delays[1][0] != pair.path(1).n_senders:
            bad += 1
    return bad == 0, f"{instances} chains, {bad} delay misses"


@_criterion(5, "support sets match the exhaustive oracle")
def check_support_oracle(
    seed: int = DEFAULT_SEED, instances: int = 500
) -> tuple[bool, str]:
    """Augmenting-path support size matches exhaustive search, witnesses valid."""
    rng = Random(seed + 2)
    bad = 0
    for _ in range(instances):
        matrix = random_binary_matrix(rng)
        witness, size = max_support_set(matrix)
        ok_witness, problems = validate_support_set(matrix, witness)
        if size != brute_force_max_support(matrix) or not ok_witness or problems:
            bad += 1
    return bad == 0, f"{instances} random matrices, {bad} disagreements"


@_criterion(6, "joint schedules deliver their exact predicted rate")
def check_pair_throughput(
    seed: int = DEFAULT_SEED, instances: int = 100
) -> tuple[bool, str]:
    """Both joint schedules hit their predicted rational rate exactly."""
    bad = 0
    violations = 0
    for case in pair_corpus(seed, instances):
        equal = schedule_pair_equal(
            case.pair, case.period1, case.period2, case.traversals_equal
        )
        unequal = schedule_pair_unequal(
            case.pair,
            case.period1,
            case.period2,
            case.traversals1,
            case.traversals2,
        )
        for schedule in (equal, unequal):
            if not audit_schedule(case.pair, schedule).ok:
                bad += 1
                continue
            report = run(case.pair, schedule, n_periods=3)
            violations += report.violations
            counts = schedule.activation_counts
            expected = Fraction(counts[1] + counts[2], schedule.period)
            if (
                report.measured_throughput != expected
                or predicted_throughput(schedule) != expected
            ):
                bad += 1
    ok = bad == 0 and violations == 0
    return ok, f"{instances} pairs x 2 schedules, {bad} misses, {violations} violations"


_MAX_PHASE_SUM = 7  # of the joint matrices criterion 7 enumerates


@_criterion(7, "single-traversal joint schedule has optimal period")
def check_equal_schedule_is_shortest(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """No valid single-traversal beat arrangement beats the emitted period.

    With one traversal per path, an arrangement is a multiset of beats in
    which every phase of each path appears exactly once, joint beats only
    where the joint matrix allows. The period is the beat count, which
    depends only on how many joint beats the arrangement packs, never on
    their order. Enumerating every feasible joint-pairing set therefore
    covers the whole arrangement space, and the shortest length is the
    phase total minus the largest pairing found by exhaustive search.
    """
    checked = 0
    bad = 0
    for t1 in range(1, _MAX_PHASE_SUM):
        for t2 in range(1, _MAX_PHASE_SUM - t1 + 1):
            for bits in itertools.product((0, 1), repeat=t1 * t2):
                rows = [
                    list(bits[i * t2:(i + 1) * t2]) for i in range(t1)
                ]
                pair = pair_from_joint_matrix(rows)
                emitted = schedule_pair_equal(pair, t1, t2, 1).period
                shortest = t1 + t2 - brute_force_max_support(rows)
                checked += 1
                if emitted != shortest:
                    bad += 1
    return bad == 0, f"{checked} exhaustive instances, {bad} longer than optimal"


@_criterion(8, "intensity and rate bounds hold on random pairs")
def check_joint_bounds(
    seed: int = DEFAULT_SEED, instances: int = 100
) -> tuple[bool, str]:
    """Intensity and rate bounds hold on every randomized pair scenario.

    The equal-opportunity rate is the predicted rate of the library's
    schedule with one traversal per path, so the rate bound and its
    equality case test the scheduler, not this check's own arithmetic.
    """
    bad = 0
    for case in pair_corpus(seed, instances):
        pair = case.pair
        istar1, _ = interference_intensity(pair, pair.path_nodes(1))
        istar2, _ = interference_intensity(pair, pair.path_nodes(2))
        istar12, _ = interference_intensity(pair)
        if not max(istar1, istar2) <= istar12 <= istar1 + istar2:
            bad += 1
            continue
        t1, t2 = case.period1, case.period2
        matrix = build_matrix(pair, t1, t2)
        _, usize = max_support_set(matrix.rows)
        if usize > t1 + t2 - istar12:
            bad += 1
            continue
        rate_equal = predicted_throughput(schedule_pair_equal(pair, t1, t2, 1))
        if rate_equal > Fraction(2, istar12):
            bad += 1
            continue
        if usize == t1 + t2 - istar12 and rate_equal != Fraction(2, istar12):
            bad += 1
            continue
        tiled = continuation(matrix, case.traversals1, case.traversals2)
        _, tiled_size = max_support_set(tiled)
        period = case.traversals1 * t1 + case.traversals2 * t2 - tiled_size
        rate_unequal = Fraction(case.traversals1 + case.traversals2, period)
        if rate_unequal > Fraction(1, t1) + Fraction(1, t2):
            bad += 1
    return bad == 0, f"{instances} pairs, {bad} bound violations"


@_criterion(9, "square tiling scales the support size linearly")
def check_tiled_support_scaling(
    seed: int = DEFAULT_SEED, instances: int = 100
) -> tuple[bool, str]:
    """Tiling a matrix k times in both directions scales its support k-fold."""
    rng = Random(seed + 3)
    bad = 0
    for _ in range(instances):
        matrix = random_binary_matrix(rng, max_rows=4, max_cols=4)
        _, base = max_support_set(matrix)
        for scale in (1, 2, 3):
            _, tiled = max_support_set(continuation(matrix, scale, scale))
            if tiled != scale * base:
                bad += 1
    return bad == 0, f"{instances} matrices x 3 scales, {bad} misses"


def _window_pair(n: int, width: int) -> PathPair:
    """Single chain where senders interfere iff their distance is < width."""
    conflicts = [sum(1 << k for k in range(max(0, i - width + 1), min(n, i + width)) if k != i) for i in range(n)]
    return PathPair._from_conflicts(PrimaryPath(id=1, n_senders=n), None, conflicts)


def _partitions_into(n: int, groups: int):
    """All partitions of {1..n} into exactly `groups` nonempty blocks."""

    def go(element: int, blocks: list[list[int]]):
        if element > n:
            if len(blocks) == groups:
                yield [tuple(b) for b in blocks]
            return
        # pruning: remaining elements must be able to fill missing blocks
        if len(blocks) + (n - element + 1) < groups:
            return
        for block in blocks:
            block.append(element)
            yield from go(element + 1, blocks)
            block.pop()
        if len(blocks) < groups:
            blocks.append([element])
            yield from go(element + 1, blocks)
            blocks.pop()

    yield from go(1, [])


_WINDOW_MAX_SENDERS = 9  # of the window chains criterion 10 splits


@_criterion(10, "worst-case chains split into equal groups uniquely")
def check_unique_equal_split(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Worst-case windows split into intensity groups in exactly one way.

    For the chain where all senders closer than the intensity interfere,
    exhaustive partition enumeration must find exactly one split into
    that many concurrency groups, each tested against the chain's conflict
    masks: the equally spaced residue classes.
    """
    checked = 0
    bad = 0
    for n in range(1, _WINDOW_MAX_SENDERS + 1):
        for width in range(1, n + 1):
            pair = _window_pair(n, width)
            expected = [
                tuple(range(r, n + 1, width)) for r in range(1, width + 1)
            ]
            found = []
            for partition in _partitions_into(n, width):
                if all(pair.is_concurrent_mask(pair.seq_mask(1, block)) for block in partition):
                    found.append(sorted(partition))
            checked += 1
            if found != [sorted(tuple(b) for b in expected)]:
                bad += 1
    return bad == 0, f"{checked} window chains, {bad} non-unique splits"


CRITERIA: tuple[Callable[..., CriterionResult], ...] = (
    check_intrinsic_equals_intensity,
    check_reachability_window,
    check_single_path_throughput,
    check_first_block_delay,
    check_support_oracle,
    check_pair_throughput,
    check_equal_schedule_is_shortest,
    check_joint_bounds,
    check_tiled_support_scaling,
    check_unique_equal_split,
)


def run_criteria(
    seed: int = DEFAULT_SEED,
    numbers: Iterable[int] | None = None,
    instances: int | None = None,
) -> list[CriterionResult]:
    """Run the selected checks (all by default) and return their results.

    `instances` scales the randomized corpora but never below a check's
    own `instances` default; exhaustive checks ignore it. Each check draws
    its own rng stream from the seed, so subsets produce the same results
    as the full run. A number no check is registered under is an error.
    """
    registered = {check.number for check in CRITERIA}
    wanted = registered if numbers is None else set(numbers)
    unknown = sorted(wanted - registered)
    if unknown:
        raise DomainError(
            f"no check is numbered {', '.join(map(str, unknown))}; "
            f"checks are numbered 1..{len(CRITERIA)}"
        )
    results = []
    for check in CRITERIA:
        if check.number not in wanted:
            continue
        floor = inspect.signature(check).parameters.get("instances")
        if instances is not None and floor is not None:
            results.append(check(seed, max(instances, floor.default)))
        else:
            results.append(check(seed))
    return results
