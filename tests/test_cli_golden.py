"""Byte-for-byte CLI output on the shipped scenarios.

Each case runs cli.main in process and compares its stdout and exit code
with a frozen file under tests/golden/. A change that alters any printed
byte fails here; if the change is meant, name it in CHANGES.md and
regenerate the files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from beatsched import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CHAIN6 = str(ROOT / "scenarios" / "chain6.json")
CROSSING = str(ROOT / "scenarios" / "crossing_pair.json")
FAR_PAIR = str(ROOT / "scenarios" / "far_pair.json")

# The grid `support -` reads from stdin.
SUPPORT_GRID = "1101\n0110\n1011\n"

# name -> (argv, stdin, exit code)
CASES: dict[str, tuple[tuple[str, ...], str, int]] = {
    "analyze_chain6": (("analyze", CHAIN6), "", 0),
    "analyze_crossing_pair": (("analyze", CROSSING), "", 0),
    "analyze_far_pair": (("analyze", FAR_PAIR), "", 0),
    "matrix": (("matrix", CROSSING), "", 0),
    "matrix_spacings": (("matrix", CROSSING, "--spacing1", "4", "--spacing2", "3"), "", 0),
    "schedule_auto_chain6": (("schedule", CHAIN6), "", 0),
    "schedule_auto_pair": (("schedule", CROSSING), "", 0),
    "schedule_primary_path2": (
        ("schedule", CROSSING, "--mode", "primary", "--path", "2", "--spacing2", "4"), "", 0,
    ),
    "schedule_equal_traversals2": (("schedule", CROSSING, "--mode", "equal", "--traversals", "2"), "", 0),
    "schedule_unequal_traversals1_2": (
        ("schedule", CROSSING, "--mode", "unequal", "--traversals1", "2"), "", 0,
    ),
    "simulate_pair": (("simulate", CROSSING), "", 0),
    "simulate_chain6_trace": (("simulate", CHAIN6, "--trace"), "", 0),
    # both paths traced, with up to three blocks parked at one relay
    "simulate_crossing_unequal_trace": (
        ("simulate", CROSSING, "--mode", "unequal", "--traversals1", "3", "--traversals2", "2",
         "--periods", "2", "--trace"), "", 0,
    ),
    "delay_blocks3": (("delay", CROSSING, "--blocks", "3"), "", 0),
    "optimize": (("optimize", CROSSING), "", 0),
    "optimize_max_traversals3": (("optimize", CROSSING, "--max-traversals", "3"), "", 0),
    "optimize_period_range1": (("optimize", CROSSING, "--period-range1", "4", "4"), "", 0),
    "support_stdin": (("support", "-"), SUPPORT_GRID, 0),
}


def run_case(argv: tuple[str, ...], stdin: str) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.out"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name):
    argv, stdin, expected_code = CASES[name]
    code, out = run_case(argv, stdin)
    assert code == expected_code
    assert out.encode("utf-8") == golden_path(name).read_bytes()


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES)


# The commands a `relation` scenario must answer as its topology scenario does.
RELATION_COMMANDS = [("analyze",), ("schedule",), ("simulate",), ("delay", "--blocks", "3")]
PAIR_COMMANDS = [("matrix",), ("schedule", "--mode", "unequal", "--traversals1", "2")]


def relation_twin(scenario: str, target: Path) -> str:
    """A `relation` scenario over the same paths whose matrix is the
    topology scenario's conflict masks: row i, column j is bit j of
    sender i's mask."""
    doc = json.loads(Path(scenario).read_text())
    conflicts = cli.load_scenario(scenario).pair._conflicts
    n = len(conflicts)
    matrix = [[row >> j & 1 for j in range(n)] for row in conflicts]
    target.write_text(json.dumps({"paths": doc["paths"], "relation": {"matrix": matrix}}))
    return str(target)


@pytest.mark.parametrize(
    "scenario, command",
    [(s, c) for s in (CHAIN6, CROSSING, FAR_PAIR) for c in RELATION_COMMANDS]
    + [(s, c) for s in (CROSSING, FAR_PAIR) for c in PAIR_COMMANDS],
    ids=lambda v: Path(v).stem if isinstance(v, str) else "-".join(v),
)
def test_a_relation_scenario_prints_what_its_topology_does(tmp_path, scenario, command):
    twin = relation_twin(scenario, tmp_path / "relation.json")
    expected = run_case((command[0], scenario, *command[1:]), "")
    assert expected[0] == 0
    assert run_case((command[0], twin, *command[1:]), "") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, (case_argv, case_stdin, _) in CASES.items():
        golden_path(case).write_bytes(run_case(case_argv, case_stdin)[1].encode("utf-8"))


def test_a_loaded_relation_scenario_builds_no_node_pairs(tmp_path):
    # the matrix rows are the pair's masks as they are
    twin = relation_twin(CROSSING, tmp_path / "relation.json")
    pair = cli.load_scenario(twin).pair
    assert "_pairs" not in vars(pair.relation) and "_index" not in vars(pair)
    assert pair == cli.load_scenario(CROSSING).pair
