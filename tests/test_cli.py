"""End-to-end checks of the command line driver.

Every test calls cli.main() in process and inspects stdout/stderr, so
the assertions cover argument wiring, scenario parsing, JSON shape,
ASCII rendering, and exit codes in one place. Expected numbers repeat
values the library tests already pin down; here the point is that the
driver reports them unchanged.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from beatsched import cli
from beatsched.scheduler import schedule_from_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CHAIN6 = str(SCENARIOS / "chain6.json")
FAR_PAIR = str(SCENARIOS / "far_pair.json")
CROSSING = str(SCENARIOS / "crossing_pair.json")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def leading_json(text: str):
    """Parse the JSON document at the start of mixed JSON+ASCII output."""
    doc, end = json.JSONDecoder().raw_decode(text)
    return doc, text[end:].lstrip("\n")


def write_scenario(tmp_path, doc) -> str:
    target = tmp_path / "scenario.json"
    target.write_text(json.dumps(doc))
    return str(target)


CHAIN6_ANALYSIS = {
    "concurrency_intensity": 2,
    "concurrency_witness": ["n1.1", "n1.4"],
    "dominant": False,
    "interference_intensity": 3,
    "interference_witness": ["n1.1", "n1.2", "n1.3"],
    "intrinsic_concurrency_degree": 3,
    "intrinsic_interference_degree": 4,
    "intrinsic_period": 3,
    "monotonicity_rules_hold": True,
    "n_senders": 6,
}


class TestAnalyze:
    def test_single_chain_report(self, capsys):
        code, out, err = run(capsys, "analyze", CHAIN6)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc == {"paths": {"1": CHAIN6_ANALYSIS}}

    def test_pair_report_has_joint_section(self, capsys):
        code, out, _ = run(capsys, "analyze", FAR_PAIR)
        assert code == 0
        doc = json.loads(out)
        # Distant chains: the joint independent set just concatenates the
        # per-chain ones (2 + 2), while the biggest clique stays inside
        # the longer chain.
        assert doc["joint"] == {
            "concurrency_intensity": 4,
            "interference_intensity": 3,
            "interference_witness": ["n1.1", "n1.2", "n1.3"],
        }
        assert doc["paths"]["2"]["n_senders"] == 4
        assert doc["paths"]["2"]["intrinsic_period"] == 3

    def test_relation_matrix_scenario(self, capsys, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "paths": [{"id": 1, "n_senders": 3}],
                "relation": {"matrix": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]},
            },
        )
        code, out, _ = run(capsys, "analyze", scenario)
        assert code == 0
        report = json.loads(out)["paths"]["1"]
        assert report["interference_intensity"] == 2
        assert report["concurrency_intensity"] == 2
        assert report["concurrency_witness"] == ["n1.1", "n1.3"]
        assert report["intrinsic_period"] == 2

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "analyze", FAR_PAIR)
        _, second, _ = run(capsys, "analyze", FAR_PAIR)
        assert first == second


class TestMatrix:
    def test_intrinsic_spacings(self, capsys):
        code, out, _ = run(capsys, "matrix", FAR_PAIR)
        assert code == 0
        doc, ascii_part = leading_json(out)
        assert doc == {
            "rows": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
            "spacing1": 3,
            "spacing2": 3,
        }
        assert ascii_part.splitlines() == ["1 1 1", "1 1 1", "1 1 1"]

    def test_explicit_spacings(self, capsys):
        code, out, _ = run(capsys, "matrix", FAR_PAIR, "--spacing1", "4", "--spacing2", "3")
        assert code == 0
        doc, _ = leading_json(out)
        assert doc["spacing1"] == 4
        assert doc["rows"] == [[1, 1, 1]] * 4

    def test_needs_two_paths(self, capsys):
        code, out, err = run(capsys, "matrix", CHAIN6)
        assert code == 1 and out == ""
        assert "two paths" in err


class TestSupport:
    def test_ascii_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "matrix.txt"
        grid.write_text("1 0 1\n1 1 0\n")
        code, out, _ = run(capsys, "support", str(grid))
        assert code == 0
        doc, ascii_part = leading_json(out)
        assert doc == {
            "support_size": 2,
            "witness": [[1, 3], [2, 1]],
            "witness_valid": True,
        }
        assert ascii_part.splitlines() == ["1 0 *", "* 1 0"]

    def test_json_rows_object(self, capsys, tmp_path):
        grid = tmp_path / "matrix.json"
        grid.write_text('{"rows": [[1, 1], [1, 1]]}')
        code, out, _ = run(capsys, "support", str(grid))
        assert code == 0
        doc, ascii_part = leading_json(out)
        assert doc["support_size"] == 2
        # The deterministic tie-break pairs row 1 with column 1.
        assert doc["witness"] == [[1, 1], [2, 2]]
        assert ascii_part.splitlines() == ["* 1", "1 *"]

    def test_json_bare_list(self, capsys, tmp_path):
        grid = tmp_path / "matrix.json"
        grid.write_text("[[0, 1], [1, 0]]")
        code, out, _ = run(capsys, "support", str(grid))
        assert code == 0
        doc, _ = leading_json(out)
        assert doc["support_size"] == 2
        assert doc["witness"] == [[1, 2], [2, 1]]

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 0 1\n1 1 0\n"))
        code, out, _ = run(capsys, "support", "-")
        assert code == 0
        doc, _ = leading_json(out)
        assert doc["support_size"] == 2

    def test_ragged_grid_rejected(self, capsys, tmp_path):
        grid = tmp_path / "matrix.txt"
        grid.write_text("1 0\n1 1 0\n")
        code, _, err = run(capsys, "support", str(grid))
        assert code == 1
        assert "unequal lengths" in err


class TestSchedule:
    def test_pair_golden_timeline(self, capsys):
        code, out, _ = run(capsys, "schedule", FAR_PAIR)
        assert code == 0
        doc, ascii_part = leading_json(out)
        assert doc["audit_ok"] is True
        assert doc["audit_problems"] == []
        assert doc["predicted_throughput"] == {"num": 2, "den": 3}
        assert doc["schedule"]["period"] == 3
        assert ascii_part.splitlines() == [
            "beat category  JJJ",
            "      n1.1  X..",
            "      n1.2  .X.",
            "      n1.3  ..X",
            "      n1.4  X..",
            "      n1.5  .X.",
            "      n1.6  ..X",
            "      n2.1  X..",
            "      n2.2  .X.",
            "      n2.3  ..X",
            "      n2.4  X..",
        ]

    def test_single_chain_timeline(self, capsys):
        code, out, _ = run(capsys, "schedule", CHAIN6)
        assert code == 0
        doc, ascii_part = leading_json(out)
        assert doc["schedule"]["period"] == 3
        lines = ascii_part.splitlines()
        assert lines[0] == "beat category  111"
        assert lines[1] == "      n1.1  X.."
        assert len(lines) == 7

    def test_json_round_trips_through_library(self, capsys):
        _, out, _ = run(capsys, "schedule", FAR_PAIR)
        doc, _ = leading_json(out)
        rebuilt = schedule_from_dict(doc["schedule"])
        assert rebuilt.to_dict() == doc["schedule"]

    def test_unequal_mode(self, capsys):
        code, out, _ = run(
            capsys, "schedule", FAR_PAIR, "--mode", "unequal", "--traversals1", "2"
        )
        assert code == 0
        doc, _ = leading_json(out)
        # 2*3 + 1*3 - 3 pairable joint beats = 6 beats for 3 blocks.
        assert doc["schedule"]["period"] == 6
        assert doc["predicted_throughput"] == {"num": 1, "den": 2}
        assert doc["schedule"]["activation_counts"] == {"1": 2, "2": 1}

    def test_wider_spacing_keeps_wraparound_member(self, capsys):
        code, out, _ = run(capsys, "schedule", CHAIN6, "--spacing1", "5")
        assert code == 0
        doc, ascii_part = leading_json(out)
        assert doc["schedule"]["period"] == 5
        lines = ascii_part.splitlines()
        assert lines[0] == "beat category  11111"
        # Senders 1 and 6 share phase 1 at spacing 5.
        assert lines[1] == "      n1.1  X...."
        assert lines[6] == "      n1.6  X...."

    def test_primary_mode_on_second_path(self, capsys):
        code, out, _ = run(capsys, "schedule", FAR_PAIR, "--path", "2", "--mode", "primary")
        assert code == 0
        _, ascii_part = leading_json(out)
        lines = ascii_part.splitlines()
        assert lines[0] == "beat category  222"
        assert lines[1:] == [
            "      n2.1  X..",
            "      n2.2  .X.",
            "      n2.3  ..X",
            "      n2.4  X..",
        ]

    def test_unreachable_spacing_fails(self, capsys):
        code, out, err = run(capsys, "schedule", CHAIN6, "--spacing1", "2")
        assert code == 1 and out == ""
        assert "not reachable" in err

    def test_equal_mode_needs_pair(self, capsys):
        code, _, err = run(capsys, "schedule", CHAIN6, "--mode", "equal")
        assert code == 1
        assert "no path 2" in err


class TestSimulate:
    def test_pair_measures_prediction(self, capsys):
        code, out, _ = run(capsys, "simulate", FAR_PAIR)
        assert code == 0
        doc = json.loads(out)
        assert doc["measured_throughput"] == {"num": 2, "den": 3}
        assert doc["predicted_throughput"] == {"num": 2, "den": 3}
        assert doc["interference_violations"] == 0
        assert doc["delays"] == {"1": [6] * 5, "2": [4] * 5}
        assert doc["delivered"] == {"1": 5, "2": 5}
        # Default warmup: longest chain (6) plus two periods = 8 periods.
        assert doc["window_start"] == 25
        assert doc["window_beats"] == 15

    def test_flags_shrink_the_window(self, capsys):
        code, out, _ = run(
            capsys, "simulate", CHAIN6, "--periods", "2", "--warmup", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["window_start"] == 4
        assert doc["window_beats"] == 6
        assert doc["periods_measured"] == 2
        assert doc["delivered"] == {"1": 2}
        assert doc["delays"] == {"1": [6, 6]}
        assert doc["measured_throughput"] == {"num": 1, "den": 3}

    def test_trace_appends_events_and_diagram(self, capsys):
        code, out, _ = run(
            capsys, "simulate", CHAIN6, "--periods", "2", "--warmup", "1", "--trace"
        )
        assert code == 0
        _, rest = leading_json(out)
        lines = rest.splitlines()
        first_event = json.loads(lines[0])
        assert first_event == {
            "activated": ["n1.1", "n1.4"],
            "beat": 1,
            "category": "path1-only",
            "moves": [{"block": "p1b1", "from": "n1.1", "to": "n1.2"}],
        }
        # 1 warmup period + 2 measured periods = 9 traced beats.
        events = [json.loads(line) for line in lines if line.startswith("{")]
        assert [e["beat"] for e in events] == list(range(1, 10))
        diagram = [line for line in lines if not line.startswith("{")]
        assert diagram == [
            "      n1.1  1..2..3..",
            "      n1.2  .1..2..3.",
            "      n1.3  ..1..2..3",
            "      n1.4  ...1..2..",
            "      n1.5  ....1..2.",
            "      n1.6  .....1..2",
            "     dest1  .....1..2",
        ]


class TestDelay:
    def test_first_block_per_path(self, capsys):
        code, out, _ = run(capsys, "delay", FAR_PAIR)
        assert code == 0
        assert json.loads(out) == {"blocks": 1, "delays": {"1": [6], "2": [4]}}

    def test_more_blocks(self, capsys):
        code, out, _ = run(capsys, "delay", FAR_PAIR, "--blocks", "2")
        assert code == 0
        assert json.loads(out)["delays"] == {"1": [6, 6], "2": [4, 4]}

    def test_solo_beats_stretch_the_other_path(self, capsys):
        code, out, _ = run(
            capsys, "delay", FAR_PAIR, "--mode", "unequal", "--traversals1", "2",
            "--blocks", "2",
        )
        assert code == 0
        # Path 2 blocks sit through path 1's extra traversal each period.
        assert json.loads(out)["delays"] == {"1": [6, 6], "2": [7, 7]}


GRAPH_SCENARIO = {
    "paths": [{"id": 1, "n_senders": 2}, {"id": 2, "n_senders": 2}],
    "topology": {
        "interference_radius": 1.0,
        "positions": {
            "1": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            "2": [[0.0, 40.0], [1.0, 40.0], [2.0, 40.0]],
        },
    },
    "optimize": {
        "graph": {
            "vertices": {
                "p0": [0.0, 0.0],
                "p1": [1.0, 0.0],
                "p2": [2.0, 0.0],
                "s": [0.0, 40.0],
                "a": [1.0, 40.0],
                "b": [1.0, 44.0],
                "c": [2.0, 44.0],
                "d": [2.0, 40.0],
            },
            "edges": [
                ["p0", "p1"], ["p1", "p2"],
                ["s", "a"], ["a", "d"], ["s", "b"], ["b", "c"], ["c", "d"],
            ],
            "route1": {"source": "p0", "destination": "p2", "max_hops": 2},
            "route2": {"source": "s", "destination": "d", "max_hops": 4},
        },
        "max_traversals": 1,
    },
}


class TestOptimize:
    def test_crossing_pair_picks_the_detour(self, capsys):
        code, out, _ = run(capsys, "optimize", CROSSING)
        assert code == 0
        doc = json.loads(out)
        assert doc["best"]["routes"] == [
            {"index": 0, "label": "route0"},
            {"index": 1, "label": "route1"},
        ]
        assert doc["best"]["throughput"] == {"num": 2, "den": 3}
        assert doc["best"]["period"] == 3
        assert doc["best"]["support_size"] == 3
        assert (doc["best"]["spacing1"], doc["best"]["spacing2"]) == (3, 3)
        assert len(doc["search_log"]) == 24
        assert doc["schedule"]["period"] == 3

    def test_graph_routes(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, GRAPH_SCENARIO)
        code, out, _ = run(capsys, "optimize", scenario)
        assert code == 0
        doc = json.loads(out)
        assert doc["best"]["routes"] == [
            {"index": 0, "label": "p0-p1-p2"},
            {"index": 0, "label": "s-a-d"},
        ]
        # Distant 2-sender chains: every beat is a joint beat.
        assert doc["best"]["throughput"] == {"num": 1, "den": 1}
        assert len(doc["search_log"]) == 2

    def test_period_range_override(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, GRAPH_SCENARIO)
        code, out, _ = run(
            capsys, "optimize", scenario, "--period-range2", "3", "3"
        )
        assert code == 0
        doc = json.loads(out)
        # Spacing 3 does not fit the 2-sender direct route, so the longer
        # detour wins by default.
        assert doc["best"]["routes"][1]["label"] == "s-b-c-d"
        assert doc["best"]["throughput"] == {"num": 2, "den": 3}

    def test_runs_are_deterministic(self, capsys):
        _, first, _ = run(capsys, "optimize", CROSSING)
        _, second, _ = run(capsys, "optimize", CROSSING)
        assert first == second

    def test_scenario_without_optimize_section(self, capsys):
        code, _, err = run(capsys, "optimize", FAR_PAIR)
        assert code == 1
        assert "no optimize section" in err

    def test_graph_and_fixed_routes_are_exclusive(self, capsys, tmp_path):
        doc = json.loads(json.dumps(GRAPH_SCENARIO))
        doc["optimize"]["routes1"] = [[[0.0, 0.0], [1.0, 0.0]]]
        doc["optimize"]["routes2"] = [[[0.0, 40.0], [1.0, 40.0]]]
        scenario = write_scenario(tmp_path, doc)
        code, _, err = run(capsys, "optimize", scenario)
        assert code == 1
        assert "either a graph or fixed routes" in err


class TestVerify:
    def test_single_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "3", "--instances", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("PASS  criterion  3")
        assert lines[-1] == "1/1 checks passed (seed 42)"

    def test_check_subset_and_seed(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--only", "5,9", "--instances", "5", "--seed", "7"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("PASS  criterion  5")
        assert lines[1].startswith("PASS  criterion  9")
        assert lines[-1] == "2/2 checks passed (seed 7)"


class TestErrors:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "analyze", "/nonexistent/scenario.json")
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read scenario file")

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert err.startswith("error: $: invalid JSON")

    def test_paths_must_be_nonempty(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, {"paths": []})
        code, _, err = run(capsys, "analyze", scenario)
        assert code == 1
        assert "$.paths" in err

    def test_topology_and_relation_are_exclusive(self, capsys, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "paths": [{"id": 1, "n_senders": 2}],
                "relation": {"matrix": [[0, 1], [1, 0]]},
                "topology": {
                    "interference_radius": 1,
                    "positions": {"1": [0, 1, 2]},
                },
            },
        )
        code, _, err = run(capsys, "analyze", scenario)
        assert code == 1
        assert "exactly one of topology or relation" in err

    def test_position_count_must_match_path(self, capsys, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "paths": [{"id": 1, "n_senders": 3}],
                "topology": {"interference_radius": 1, "positions": {"1": [0, 1, 2]}},
            },
        )
        code, _, err = run(capsys, "analyze", scenario)
        assert code == 1
        assert "$.topology.positions.1" in err
        assert "4 points are needed" in err

    def test_unknown_position_key_rejected(self, capsys, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "paths": [{"id": 1, "n_senders": 2}],
                "topology": {
                    "interference_radius": 1,
                    "positions": {"1": [0, 1, 2], "7": [0, 1, 2]},
                },
            },
        )
        code, _, err = run(capsys, "analyze", scenario)
        assert code == 1
        assert "unknown path keys" in err

    def test_asymmetric_relation_matrix_rejected(self, capsys, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "paths": [{"id": 1, "n_senders": 2}],
                "relation": {"matrix": [[0, 1], [0, 0]]},
            },
        )
        code, _, err = run(capsys, "analyze", scenario)
        assert code == 1
        assert "$.relation.matrix" in err
        assert "symmetric" in err


NAN_POSITION = (
    '{"paths":[{"id":1,"n_senders":3}],"topology":{"interference_radius":1.0,'
    '"half_duplex":true,"positions":{"1":[0,NaN,2,3]}}}'
)


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "topology,error",
        [
            (
                {"interference_radius": 1.0, "positions": {"1": [0, "NaN", 2, 3]}},
                "error: $.topology.positions.1[1]: expected a finite number",
            ),
            (
                {"interference_radius": 1.0, "positions": {"1": [0, 1, [2, "-Infinity"], 3]}},
                "error: $.topology.positions.1[2][1]: expected a finite number",
            ),
            (
                {"interference_radius": "Infinity", "positions": {"1": [0, 1, 2, 3]}},
                "error: $.topology.interference_radius: expected a finite number",
            ),
            (
                {"interference_radius": "NaN", "positions": {"1": [0, 1, 2, 3]}},
                "error: $.topology.interference_radius: expected a number >= 0",
            ),
            (
                {"interference_radius": 1.0, "positions": {"1": [0, 1, 2, "1e999"]}},
                "error: $.topology.positions.1[3]: expected a finite number",
            ),
        ],
    )
    def test_topology_numbers_must_be_finite(self, capsys, tmp_path, topology, error):
        # json.dumps cannot write NaN and Infinity inside strings, so the
        # placeholders are unquoted after dumping
        text = json.dumps({"paths": [{"id": 1, "n_senders": 3}], "topology": topology})
        for token in ("NaN", "-Infinity", "Infinity", "1e999"):
            text = text.replace(f'"{token}"', token)
        target = tmp_path / "scenario.json"
        target.write_text(text)
        code, out, err = run(capsys, "analyze", str(target))
        assert (code, out) == (1, "")
        assert err == error + "\n"

    def test_optimize_radius_must_be_finite(self, capsys, tmp_path):
        text = json.dumps(
            {
                "paths": [{"id": 1, "n_senders": 1}],
                "relation": {"matrix": [[0]]},
                "optimize": {
                    "interference_radius": "Infinity",
                    "routes1": [[[0, 0], [1, 0]]],
                    "routes2": [[[0, 5], [1, 5]]],
                },
            }
        ).replace('"Infinity"', "Infinity")
        target = tmp_path / "scenario.json"
        target.write_text(text)
        code, out, err = run(capsys, "optimize", str(target))
        assert (code, out) == (1, "")
        assert err == "error: $.optimize.interference_radius: expected a finite number\n"

    def test_nan_position_exits_with_one_error_line(self, tmp_path):
        target = tmp_path / "scenario.json"
        target.write_text(NAN_POSITION)
        src = Path(cli.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "beatsched.cli", "analyze", str(target)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: $.topology.positions.1[1]: expected a finite number\n"


ZERO_FLAG_CASES = [
    (("matrix", CROSSING, "--spacing1", "0"), "spacing must be in 1..6, got 0"),
    (("matrix", CROSSING, "--spacing2", "0"), "spacing must be in 1..4, got 0"),
    (("optimize", CROSSING, "--max-traversals", "0"), "max_traversals must be >= 1, got 0"),
] + [
    ((command, CROSSING, "--mode", mode, flag, "0"), f"spacing must be in 1..{n}, got 0")
    for command in ("schedule", "simulate", "delay")
    for mode in ("equal", "unequal")
    for flag, n in (("--spacing1", 6), ("--spacing2", 4))
]


class TestZeroFlags:
    @pytest.mark.parametrize("argv,error", ZERO_FLAG_CASES)
    def test_zero_reaches_the_library(self, capsys, argv, error):
        # 0 is a value the user gave, not a request for the default
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {error}\n")


def with_field(doc, path, value):
    """Deep copy of `doc` with the field at `path` (keys and indices) replaced."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


RELATION_SCENARIO = {"paths": [{"id": 1, "n_senders": 2}], "relation": {"matrix": [[0, 1], [1, 0]]}}


class TestBooleansAreNotIntegers:
    @pytest.mark.parametrize(
        "doc,error",
        [
            (
                with_field(RELATION_SCENARIO, ("paths", 0, "id"), True),
                "$.paths[0].id: expected an integer path id",
            ),
            (
                with_field(RELATION_SCENARIO, ("paths", 0, "n_senders"), True),
                "$.paths[0].n_senders: expected a positive integer",
            ),
            (
                with_field(RELATION_SCENARIO, ("relation", "matrix", 0, 1), True),
                "$.relation.matrix[0][1]: expected 0 or 1",
            ),
            (
                with_field(GRAPH_SCENARIO, ("optimize", "graph", "route1", "max_hops"), True),
                "$.optimize.graph.route1.max_hops: expected an integer >= 1",
            ),
            (
                with_field(GRAPH_SCENARIO, ("optimize", "max_traversals"), True),
                "$.optimize.max_traversals: expected an integer >= 1",
            ),
            (
                with_field(GRAPH_SCENARIO, ("optimize", "period_range1"), [True, 2]),
                "$.optimize.period_range1: expected [lo, hi] with 1 <= lo <= hi",
            ),
            (
                with_field(GRAPH_SCENARIO, ("optimize", "period_range2"), [1, True]),
                "$.optimize.period_range2: expected [lo, hi] with 1 <= lo <= hi",
            ),
        ],
    )
    def test_boolean_is_rejected_at_its_path(self, capsys, tmp_path, doc, error):
        code, out, err = run(capsys, "analyze", write_scenario(tmp_path, doc))
        assert (code, out, err) == (1, "", f"error: {error}\n")

    def test_support_rejects_boolean_entries(self, capsys, tmp_path):
        grid = tmp_path / "matrix.json"
        grid.write_text("[[true, false], [false, true]]")
        code, out, err = run(capsys, "support", str(grid))
        assert (code, out, err) == (1, "", "error: $[0]: expected a row of 0/1 entries\n")


class TestRelationSize:
    def test_row_count_is_checked_before_senders_are_listed(self, capsys, tmp_path):
        doc = with_field(RELATION_SCENARIO, ("paths", 0, "n_senders"), 10**6)
        code, out, err = run(capsys, "analyze", write_scenario(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == (
            "error: $.relation.matrix: expected 1000000 rows "
            "(senders of path 1 then path 2, in order)\n"
        )


class TestGraphEdges:
    @pytest.mark.parametrize(
        "edge,error",
        [
            ([["p0"], "p1"], "unknown vertex ['p0']"),
            (["p0", {"v": 1}], "unknown vertex {'v': 1}"),
            (["p0", "zz"], "unknown vertex 'zz'"),
        ],
    )
    def test_edge_ends_must_name_vertices(self, capsys, tmp_path, edge, error):
        doc = with_field(GRAPH_SCENARIO, ("optimize", "graph", "edges", 0), edge)
        code, out, err = run(capsys, "optimize", write_scenario(tmp_path, doc))
        assert (code, out, err) == (1, "", f"error: $.optimize.graph.edges[0]: {error}\n")
