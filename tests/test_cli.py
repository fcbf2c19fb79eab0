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
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from beatsched import cli, matching, model, optimizer, scheduler
from beatsched.errors import ConsistencyError, DomainError
from beatsched.optimizer import DiskScenario
from beatsched.scheduler import schedule_from_dict
from helpers import line_pair

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

    def test_an_invalid_witness_is_an_error_line(self, capsys, tmp_path, monkeypatch):
        # witness_valid is printed as true because the matching checks its
        # own witness and raises instead of returning an invalid one
        grid = tmp_path / "matrix.txt"
        grid.write_text("1 0 1\n1 1 0\n")
        monkeypatch.setattr(matching, "_violations", lambda *args: ["injected"])
        code, out, err = run(capsys, "support", str(grid))
        assert (code, out) == (1, "")
        assert err == "error: matching produced an invalid support set: ['injected']\n"

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

    @pytest.mark.parametrize("text", ["", " \n\t\n"])
    def test_empty_input_is_one_error_line(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(capsys, "support", "-") == (1, "", "error: $: matrix input is empty\n")

    def test_grid_line_that_is_not_bits_is_one_error_line(self, capsys, tmp_path):
        grid = tmp_path / "matrix.txt"
        grid.write_text("1 0\n1 2\n")
        code, out, err = run(capsys, "support", str(grid))
        assert (code, out, err) == (1, "", "error: $: grid lines must be 0/1 characters, got '12'\n")

    def test_blank_lines_between_grid_rows_are_skipped(self, capsys, tmp_path):
        grid = tmp_path / "matrix.txt"
        grid.write_text("1 0 1\n\n   \n1 1 0\n")
        code, out, _ = run(capsys, "support", str(grid))
        assert code == 0
        doc, ascii_part = leading_json(out)
        assert doc == {"support_size": 2, "witness": [[1, 3], [2, 1]], "witness_valid": True}
        assert ascii_part.splitlines() == ["1 0 *", "* 1 0"]

    @pytest.mark.parametrize("rows", ["[[1, 0], [0]]", '{"rows": [[1, 0], [0, 1, 1]]}'])
    def test_ragged_json_rows_rejected_at_their_path(self, capsys, tmp_path, rows):
        matrix = tmp_path / "matrix.json"
        matrix.write_text(rows)
        code, out, err = run(capsys, "support", str(matrix))
        assert (code, out, err) == (1, "", "error: $[1]: expected 2 entries, as in row 0\n")


class TestSchedule:
    def test_a_failed_builder_audit_is_an_error_line(self, capsys, monkeypatch):
        # audit_ok is printed as true because every builder audits its own
        # schedule and raises instead of returning a failing one
        failing = scheduler.AuditReport(True, False, True, True, ["injected"])
        monkeypatch.setattr(scheduler, "audit_schedule", lambda pair, schedule: failing)
        code, out, err = run(capsys, "schedule", FAR_PAIR)
        assert (code, out) == (1, "")
        assert err == "error: constructed schedule failed its own validity audit: injected\n"

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

    @pytest.mark.parametrize("flags, period", [(("--spacing2", "4"), 4), (("--spacing1", "4"), 3)])
    def test_primary_mode_reads_the_chosen_paths_spacing(self, capsys, flags, period):
        # path 2 has intrinsic period 3; --spacing1 belongs to path 1
        code, out, _ = run(capsys, "schedule", FAR_PAIR, "--mode", "primary", "--path", "2", *flags)
        assert code == 0
        doc, _ = leading_json(out)
        assert doc["schedule"]["period"] == period
        assert doc["schedule"]["path_periods"] == {"2": period}

    def test_unreachable_spacing_fails(self, capsys):
        code, out, err = run(capsys, "schedule", CHAIN6, "--spacing1", "2")
        assert code == 1 and out == ""
        assert "not reachable" in err

    @pytest.mark.parametrize("flags", [(), ("--spacing1", "3"), ("--spacing2", "3")])
    @pytest.mark.parametrize("mode", ["equal", "unequal"])
    def test_pair_modes_need_two_paths(self, capsys, mode, flags):
        code, out, err = run(capsys, "schedule", CHAIN6, "--mode", mode, *flags)
        assert (code, out, err) == (1, "", "error: operation needs two paths, scenario declares only one\n")


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

    def test_a_tiled_schedule_delivers_its_first_block_within_the_budget(self, capsys):
        # path 1's first block lands at beat 62 of a 30-beat cycle
        argv = ("delay", CROSSING, "--mode", "unequal", "--traversals1", "10", "--traversals2", "10")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (
            '{\n  "blocks": 1,\n  "delays": {\n    "1": [\n      42\n    ],\n'
            '    "2": [\n      4\n    ]\n  }\n}\n'
        )


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

    @pytest.mark.parametrize("bounds", [[-5, -1], [0, 3], [-2, 1], [4, 2], [0, 0]])
    @pytest.mark.parametrize("name", ["period_range1", "period_range2"])
    def test_a_bad_period_range_reads_alike_from_file_flag_and_library(self, capsys, tmp_path, name, bounds):
        # SearchSpace states the rule; the file adds only the path of its key
        problem = f"{name} must be a pair of ints (lo, hi) with 1 <= lo <= hi, got {bounds}"
        route = optimizer.RouteCandidate(((0.0, 0.0), (1.0, 0.0)))
        with pytest.raises(DomainError) as refused:
            optimizer.SearchSpace((route,), (route,), **{name: bounds})
        assert str(refused.value) == problem
        flag = "--" + name.replace("_", "-")
        code, out, err = run(capsys, "optimize", CROSSING, flag, *map(str, bounds))
        assert (code, out, err) == (1, "", f"error: {problem}\n")
        doc = with_field(GRAPH_SCENARIO, ("optimize", name), bounds)
        code, out, err = run(capsys, "optimize", write_scenario(tmp_path, doc))
        assert (code, out, err) == (1, "", f"error: $.optimize.{name}: {problem}\n")

    def test_the_first_bad_search_field_is_named(self, capsys, tmp_path):
        doc = with_field(GRAPH_SCENARIO, ("optimize", "period_range2"), [0, 3])
        doc = with_field(doc, ("optimize", "period_range1"), [4, 2])
        code, _, err = run(capsys, "optimize", write_scenario(tmp_path, doc))
        assert (code, err) == (1, "error: $.optimize.period_range1: period_range1 must be a pair of ints "
                                  "(lo, hi) with 1 <= lo <= hi, got [4, 2]\n")
        doc = with_field(doc, ("optimize", "max_traversals"), 0)
        code, _, err = run(capsys, "optimize", write_scenario(tmp_path, doc))
        assert (code, err) == (1, "error: $.optimize.max_traversals: max_traversals must be >= 1, got 0\n")

    def test_huge_grids_are_refused_with_their_size(self, capsys):
        # crossing_pair: spacings 1..4 on its route 1 and 1..3 on each of its
        # two routes 2, so 4 * 6 spacing pairs per traversal pair
        rng = random.Random("cli/grid-bound")
        for _ in range(5):
            traversals = rng.randint(cli.MAX_GRID_POINTS, 10**15)
            code, out, err = run(capsys, "optimize", CROSSING, "--max-traversals", str(traversals))
            assert (code, out) == (1, "")
            assert err == (
                f"error: the optimize grid has up to {24 * traversals**2} points (route pairs x "
                f"spacings x traversal pairs), more than the limit of {cli.MAX_GRID_POINTS}; "
                "lower max_traversals or narrow the period ranges\n"
            )

    def test_grid_limit_is_inclusive_and_sees_the_period_ranges(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 24 * 3**2)
        assert run(capsys, "optimize", CROSSING, "--max-traversals", "3")[0] == 0
        assert run(capsys, "optimize", CROSSING, "--max-traversals", "4")[0] == 1
        # spacings 3..4 on route 1 leave 2 * 6 spacing pairs
        assert run(capsys, "optimize", CROSSING, "--max-traversals", "4", "--period-range1", "3", "9")[0] == 0

    @pytest.mark.parametrize("command", ["schedule", "simulate", "delay"])
    @pytest.mark.parametrize("flags, beats", [
        (("--traversals", "100000000"), 600_000_000),
        (("--mode", "unequal", "--traversals1", "100000000"), 300_000_003),
        (("--mode", "unequal", "--traversals2", "100000000"), 300_000_003),
    ])
    def test_huge_schedules_are_refused_before_a_beat_is_built(self, capsys, monkeypatch, command, flags, beats):
        # far_pair: spacing 3 on each path
        def refused(*args):
            raise AssertionError("a schedule was built")

        for name in ("schedule_pair_equal", "schedule_pair_unequal"):
            monkeypatch.setattr(cli, name, refused)
        code, out, err = run(capsys, command, FAR_PAIR, *flags)
        assert (code, out) == (1, "")
        assert err == (
            f"error: the schedule has up to {beats} beats (traversals x spacings), more than "
            f"the limit of {cli.MAX_SCHEDULE_BEATS}; lower the traversal counts\n"
        )

    def test_schedule_limit_is_inclusive_and_sees_the_spacings(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SCHEDULE_BEATS", 18)
        refused = "error: the schedule has up to {} beats"
        assert run(capsys, "schedule", FAR_PAIR, "--traversals", "3")[0] == 0
        assert run(capsys, "schedule", FAR_PAIR, "--traversals", "4")[2].startswith(refused.format(24))
        # intrinsic spacings 3 and 2 on crossing_pair: 4 * 3 + 3 * 2 = 18 beats at most
        assert run(capsys, "delay", CROSSING, "--mode", "unequal", "--traversals1", "4", "--traversals2", "3")[0] == 0
        err = run(capsys, "delay", CROSSING, "--mode", "unequal", "--traversals1", "5", "--traversals2", "3")[2]
        assert err.startswith(refused.format(21))
        # a spacing above the path's sender count counts as its sender count
        err = run(capsys, "simulate", CROSSING, "--spacing1", "99", "--traversals", "2")[2]
        assert err == "error: spacing must be in 1..6, got 99\n"

    def test_closed_pipe_exits_without_a_traceback(self):
        # The output (about 240 kB) outgrows the pipe, so the process is
        # still writing when the reader closes it after 300 bytes.
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "beatsched.cli", "optimize", CROSSING, "--max-traversals", "12"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(src)},
        )
        head = proc.stdout.read(300)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert head.startswith(b"{") and err == b""

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

    @pytest.mark.parametrize("only, unknown", [("99", "99"), ("3,99", "99"), ("11,3,0", "0, 11")])
    def test_unknown_check_number_is_one_error_line(self, capsys, only, unknown):
        code, out, err = run(capsys, "verify", "--only", only, "--instances", "5")
        assert (code, out) == (1, "")
        assert err == f"error: no check is numbered {unknown}; checks are numbered 1..10\n"


    @pytest.mark.parametrize("only", ["1,x", "3,", "x"])
    def test_check_numbers_that_are_no_numbers_are_one_error_line(self, capsys, only):
        code, out, err = run(capsys, "verify", "--only", only, "--instances", "5")
        assert (code, out) == (1, "")
        assert err == f"error: --only expects comma-separated check numbers, got {only!r}\n"


class TestErrors:
    def test_internal_check_failure_is_one_error_line(self, capsys, monkeypatch):
        def broken(args, out):
            raise ConsistencyError("path 1: injected 4, in flight 1, delivered 2 do not balance")

        monkeypatch.setattr(cli, "cmd_simulate", broken)
        code, out, err = run(capsys, "simulate", CHAIN6)
        assert (code, out) == (1, "")
        assert err == "error: path 1: injected 4, in flight 1, delivered 2 do not balance\n"

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
                "error: $.topology.positions.1[1]: must be finite, got (nan,)",
            ),
            (
                {"interference_radius": 1.0, "positions": {"1": [0, 1, [2, "-Infinity"], 3]}},
                "error: $.topology.positions.1[2]: must be finite, got (2.0, -inf)",
            ),
            (
                {"interference_radius": "Infinity", "positions": {"1": [0, 1, 2, 3]}},
                "error: $.topology.interference_radius: interference_radius must be finite, got inf",
            ),
            (
                {"interference_radius": "NaN", "positions": {"1": [0, 1, 2, 3]}},
                "error: $.topology.interference_radius: interference_radius must be finite, got nan",
            ),
            (
                {"interference_radius": 1.0, "positions": {"1": [0, 1, 2, "1e999"]}},
                "error: $.topology.positions.1[3]: must be finite, got (inf,)",
            ),
            (
                # an integer too large for a float
                {"interference_radius": 1.0, "positions": {"1": [0, int("9" * 400), 2, 3]}},
                "error: $.topology.positions.1[1]: must be finite, got (inf,)",
            ),
            (
                # an integer too large for a float is an infinity of its sign
                {"interference_radius": 1.0, "positions": {"1": [-(10**400), 1, 2, 3]}},
                "error: $.topology.positions.1[0]: must be finite, got (-inf,)",
            ),
            (
                {"interference_radius": 1.0, "positions": {"1": [0, 1, [2, 10**400], 3]}},
                "error: $.topology.positions.1[2]: must be finite, got (2.0, inf)",
            ),
            (
                {"interference_radius": 1.0, "positions": {"1": [0, [-(10**400), 1], 2, 3]}},
                "error: $.topology.positions.1[1]: must be finite, got (-inf, 1.0)",
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
        assert err == "error: $.optimize.interference_radius: interference_radius must be finite, got inf\n"

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
        assert result.stderr == "error: $.topology.positions.1[1]: must be finite, got (nan,)\n"

    @pytest.mark.parametrize(
        "argv, stdin, message",
        [
            (("analyze", "{file}"), "", "error: $: invalid JSON: nested too deeply to parse\n"),
            (("support", "-"), "{deep}", "error: $: invalid JSON matrix: nested too deeply to parse\n"),
        ],
    )
    def test_deep_nesting_exits_with_one_error_line(self, tmp_path, argv, stdin, message):
        deep = "[" * 100_000
        target = tmp_path / "deep.json"
        target.write_text(deep)
        src = Path(cli.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "beatsched.cli", *(a.format(file=target) for a in argv)],
            input=stdin.format(deep=deep),
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == message

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (
                ("analyze", "{file}"),
                b'{"paths": [{"id": 1, "n_senders": 1}], "note": "\xff"}',
                "error: cannot read scenario file: ",
            ),
            (("support", "{file}"), b"\xff1\n01\n", "error: cannot read matrix file: "),
            (("support", "-"), b"\xff1\n01\n", "error: cannot read matrix from stdin: "),
        ],
        ids=["analyze", "support-file", "support-stdin"],
    )
    def test_input_that_is_not_utf8_exits_with_one_error_line(self, tmp_path, argv, content, message):
        target = tmp_path / "input"
        target.write_bytes(content)
        src = Path(cli.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "beatsched.cli", *(a.format(file=target) for a in argv)],
            input=content,
            capture_output=True,
            env={"PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8"},
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr.decode("utf-8") == (
            f"{message}'utf-8' codec can't decode byte 0xff in position "
            f"{content.index(0xFF)}: invalid start byte\n"
        )


ZERO_FLAG_CASES = [
    (("matrix", CROSSING, "--spacing1", "0"), "spacing must be in 1..6, got 0"),
    (("matrix", CROSSING, "--spacing2", "0"), "spacing must be in 1..4, got 0"),
    (("optimize", CROSSING, "--max-traversals", "0"), "max_traversals must be >= 1, got 0"),
] + [
    ((command, CROSSING, "--mode", mode, flag, "0"), f"spacing must be in 1..{n}, got 0")
    for command in ("schedule", "simulate", "delay")
    for mode in ("equal", "unequal")
    for flag, n in (("--spacing1", 6), ("--spacing2", 4))
] + [
    ((command, CROSSING, "--mode", "primary", *flags, "0"), f"spacing must be in 1..{n}, got 0")
    for command in ("schedule", "simulate", "delay")
    for flags, n in ((("--spacing1",), 6), (("--path", "2", "--spacing2"), 4))
]


class TestScenarioPoints:
    def test_points_go_straight_to_masks(self, monkeypatch):
        expected = line_pair(6)
        calls = []
        real = model._real

        def counted(value):
            calls.append(value)
            return real(value)

        def no_topology(*args, **kwargs):
            raise AssertionError("parse_scenario built a GeometricTopology")

        # `_check_radius` and `_point` both read numbers through `model._real`
        monkeypatch.setattr(model, "_real", counted)
        monkeypatch.setattr(model.GeometricTopology, "__init__", no_topology)
        scenario = cli.load_scenario(CHAIN6)
        # the radius, then each of the 7 coordinates once
        assert calls == [1.0, 0, 1, 2, 3, 4, 5, 6]
        assert scenario.pair == expected
        assert scenario.disk == DiskScenario(interference_radius=1.0, half_duplex=True)


class TestZeroFlags:
    @pytest.mark.parametrize("argv,error", ZERO_FLAG_CASES)
    def test_zero_reaches_the_library(self, capsys, argv, error):
        # 0 is a value the user gave, not a request for the default
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {error}\n")


class TestScheduleBuildersExitCleanly:
    @pytest.mark.parametrize("flags", [(), ("--spacing1", "3"), ("--spacing2", "3"), ("--path", "2")])
    @pytest.mark.parametrize("scenario", ["chain6.json", "far_pair.json", "crossing_pair.json"])
    @pytest.mark.parametrize("mode", ["auto", "primary", "equal", "unequal"])
    @pytest.mark.parametrize("command", ["schedule", "simulate", "delay"])
    def test_a_run_succeeds_or_prints_one_error(self, capsys, command, mode, scenario, flags):
        # an uncaught exception fails the test here; the CLI would show a traceback
        code, out, err = run(capsys, command, str(SCENARIOS / scenario), "--mode", mode, *flags)
        if code != 0:
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1


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
                "$.paths[0]: id must be an int, got True",
            ),
            (
                with_field(RELATION_SCENARIO, ("paths", 0, "id"), 3),
                "$.paths[0]: path id must be 1 or 2, got 3",
            ),
            (
                with_field(RELATION_SCENARIO, ("paths", 0, "n_senders"), True),
                "$.paths[0]: n_senders must be an int, got True",
            ),
            (
                with_field(RELATION_SCENARIO, ("relation", "matrix", 0, 1), True),
                "$.relation.matrix[0][1]: expected 0 or 1",
            ),
            (
                with_field(GRAPH_SCENARIO, ("optimize", "graph", "route1", "max_hops"), True),
                "$.optimize.graph.route1: max_hops must be an int, got True",
            ),
            (
                with_field(GRAPH_SCENARIO, ("optimize", "max_traversals"), True),
                "$.optimize.max_traversals: max_traversals must be an int, got True",
            ),
            (
                with_field(GRAPH_SCENARIO, ("optimize", "period_range1"), [True, 2]),
                "$.optimize.period_range1: period_range1 must be a pair of ints (lo, hi) with 1 <= lo <= hi, "
                "got [True, 2]",
            ),
            (
                with_field(GRAPH_SCENARIO, ("optimize", "period_range2"), [1, True]),
                "$.optimize.period_range2: period_range2 must be a pair of ints (lo, hi) with 1 <= lo <= hi, "
                "got [1, True]",
            ),
        ],
    )
    def test_boolean_is_rejected_at_its_path(self, capsys, tmp_path, doc, error):
        # only `optimize` reads the optimize section
        command = "optimize" if error.startswith("$.optimize") else "analyze"
        code, out, err = run(capsys, command, write_scenario(tmp_path, doc))
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


def is_bit(value) -> bool:
    return type(value) is int and value in (0, 1)


def relation_error(matrix, names: list[str]) -> str | None:
    """The error line of a `relation` scenario's matrix over the senders
    `names`, checked cell by cell as the CLI once did before the library
    read it."""
    n = len(names)
    if not (isinstance(matrix, list) and len(matrix) == n):
        return f"$.relation.matrix: expected {n} rows (senders of path 1 then path 2, in order)"
    for i, row in enumerate(matrix):
        if not (isinstance(row, list) and len(row) == n):
            return f"$.relation.matrix[{i}]: expected {n} entries"
        for j, cell in enumerate(row):
            if not is_bit(cell):
                return f"$.relation.matrix[{i}][{j}]: expected 0 or 1"
    for i in range(n):
        if matrix[i][i]:
            return f"$.relation.matrix: relation matrix diagonal must be zero (node {names[i]})"
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                return f"$.relation.matrix: relation matrix must be symmetric, differs at {names[i]}/{names[j]}"
    return None


def support_error(data) -> str | None:
    """The error line of `support`'s JSON matrix, checked cell by cell as the
    CLI once did before the library read it."""
    if isinstance(data, dict):
        data = data.get("rows")
    if not (isinstance(data, list) and data):
        return "$: expected a list of rows"
    for i, row in enumerate(data):
        if not (isinstance(row, list) and all(is_bit(v) for v in row)):
            return f"$[{i}]: expected a row of 0/1 entries"
        if len(row) != len(data[0]):
            return f"$[{i}]: expected {len(data[0])} entries, as in row 0"
    return None


class TestMatrixErrorLines:
    """Seeded malformed `relation` and `support` matrices: the CLI's exit
    code and error line equal those of the cell-by-cell reference above."""

    BAD_ENTRIES = (2, -1, "1", None, 0.5, [1], {"0": 1})
    NOT_ROWS = (1, "01", None, {"0": 1}, True)
    FAULTS = ("entry", "true", "float", "short", "long", "not a row", "rows", "asymmetric", "diagonal")
    KINDS = ("rows (", "entries", "0 or 1", "diagonal", "symmetric")

    @classmethod
    def corrupt(cls, rng: random.Random, matrix: list, fault: str) -> None:
        """Apply one fault to the matrix in place; a fault needing a row that
        is not a list does nothing."""
        i = rng.randrange(len(matrix)) if matrix else 0
        row = matrix[i] if matrix else None
        if fault == "rows":
            if matrix and rng.random() < 0.5:
                del matrix[i]
            else:
                matrix.insert(i, list(row) if isinstance(row, list) else [0])
        elif fault == "not a row" and matrix:
            matrix[i] = rng.choice(cls.NOT_ROWS)
        elif not isinstance(row, list):
            return
        elif fault == "short" and row:
            del row[rng.randrange(len(row))]
        elif fault == "long":
            row.insert(rng.randrange(len(row) + 1), rng.randint(0, 1))
        elif row and fault in ("entry", "true", "float"):
            j = rng.randrange(len(row))
            if fault == "entry":
                row[j] = rng.choice(cls.BAD_ENTRIES)
            elif is_bit(row[j]):
                row[j] = bool(row[j]) if fault == "true" else float(row[j])
        elif fault == "asymmetric" and row:
            j = rng.choice([k for k in range(len(row)) if k != i] or [0])
            if is_bit(row[j]):
                row[j] ^= 1
        elif fault == "diagonal" and i < len(row):
            row[i] = 1

    def test_relation_matrices(self, capsys, tmp_path):
        rng = random.Random("cli/relation-matrix-texts")
        kinds = set()
        for _ in range(250):
            sizes = [rng.randint(1, 3)] + ([rng.randint(1, 3)] if rng.random() < 0.5 else [])
            n = sum(sizes)
            matrix = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    matrix[i][j] = matrix[j][i] = int(rng.random() < 0.4)
            for _ in range(rng.choice((0, 1, 1, 1, 2, 2, 3))):
                self.corrupt(rng, matrix, rng.choice(self.FAULTS))
            doc = {
                "paths": [{"id": k, "n_senders": size} for k, size in enumerate(sizes, start=1)],
                "relation": {"matrix": matrix},
            }
            names = [f"n{k}.{seq}" for k, size in enumerate(sizes, start=1) for seq in range(1, size + 1)]
            expected = relation_error(matrix, names)
            code, out, err = run(capsys, "analyze", write_scenario(tmp_path, doc))
            if expected is None:
                assert (code, err) == (0, ""), doc
            else:
                assert (code, out, err) == (1, "", f"error: {expected}\n"), doc
            kinds.add(expected and next(kind for kind in self.KINDS if kind in expected))
        assert kinds == {None, *self.KINDS}

    def test_support_matrices(self, capsys, tmp_path):
        rng = random.Random("cli/support-matrix-texts")
        target = tmp_path / "matrix.json"
        failed = 0
        for _ in range(250):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            matrix = [[int(rng.random() < 0.5) for _ in range(cols)] for _ in range(rows)]
            for _ in range(rng.choice((0, 1, 1, 1, 2, 2, 3))):
                self.corrupt(rng, matrix, rng.choice(self.FAULTS))
            data = {"rows": matrix} if rng.random() < 0.3 else matrix
            target.write_text(json.dumps(data))
            expected = support_error(data)
            code, out, err = run(capsys, "support", str(target))
            if expected is None:
                # the grid shows the matrix with each witness entry as *
                assert (code, err) == (0, ""), data
                doc, grid = leading_json(out)
                cells = [list(map(str, row)) for row in (data["rows"] if isinstance(data, dict) else data)]
                for r, c in doc["witness"]:
                    cells[r - 1][c - 1] = "*"
                assert grid == "".join(" ".join(row) + "\n" for row in cells).lstrip("\n"), data
            else:
                failed += 1
                assert (code, out, err) == (1, "", f"error: {expected}\n"), data
        assert failed > 100


class TestListedOutputIsBounded:
    """`delay` and `simulate` refuse, before a beat is stepped, to list more
    delays than `cli.MAX_LISTED_VALUES` or trace more beats than
    `cli.MAX_TRACED_BEATS`."""

    @staticmethod
    def refuse_stepping(monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the run was stepped")

        monkeypatch.setattr(cli, "run", refused)
        monkeypatch.setattr(cli, "measure_delay", refused)

    @pytest.mark.parametrize("scenario, blocks, values", [(CHAIN6, 2_000_001, 2_000_001), (FAR_PAIR, 1_000_001, 2_000_002)])
    def test_delay_counts_blocks_per_scheduled_path(self, capsys, monkeypatch, scenario, blocks, values):
        self.refuse_stepping(monkeypatch)
        code, out, err = run(capsys, "delay", scenario, "--blocks", str(blocks))
        assert (code, out) == (1, "")
        assert err == (
            f"error: the output lists {values} delays (blocks x scheduled paths), more than "
            f"the limit of {cli.MAX_LISTED_VALUES}; lower --blocks\n"
        )

    @pytest.mark.parametrize("scenario, flags, values", [
        (CHAIN6, ("--periods", "2000001"), 2_000_001),
        # far_pair's unequal schedule activates path 1 twice and path 2 once per period
        (FAR_PAIR, ("--mode", "unequal", "--traversals1", "2", "--periods", "666667"), 2_000_001),
    ])
    def test_simulate_counts_activations_per_measured_period(self, capsys, monkeypatch, scenario, flags, values):
        self.refuse_stepping(monkeypatch)
        code, out, err = run(capsys, "simulate", scenario, *flags)
        assert (code, out) == (1, "")
        assert err == (
            f"error: the output lists up to {values} delays (periods x activations per period), "
            f"more than the limit of {cli.MAX_LISTED_VALUES}; lower --periods\n"
        )

    @pytest.mark.parametrize("flags, beats", [
        # chain6: period 3 and a default warmup of 6 + 2 periods
        (("--periods", "33326"), 100_002),
        (("--warmup", "40000", "--periods", "1"), 120_003),
    ])
    def test_a_trace_counts_warmup_and_measured_beats(self, capsys, monkeypatch, flags, beats):
        self.refuse_stepping(monkeypatch)
        code, out, err = run(capsys, "simulate", CHAIN6, "--trace", *flags)
        assert (code, out) == (1, "")
        assert err == (
            f"error: the trace has {beats} beats ((warmup + periods) x period), more than "
            f"the limit of {cli.MAX_TRACED_BEATS}; lower --periods or --warmup\n"
        )

    def test_the_limits_are_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_LISTED_VALUES", 6)
        monkeypatch.setattr(cli, "MAX_TRACED_BEATS", 30)
        assert run(capsys, "delay", FAR_PAIR, "--blocks", "3")[0] == 0
        assert run(capsys, "delay", FAR_PAIR, "--blocks", "4")[2].startswith("error: the output lists 8 delays")
        assert run(capsys, "simulate", CHAIN6, "--periods", "6")[0] == 0
        assert run(capsys, "simulate", CHAIN6, "--periods", "7")[2].startswith("error: the output lists up to 7")
        assert run(capsys, "simulate", CHAIN6, "--trace", "--periods", "2")[0] == 0
        assert run(capsys, "simulate", CHAIN6, "--trace", "--periods", "3")[2].startswith("error: the trace has 33")
        # an untraced run lists only its window, however long the warmup
        assert run(capsys, "simulate", CHAIN6, "--warmup", "1000000", "--periods", "6")[0] == 0


class TestExactGeometry:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: math.dist gives 0.30000000000000004 for a distance of 0.3")
    def test_a_distance_equal_to_the_radius_interferes(self, capsys, tmp_path):
        # n1.3 at 0.4 lies exactly the radius from n1.1's receiver at 0.1
        doc = {
            "paths": [{"id": 1, "n_senders": 3}],
            "topology": {"interference_radius": 0.3, "half_duplex": False, "positions": {"1": [0, 0.1, 0.4, 0.7]}},
        }
        code, out, _ = run(capsys, "analyze", write_scenario(tmp_path, doc))
        report = json.loads(out)["paths"]["1"]
        assert code == 0
        assert (report["interference_intensity"], report["interference_witness"]) == (3, ["n1.1", "n1.2", "n1.3"])


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


class TestLibraryRefusalsAtTheirPath:
    @pytest.mark.parametrize("value", ["no", 1, 0, None, [True]])
    @pytest.mark.parametrize("section", ["topology", "optimize"])
    def test_half_duplex_must_be_a_bool(self, capsys, tmp_path, section, value):
        # a text such as "no" is true, so it would run half-duplex
        doc = with_field(GRAPH_SCENARIO, (section, "half_duplex"), value)
        code, out, err = run(capsys, "optimize", write_scenario(tmp_path, doc))
        assert (code, out, err) == (1, "", f"error: $.{section}.half_duplex: half_duplex must be a bool, got {value!r}\n")

    def test_the_radius_is_named_before_the_duplex_mode(self, capsys, tmp_path):
        doc = with_field(GRAPH_SCENARIO, ("topology", "half_duplex"), "no")
        doc = with_field(doc, ("topology", "interference_radius"), -1)
        code, out, err = run(capsys, "analyze", write_scenario(tmp_path, doc))
        assert (code, out, err) == (
            1, "", "error: $.topology.interference_radius: interference_radius must be >= 0, got -1\n"
        )

    def test_a_route_from_a_vertex_to_itself_is_named_by_its_spec(self, capsys, tmp_path):
        doc = with_field(GRAPH_SCENARIO, ("optimize", "graph", "route2", "destination"), "s")
        code, out, err = run(capsys, "optimize", write_scenario(tmp_path, doc))
        assert (code, out, err) == (
            1, "", "error: $.optimize.graph.route2: a route needs at least one sender and a destination, got 1 points\n"
        )

    def test_a_route_is_checked_for_its_length_before_its_points(self, capsys, tmp_path):
        doc = with_field(GRAPH_SCENARIO, ("optimize",), {"routes1": [[[0, "NaN"]]], "routes2": [[0, 1]]})
        code, out, err = run(capsys, "optimize", write_scenario(tmp_path, doc))
        assert (code, out, err) == (
            1, "", "error: $.optimize.routes1[0]: a route needs at least one sender and a destination, got 1 points\n"
        )

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int str limit in this Python")
    def test_an_integer_past_the_str_limit_is_invalid_json(self, capsys, tmp_path):
        target = tmp_path / "scenario.json"
        target.write_text('{"paths": [{"id": 1, "n_senders": ' + "1" * 5000 + "}]}")
        code, out, err = run(capsys, "analyze", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: $: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion")
        assert err.count("\n") == 1


def complete_graph(n: int) -> dict:
    names = [f"v{k}" for k in range(n)]
    return {
        "vertices": {name: [k, k % 3] for k, name in enumerate(names)},
        "edges": [[a, b] for i, a in enumerate(names) for b in names[i + 1:]],
        "route1": {"source": names[0], "destination": names[-1], "max_hops": n - 1},
        "route2": {"source": names[1], "destination": names[-2], "max_hops": n - 1},
    }


class TestOptimizeSectionIsLazy:
    @pytest.mark.parametrize("command", ["analyze", "matrix", "schedule", "simulate", "delay"])
    def test_other_commands_ignore_the_section(self, capsys, tmp_path, command):
        doc = json.loads(Path(FAR_PAIR).read_text())
        expected = run(capsys, command, FAR_PAIR)
        assert expected[0] == 0
        assert run(capsys, command, write_scenario(tmp_path, {**doc, "optimize": 5})) == expected

    def test_analyze_does_not_enumerate_routes(self, capsys, tmp_path, monkeypatch):
        # a complete graph on 12 vertices has about 10 million routes per side
        doc = {**json.loads(Path(FAR_PAIR).read_text()), "optimize": {"graph": complete_graph(12)}}
        scenario = write_scenario(tmp_path, doc)
        calls = []

        def counted(*args):
            calls.append(args)
            return simple_paths(*args)

        simple_paths = optimizer._simple_paths
        monkeypatch.setattr(optimizer, "_simple_paths", counted)
        start = time.perf_counter()
        code, out, _ = run(capsys, "analyze", scenario)
        assert time.perf_counter() - start < 1.0
        assert calls == []
        assert (code, out) == run(capsys, "analyze", FAR_PAIR)[:2]

    def test_null_section_is_rejected_by_optimize(self, capsys, tmp_path):
        doc = {**json.loads(Path(FAR_PAIR).read_text()), "optimize": None}
        code, out, err = run(capsys, "optimize", write_scenario(tmp_path, doc))
        assert (code, out, err) == (1, "", "error: $.optimize: expected an object\n")
