"""Seeded fuzz of the scenario parser and the command line over JSON-shaped input.

Each example starts from a valid scenario and replaces a few of its fields
(or the whole document) with arbitrary JSON values. `parse_scenario`, and
the optimize-section parser where the document has that section, may
accept the result or reject it with SchemaError, ConfigurationError or
DomainError; `main` turns those into `error: ...` and exit code 1. Any other
exception is a defect. Integers stay small so that an accepted scenario
names a desk-scale workload; the search is derandomized, so every run tries
the same examples.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beatsched import cli
from beatsched.errors import ConfigurationError, DomainError, SchemaError

KEYS = (
    "paths", "id", "n_senders", "topology", "relation", "matrix", "positions",
    "interference_radius", "half_duplex", "optimize", "routes1", "routes2", "graph",
    "vertices", "edges", "route1", "route2", "source", "destination", "max_hops",
    "max_traversals", "period_range1", "period_range2", "rows", "1", "2", "a", "b",
)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.floats(-4.0, 4.0)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -0.0])
    | st.sampled_from(KEYS + ("", "p0", "zz"))
)

JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=10,
)

BASES = (
    {
        "paths": [{"id": 1, "n_senders": 3}, {"id": 2, "n_senders": 2}],
        "topology": {
            "interference_radius": 1.0,
            "half_duplex": True,
            "positions": {"1": [0, 1, 2, 3], "2": [[0, 2], [1, 2], [2, 2]]},
        },
        "optimize": {
            "routes1": [[[0, 0], [1, 0], [2, 0]]],
            "routes2": [[[0, 1], [1, 1], [2, 1]], [[0, 3], [1, 3]]],
            "max_traversals": 2,
            "period_range1": [1, 2],
        },
    },
    {
        "paths": [{"id": 1, "n_senders": 2}, {"id": 2, "n_senders": 1}],
        "relation": {"matrix": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]},
    },
    {
        "paths": [{"id": 1, "n_senders": 2}, {"id": 2, "n_senders": 2}],
        "topology": {
            "interference_radius": 1.0,
            "positions": {"1": [[0, 0], [1, 0], [2, 0]], "2": [[0, 9], [1, 9], [2, 9]]},
        },
        "optimize": {
            "graph": {
                "vertices": {"a": [0, 0], "b": [1, 0], "c": [2, 0], "p0": [1, 1]},
                "edges": [["a", "b"], ["b", "c"], ["a", "p0"], ["p0", "c"]],
                "route1": {"source": "a", "destination": "c", "max_hops": 3},
                "route2": {"source": "c", "destination": "a"},
            },
            "max_traversals": 2,
        },
    },
)


def _field_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _field_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _field_paths(value, prefix + (index,))


@st.composite
def scenarios(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(list(_field_paths(doc))))
        value = draw(JSON_VALUES)
        if not where:
            doc = value
            continue
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
    return doc


FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(FUZZ, max_examples=200)
@given(scenarios())
def test_parse_scenario_raises_only_input_errors(doc):
    try:
        scenario = cli.parse_scenario(doc)
        if "optimize" in doc:
            cli._parse_optimize(doc["optimize"], scenario.disk)
    except (SchemaError, ConfigurationError, DomainError):
        pass


@settings(FUZZ, max_examples=60)
@given(scenarios(), st.sampled_from(["analyze", "matrix", "schedule", "simulate", "optimize"]))
def test_main_reports_bad_input_as_one_error_line(doc, command):
    with tempfile.TemporaryDirectory() as folder:
        target = Path(folder) / "scenario.json"
        target.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(target)])
    assert code in (0, 1)
    if err.getvalue():
        assert code == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
