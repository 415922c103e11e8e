"""Config fuzzing: no mutation of the default config makes ``vtn`` raise.

Each example mutates ``default_config()`` at one or two drawn paths: it
replaces the value there with one from a small pool, deletes the key or
list item, or duplicates a list item. It then runs ``vtn init`` and
``vtn run`` for S1-S5 in-process. Each command exits 0, 1 with a FAIL
assertion line, or 2 (a refused config, scenario parameter or name), and
every trace written parses back to its own text. Tier-1 runs 200
examples and CI 2,000, under the Hypothesis profiles of ``conftest``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vasptrust.cli import main
from vasptrust.config import default_config
from vasptrust.netsim.trace import parse_trace_text


def paths(value, prefix: tuple = ()):
    """The path of every value nested in ``value``, ``value`` excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from paths(item, prefix + (key,))


DEFAULT = default_config()
PATHS = list(paths(DEFAULT))
LIST_ITEMS = [p for p in PATHS if isinstance(p[-1], int)]
POOL = [None, True, False, 0, 1, -1, 3, 7, 2**70, 0.5, "", " ", "x",
        "a b=c", "x\ny", "dave", "bob@idp2.com", "vasp:9", [], {}, [7],
        {"x": 1}]

MUTATION = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(PATHS), st.sampled_from(POOL)),
    st.tuples(st.just("delete"), st.sampled_from(PATHS), st.none()),
    st.tuples(st.just("duplicate"), st.sampled_from(LIST_ITEMS), st.none()))

CUSTOMER_ID = ("vasps", 0, "customers", 0, "id")
ORGANIZATION = ("vasps", 0, "organization_name")
# Names the trace cannot hold, each refused naming where it is: a
# customer id, which names an actor, by the config reader, and an
# organization name by the trace field it would break.
ODD_NAMES = [(CUSTOMER_ID, "al ice=x", ".vasps[0].customers[0].id: "),
             (CUSTOMER_ID, "al\nice", ".vasps[0].customers[0].id: "),
             (ORGANIZATION, "Acme x=y", "error: field org=")]


def mutated(mutations) -> dict:
    """The default config with ``mutations`` applied in order; one whose
    path an earlier one removed is skipped. A replaced key need not exist."""
    config = copy.deepcopy(DEFAULT)
    for op, path, value in mutations:
        parent, last = config, path[-1]
        try:
            for key in path[:-1]:
                parent = parent[key]
            if op == "replace":
                parent[last] = copy.deepcopy(value)
            elif op == "delete":
                del parent[last]
            else:
                parent.insert(last, copy.deepcopy(parent[last]))
        except (KeyError, IndexError, TypeError, AttributeError):
            continue
    return config


def run_vtn(config: dict) -> list[tuple[list[str], int, str, str]]:
    """(argv, exit status, stdout, stderr) of ``vtn init`` on ``config``
    and ``vtn run`` of each scenario after it, in one fresh workspace;
    each trace written must parse back to its own text."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config))
        workspace = str(Path(tmp) / "ws")
        commands = [["init", "--config", str(config_path)]] + [
            ["run", "--scenario", name] for name in ("S1", "S2", "S3", "S4", "S5")]
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main([*argv, "--workspace", workspace])
            results.append((argv, status, out.getvalue(), err.getvalue()))
        for path in Path(workspace).glob("traces/*.trace"):
            text = path.read_text()
            assert parse_trace_text(text).to_text() == text
    return results


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutations=st.lists(MUTATION, min_size=1, max_size=2))
@example(mutations=[("replace", CUSTOMER_ID, "al ice=x")])
@example(mutations=[("replace", CUSTOMER_ID, "al\nice")])
@example(mutations=[("replace", ORGANIZATION, "Acme x=y")])
@example(mutations=[("replace", ("vasps", 0, "customers", 0, "wallet",
                                 "imported_key_balance"), 40)])
@example(mutations=[("replace", ("scenario_params", "S4", "supervision_steps"),
                     2**70)])
def test_no_config_mutation_escapes_as_an_exception(mutations):
    for argv, status, out, err in run_vtn(mutated(mutations)):
        assert status in (0, 1, 2), (argv, status)
        if status == 1:
            assert any(line.startswith("assert ") and " FAIL" in line
                       for line in out.splitlines()), (argv, out)
        assert "Traceback" not in err


@pytest.mark.parametrize("path, name, where", ODD_NAMES,
                         ids=["space_key", "line_break", "organization"])
def test_name_the_trace_cannot_hold_is_refused_naming_its_field(path, name,
                                                                where):
    (argv, status, _, err), *runs = run_vtn(mutated([("replace", path, name)]))
    assert (argv[0], status) == ("init", 2)
    assert where in err and "would not parse back" in err
    assert all(status == 2 for _, status, _, _ in runs)
