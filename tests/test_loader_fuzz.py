"""Loader fuzzing over every artifact kind the doctor knows.

Starting from the valid compatibility fixtures, each example truncates
the file, flips a byte, deletes a key somewhere in the JSON tree, or
swaps a value for one of another type.  Whatever the damage, two
contracts hold: the kind's loader raises nothing but
:class:`~repro.util.errors.ReproError` subclasses, and the doctor
reports exit 0 (the damage was harmless), 2 or 3 with exactly one
one-line problem — never a traceback.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.doctor import REGISTRY, diagnose_file
from repro.util.errors import ReproError

FIXTURES = Path(__file__).parent / "fixtures" / "artifacts"
_KINDS = {entry["kind"]: name for name, entry in json.loads(
    (FIXTURES / "expected.json").read_text()).items()}
_ENTRIES = {entry.kind: entry for entry in REGISTRY}

_SWAPS = [None, True, 0, -7, 2.5, "", "x", [], [1, "a"], {}, {"k": 0}]


def _paths(node, prefix=()):
    """Every (container path, key) in a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def _damage(draw, text: str) -> bytes:
    raw = text.encode("utf-8")
    mode = draw(st.sampled_from(["truncate", "flip", "delete", "swap"]))
    if mode == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if mode == "flip":
        position = draw(st.integers(0, len(raw) - 1))
        bit = draw(st.integers(0, 7))
        return (raw[:position] + bytes([raw[position] ^ (1 << bit)])
                + raw[position + 1:])
    data = json.loads(text)
    prefix, key = draw(st.sampled_from(list(_paths(data))))
    parent = _at(data, prefix)
    if mode == "delete":
        parent.pop(key)
    else:
        parent[key] = draw(st.sampled_from(
            [value for value in _SWAPS
             if type(value) is not type(parent[key])]))
    return json.dumps(data).encode("utf-8")


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as directory:
        yield Path(directory)


@pytest.mark.parametrize("kind", sorted(_KINDS))
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_damaged_artifacts_fail_typed_and_one_line(kind, data, workdir):
    name = _KINDS[kind]
    damaged = data.draw(_damage((FIXTURES / name).read_text()))
    path = workdir / name
    path.write_bytes(damaged)

    try:
        _ENTRIES[kind].load(path)
    except ReproError:
        pass

    diagnosis = diagnose_file(path)
    if diagnosis.ok:
        assert diagnosis.exit_code == 0
    else:
        assert diagnosis.exit_code in (2, 3)
        assert len(diagnosis.problems) == 1
        assert "\n" not in diagnosis.problems[0]
        assert "Traceback" not in diagnosis.problems[0]
