"""Fuzz of structure files: one corrupted leaf gives exit 0, 1 or 2, never a traceback."""

import contextlib
import copy
import io
import json
import os
import tempfile
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dyntwist.cli import main  # noqa: E402

# what a hand-edited or hostile file may hold where something else belongs
VALUES = [None, -1, 0, 1, 2, 10 ** 30, 0.5, True, False, "", "x", "1/0", "[1]@3",
          "[1]@65537", [], [0], [[0]], {}]


@lru_cache(maxsize=None)
def _e0_documents() -> dict:
    """The E0 hopf and datum documents that `example E0` writes."""
    docs = {}
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["example", "E0", "--out-dir", out]) == 0
        for kind in ("hopf", "datum"):
            with open(os.path.join(out, "e0_%s.json" % kind)) as fh:
                docs[kind] = json.load(fh)
    return docs


def _leaves(doc, path=()) -> list:
    """The paths to every scalar and every empty container inside doc."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    paths = [p for key, value in items for p in _leaves(value, path + (key,))]
    return paths or [path]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["hopf", "datum"]), value=st.sampled_from(VALUES),
       data=st.data())
def test_one_corrupted_leaf_exits_0_1_or_2(kind, value, data):
    doc = copy.deepcopy(_e0_documents()[kind])
    *parents, last = data.draw(st.sampled_from(_leaves(doc)), label="leaf")
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "%s.json" % kind)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = (["verify", "hopf", path] if kind == "hopf"
                else ["compute-twist", path, "--out", os.path.join(out, "twist.json")])
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)
