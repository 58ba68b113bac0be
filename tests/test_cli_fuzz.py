"""Fuzz of structure files: one corrupted leaf gives exit 0, 1 or 2, never a traceback,
a verify with one file too few or too many exits 2, and a twist's verdict does not
depend on the inverse its file carries.  Fuzz of the command line: any argv gives
exit 0, 1 or 2, never a traceback."""

import contextlib
import copy
import io
import itertools
import json
import os
import tempfile
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import write_e0_files  # noqa: E402
from dyntwist.cli import main  # noqa: E402

# what a hand-edited or hostile file may hold where something else belongs
VALUES = [None, -1, 0, 1, 2, 10 ** 30, 0.5, True, False, "", "x", "1/0", "[1]@3",
          "[1]@65537", [], [0], [[0]], {}]


# each file kind goes through a command that reads it; the others stay intact
COMMANDS = {
    "hopf": ["verify", "hopf", "{hopf}"],
    "datum": ["compute-twist", "{datum}", "--out", "{out}"],
    "comodule": ["verify", "comodule", "{hopf}", "{comodule}"],
    "base": ["twisted-galois", "{hopf}", "{base}", "{twist}"],
    "twist": ["verify", "twist", "{hopf}", "{base}", "{twist}"],
    "ttriv": ["stab", "{hopf}", "{comodule}", "{ttriv}", "{ttriv}"],
    "gauge": ["verify", "gauge", "{hopf}", "{base}", "{twist}", "{twist}", "{gauge}"],
}


@lru_cache(maxsize=None)
def _e0_documents() -> dict:
    """The E0 documents of every kind in COMMANDS."""
    with tempfile.TemporaryDirectory() as out:
        docs = {}
        for kind, path in write_e0_files(out).items():
            with open(path) as fh:
                docs[kind] = json.load(fh)
    return docs


def _write(docs: dict, out: str) -> dict:
    """Write each document to out/<kind>.json; returns {kind: path} plus an "out" path."""
    paths = {"out": os.path.join(out, "out.json")}
    for name, doc in docs.items():
        paths[name] = os.path.join(out, "%s.json" % name)
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


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
@given(kind=st.sampled_from(sorted(COMMANDS)), value=st.sampled_from(VALUES),
       data=st.data())
def test_one_corrupted_leaf_exits_0_1_or_2(kind, value, data):
    docs = copy.deepcopy(_e0_documents())
    *parents, last = data.draw(st.sampled_from(_leaves(docs[kind])), label="leaf")
    node = docs[kind]
    for key in parents:
        node = node[key]
    node[last] = value
    with tempfile.TemporaryDirectory() as out:
        argv = [arg.format(**_write(docs, out)) for arg in COMMANDS[kind]]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


# the files each verify kind reads, in order
VERIFY_FILES = {
    "hopf": ["{hopf}"],
    "comodule": ["{hopf}", "{comodule}"],
    "twist": ["{hopf}", "{base}", "{twist}"],
    "gauge": ["{hopf}", "{base}", "{twist}", "{twist}", "{gauge}"],
}


@pytest.mark.parametrize("report", [False, True])
@pytest.mark.parametrize("change", ["drop first", "drop last", "append missing"])
@pytest.mark.parametrize("kind", ["hopf", "comodule", "twist", "gauge"])
def test_a_verify_with_one_file_too_few_or_too_many_exits_2(kind, change, report):
    with tempfile.TemporaryDirectory() as out:
        files = [arg.format(**_write(_e0_documents(), out)) for arg in VERIFY_FILES[kind]]
        if change == "drop first":
            files = files[1:]
        elif change == "drop last":
            files = files[:-1]
        else:
            files.append(os.path.join(out, "missing.json"))
        report_path = os.path.join(out, "report.json")
        argv = (["--report", report_path] if report else []) + ["verify", kind] + files
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert err.getvalue().startswith("input error: ")
        assert "Traceback" not in err.getvalue()
        if report:
            with open(report_path) as fh:
                doc = json.load(fh)
            assert doc["checks"] == [] and doc["input_error"]


# the commands that read a twist, on the E0 files
TWIST_COMMANDS = [["verify", "twist", "{hopf}", "{base}", "{twist}"],
                  ["twisted-galois", "{hopf}", "{base}", "{twist}"]]
SCALARS = ["0", "1", "-1", "2", "1/2", "-1/2", "3"]


def _verdicts(docs: dict) -> list:
    """(exit code, printed check lines) of each twist command on the documents."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write(docs, tmp)
        for args in TWIST_COMMANDS:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main([arg.format(**paths) for arg in args])
            out.append((rc, printed.getvalue()))
    return out


@lru_cache(maxsize=None)
def _verdicts_without_inverse() -> tuple:
    docs = copy.deepcopy(_e0_documents())
    del docs["twist"]["inverse"]
    return tuple(_verdicts(docs))


@settings(max_examples=25, deadline=None)
@given(change=st.sampled_from(["set", "drop", "add"]), data=st.data())
def test_a_twist_verdict_does_not_depend_on_its_inverse_field(change, data):
    docs = copy.deepcopy(_e0_documents())
    inverse = docs["twist"]["inverse"]
    dims = (docs["hopf"]["dim"], docs["hopf"]["dim"], docs["base"]["dim"])
    if change == "add":
        taken = {tuple(entry[:3]) for entry in inverse}
        free = [key for key in itertools.product(*map(range, dims)) if key not in taken]
        key = data.draw(st.sampled_from(free), label="key")
        inverse.append([*key, data.draw(st.sampled_from(SCALARS), label="scalar")])
    else:
        pos = data.draw(st.integers(0, len(inverse) - 1), label="entry")
        if change == "drop":
            del inverse[pos]
        else:
            others = [c for c in SCALARS if c != inverse[pos][3]]
            inverse[pos][3] = data.draw(st.sampled_from(others), label="scalar")
    assert _verdicts(docs) == list(_verdicts_without_inverse())


# argv words: commands, verify kinds and example names, option names (exact,
# abbreviated and unknown) and values; "{kind}" is an E0 file of that kind
ARGV_WORDS = ["verify", "example", "compute-twist", "stab", "twisted-galois", "frob", "hopf",
              "comodule", "twist", "gauge", "E0", "E1", "custom", "-h", "-x", "-"]
OPTION_NAMES = ["--report", "--out-dir", "--group-order", "--n", "--chi-gen", "--mu", "--b",
                "--out", "--out-d", "--rep", "--group", "--help", "--", "--bogus"]
OPTION_VALUES = ["-1", "0", "1", "2", "3", "4", "x", "", "1/2", "[0,1]@3", "0,1", "out",
                 "{hopf}", "{comodule}", "{base}", "{twist}", "{datum}", "{ttriv}", "{gauge}"]


def _argv_tokens():
    """A command word (most often a real one), then words and options in any order."""
    word = st.sampled_from(ARGV_WORDS + OPTION_VALUES).map(lambda w: [w])
    option = st.tuples(st.sampled_from(OPTION_NAMES), st.sampled_from(OPTION_VALUES),
                       st.booleans()).map(
        lambda t: ["%s=%s" % t[:2]] if t[2] else list(t[:2]))
    # a whole command on the E0 files, so that some runs get past the parser
    whole = st.sampled_from(sorted(COMMANDS.values()) + [
        ["example", "E0"], ["example", "custom", "--group-order", "4", "--n", "2"]])
    first = st.one_of(whole, st.sampled_from(["verify", "example", "compute-twist", "stab",
                                              "twisted-galois"]).map(lambda w: [w]),
                      word, option)
    return st.tuples(first, st.lists(st.one_of(word, word, option), max_size=6)).map(
        lambda t: [t[0]] + t[1])


@settings(max_examples=150, deadline=None)
@given(tokens=_argv_tokens(), report=st.sampled_from([None, "report.json", "", "missing/r.json"]))
def test_any_argv_exits_0_1_or_2(tokens, report):
    with tempfile.TemporaryDirectory() as out, contextlib.chdir(out):
        paths = _write(_e0_documents(), out)
        argv = ([] if report is None else ["--report", report]) + [
            word.format(**paths) for token in tokens for word in token]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
