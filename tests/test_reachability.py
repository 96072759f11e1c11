"""Every function in ``src/`` is reached by a command line or is public, and
every option a mode declares is read.

One child interpreter installs a ``sys.setprofile`` hook before it imports
``mcbounds`` (so functions called at import time count too), then runs every
command x analysis or preset once through ``cli.main``, at small sizes, along
with refusals. A function defined with ``def`` under ``src/`` that no run
enters fails the test, unless the README's list of public library names
names it. Special methods are exempt, and so are the functions in
``ALLOWED`` below, each with the reason no command line reaches it. Lambdas
are not counted. The same run parses each line into a namespace that
records the attributes the command reads once parsing is done; an option
that the parser of a mode declares and no line of that mode reads fails a
second test. A third test fails on any module-level constant under
``src/`` that no other line of ``src/`` reads, unless ``UNREAD`` names it.
"""

import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mcbounds
import mcbounds.coupling
from mcbounds.cli import build_parser

SRC = Path(mcbounds.__file__).resolve().parent
README = SRC.parents[1] / "README.md"

# (module, qualname) -> why no command line reaches it
ALLOWED = {
    ("mcbounds.bounds", "_Record._fields"): (
        "called only by the special methods __eq__ and __hash__ of the records"
    ),
}

# (module, constant) -> why no line of src/ reads it
UNREAD = {
    ("mcbounds", "NUMBA_ENABLED"): "read by perfbench and one CLI test only",
}

MATRIX = {"size": 2, "rows": [["1/2", "1/2"], ["1/3", "2/3"]]}
MALFORMED = {"size": 2, "rows": [["1/0", "1"], ["0", "1"]]}
UNBALANCED = {"size": 2, "rows": [["1e-1000", "1"], ["0", "1"]]}


def _command_lines(tmp: Path) -> tuple[list[list[str]], list[int]]:
    """The command lines, writing under ``tmp``, and their exit codes."""
    good, bad, unbalanced = tmp / "matrix.json", tmp / "malformed.json", tmp / "unbalanced.json"
    good.write_text(json.dumps(MATRIX))
    bad.write_text(json.dumps(MALFORMED))
    unbalanced.write_text(json.dumps(UNBALANCED))
    out = str(tmp / "out")
    small_sim = ["--n-max", "6", "--reps", "300", "--seed", "3"]
    lines = [
        ["finite", "stationary", "--grid", "3x3"],
        ["finite", "eigen-bound", "--grid", "3x3"],
        ["finite", "minorization", "--grid", "3x3", "--n0", "2"],
        ["finite", "pseudo", "--grid", "3x3", "--n0", "2"],
        ["finite", "tv-exact", "--grid", "3x3", "--n0", "2", "--n", "8",
         "--output", out, "--format", "both"],
        ["finite", "stationary", "--matrix-file", str(good)],
        ["finite", "minorization", "--matrix-file", str(good), "--n0", "1"],
        ["finite", "pseudo", "--matrix-file", str(good), "--n0", "1"],
        ["finite", "tv-exact", "--matrix-file", str(good), "--start", "1", "--n", "4"],
        ["finite", "eigen-bound", "--matrix-file", str(good), "--start", "1",
         "--target", "2"],
        ["bound", "t1", "--epsilon", "9/80", "--n0", "2"],
        ["bound", "t1", "--epsilon", "0.117"],
        ["bound", "t1", "--pointprocess", "0.1,0.1"],
        ["bound", "t2", "--preset", "rwm-laplace", "--output", out, "--format", "both"],
        ["bound", "t2", "--expected-h", "fallback"],
        ["simulate", "--grid", "3x3", "--cert", "pseudo", *small_sim,
         "--output", out, "--format", "both"],
        ["simulate", "--grid", "3x3", "--cert", "uniform", *small_sim],
        ["simulate", "--halfline", *small_sim, "--burn-in", "2",
         "--trajectories", str(tmp / "paths.csv")],
        ["simulate", "--rwm-laplace", *small_sim, "--record-every", "2"],
        ["verify", "drift", "--grid-lo", "-4", "--grid-hi", "4", "--grid-step", "0.5",
         "--output", out, "--format", "both"],
        ["verify", "minorization", "--preset", "halfline", "--probe-step", "1"],
        ["verify", "minorization", "--preset", "rwm-laplace", "--probe-step", "0.5"],
    ]
    refused = [
        ["verify", "drift", "--grid-lo", "1400", "--grid-hi", "1430", "--grid-step", "10"],
        ["verify", "drift", "--grid-step", "1e-320"],
        ["finite", "stationary", "--matrix-file", str(bad)],
        ["finite", "stationary", "--matrix-file", str(unbalanced)],
        ["finite", "tv-exact", "--grid", "3x3", "--format", "csv"],
        ["finite", "stationary", "--grid", "3x3", "--n0", "2"],  # the parser refuses it
        ["simulate", "--grid", "3x3", "--x0", "1"],
    ]
    # a report that would print an infinity: exit 3
    nonfinite = [["bound", "t2", "--check-n", "1000000", "--check-j", "1000000"]]
    return lines + refused + nonfinite, [0] * len(lines) + [2] * len(refused) + [3]


DRIVER = """
import argparse, contextlib, io, json, sys

lines, out = json.loads(sys.argv[1]), sys.argv[2]
codes = set()
reads = [None]  # the names the running line reads once it is parsed


class Recording(argparse.Namespace):
    def __getattribute__(self, name):
        if reads[0] is not None:
            reads[0].add(name)
        return super().__getattribute__(name)


parse_args = argparse.ArgumentParser.parse_args


def parse_recorded(self, args=None, namespace=None):
    reads[0] = None  # argparse's own reads while it parses do not count
    namespace = parse_args(self, args, Recording())
    reads[0] = set()
    return namespace


def hook(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

argparse.ArgumentParser.parse_args = parse_recorded
sys.setprofile(hook)
from mcbounds import cli

exits, read = [], []
for argv in lines:
    reads[0] = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            exits.append(cli.main(argv))
        except SystemExit as exc:  # the parser refuses a line so
            exits.append(exc.code)
        except Exception as exc:  # a traceback is exit 1
            exits.append(f"1 ({type(exc).__name__})")
    read.append(sorted(reads[0] or ()))
sys.setprofile(None)
entered = sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in codes})
with open(out, "w") as f:
    json.dump({"exits": exits, "entered": entered, "read": read}, f)
"""


@pytest.fixture(scope="module")
def command_run(tmp_path_factory):
    """The command lines, their exit codes and the driver's record of them."""
    tmp = tmp_path_factory.mktemp("lines")
    lines, codes = _command_lines(tmp)
    out = tmp / "run.json"
    subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(lines), str(out)],
        check=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    return lines, codes, json.loads(out.read_text())


def _defined_functions() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, first line) -> (module, qualname) of every ``def`` under src/.

    The first line is that of the first decorator, as in ``co_firstlineno``.
    """
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = (module, qualname)
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return found


def _readme_names() -> dict[str, list[str]]:
    """module -> names, from the README's public-name list, whose bullets
    read "- `module`: `name`, `Class.method`, ..." (over several lines)."""
    text = README.read_text()
    section = re.search(r"^### Public names\n(.*?)(?=^#)", text, re.M | re.S)
    assert section, "README has no '### Public names' section"
    bullets = re.findall(r"^- (.*?)(?=^- |\Z)", section.group(1), re.M | re.S)
    listed = {}
    for bullet in bullets:
        module, *names = re.findall(r"`([\w.]+)`", bullet)
        listed[module] = names
    return listed


def _public_names() -> set[tuple[str, int]]:
    """(file, first line) of each function the README's public-name list names."""
    keys = set()
    for module_name, names in _readme_names().items():
        module = importlib.import_module(module_name)
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part)
            obj = getattr(obj, "fget", obj)
            code = getattr(getattr(obj, "__func__", obj), "__code__", None)
            if code is not None:  # a class or a constant names no function
                keys.add((str(Path(code.co_filename).resolve()), code.co_firstlineno))
    return keys


def test_every_function_is_reached_or_public(command_run):
    _, codes, run = command_run
    entered = {(str(Path(f).resolve()), line) for f, line, _ in run["entered"]}
    public = _public_names()
    defined = _defined_functions()
    unreached = sorted(
        f"{module}.{qualname}"
        for key, (module, qualname) in defined.items()
        if key not in entered
        and key not in public
        and not re.fullmatch(r"__\w+__", qualname.rsplit(".", 1)[-1])
        and (module, qualname) not in ALLOWED
    )
    assert unreached == [], "functions no command line reaches:\n" + "\n".join(unreached)
    assert set(ALLOWED) <= set(defined.values())
    # the runs succeed, and the refusals are refused
    assert run["exits"] == codes


def _subparsers(parser) -> dict:
    """name -> parser of the subcommands or modes ``parser`` parses, or {}."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_every_declared_option_is_read(command_run):
    # a mode that declares an option it never reads accepts it and ignores
    # it; the lines of the mode must read each one (the command's parser
    # stands for the mode where the command has no modes of its own)
    lines, _, run = command_run
    declared, read = {}, {}
    for argv, names in zip(lines, run["read"]):
        mode = tuple(argv[:1] if argv[1].startswith("-") else argv[:2])
        parser = build_parser()
        for name in mode:
            parser = _subparsers(parser).get(name, parser)
        declared[mode] = {a.dest: a.option_strings[0] for a in parser._actions
                          if a.option_strings and a.dest != "help"}
        read.setdefault(mode, set()).update(names)
    unread = sorted(f"{' '.join(mode)} {flag}" for mode, options in declared.items()
                    for dest, flag in options.items() if dest not in read[mode])
    assert unread == [], "options that their mode declares and never reads:\n" + "\n".join(
        unread)
    modes = set()
    for command, p in _subparsers(build_parser()).items():
        modes |= {(command, mode) for mode in _subparsers(p)} or {(command,)}
    assert modes == set(declared), "a mode has no command line"


def test_readme_lists_the_package_names():
    listed = _readme_names()
    assert sorted(listed["mcbounds"]) == sorted(mcbounds.__all__)
    assert sorted(listed["mcbounds.coupling"]) == sorted(mcbounds.coupling.__all__)


def _module_constants() -> tuple[dict[tuple[str, str], tuple[str, int]], dict]:
    """(module, name) -> (file, line) of every module-level assignment to a
    name under src/ (dunders aside), and name -> the (file, line) places
    under src/ that read a name or an attribute of that name."""
    defined, reads = {}, {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    defined[(module, target.id)] = (str(path), node.lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, set()).add((str(path), node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add((str(path), node.lineno))
    return defined, reads


def test_every_module_constant_is_read():
    defined, reads = _module_constants()
    unread = sorted(
        f"{module}.{name}" for (module, name), where in defined.items()
        if not reads.get(name, set()) - {where} and (module, name) not in UNREAD
    )
    assert unread == [], "module constants no other line of src/ reads:\n" + "\n".join(unread)
    assert set(UNREAD) <= set(defined)
