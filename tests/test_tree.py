"""The checkout: no tracked file is one that ``.gitignore`` excludes, so
generated files and run artifacts stay out of git; and no function of the
package takes a parameter that its body never reads."""

import ast
import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    listed = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout
    assert listed == ""


def test_every_parameter_is_read():
    # a parameter the body never loads (nested functions included) is a
    # setting that changes nothing; self and cls are exempt
    unread = []
    package = ROOT / "src" / "formaldisk"
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.relative_to(package)}:{node.name}.{p.arg}"
                       for p in params
                       if p.arg not in ("self", "cls", *read)]
    assert unread == []
