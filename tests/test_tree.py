"""The checkout: no tracked file is one that ``.gitignore`` excludes, so
generated files and run artifacts stay out of git."""

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
