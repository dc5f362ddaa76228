"""Seeded output fingerprints: every exact subcommand on a few hundred
fixed inputs, and a corpus of malformed expressions, each replayed through
``cli.main`` and compared with the sha256 of its (exit code, stdout,
stderr) in ``tests/fingerprints.json``.  A change that alters one alters
what a command prints; regenerate the table with
``tests/make_fingerprints.py`` and say which fingerprints changed and why.
"""

import json

from make_fingerprints import TABLE, fingerprint, run


def test_every_fingerprint_replays():
    cases = json.loads(TABLE.read_text())["cases"]
    assert len(cases) > 300
    changed = [case["argv"] for case in cases
               if fingerprint(run(case["argv"])) != case["sha256"]]
    assert changed == []
