#!/usr/bin/env python3
"""Self-test for the mdos-check suite against the seeded fixtures.

Each checker runs over its bad fixture and must produce EXACTLY the
seeded findings (matched on file, line, check name, and a distinctive
message fragment), and over its clean fixture and must produce none.
This is what makes the checkers trustworthy as build gates: a lexer
regression that silently stops flagging (or starts over-flagging) fails
this test, not a future code review.

Run directly or through ctest (mdos_check_selftest). Exit 0 on success,
1 with a diff of expected vs actual findings otherwise.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check_blocking
import check_layers
import check_protocol
import check_status
from findings import SourceSet

FIXTURES = os.path.join(HERE, "fixtures")
LAYERS_TOML = os.path.join(HERE, "layers.toml")

failures = []


def _key(source_set, finding):
    return (source_set.relpath(finding.path).replace(os.sep, "/"),
            finding.line, finding.check)


def expect(label, source_set, findings, expected):
    """expected: list of (relpath, line, check, message_fragment)."""
    actual = {}
    for f in findings:
        actual.setdefault(_key(source_set, f), []).append(f.message)

    want_keys = {(rel, line, check) for rel, line, check, _ in expected}
    got_keys = set(actual)

    for rel, line, check, fragment in expected:
        msgs = actual.get((rel, line, check), [])
        if not msgs:
            failures.append(
                f"{label}: MISSING expected finding "
                f"{rel}:{line} [{check}] (~ \"{fragment}\")")
        elif not any(fragment in m for m in msgs):
            failures.append(
                f"{label}: finding at {rel}:{line} [{check}] lacks "
                f"fragment \"{fragment}\"; got: {msgs}")
    for key in sorted(got_keys - want_keys):
        rel, line, check = key
        failures.append(
            f"{label}: UNEXPECTED finding {rel}:{line} [{check}]: "
            f"{actual[key]}")


def main():
    # --- blocking-call ---------------------------------------------------
    src = os.path.join(FIXTURES, "src")
    bad = SourceSet([os.path.join(src, "plasma", "bad_blocking.cc")], src)
    expect("blocking/bad", bad, check_blocking.run(bad), [
        ("plasma/bad_blocking.cc", 43, "blocking-call", "sleep_for"),
        ("plasma/bad_blocking.cc", 49, "blocking-call", "[rpc]"),
        ("plasma/bad_blocking.cc", 50, "blocking-call", "[wait]"),
        ("plasma/bad_blocking.cc", 58, "blocking-call",
         "while MutexLock"),
    ])
    clean = SourceSet(
        [os.path.join(src, "plasma", "clean_blocking.cc")], src)
    expect("blocking/clean", clean, check_blocking.run(clean), [])

    # --- status-discipline ----------------------------------------------
    bad = SourceSet([os.path.join(src, "plasma", "bad_status.cc")], src)
    expect("status/bad", bad, check_status.run(bad), [
        ("plasma/bad_status.cc", 21, "status-discipline", "(void)-cast"),
        ("plasma/bad_status.cc", 27, "status-discipline",
         "swallowed instead of propagated"),
    ])
    clean = SourceSet([os.path.join(src, "plasma", "clean_status.cc")], src)
    expect("status/clean", clean, check_status.run(clean), [])

    # --- layering --------------------------------------------------------
    bad = SourceSet.from_tree(os.path.join(FIXTURES, "layers_bad", "src"))
    expect("layers/bad", bad, check_layers.run(bad, LAYERS_TOML), [
        ("wire/writer.h", 6, "layering", "upward include"),
        ("plasma/store.h", 6, "layering", "subsystem include cycle"),
    ])
    clean = SourceSet.from_tree(
        os.path.join(FIXTURES, "layers_clean", "src"))
    expect("layers/clean", clean, check_layers.run(clean, LAYERS_TOML), [])

    # --- protocol-exhaustiveness ----------------------------------------
    bad = SourceSet.from_tree(
        os.path.join(FIXTURES, "protocol_bad", "src"))
    bad_tests = [os.path.join(FIXTURES, "protocol_bad", "tests")]
    expect("protocol/bad", bad,
           check_protocol.run(bad, test_roots=bad_tests), [
               ("plasma/protocol.h", 15, "protocol-exhaustiveness",
                "lacks Fields"),
               ("plasma/protocol.h", 15, "protocol-exhaustiveness",
                "no dispatch arm"),
               ("plasma/protocol.h", 16, "protocol-exhaustiveness",
                "no test coverage"),
           ])
    clean = SourceSet.from_tree(
        os.path.join(FIXTURES, "protocol_clean", "src"))
    clean_tests = [os.path.join(FIXTURES, "protocol_clean", "tests")]
    expect("protocol/clean", clean,
           check_protocol.run(clean, test_roots=clean_tests), [])

    if failures:
        print("mdos_check selftest FAILED:", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print("mdos_check selftest: all fixture assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
