#!/usr/bin/env python3
"""mdos-check: build-gating static analysis for the mdos tree.

Four checkers over the C++ sources, driven by the build's
compile_commands.json (falling back to a tree walk when no build dir is
available). Zero dependencies beyond CPython 3.11 — the lexer core in
mdos_cxx.py replaces libclang, which this toolchain does not ship.

  protocol   every MessageType has a field list, dispatch, and test coverage
  blocking   MDOS_EVENT_LOOP_CONTEXT roots never reach blocking calls;
             no blocking call under a held MutexLock
  layers     the include graph respects layers.toml (no upward edges,
             no cycles)
  status     no undocumented discarded Status/Result

Usage:
  mdos_check.py --check all --build-dir build
  mdos_check.py --check layers --src-root src
  mdos_check.py --check status --files fixtures/bad_status.cc

Findings print as `path:line: [check-name] message`; exit status 1 when
any finding is produced, 2 on usage/config errors.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_blocking
import check_layers
import check_protocol
import check_status
from findings import SourceSet

CHECKS = ("protocol", "blocking", "layers", "status")


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(os.path.dirname(here))

    ap = argparse.ArgumentParser(
        prog="mdos_check", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--check", default="all",
                    choices=CHECKS + ("all",),
                    help="which checker to run (default: all)")
    ap.add_argument("--build-dir", default=None,
                    help="build directory holding compile_commands.json")
    ap.add_argument("--compile-commands", default=None,
                    help="explicit path to compile_commands.json")
    ap.add_argument("--src-root", default=os.path.join(repo, "src"),
                    help="source root (default: <repo>/src)")
    ap.add_argument("--files", nargs="*", default=None,
                    help="check exactly these files (fixture/self-test "
                         "mode; disables compile_commands discovery)")
    ap.add_argument("--layers", default=os.path.join(here, "layers.toml"),
                    help="layer declaration file for --check layers")
    ap.add_argument("--test-roots", nargs="*", default=None,
                    help="directories scanned for protocol test "
                         "coverage (default: <repo>/tests <repo>/fuzz; "
                         "pass an empty list to skip clause (c))")
    args = ap.parse_args(argv)

    src_root = os.path.abspath(args.src_root)
    if args.files is not None:
        missing = [f for f in args.files if not os.path.exists(f)]
        if missing:
            print(f"mdos_check: no such file: {', '.join(missing)}",
                  file=sys.stderr)
            return 2
        source_set = SourceSet(args.files, src_root)
    else:
        cc = args.compile_commands
        if cc is None and args.build_dir:
            cc = os.path.join(args.build_dir, "compile_commands.json")
        if cc and os.path.exists(cc):
            source_set = SourceSet.from_compile_commands(cc, src_root)
        else:
            if cc:
                print(f"mdos_check: {cc} not found; falling back to a "
                      f"tree walk of {src_root}", file=sys.stderr)
            source_set = SourceSet.from_tree(src_root)

    if args.test_roots is None:
        test_roots = [os.path.join(repo, "tests"),
                      os.path.join(repo, "fuzz")]
    else:
        test_roots = args.test_roots

    selected = CHECKS if args.check == "all" else (args.check,)
    findings = []
    for name in selected:
        if name == "protocol":
            findings += check_protocol.run(
                source_set, test_roots=test_roots or None)
        elif name == "blocking":
            findings += check_blocking.run(source_set)
        elif name == "layers":
            findings += check_layers.run(source_set, args.layers)
        elif name == "status":
            findings += check_status.run(source_set)

    root = repo if args.files is None else os.getcwd()
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.check)):
        print(f.render(root))
    if findings:
        print(f"mdos_check: {len(findings)} finding(s) from "
              f"{'/'.join(selected)} over {len(source_set.files)} files",
              file=sys.stderr)
        return 1
    print(f"mdos_check: {'/'.join(selected)} clean over "
          f"{len(source_set.files)} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
