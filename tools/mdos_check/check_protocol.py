"""Protocol exhaustiveness checker.

Every enumerator of `plasma::MessageType` is a wire message the rest of
the system must know how to handle. Reviewer memory used to enforce
that; this checker makes it a build gate. For each enumerator it
requires:

  (a) a field list: the message struct derived from the enumerator name
      (kGetRequest -> GetRequest) defines `Fields` in the protocol
      header. `wire::Encode`/`wire::Decode` derive both codec halves
      from it, so a struct with `Fields` has both;
  (b) dispatch arms on BOTH sides of the wire: the enumerator is named
      (as `MessageType::kX`) in the server frame handler (the store
      dispatches requests and emits replies/pushes) AND in at least one
      client reader path (which sends requests and decodes replies).
      The sides are checked separately on purpose: every message is
      named on both, so a single shared corpus would let a deleted
      store dispatch arm hide behind the client's send site;
  (c) test coverage: the enumerator or its struct appears in at least
      one test or fuzz TU (the shared shape list in tests/wire_shapes.h
      names every struct the round-trip test and the fuzz harness walk).

A new MessageType lands green only when all three exist. Config below
names the files; enumerators without a payload struct (pure signals
like kDisconnectRequest) are listed explicitly with the reason.
"""

from __future__ import annotations

import os

import mdos_cxx
from findings import Finding

CHECK = "protocol-exhaustiveness"

CONFIG = {
    # File holding the enum and the message structs, each of which must
    # define `Fields` (relative to the source root).
    "enum_file": "plasma/protocol.h",
    "enum_name": "MessageType",
    # Where a `MessageType::kX` mention counts as a dispatch arm, per
    # side. Every enumerator must appear in BOTH groups (a group whose
    # files are all absent — fixture trees — is skipped).
    "server_dispatch_files": [
        "plasma/store.cc",        # request dispatch + reply/push emission
    ],
    "client_dispatch_files": [
        "plasma/async_client.cc",  # reply dispatch (pipelined reader)
        "plasma/client.cc",        # blocking shim + notification listener
    ],
    # Enumerators with no payload struct: name -> reason. Exempt from
    # (a) and (c)'s struct-name clause but still need a dispatch arm.
    "no_payload": {
        "kDisconnectRequest":
            "pure signal; the store drops the client without decoding",
    },
    # Enumerator -> struct name when the k-prefix-strip convention does
    # not apply.
    "struct_overrides": {
        "kNotification": "Notification",
    },
}


def struct_name_for(enumerator: str) -> str:
    if enumerator in CONFIG["struct_overrides"]:
        return CONFIG["struct_overrides"][enumerator]
    return enumerator[1:] if enumerator.startswith("k") else enumerator


def run(source_set, test_roots=None) -> list[Finding]:
    src = source_set.src_root
    findings = []

    enum_path = os.path.join(src, CONFIG["enum_file"])
    enum_sf = source_set.sources.get(os.path.abspath(enum_path))
    if enum_sf is None:
        enum_sf = mdos_cxx.load(enum_path)
    enumerators = mdos_cxx.parse_enum(enum_sf, CONFIG["enum_name"])
    if not enumerators:
        findings.append(Finding(
            enum_path, 1, CHECK,
            f"enum {CONFIG['enum_name']} not found in "
            f"{CONFIG['enum_file']}"))
        return findings

    with_fields = {fn.qualname.split("::")[-2] for fn in enum_sf.functions
                   if fn.is_definition and fn.name == "Fields" and
                   "::" in fn.qualname}

    def dispatch_corpus(key):
        corpus = ""
        for rel in CONFIG[key]:
            path = os.path.abspath(os.path.join(src, rel))
            sf = source_set.sources.get(path)
            if sf is None and os.path.exists(path):
                sf = mdos_cxx.load(path)
            if sf is not None:
                corpus += sf.code
        return corpus

    # side label -> (corpus, file list); empty corpus groups (fixture
    # trees without that side) impose no requirement.
    dispatch_sides = {}
    for label, key, where in (
            ("server", "server_dispatch_files",
             "the server frame handlers"),
            ("client", "client_dispatch_files",
             "the client reader paths")):
        corpus = dispatch_corpus(key)
        if corpus:
            dispatch_sides[label] = (corpus, where, CONFIG[key])

    test_corpus = ""
    for root in test_roots or ():
        if not os.path.isdir(root):
            continue
        for dirpath, _, names in os.walk(root):
            for name in names:
                if name.endswith((".cc", ".cpp", ".h")):
                    with open(os.path.join(dirpath, name),
                              encoding="utf-8", errors="replace") as f:
                        test_corpus += f.read()

    for enumerator, line in enumerators:
        qualified = f"MessageType::{enumerator}"
        no_payload = enumerator in CONFIG["no_payload"]
        struct = struct_name_for(enumerator)

        if not no_payload and struct not in with_fields:
            findings.append(Finding(
                enum_sf.path, line, CHECK,
                f"{enumerator}: struct {struct} lacks Fields in "
                f"{CONFIG['enum_file']} (every MessageType needs a "
                f"field list)"))

        for corpus, where, files in dispatch_sides.values():
            if qualified not in corpus:
                findings.append(Finding(
                    enum_sf.path, line, CHECK,
                    f"{enumerator}: no dispatch arm — {qualified} is "
                    f"never named in {where} ({', '.join(files)})"))

        if test_roots is not None:
            probe = enumerator if no_payload else struct
            if probe not in test_corpus and qualified not in test_corpus:
                findings.append(Finding(
                    enum_sf.path, line, CHECK,
                    f"{enumerator}: no test coverage — neither "
                    f"{probe} nor {qualified} appears in any test or "
                    f"fuzz TU"))

    return findings
