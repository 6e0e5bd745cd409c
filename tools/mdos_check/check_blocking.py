"""Blocking-call reachability checker.

Shard event-loop threads serve every client homed on them: one blocking
call stalls all of those clients at once, and under load that reads as
a gray failure nothing else can explain. The compiler cannot see this
contract, so this checker does:

  1. Functions annotated `MDOS_EVENT_LOOP_CONTEXT` (declared in
     common/thread_annotations.h; applied to shard event-loop entry
     points, Poller read/write callbacks, and TxQueue flush paths) are
     reachability ROOTS.
  2. A call graph is built over src/ by name resolution (a lexer-grade
     over-approximation — see mdos_cxx.py) and walked from the roots.
  3. Any reachable function that calls a DENYLISTED primitive — sleeps,
     poll/select with a wait outside the Poller itself, blocking
     connect, RpcChannel::Call*, CondVar::Wait, the blocking stream-I/O
     helpers — is a finding, reported with the call chain from the root.
  4. Independently, a denylisted call made while a `MutexLock` is
     lexically alive is a finding in ANY function (a shard mutex held
     across a blocking call serializes every client of that shard, even
     off the event loop), except for rules marked `lock_ok` (CondVar
     waits take the lock by contract and release it while waiting).

Suppressions: `// mdos-check: allow-blocking(<reason>)` on (or directly
above) the call line both silences the finding and CUTS the call edge —
the documented blocking seams (the DistHooks peer-RPC boundary, the
connect handshake's ordered blocking flush) stay visible in the code as
reviewable suppressions instead of silently passing.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import os

from findings import Finding

CHECK = "blocking-call"


@dataclasses.dataclass
class DenyRule:
    names: tuple          # callee last-segment names this rule matches
    category: str
    why: str
    # Receivers for which the call is NOT denied (e.g. Poller::Wait is
    # the event loop). When the receiver matches, call-graph resolution
    # is also narrowed to `allow_class` so the benign overload does not
    # drag in the blocking one.
    allow_receivers: tuple = ()
    allow_class: str = ""
    # Files whose *call sites* this rule never fires in (the primitive's
    # own implementation layer).
    exempt_files: tuple = ()
    # Functions whose own call sites this rule never fires in: the
    # non-blocking variant of a primitive that shares its name.
    exempt_functions: tuple = ()
    # Holding a MutexLock across this call is acceptable (CondVar::Wait
    # releases the mutex while blocked).
    lock_ok: bool = False


DENY_RULES = (
    DenyRule(
        names=("sleep", "usleep", "nanosleep", "sleep_for", "sleep_until"),
        category="sleep",
        why="sleeping on an event-loop thread stalls every client homed "
            "on it"),
    DenyRule(
        names=("poll", "ppoll", "select", "epoll_wait", "epoll_pwait"),
        category="poll",
        why="raw readiness waits belong inside net::Poller, the one "
            "place allowed to block the loop",
        exempt_files=("net/poller.cc",)),
    DenyRule(
        names=("connect", "Connect", "ConnectUnix"),
        category="connect",
        why="blocking connect (dial + handshake) can take seconds; "
            "event-loop code must go through an established channel",
        # net::TcpConnectStart connects an O_NONBLOCK socket: connect(2)
        # returns EINPROGRESS and the caller's poller reports the
        # outcome (the channel I/O loop's redial).
        exempt_functions=("TcpConnectStart",)),
    DenyRule(
        names=("Call", "CallTyped", "CallWithDeadline",
               "CallTypedDeadline"),
        category="rpc",
        why="RpcChannel calls are synchronous round trips (with redial "
            "backoff); never issue them from an event loop or under a "
            "shard mutex"),
    DenyRule(
        names=("Wait", "WaitFor", "WaitUntil", "WaitAll", "WaitAny",
               "Take"),
        category="wait",
        why="condition/future waits park the thread until another "
            "thread acts — on an event loop that is a deadlock seed",
        allow_receivers=("poller", "poller_", "accept_poller_"),
        allow_class="Poller",
        lock_ok=True),
    DenyRule(
        names=("WriteAll", "ReadAll", "WritevAll", "SendFrame",
               "RecvFrame", "RecvExpect", "SendFdOver", "RecvFdOver"),
        category="blocking-io",
        why="the *All/Frame helpers loop until completion; event-loop "
            "egress goes through the non-blocking TxQueue instead"),
)

# Files whose function bodies are never scanned or traversed: the
# primitives' own implementation (net/poller.cc is the sanctioned
# blocking point) and client-side code that shares method names with
# the store surface (Get/Connect/Wait) but can never run on a store
# event-loop thread.
TRAVERSE_EXCLUDE = (
    "net/poller.cc",
    "plasma/client.cc",
    "plasma/client.h",
    "plasma/async_client.cc",
    "plasma/async_client.h",
    "common/future.h",
    "cluster/*",
)


def _excluded(rel):
    return any(fnmatch.fnmatch(rel, pat) for pat in TRAVERSE_EXCLUDE)


def _rule_for(call):
    for rule in DENY_RULES:
        if call.name in rule.names:
            return rule
    return None


def run(source_set) -> list[Finding]:
    findings = []

    defs_by_name = {}
    for fn in source_set.all_functions():
        if not fn.is_definition:
            continue
        if _excluded(source_set.relpath(fn.path)):
            continue
        defs_by_name.setdefault(fn.name, []).append(fn)

    annotated = {
        fn.qualname
        for fn in source_set.all_functions()
        if "MDOS_EVENT_LOOP_CONTEXT" in fn.annotations
    }
    roots = []
    for fns in defs_by_name.values():
        for fn in fns:
            if "MDOS_EVENT_LOOP_CONTEXT" in fn.annotations:
                roots.append(fn)
            elif any(q.endswith("::" + fn.name) and
                     _tail_matches(q, fn.qualname) for q in annotated):
                roots.append(fn)
    if not roots:
        findings.append(Finding(
            source_set.src_root, 1, CHECK,
            "no MDOS_EVENT_LOOP_CONTEXT annotations found — the "
            "event-loop reachability check has no roots (annotate the "
            "shard loops, Poller callbacks, and TxQueue flush paths)"))

    # BFS from the roots.
    visited = {}
    queue = []
    for fn in roots:
        if id(fn) not in visited:
            visited[id(fn)] = (fn, None)
            queue.append(fn)
    reported = set()
    while queue:
        fn = queue.pop(0)
        for call in fn.calls:
            sf = source_set.sources[fn.path]
            if sf.is_suppressed(call.line, "blocking"):
                continue  # documented seam: edge cut, finding silenced
            rule = _rule_for(call)
            narrowed_class = ""
            if rule is not None:
                if call.receiver in rule.allow_receivers:
                    narrowed_class = rule.allow_class
                elif (source_set.relpath(fn.path) in rule.exempt_files or
                      fn.name in rule.exempt_functions):
                    pass
                else:
                    key = (fn.path, call.line, call.name)
                    if key not in reported:
                        reported.add(key)
                        chain = _chain(visited, fn)
                        findings.append(Finding(
                            fn.path, call.line, CHECK,
                            f"event-loop context reaches blocking call "
                            f"`{call.spelled()}` [{rule.category}] via "
                            f"{chain}; {rule.why}"))
                    continue
            for callee in _resolve(defs_by_name, call, narrowed_class):
                if id(callee) not in visited:
                    visited[id(callee)] = (callee, fn)
                    queue.append(callee)

    # Mutex-held-across-blocking-call: every function, lexical MutexLock
    # scopes.
    for fn in source_set.all_functions():
        if not fn.is_definition or \
                _excluded(source_set.relpath(fn.path)):
            continue
        for call in fn.calls:
            if not call.under_locks:
                continue
            rule = _rule_for(call)
            if rule is None or rule.lock_ok:
                continue
            if call.receiver in rule.allow_receivers:
                continue
            if (source_set.relpath(fn.path) in rule.exempt_files or
                    fn.name in rule.exempt_functions):
                continue
            sf = source_set.sources[fn.path]
            if sf.is_suppressed(call.line, "blocking"):
                continue
            findings.append(Finding(
                fn.path, call.line, CHECK,
                f"blocking call `{call.spelled()}` [{rule.category}] "
                f"while MutexLock `{', '.join(call.under_locks)}` is "
                f"held in {fn.qualname}; {rule.why}"))

    return findings


def _tail_matches(annotated_qual, def_qual):
    """`Store::ShardLoop` (header decl) matches
    `mdos::plasma::Store::ShardLoop` (out-of-line def) and vice versa."""
    a = annotated_qual.split("::")
    d = def_qual.split("::")
    k = min(len(a), len(d))
    return a[-k:] == d[-k:]


def _resolve(defs_by_name, call, narrowed_class):
    candidates = defs_by_name.get(call.name, ())
    if narrowed_class:
        candidates = [fn for fn in candidates
                      if f"::{narrowed_class}::" in f"::{fn.qualname}"]
    elif call.qualifier:
        qualified = [fn for fn in candidates
                     if fn.qualname.endswith(
                         f"{call.qualifier}::{call.name}")]
        if qualified:
            candidates = qualified
    return candidates


def _chain(visited, fn):
    parts = []
    node = fn
    while node is not None:
        parts.append(node.qualname)
        node = visited[id(node)][1]
    return " <- ".join(parts)
