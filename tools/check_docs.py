#!/usr/bin/env python3
"""Documentation consistency checker (the CI `docs` job).

Fails (exit 1) when:
  * any intra-repo markdown link in a tracked .md file points at a
    path that does not exist;
  * a benchmark binary (bench/bench_*.cpp, bench_common excluded) is
    never mentioned in docs/;
  * docs/ or README.md names a `bench_<name>` binary that has no
    bench/bench_<name>.cpp (a deleted or renamed bench left its row
    behind);
  * a src/ subsystem directory is never mentioned in docs/.

External links (http/https/mailto) and pure anchors are not checked —
this is a repo-consistency gate, not a link crawler.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) — good enough for the hand-written markdown in this
# repo; images and reference-style links are not used.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# A `bench_<name>` binary reference. The bare `bench_` prefix and
# `bench_*` globs are not references to one binary, `.bench_build` is
# the perfbench build directory, and `bench_<name>.py` is a script.
BENCH_REF_RE = re.compile(r"(?<![\w.-])(bench_\w+)(?![\w*]|\.py)")

# Generated retrieval artifacts (paper extraction, snippet corpus):
# their image/figure references were never part of this repo.
GENERATED = {"PAPER.md", "PAPERS.md", "SNIPPETS.md"}


def markdown_files():
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [
            d for d in dirs
            if not d.startswith(".") and not d.startswith("build")
            and d != "related"
        ]
        for name in files:
            if name.endswith(".md") and name not in GENERATED:
                yield os.path.join(root, name)


def check_links():
    errors = []
    for path in markdown_files():
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path),
                             target.split("#", 1)[0]))
            if not os.path.exists(resolved):
                errors.append(
                    f"{os.path.relpath(path, REPO)}: broken link -> "
                    f"{target}")
    return errors


def docs_corpus():
    corpus = ""
    docs_dir = os.path.join(REPO, "docs")
    for name in sorted(os.listdir(docs_dir)):
        if name.endswith(".md"):
            with open(os.path.join(docs_dir, name), encoding="utf-8") as f:
                corpus += f.read()
    return corpus


def check_bench_coverage(corpus):
    errors = []
    bench_dir = os.path.join(REPO, "bench")
    for name in sorted(os.listdir(bench_dir)):
        if not (name.startswith("bench_") and name.endswith(".cpp")):
            continue
        binary = name[:-len(".cpp")]
        if binary == "bench_common":
            continue  # shared harness, not a binary
        if binary not in corpus:
            errors.append(f"docs/: benchmark `{binary}` is undocumented "
                          f"(bench/{name})")
    return errors


def check_bench_references(corpus):
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
        text = corpus + f.read()
    return [f"docs/ or README.md names `{binary}`, but bench/{binary}.cpp "
            f"does not exist"
            for binary in sorted(set(BENCH_REF_RE.findall(text)))
            if not os.path.exists(os.path.join(REPO, "bench",
                                               binary + ".cpp"))]


def check_fuzz_coverage(corpus):
    errors = []
    fuzz_dir = os.path.join(REPO, "fuzz")
    if not os.path.isdir(fuzz_dir):
        return errors
    for name in sorted(os.listdir(fuzz_dir)):
        if not (name.startswith("fuzz_") and name.endswith(".cc")):
            continue
        harness = name[:-len(".cc")]
        if harness not in corpus:
            errors.append(f"docs/: fuzz harness `{harness}` is "
                          f"undocumented (fuzz/{name})")
    return errors


def check_mdos_check_coverage(corpus):
    """Every mdos-check checker module must be documented in docs/.

    The checkers gate every PR; an undocumented checker is one nobody
    knows how to satisfy or extend.
    """
    errors = []
    check_dir = os.path.join(REPO, "tools", "mdos_check")
    if not os.path.isdir(check_dir):
        return errors
    for name in sorted(os.listdir(check_dir)):
        if not (name.startswith("check_") and name.endswith(".py")):
            continue
        if name not in corpus:
            errors.append(f"docs/: mdos-check checker `{name}` is "
                          f"undocumented (tools/mdos_check/{name})")
    if "mdos-check" not in corpus:
        errors.append("docs/: the mdos-check suite has no docs section")
    return errors


def check_subsystem_coverage(corpus):
    errors = []
    src_dir = os.path.join(REPO, "src")
    for name in sorted(os.listdir(src_dir)):
        if not os.path.isdir(os.path.join(src_dir, name)):
            continue
        if f"src/{name}" not in corpus:
            errors.append(f"docs/: subsystem `src/{name}` is never "
                          f"mentioned")
    return errors


def main():
    corpus = docs_corpus()
    errors = (check_links() + check_bench_coverage(corpus) +
              check_bench_references(corpus) +
              check_subsystem_coverage(corpus) + check_fuzz_coverage(corpus) +
              check_mdos_check_coverage(corpus))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} documentation problem(s)", file=sys.stderr)
        return 1
    print("docs OK: links resolve; benches, subsystems, fuzz harnesses, "
          "and mdos-check checkers covered; every named bench exists")
    return 0


if __name__ == "__main__":
    sys.exit(main())
