#!/usr/bin/env python3
"""Documentation drift gate.

Fails (exit 1) when the docs disagree with the build:
  1. A relative markdown link points at a file that does not exist.
  2. A markdown link's #anchor names a heading that does not exist
     (GitHub-style anchor derivation).
  3. A `bench_*` binary named anywhere in the docs is not declared in
     bench/CMakeLists.txt.
  4. A ctest label used with `-L <label>` in the docs is not declared via
     LABELS in any CMakeLists.txt.
  5. Trace-kind drift, both directions: every kind emitted by
     TraceKindName() (src/obs/trace.cc) must be documented in
     docs/TRACING.md's vocabulary section, and every snake_case token that
     section backticks must be either a real trace kind or an identifier
     that appears somewhere in the source tree (config knobs etc.) — a
     renamed or deleted kind leaves a stale name that matches nothing.
  6. Env-knob drift: every `WALTER_*` token in the docs must be read by a
     getenv (C++) or os.environ/os.getenv (Python) under src/, bench/,
     tests/ or perfbench/, or be declared as a CMake option/cache variable —
     a deleted environment override leaves a stale name that matches
     nothing.
  7. Option-name drift: every backticked `ClusterOptions::x`,
     `ClusterOptions::server.x` or `WalterServer::Options::x` in the docs
     must name a field declared in ClusterOptions (src/core/cluster.h) or
     WalterServer::Options (src/core/server.h) — a deleted or moved option
     leaves a stale name that matches nothing.
  8. Member-name drift: every backticked `X::member` in the docs, for X in
     Store, WalterServer, LockTable, Cluster, Wal, ObjectHistory and
     GcCoordinator, must name an identifier declared in X's class body in its
     header — a deleted or moved member leaves a stale name.

Usage: check_docs.py [repo_root]   (default: the script's parent directory)
"""

import re
import sys
from pathlib import Path


# Inputs provided to this repo (paper/related-work metadata), not docs we own,
# plus the append-only changelog, whose old entries legitimately name binaries
# and labels that no longer exist.
EXCLUDED = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md", "CHANGES.md"}


def markdown_files(root: Path):
    files = sorted(root.glob("*.md"))
    files += sorted((root / "docs").glob("*.md"))
    return [f for f in files if f.name not in EXCLUDED]


def github_anchor(heading: str) -> str:
    """GitHub's heading -> fragment derivation (ASCII subset)."""
    text = heading.strip().lower()
    text = text.replace("`", "")
    text = re.sub(r"[^a-z0-9_\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(md: Path) -> set:
    anchors = set()
    in_fence = False
    for line in md.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence and re.match(r"#{1,6}\s", line):
            anchors.add(github_anchor(line.lstrip("#")))
    return anchors


LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links(files, errors):
    anchor_cache = {}
    for md in files:
        for target in LINK.findall(md.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            dest = md if not path_part else (md.parent / path_part).resolve()
            if not dest.exists():
                errors.append(f"{md}: broken link -> {target}")
                continue
            if fragment and dest.suffix == ".md":
                if dest not in anchor_cache:
                    anchor_cache[dest] = anchors_of(dest)
                if fragment not in anchor_cache[dest]:
                    errors.append(f"{md}: dead anchor -> {target}")


def check_bench_binaries(root: Path, files, errors):
    cmake = (root / "bench" / "CMakeLists.txt").read_text()
    declared = set(re.findall(r"walter_bench\((bench_[a-z0-9_]+)", cmake))
    declared |= set(re.findall(r"add_library\((bench_[a-z0-9_]+)", cmake))
    for md in files:
        for name in set(re.findall(r"\bbench_[a-z0-9_]+\b", md.read_text(encoding="utf-8"))):
            if name not in declared:
                errors.append(f"{md}: names unknown bench binary '{name}'")


def check_ctest_labels(root: Path, files, errors):
    declared = set()
    for cmake in root.rglob("CMakeLists.txt"):
        if "build" in cmake.parts:
            continue
        for group in re.findall(r'LABELS\s+"([^"]+)"', cmake.read_text(encoding="utf-8")):
            declared.update(group.split(";"))
    for md in files:
        for label in set(re.findall(r"ctest[^\n]*?-L\s+([a-z0-9_]+)", md.read_text(encoding="utf-8"))):
            if label not in declared:
                errors.append(f"{md}: names unknown ctest label '{label}'")


def check_trace_kinds(root: Path, errors):
    trace_cc = root / "src" / "obs" / "trace.cc"
    tracing_md = root / "docs" / "TRACING.md"
    if not trace_cc.exists() or not tracing_md.exists():
        errors.append("trace-kind check: src/obs/trace.cc or docs/TRACING.md missing")
        return
    actual = set(
        re.findall(r'case TraceKind::k\w+:\s*return "([a-z][a-z0-9_]*)"',
                   trace_cc.read_text(encoding="utf-8"))
    )
    text = tracing_md.read_text(encoding="utf-8")
    # The vocabulary runs from the "`TraceKind` vocabulary" line to the next
    # top-level section heading.
    m = re.search(r"`TraceKind` vocabulary.*?(?=\n## )", text, re.S)
    section = m.group(0) if m else ""
    if not section:
        errors.append(f"{tracing_md}: no '`TraceKind` vocabulary' section found")
        return
    documented = set(re.findall(r"`([a-z][a-z0-9_]*)`", section))
    for name in sorted(actual - documented):
        errors.append(
            f"{tracing_md}: trace kind '{name}' (TraceKindName in src/obs/trace.cc) "
            "is missing from the vocabulary section"
        )
    # Reverse direction: a documented snake_case token must be a kind or a
    # real identifier somewhere in the tree (src/, bench/, tests/).
    stale = sorted(documented - actual)
    if stale:
        corpus = []
        for sub in ("src", "bench", "tests"):
            for p in (root / sub).rglob("*"):
                if p.suffix in (".h", ".cc", ".txt"):
                    corpus.append(p.read_text(encoding="utf-8", errors="ignore"))
        blob = "\n".join(corpus)
        for name in stale:
            if name not in blob:
                errors.append(
                    f"{tracing_md}: vocabulary names '{name}', which is neither a "
                    "trace kind nor an identifier anywhere in src/, bench/ or tests/"
                )


KNOB_DIRS = ("src", "bench", "tests", "perfbench")
ENV_READ = re.compile(
    r'(?:getenv|environ\.get|environ)\s*[(\[]\s*["\'](WALTER_[A-Z0-9_]+)["\']')
CMAKE_KNOB = re.compile(
    r'(?:option\(\s*(WALTER_[A-Z0-9_]+)|set\(\s*(WALTER_[A-Z0-9_]+)\s[^)]*\bCACHE\b)')


def check_env_knobs(root: Path, files, errors):
    known = set()
    for sub in KNOB_DIRS:
        for p in (root / sub).rglob("*"):
            if p.suffix in (".h", ".cc", ".py"):
                known.update(ENV_READ.findall(p.read_text(encoding="utf-8", errors="ignore")))
    cmakes = [root / "CMakeLists.txt"]
    for sub in KNOB_DIRS:
        cmakes += (root / sub).rglob("CMakeLists.txt")
    for cmake in cmakes:
        if cmake.exists():
            for opt, cache in CMAKE_KNOB.findall(cmake.read_text(encoding="utf-8")):
                known.add(opt or cache)
    for md in files:
        for name in sorted(set(re.findall(r"\bWALTER_[A-Z0-9_]+", md.read_text(encoding="utf-8")))):
            if name not in known:
                errors.append(
                    f"{md}: names '{name}', which no getenv under "
                    f"{', '.join(KNOB_DIRS)} reads and no CMake option declares"
                )


def struct_fields(header: Path, opener: str) -> set:
    """Data members declared directly in the struct that `opener` starts."""
    text = re.sub(r"//[^\n]*", "", header.read_text(encoding="utf-8"))
    start = text.index(opener) + len(opener)
    fields, depth, stmt = set(), 0, ""
    for ch in text[start:]:
        if depth == 0 and ch == "}":
            break
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif depth == 0 and ch == ";":
            decl = re.split(r"=|\{", stmt)[0].strip()
            if decl and "(" not in decl and not re.match(r"(struct|class|enum|using)\b", decl):
                fields.add(re.findall(r"\w+", decl)[-1])
            stmt = ""
            continue
        if depth == 0:
            stmt += ch
    return fields


OPTION_REF = re.compile(r"(ClusterOptions::(?:server\.)?|WalterServer::Options::)(\w+)")


def check_option_names(root: Path, files, errors):
    cluster = struct_fields(root / "src" / "core" / "cluster.h", "struct ClusterOptions {")
    server = struct_fields(root / "src" / "core" / "server.h", "struct Options {")
    for md in files:
        for span in re.findall(r"`([^`\n]+)`", md.read_text(encoding="utf-8")):
            for prefix, name in OPTION_REF.findall(span):
                fields = cluster if prefix == "ClusterOptions::" else server
                if name not in fields:
                    errors.append(f"{md}: names '{prefix}{name}', which is not a field of "
                                  f"{prefix.rstrip(':.')}")


MEMBER_HEADERS = {
    "Store": "src/storage/store.h",
    "WalterServer": "src/core/server.h",
    "LockTable": "src/core/lock_table.h",
    "Cluster": "src/core/cluster.h",
    "Wal": "src/storage/wal.h",
    "ObjectHistory": "src/storage/object_history.h",
    "GcCoordinator": "src/core/gc_coordinator.h",
}
MEMBER_REF = re.compile(r"\b(" + "|".join(MEMBER_HEADERS) + r")::(\w+)")


def class_identifiers(header: Path, name: str) -> set:
    """Identifiers in the body of `class name` / `struct name`, comments stripped."""
    text = re.sub(r"//[^\n]*", "", header.read_text(encoding="utf-8"))
    opener = re.search(r"\b(?:class|struct)\s+" + name + r"\b[^;{]*\{", text)
    if not opener:
        return set()
    depth, pos = 1, opener.end()
    while depth and pos < len(text):
        depth += {"{": 1, "}": -1}.get(text[pos], 0)
        pos += 1
    return set(re.findall(r"\b[A-Za-z_]\w*\b", text[opener.end():pos]))


def check_member_names(root: Path, files, errors):
    members = {cls: class_identifiers(root / hdr, cls) for cls, hdr in MEMBER_HEADERS.items()}
    for md in files:
        for span in re.findall(r"`([^`\n]+)`", md.read_text(encoding="utf-8")):
            for cls, name in MEMBER_REF.findall(span):
                if name not in members[cls]:
                    errors.append(f"{md}: names '{cls}::{name}', which {MEMBER_HEADERS[cls]} "
                                  f"does not declare in {cls}")


def main() -> int:
    root = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    files = markdown_files(root)
    if not files:
        print(f"check_docs: no markdown files under {root}", file=sys.stderr)
        return 1
    errors = []
    check_links(files, errors)
    check_bench_binaries(root, files, errors)
    check_ctest_labels(root, files, errors)
    check_trace_kinds(root, errors)
    check_env_knobs(root, files, errors)
    check_option_names(root, files, errors)
    check_member_names(root, files, errors)
    if errors:
        print(f"check_docs: {len(errors)} problem(s):", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"check_docs: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
