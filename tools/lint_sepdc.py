#!/usr/bin/env python3
"""Repo-idiom linter for sepdc — house rules the generic tools can't check.

Rules (each with a stable id used in messages and fixture names):

  raw-sync        std::mutex / std::lock_guard / std::unique_lock /
                  std::condition_variable & friends may appear only in
                  src/support/mutex.hpp. Everything else must use the
                  annotated sepdc::Mutex / LockGuard / UniqueLock /
                  CondVar wrappers so Clang Thread Safety Analysis sees
                  the lock protocol. Applies to src/.

  stray-atomic    std::atomic belongs to audited ownership sites
                  (ServiceStats, RunContext, LiveStore, ThreadPool,
                  QueryBroker, the forest/engine/query-tree counters).
                  New atomics elsewhere in src/ mean a new unreviewed
                  concurrency protocol: add the file to the allowlist
                  here *in the same PR* that documents its protocol.

  raw-thread      std::thread / std::jthread / std::async may appear only
                  in src/parallel/thread_pool.{hpp,cpp} (the pool's
                  workers) and src/service/query_broker.hpp (one flusher
                  per broker). A thread started per call costs a create
                  and a join on the request path, and work parked on it
                  is invisible to the pool: fan out through the pool, or
                  enqueue into the brokers and wait, instead. Applies to
                  src/.

  raw-random      rand()/srand()/time()/clock() seed-style randomness is
                  banned everywhere; use support/rng (deterministic,
                  splittable, per-path streams). Applies to src/, tests/,
                  bench/, examples/.

  raw-mmap        raw file-mapping / fd syscalls (open, mmap, pread,
                  fstat, msync, ... and the <sys/mman.h>/<fcntl.h>
                  headers) may appear only under src/io/ — every
                  mapping's lifetime and error path must be reviewable
                  in one place (io/snapshot_file.cpp). Everything else
                  consumes mapped memory through io::load_snapshot /
                  arena views. Applies to src/.

  pragma-once     every .hpp must start its preprocessor life with
                  #pragma once.

  unlabeled-test  every add_test() in any CMakeLists.txt must end up with
                  a tier1 or stress LABEL (directly via
                  set_tests_properties, or by being registered through a
                  labeling helper like sepdc_add_test).

Usage:
  tools/lint_sepdc.py [--root DIR]     lint the tree (exit 1 on findings)
  tools/lint_sepdc.py --self-test      run the fixture suite under
                                       tools/lint_fixtures (exit 1 on any
                                       unexpected/missing finding)

Fixture protocol: each file under tools/lint_fixtures/{pass,fail}/ names
its virtual repo path on the first line (`// lint-fixture: src/x.hpp` or
`# lint-fixture: tests/CMakeLists.txt`). Files under fail/ are named
<rule-id>__<description>.<ext> and must produce at least one finding of
exactly that rule; files under pass/ must produce none.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# configuration

RAW_SYNC_ALLOWLIST = {
    "src/support/mutex.hpp",
}

RAW_THREAD_ALLOWLIST = {
    "src/parallel/thread_pool.hpp",
    "src/parallel/thread_pool.cpp",
    "src/service/query_broker.hpp",
}

ATOMIC_ALLOWLIST = {
    "src/support/metrics.hpp",
    "src/support/trace.hpp",
    "src/service/service_stats.hpp",
    "src/service/query_broker.hpp",
    "src/service/delta_tier.hpp",
    "src/service/shard_router.hpp",
    "src/core/run_context.hpp",
    "src/core/partition_forest.hpp",
    "src/core/engine.hpp",
    "src/core/query_tree.hpp",
    "src/parallel/thread_pool.hpp",
    "src/knn/kernels.cpp",
}

# The only directory allowed to issue raw file-mapping / fd syscalls
# (docs/persistence.md): the snapshot container. The lookbehind in
# RAW_MMAP_RE excludes member calls (file.open, stream->close), so only
# free/global-namespace syscall spellings match.
MMAP_ALLOWED_PREFIX = "src/io/"

# The only files allowed to contain SIMD intrinsics or vectorization
# pragmas: the distance-kernel TU family (docs/kernels.md). Everything
# else must call through kernels::dist2_blocks so the bit-identity
# contract (scalar == vector, per lane) stays checkable in one place.
SIMD_ALLOWED_PREFIX = "src/knn/kernels"

SKIP_DIR_NAMES = {".git", "lint_fixtures", "negative_compile",
                  "semalyze_fixtures"}
SKIP_DIR_PREFIXES = ("build",)

CPP_EXTENSIONS = {".hpp", ".cpp", ".h", ".cc"}

VALID_TEST_LABELS = {"tier1", "stress"}

RAW_SYNC_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
)

ATOMIC_RE = re.compile(r"std::atomic\b|std::atomic_(?:flag|ref)\b")

RAW_THREAD_RE = re.compile(r"std::(?:thread|jthread|async)\b")

RAW_RANDOM_RE = re.compile(
    r"(?<![\w.>])(?:std::\s*)?(?:rand|srand|rand_r|drand48|random_shuffle"
    r"|time|clock|gettimeofday)\s*\("
)

# Matches intrinsics headers (angle form survives strip_cpp_noise; the
# quoted form is blanked but quoted intrinsics headers don't exist in this
# tree), intrinsic calls, vector register types, and OpenMP simd pragmas.
STRAY_SIMD_RE = re.compile(
    r"#\s*include\s*<[a-z0-9_]*intrin\.h>"
    r"|#\s*include\s*<arm_(?:neon|sve)\.h>"
    r"|\b_mm\d*_\w+\s*\("
    r"|\b__m(?:64|128|256|512)[di]?\b"
    r"|#\s*pragma\s+omp\s+simd\b"
)

RAW_MMAP_RE = re.compile(
    r"(?<![\w.>])(?:::\s*)?"
    r"(?:open|openat|creat|mmap|mmap64|munmap|mremap|msync|madvise"
    r"|pread|pwrite|preadv|pwritev|fstat|fsync|fdatasync|ftruncate)"
    r"\s*\("
    r"|#\s*include\s*<(?:sys/mman|fcntl)\.h>"
)

ADD_TEST_RE = re.compile(r"\badd_test\s*\(\s*NAME\s+([^\s)]+)", re.IGNORECASE)
SET_PROPS_RE = re.compile(
    r"\bset_tests_properties\s*\(([^)]*)\)", re.IGNORECASE | re.DOTALL
)


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# comment / string stripping (keeps line structure so line numbers hold)


def strip_cpp_noise(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2 if i + 1 < n else 1
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":  # unterminated; bail at line end
                    break
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_cmake_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.split("\n"))


def findings_for_pattern(
    virtual_path: str, text: str, pattern: re.Pattern, rule: str, message: str
) -> list[Finding]:
    found = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if pattern.search(line):
            found.append(Finding(virtual_path, lineno, rule, message))
    return found


# --------------------------------------------------------------------------
# rules


def check_cpp_file(virtual_path: str, raw_text: str) -> list[Finding]:
    findings: list[Finding] = []
    ext = Path(virtual_path).suffix
    if ext not in CPP_EXTENSIONS:
        return findings
    text = strip_cpp_noise(raw_text)
    in_src = virtual_path.startswith("src/")

    if in_src and virtual_path not in RAW_SYNC_ALLOWLIST:
        findings += findings_for_pattern(
            virtual_path, text, RAW_SYNC_RE, "raw-sync",
            "raw std lock primitive; use sepdc::Mutex/LockGuard/UniqueLock/"
            "CondVar from support/mutex.hpp so -Wthread-safety can check "
            "the protocol",
        )

    if in_src and virtual_path not in ATOMIC_ALLOWLIST:
        findings += findings_for_pattern(
            virtual_path, text, ATOMIC_RE, "stray-atomic",
            "std::atomic outside the audited ownership sites; document the "
            "protocol and extend ATOMIC_ALLOWLIST in tools/lint_sepdc.py "
            "in the same PR",
        )

    if in_src and virtual_path not in RAW_THREAD_ALLOWLIST:
        findings += findings_for_pattern(
            virtual_path, text, RAW_THREAD_RE, "raw-thread",
            "raw std::thread/jthread/async outside the thread pool and the "
            "broker's flusher; run the work on par::ThreadPool or enqueue "
            "it into a broker and wait, instead of starting a thread per "
            "call",
        )

    if in_src and not virtual_path.startswith(MMAP_ALLOWED_PREFIX):
        findings += findings_for_pattern(
            virtual_path, text, RAW_MMAP_RE, "raw-mmap",
            "raw file-mapping/fd syscall outside src/io/; go through "
            "io::save_snapshot / io::load_snapshot so every mapping's "
            "lifetime and error path stays reviewable in one place "
            "(docs/persistence.md)",
        )

    if not virtual_path.startswith(SIMD_ALLOWED_PREFIX):
        findings += findings_for_pattern(
            virtual_path, text, STRAY_SIMD_RE, "stray-simd",
            "SIMD intrinsics / vector pragma outside src/knn/kernels*; "
            "route through kernels::dist2_blocks so the scalar/vector "
            "bit-identity contract (docs/kernels.md) covers it",
        )

    findings += findings_for_pattern(
        virtual_path, text, RAW_RANDOM_RE, "raw-random",
        "libc randomness/time as entropy; use support/rng (deterministic "
        "per-path streams) or support/timer",
    )

    if ext in {".hpp", ".h"} and "#pragma once" not in raw_text:
        findings.append(
            Finding(virtual_path, 1, "pragma-once",
                    "header missing #pragma once")
        )
    return findings


def check_cmake_file(virtual_path: str, raw_text: str) -> list[Finding]:
    findings: list[Finding] = []
    if Path(virtual_path).name != "CMakeLists.txt":
        return findings
    text = strip_cmake_comments(raw_text)

    labeled: set[str] = set()
    for m in SET_PROPS_RE.finditer(text):
        body = m.group(1)
        tokens = body.split()
        upper = [t.upper() for t in tokens]
        if "LABELS" not in upper:
            continue
        label_idx = upper.index("LABELS")
        labels = {t for t in tokens[label_idx + 1:]}
        # ${ARG_LABEL}-style indirection counts as labeled: the helper
        # function validates/owns the label.
        if labels & VALID_TEST_LABELS or any("${" in t for t in labels):
            props_idx = upper.index("PROPERTIES") if "PROPERTIES" in upper \
                else label_idx
            labeled.update(tokens[:props_idx])

    for lineno, line in enumerate(text.split("\n"), start=1):
        m = ADD_TEST_RE.search(line)
        if not m:
            continue
        name = m.group(1)
        if name not in labeled:
            findings.append(
                Finding(
                    virtual_path, lineno, "unlabeled-test",
                    f"test '{name}' registered without a tier1/stress LABEL "
                    "(set_tests_properties(... PROPERTIES LABELS tier1) or "
                    "register through a labeling helper)",
                )
            )
    return findings


def lint_content(virtual_path: str, raw_text: str) -> list[Finding]:
    return check_cpp_file(virtual_path, raw_text) + check_cmake_file(
        virtual_path, raw_text
    )


# --------------------------------------------------------------------------
# tree walk


def should_skip(rel_parts: tuple[str, ...]) -> bool:
    for part in rel_parts[:-1]:
        if part in SKIP_DIR_NAMES:
            return True
        if any(part.startswith(p) for p in SKIP_DIR_PREFIXES):
            return True
    return False


def lint_tree(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    candidates: list[Path] = []
    for pattern in ("**/*.hpp", "**/*.h", "**/*.cpp", "**/*.cc",
                    "**/CMakeLists.txt"):
        candidates.extend(root.glob(pattern))
    for path in sorted(set(candidates)):
        rel = path.relative_to(root)
        if should_skip(rel.parts):
            continue
        try:
            raw = path.read_text(encoding="utf-8", errors="replace")
        except OSError as e:
            print(f"error: cannot read {rel}: {e}", file=sys.stderr)
            return []
        findings.extend(lint_content(str(rel).replace("\\", "/"), raw))
    return findings


# --------------------------------------------------------------------------
# fixture self-test

FIXTURE_PATH_RE = re.compile(r"lint-fixture:\s*(\S+)")


def self_test(fixtures_dir: Path) -> int:
    failures = 0
    checked = 0
    for expectation in ("pass", "fail"):
        directory = fixtures_dir / expectation
        files = sorted(p for p in directory.iterdir() if p.is_file())
        if not files:
            print(f"self-test: no fixtures under {directory}", file=sys.stderr)
            return 1
        for path in files:
            raw = path.read_text(encoding="utf-8")
            m = FIXTURE_PATH_RE.search(raw.split("\n", 1)[0])
            if not m:
                print(f"self-test FAIL {path.name}: first line must declare "
                      "'lint-fixture: <virtual path>'")
                failures += 1
                continue
            virtual_path = m.group(1)
            found = lint_content(virtual_path, raw)
            checked += 1
            if expectation == "pass":
                if found:
                    failures += 1
                    print(f"self-test FAIL {path.name}: expected clean, got:")
                    for f in found:
                        print(f"  {f}")
            else:
                want_rule = path.name.split("__", 1)[0]
                rules = {f.rule for f in found}
                if want_rule not in rules:
                    failures += 1
                    print(f"self-test FAIL {path.name}: expected a "
                          f"'{want_rule}' finding, got {sorted(rules) or 'none'}")
                extra = rules - {want_rule}
                if extra:
                    failures += 1
                    print(f"self-test FAIL {path.name}: unexpected extra "
                          f"rules {sorted(extra)}")
    if failures == 0:
        print(f"self-test OK: {checked} fixtures")
        return 0
    print(f"self-test: {failures} failure(s)")
    return 1


# --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root to lint (default: repo containing "
                        "this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite instead of linting")
    args = parser.parse_args()

    if args.self_test:
        return self_test(Path(__file__).resolve().parent / "lint_fixtures")

    findings = lint_tree(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_sepdc: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_sepdc: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
