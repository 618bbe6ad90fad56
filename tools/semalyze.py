#!/usr/bin/env python3
"""semalyze — semantic invariant analyzer for the sepdc tree.

The regex linter (tools/lint_sepdc.py) checks line-shaped idioms; this
tool checks *semantic* invariants that need the structure of the code —
which class owns a mutex, which call is a member call on a std::atomic,
which type flows through the snapshot section templates — and that a
line-based tool provably gets wrong (a multi-line atomic call with the
memory_order on a continuation line looks fine to a regex and is still
missing the order).

Checks (docs/static_analysis.md has the full table):

  sepdc-memory-order
      Every std::atomic load/store/RMW must pass an explicit
      std::memory_order.  The repo has exactly two atomic disciplines —
      relaxed stats counters and acquire/release snapshot publication —
      and an *implicit* seq_cst is always one of two bugs waiting to
      happen: a counter silently paying for ordering it does not need,
      or a publication site whose author never thought about ordering
      at all.  Explicit seq_cst is also flagged unless the site is in
      ALLOW_SEQ_CST below.  Operator forms (++, --, +=, =) can never
      spell an order and are always flagged.

  sepdc-guarded-by-completeness
      In any class owning a sepdc::Mutex, every mutable data member must
      be SEPDC_GUARDED_BY / SEPDC_PT_GUARDED_BY, std::atomic, const, a
      reference, a self-synchronizing type (SELF_SYNC_TYPES), or carry
      SEPDC_UNGUARDED_OK("why").  Clang's -Wthread-safety only checks
      members that are annotated; an unannotated member escapes the
      analysis silently — this check closes that gap.

  sepdc-pin-layout
      Every non-scalar type instantiated through the snapshot section
      read template (io::detail::typed_section<T>) must have a
      SEPDC_PIN_TRIVIAL_LAYOUT pin visible in the same translation
      unit.  The pin is what turns "this struct happens to have this
      layout" into a compile-checked on-disk format contract
      (docs/persistence.md).

  sepdc-typed-throw
      throw in src/service/ and src/io/ must throw the repo's typed
      errors (QueryError / SnapshotIoError / ConfigError) or rethrow
      (`throw;`) — never std::runtime_error, string literals, or ints.
      Callers switch on the typed hierarchy; a raw throw turns a
      recoverable condition into std::terminate or a catch(...).

Frontends
---------
Two interchangeable frontends feed one shared check layer, and the
fixture suite (--self-test) runs byte-identical expectations through
whichever is selected:

  * clang    — libclang (python3-clang) over compile_commands.json.
               The reference frontend: real AST, real types.  CI runs
               it; exits 77 (ctest SKIP) when bindings are absent.
  * reduced  — a dependency-free C++ scanner (balanced-paren /
               balanced-brace parsing, comment+string stripping, class
               member splitting) that implements the same facts for
               hosts without libclang.  It is deliberately conservative
               and tuned to this repo's idioms; the clang frontend is
               authoritative when they disagree.

Exit codes: 0 clean, 1 findings, 2 usage/internal error,
77 requested clang frontend unavailable (ctest SKIP_RETURN_CODE).
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import re
import shlex
import sys

# --------------------------------------------------------------------------
# Configuration: scopes, allowlists, curated type sets.
# --------------------------------------------------------------------------

CHECK_MEMORY_ORDER = "sepdc-memory-order"
CHECK_GUARDED_BY = "sepdc-guarded-by-completeness"
CHECK_PIN_LAYOUT = "sepdc-pin-layout"
CHECK_TYPED_THROW = "sepdc-typed-throw"

ALL_CHECKS = (
    CHECK_MEMORY_ORDER,
    CHECK_GUARDED_BY,
    CHECK_PIN_LAYOUT,
    CHECK_TYPED_THROW,
)

# Member-call spellings treated as atomic operations.  `clear`, `wait`,
# `notify_*` are deliberately absent: they collide with container /
# condvar vocabulary and the repo never calls them on atomics.
ATOMIC_METHODS = {
    "load", "store", "exchange",
    "compare_exchange_weak", "compare_exchange_strong",
    "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "test_and_set",
}

# Atomic operator forms (no way to spell an order — always findings).
ATOMIC_OPERATORS = {
    "operator++", "operator--", "operator=",
    "operator+=", "operator-=", "operator&=", "operator|=", "operator^=",
}

# Sites allowed to use explicit seq_cst, keyed (virtual path, operation).
# Curated by hand: an entry means a human wrote down why full sequential
# consistency is required at that site.  The real tree currently has no
# such site — the only entry backs the fixture that proves the mechanism
# works (tools/semalyze_fixtures/pass/sepdc-memory-order__seqcst_allowlisted.cpp).
ALLOW_SEQ_CST = {
    ("src/service/seqcst_allowlist_demo.cpp", "compare_exchange_strong"),
}

# Types that synchronize internally (all-atomic or own their lock); a
# member of one of these inside a mutex-owning class needs no GUARDED_BY.
SELF_SYNC_TYPES = {
    "Histogram",       # support/metrics.hpp — relaxed-atomic buckets
    "TraceRecorder",   # support/trace.hpp — own mutex + thread-local logs
    "ServiceStats",    # service/service_stats.hpp — relaxed counters
    "LiveStore",       # service/delta_tier.hpp — own mutex + atomic view
    "ThreadPool",      # parallel/thread_pool.hpp — own mutex/condvars
}

# Builtin / std scalar spellings exempt from sepdc-pin-layout: their
# layout is the ABI's problem, not a struct-packing hazard.
SCALAR_SECTION_TYPES = {
    "double", "float", "bool", "char", "int", "long", "short", "unsigned",
    "size_t", "byte", "ptrdiff_t", "uintptr_t", "intptr_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
}

# Exception types sepdc-typed-throw accepts, and the directories it polices.
ALLOWED_THROW_TYPES = {"QueryError", "SnapshotIoError", "ConfigError"}
TYPED_THROW_SCOPES = ("src/service/", "src/io/")

ORDER_NAMES = r"relaxed|consume|acquire|release|acq_rel|seq_cst"
ORDER_RE = re.compile(
    r"\bmemory_order(?:_(" + ORDER_NAMES + r")\b|\s*::\s*(" + ORDER_NAMES + r")\b)"
)

FIXTURE_MARKER_RE = re.compile(r"^//\s*semalyze-fixture:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")


class SemalyzeError(Exception):
    pass


class ClangUnavailable(Exception):
    pass


# --------------------------------------------------------------------------
# Findings and TU facts (the shared IR both frontends produce).
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Finding:
    check: str
    file: str
    line: int
    message: str

    def as_json(self):
        return {"check": self.check, "file": self.file, "line": self.line,
                "message": self.message}


@dataclasses.dataclass
class AtomicOp:
    file: str
    line: int
    op: str
    orders: list  # order names seen in the call's arguments


@dataclasses.dataclass
class FieldInfo:
    name: str
    line: int
    exempt: bool      # const / reference / atomic / mutex / self-sync
    guarded: bool     # SEPDC_GUARDED_BY / SEPDC_PT_GUARDED_BY
    unguarded_ok: bool


@dataclasses.dataclass
class ClassInfo:
    name: str
    file: str
    line: int
    owns_mutex: bool
    fields: list


@dataclasses.dataclass
class ThrowSite:
    file: str
    line: int
    kind: str   # "rethrow" | "type" | "raw"
    base: str   # type base name for kind == "type"


@dataclasses.dataclass
class SectionRead:
    file: str
    line: int
    base: str


@dataclasses.dataclass
class TuFacts:
    """Facts for one analyzed unit; file paths are repo-relative/virtual."""
    atomic_ops: list = dataclasses.field(default_factory=list)
    classes: list = dataclasses.field(default_factory=list)
    throws: list = dataclasses.field(default_factory=list)
    section_reads: list = dataclasses.field(default_factory=list)
    pins: set = dataclasses.field(default_factory=set)  # pinned base names


# --------------------------------------------------------------------------
# Text layer: C++-aware scanning shared by both frontends.
# --------------------------------------------------------------------------

def strip_cpp_noise(text):
    """Blank comments and string/char literal contents, preserving offsets
    and newlines so line numbers survive."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
            continue
        if c == '"':
            raw = (i > 0 and text[i - 1] == "R"
                   and (i < 2 or not (text[i - 2].isalnum() or text[i - 2] == "_")))
            if raw:
                m = re.compile(r'"([^()\\\s]{0,16})\(').match(text, i)
                if m:
                    delim = ")" + m.group(1) + '"'
                    end = text.find(delim, m.end())
                    end = n if end == -1 else end + len(delim)
                    for k in range(i + 1, end - 1):
                        if out[k] != "\n":
                            out[k] = " "
                    i = end
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
            continue
        if c == "'":
            if i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
                i += 1  # digit separator (1'000'000), not a char literal
                continue
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
            continue
        i += 1
    return "".join(out)


def line_of(text, idx):
    return text.count("\n", 0, idx) + 1


def line_of_stmt(text, offset, stmt):
    """Line of the first non-space character of a statement."""
    return line_of(text, offset + (len(stmt) - len(stmt.lstrip())))


def balanced(text, open_idx, open_ch="(", close_ch=")"):
    """Index of the matching close for the delimiter at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def remove_balanced(s, open_ch, close_ch):
    """Drop every balanced <open...close> group (and the delimiters)."""
    out = []
    depth = 0
    for ch in s:
        if ch == open_ch:
            depth += 1
            continue
        if ch == close_ch:
            depth = max(0, depth - 1)
            continue
        if depth == 0:
            out.append(ch)
    return "".join(out)


def remove_angles(s):
    return remove_balanced(s, "<", ">")


def normalize_base(type_text):
    """'typename knn::KdTree<D>::Node' -> 'Node'; 'geo::Point<2>' -> 'Point'."""
    s = re.sub(r"\b(typename|const|struct|class)\b", " ", type_text)
    s = remove_angles(s).replace("&", " ").replace("*", " ")
    s = s.strip()
    if not s:
        return ""
    return s.split("::")[-1].strip()


def first_template_arg(args_text):
    """First comma-separated argument at depth 0 (tracking <>, (), [])."""
    depth = 0
    for i, ch in enumerate(args_text):
        if ch in "<([{":
            depth += 1
        elif ch in ">)]}":
            depth -= 1
        elif ch == "," and depth == 0:
            return args_text[:i]
    return args_text


STRIP_MACRO_RE = re.compile(r"\bSEPDC_\w+\s*\([^()]*\)")


# ---- atomic operations ----------------------------------------------------

ATOMIC_CALL_RE = re.compile(
    r"[\w\)\]]\s*(?:\.|->)\s*(" + "|".join(sorted(ATOMIC_METHODS)) + r")\s*\("
)

ATOMIC_DECL_RE = re.compile(r"\bstd\s*::\s*atomic(?:_flag)?\b")


def scan_atomic_calls(text, path):
    ops = []
    for m in ATOMIC_CALL_RE.finditer(text):
        op = m.group(1)
        open_idx = text.index("(", m.end(1))
        close = balanced(text, open_idx)
        if close < 0:
            continue
        args = text[open_idx + 1:close]
        orders = [a or b for a, b in ORDER_RE.findall(args)]
        ops.append(AtomicOp(path, line_of(text, m.start(1)), op, orders))
    return ops


def scan_atomic_decl_names(text):
    """Names of variables/members declared std::atomic<...> in this text."""
    names = []  # (name, name_offset)
    for m in ATOMIC_DECL_RE.finditer(text):
        i = m.end()
        while i < len(text) and text[i].isspace():
            i += 1
        if i < len(text) and text[i] == "<":
            close = balanced(text, i, "<", ">")
            if close < 0:
                continue
            i = close + 1
        # Scan forward for the declarator: first identifier followed by
        # one of ;={[ — this skips intervening tokens like the `, N>` of
        # an enclosing std::array and rejects function parameters
        # (followed by , or )).
        window = text[i:i + 240]
        if "&" in window.split(";")[0].split("{")[0]:
            continue  # reference to atomic: a parameter, not a declaration
        for idm in re.finditer(r"[A-Za-z_]\w*", window):
            j = idm.end()
            while j < len(window) and window[j] in " \t\n":
                j += 1
            if j < len(window) and window[j] in ";={[":
                names.append((idm.group(0), i + idm.start()))
                break
            if j < len(window) and window[j] in ",)":
                break
    return names


def brace_regions(text):
    """Every balanced {...} range as (open, close), via one stack scan."""
    regions = []
    stack = []
    for i, ch in enumerate(text):
        if ch == "{":
            stack.append(i)
        elif ch == "}" and stack:
            regions.append((stack.pop(), i))
    return regions


def innermost_region(regions, pos, length):
    best = (0, length)
    for o, c in regions:
        if o < pos < c and (c - o) < (best[1] - best[0]):
            best = (o, c)
    return best


def scan_atomic_operator_forms(text, path):
    """++/--/compound-assign/= on names declared std::atomic in this text.

    A declared name only matches inside the brace region enclosing its
    declaration (the class body for members, the function body for
    locals): an unrelated plain variable of the same name in another
    scope — e.g. the mirror field of a plain snapshot struct — is not an
    atomic operation."""
    ops = []
    regions = brace_regions(text)
    name_regions = {}
    for name, off in scan_atomic_decl_names(text):
        name_regions.setdefault(name, []).append(
            innermost_region(regions, off, len(text)))

    def prev_nonspace(idx):
        j = idx - 1
        while j >= 0 and text[j] in " \t\n":
            j -= 1
        return text[j] if j >= 0 else ""

    for name, scopes in name_regions.items():
        esc = re.escape(name)
        for m in re.finditer(r"(\+\+|--)\s*" + esc + r"\b", text):
            if text[m.start() - 1:m.start()] in (".", ">", ":"):
                continue  # member access on some other object
            if any(o < m.start() < c for o, c in scopes):
                ops.append(AtomicOp(path, line_of(text, m.start()),
                                    "operator" + m.group(1), []))
        for m in re.finditer(
                r"\b" + esc + r"\s*(\+\+|--|[+\-|&^]=|=(?![=]))", text):
            if text[m.start() - 1:m.start()] in (".", ">", ":"):
                continue  # obj.name / ptr->name / ns::name — another entity
            sym = m.group(1)
            if sym.endswith("=") and (prev_nonspace(m.start()).isalnum()
                                      or prev_nonspace(m.start()) in "_>*&,"):
                continue  # `type name = init`: a declaration, not an op
            if any(o < m.start() < c for o, c in scopes):
                ops.append(AtomicOp(path, line_of(text, m.start()),
                                    "operator" + sym, []))
    return ops


# ---- throws ---------------------------------------------------------------

THROW_RE = re.compile(r"\bthrow\b")


def scan_throws(text, path):
    sites = []
    for m in THROW_RE.finditer(text):
        tail = text[m.end():m.end() + 200].lstrip()
        line = line_of(text, m.start())
        if tail.startswith(";"):
            sites.append(ThrowSite(path, line, "rethrow", ""))
        elif tail.startswith("("):
            continue  # dynamic exception spec `throw()` — not a throw site
        elif tail.startswith('"'):
            sites.append(ThrowSite(path, line, "raw", "string literal"))
        else:
            tm = re.match(r"([A-Za-z_][\w:]*)", tail)
            if tm:
                sites.append(ThrowSite(path, line, "type",
                                       tm.group(1).split("::")[-1]))
            else:
                sites.append(ThrowSite(path, line, "raw", "non-class value"))
    return sites


# ---- pins and section reads ----------------------------------------------

PIN_RE = re.compile(r"\bSEPDC_PIN_TRIVIAL_LAYOUT\s*\(")
SECTION_READ_RE = re.compile(r"\btyped_section\s*<")


def scan_pins(text):
    pins = set()
    for m in PIN_RE.finditer(text):
        close = balanced(text, m.end() - 1)
        if close < 0:
            continue
        base = normalize_base(first_template_arg(text[m.end():close]))
        if base:
            pins.add(base)
    return pins


def scan_section_reads(text, path):
    reads = []
    for m in SECTION_READ_RE.finditer(text):
        close = balanced(text, m.end() - 1, "<", ">")
        if close < 0:
            continue
        base = normalize_base(text[m.end():close])
        if not base or base in SCALAR_SECTION_TYPES:
            continue
        reads.append(SectionRead(path, line_of(text, m.start()), base))
    return reads


# ---- class members --------------------------------------------------------

CLASS_RE = re.compile(
    r"\b(class|struct)\s+"
    r"((?:SEPDC_\w+\s*(?:\([^()]*\))?\s+)*)"      # SEPDC_CAPABILITY(...) etc.
    r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^{;=]*)?\{"
)

MEMBER_SKIP_RE = re.compile(
    r"(using|typedef|friend|static|template|static_assert|enum|class|struct"
    r"|union|public|private|protected|SEPDC_PIN_TRIVIAL_LAYOUT)\b"
)

MUTEXISH_RE = re.compile(r"\b(?:sepdc\s*::\s*)?(Mutex|CondVar)\b")


def looks_like_function(head):
    h = remove_balanced(head, "{", "}")
    h = STRIP_MACRO_RE.sub(" ", h)
    if re.search(r"\)\s*:", h):
        return True  # ctor with member-init list
    h = re.sub(r"\b(const|noexcept|override|final|mutable|try)\b", " ", h)
    h = h.rstrip()
    if h.endswith(")"):
        return True
    if re.search(r"\)\s*->\s*[\w:<>,&*\s]+$", h):
        return True
    return False


def split_members(body):
    """Depth-0 member statements of a class body as (offset, text).
    Method bodies, nested types, and brace initializers are handled."""
    b = re.sub(r"\b(public|private|protected)\s*:",
               lambda m: " " * len(m.group(0)), body)
    stmts = []
    i = start = paren = 0
    n = len(b)
    while i < n:
        c = b[i]
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        elif c == "{" and paren == 0:
            close = balanced(b, i, "{", "}")
            if close < 0:
                break
            head = b[start:i]
            if looks_like_function(head) or \
                    re.search(r"\b(class|struct|union|enum)\b", head):
                i = close + 1  # consume body/nested type + optional ';'
                while i < n and b[i] in " \t\n":
                    i += 1
                if i < n and b[i] == ";":
                    i += 1
                start = i
                continue
            i = close + 1  # brace initializer: part of the statement
            continue
        elif c == ";" and paren == 0:
            stmts.append((start, b[start:i]))
            start = i + 1
        i += 1
    return stmts


def field_from_stmt(stmt):
    """FieldInfo flags for one member statement, or None if not a field."""
    s = stmt.strip()
    if not s or MEMBER_SKIP_RE.match(s):
        return None
    guarded = bool(re.search(r"\bSEPDC_(?:PT_)?GUARDED_BY\s*\(", s))
    unguarded_ok = bool(re.search(r"\bSEPDC_UNGUARDED_OK\s*\(", s))
    is_atomic = bool(re.search(r"\bstd\s*::\s*atomic", s))
    core = STRIP_MACRO_RE.sub(" ", s)
    core = remove_balanced(core, "{", "}")
    core = core.split("=")[0]
    core = remove_angles(core)
    if "(" in core or "operator" in core or "~" in core:
        return None  # method declaration / prototype
    m = re.search(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)*$", core)
    if not m:
        return None
    name = m.group(1)
    type_text = core[:m.start(1)]
    if not type_text.strip():
        return None
    is_ref = "&" in core
    is_ptr = "*" in core
    is_const = bool(re.search(r"\bconst\b", type_text))
    is_mutexish = bool(MUTEXISH_RE.search(type_text)) and not is_ptr and not is_ref
    is_self_sync = any(re.search(r"\b" + t + r"\b", type_text)
                       for t in SELF_SYNC_TYPES)
    exempt = (is_const or is_ref or is_atomic or is_mutexish or is_self_sync)
    return (name, exempt, guarded, unguarded_ok, is_mutexish,
            bool(re.search(r"\bMutex\b", type_text)) and not is_ptr and not is_ref)


def scan_classes(text, path):
    classes = []
    for m in CLASS_RE.finditer(text):
        if re.search(r"\benum\s+$", text[:m.start()]):
            continue
        open_idx = m.end() - 1
        close = balanced(text, open_idx, "{", "}")
        if close < 0:
            continue
        body = text[open_idx + 1:close]
        fields = []
        owns_mutex = False
        for off, stmt in split_members(body):
            info = field_from_stmt(stmt)
            if info is None:
                continue
            name, exempt, guarded, unguarded_ok, _mutexish, owns = info
            if owns:
                owns_mutex = True
            fields.append(FieldInfo(
                name=name,
                line=line_of_stmt(text, open_idx + 1 + off, stmt),
                exempt=exempt, guarded=guarded, unguarded_ok=unguarded_ok))
        classes.append(ClassInfo(m.group(3), path, line_of(text, m.start()),
                                 owns_mutex, fields))
    return classes


# --------------------------------------------------------------------------
# Reduced frontend: pure-Python analysis of one file + its include closure.
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


class ReducedFrontend:
    name = "reduced"

    def __init__(self, root):
        self.root = os.path.abspath(root)
        self._raw = {}        # real path -> raw text
        self._stripped = {}   # real path -> stripped text
        self._closure_pins = {}

    def _raw_text(self, path):
        if path not in self._raw:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                self._raw[path] = f.read()
        return self._raw[path]

    def _text(self, path):
        if path not in self._stripped:
            self._stripped[path] = strip_cpp_noise(self._raw_text(path))
        return self._stripped[path]

    def _resolve_include(self, inc, from_dir, include_dirs):
        for base in [from_dir] + list(include_dirs):
            cand = os.path.normpath(os.path.join(base, inc))
            if os.path.isfile(cand):
                return cand
        return None

    def _pins_in_closure(self, path, include_dirs, stack=None):
        """Pins visible from `path`: its own plus every transitively
        included file's.  Memoized per file; `stack` is the DFS path and
        guards against include cycles only — a dependency's closure is
        always fully counted even when another sibling already pulled it
        in (caching under a shared visited-set would poison the memo
        with incomplete unions)."""
        if path in self._closure_pins:
            return self._closure_pins[path]
        if stack is None:
            stack = set()
        if path in stack:
            return set()  # include cycle: break it, cache nothing
        stack.add(path)
        pins = set(scan_pins(self._text(path)))
        # Include directives live inside quotes the stripper blanks:
        # resolve them from the raw text.
        for m in INCLUDE_RE.finditer(self._raw_text(path)):
            dep = self._resolve_include(m.group(1), os.path.dirname(path),
                                        include_dirs)
            if dep:
                pins |= self._pins_in_closure(dep, include_dirs, stack)
        stack.discard(path)
        self._closure_pins[path] = pins
        return pins

    def analyze_file(self, real_path, virtual_path, include_dirs):
        text = self._text(real_path)
        facts = TuFacts()
        facts.atomic_ops = (scan_atomic_calls(text, virtual_path)
                            + scan_atomic_operator_forms(text, virtual_path))
        facts.classes = scan_classes(text, virtual_path)
        facts.throws = scan_throws(text, virtual_path)
        facts.section_reads = scan_section_reads(text, virtual_path)
        facts.pins = self._pins_in_closure(real_path, include_dirs, set())
        return facts

    def analyze_tree(self):
        src = os.path.join(self.root, "src")
        include_dirs = [src]
        merged = TuFacts()
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames.sort()
            for fn in sorted(filenames):
                if not fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                    continue
                real = os.path.join(dirpath, fn)
                rel = os.path.relpath(real, self.root)
                facts = self.analyze_file(real, rel, include_dirs)
                merged.atomic_ops += facts.atomic_ops
                merged.classes += facts.classes
                merged.throws += facts.throws
                # Pin visibility is per-TU: check each file's section reads
                # against that file's own include closure.
                for r in facts.section_reads:
                    if r.base not in facts.pins:
                        merged.section_reads.append(r)
                merged.pins |= facts.pins
        # section_reads kept only when unpinned in their own TU; make the
        # check trivially see them as unpinned:
        merged.pins = set()
        return merged


# --------------------------------------------------------------------------
# Clang frontend: libclang over compile_commands.json or single fixtures.
# --------------------------------------------------------------------------

def _load_cindex():
    try:
        from clang import cindex  # type: ignore
    except ImportError as e:
        raise ClangUnavailable(f"python clang bindings not importable: {e}")
    if not cindex.Config.loaded:
        lib = os.environ.get("SEPDC_LIBCLANG")
        if not lib:
            for pat in ("/usr/lib/llvm-*/lib/libclang.so.1",
                        "/usr/lib/llvm-*/lib/libclang.so",
                        "/usr/lib/*/libclang-*.so.1",
                        "/usr/lib/*/libclang-*.so",
                        "/usr/lib/*/libclang.so*"):
                hits = sorted(glob.glob(pat), reverse=True)
                if hits:
                    lib = hits[0]
                    break
        if lib:
            cindex.Config.set_library_file(lib)
    try:
        index = cindex.Index.create()
    except Exception as e:
        raise ClangUnavailable(f"libclang not loadable: {e}")
    return cindex, index


class ClangFrontend:
    name = "clang"

    def __init__(self, root):
        self.root = os.path.abspath(root)
        self.cindex, self.index = _load_cindex()
        self._file_text = {}

    # -- helpers -----------------------------------------------------------

    def _text(self, path):
        if path not in self._file_text:
            try:
                with open(path, "r", encoding="utf-8", errors="replace") as f:
                    self._file_text[path] = strip_cpp_noise(f.read())
            except OSError:
                self._file_text[path] = ""
        return self._file_text[path]

    def _relpath(self, path, virtual_map):
        ap = os.path.abspath(path)
        if ap in virtual_map:
            return virtual_map[ap]
        rel = os.path.relpath(ap, self.root)
        return rel

    def _parse(self, path, args):
        ci = self.cindex
        opts = ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD
        try:
            tu = self.index.parse(path, args=args, options=opts)
        except ci.TranslationUnitLoadError as e:
            raise SemalyzeError(f"clang failed to parse {path}: {e}")
        fatal = [d for d in tu.diagnostics if d.severity >= 4]
        if fatal:
            raise SemalyzeError(
                f"fatal diagnostics parsing {path}: "
                + "; ".join(str(d) for d in fatal[:3]))
        return tu

    def _tu_files(self, tu, primary):
        files = {os.path.abspath(primary)}
        for inc in tu.get_includes():
            try:
                files.add(os.path.abspath(inc.include.name))
            except Exception:
                pass
        return files

    # -- AST extraction ----------------------------------------------------

    def _collect(self, tu, virtual_map, in_scope, facts):
        ci = self.cindex
        K = ci.CursorKind
        guard_marks = []  # (file, line, macro)
        pin_bases = set()
        class_cursors = []
        for cur in tu.cursor.walk_preorder():
            kind = cur.kind
            if kind == K.MACRO_INSTANTIATION:
                name = cur.spelling
                if name in ("SEPDC_GUARDED_BY", "SEPDC_PT_GUARDED_BY",
                            "SEPDC_UNGUARDED_OK"):
                    loc = cur.location
                    if loc.file is not None:
                        guard_marks.append((os.path.abspath(loc.file.name),
                                            loc.line, name))
                elif name == "SEPDC_PIN_TRIVIAL_LAYOUT":
                    toks = [t.spelling for t in cur.get_tokens()]
                    if "(" in toks:
                        arg = " ".join(toks[toks.index("(") + 1:-1])
                        base = normalize_base(first_template_arg(arg))
                        if base:
                            pin_bases.add(base)
            elif kind in (K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
                try:
                    if not cur.is_definition():
                        continue
                except Exception:
                    continue
                loc = cur.location
                if loc.file is None:
                    continue
                f = os.path.abspath(loc.file.name)
                if in_scope(self._relpath(f, virtual_map)):
                    class_cursors.append(cur)
            elif kind == K.CALL_EXPR:
                self._collect_call(cur, virtual_map, in_scope, facts)
        facts.pins |= pin_bases
        for cur in class_cursors:
            self._collect_class(cur, virtual_map, guard_marks, facts)

    def _collect_call(self, cur, virtual_map, in_scope, facts):
        name = cur.spelling
        if name not in ATOMIC_METHODS and name not in ATOMIC_OPERATORS:
            return
        loc = cur.location
        if loc.file is None:
            return
        rel = self._relpath(os.path.abspath(loc.file.name), virtual_map)
        if not in_scope(rel):
            return
        ref = cur.referenced
        is_atomic_recv = False
        if ref is not None and ref.semantic_parent is not None:
            parent = ref.semantic_parent.spelling
            is_atomic_recv = parent in (
                "atomic", "atomic_flag", "__atomic_base", "__atomic_float",
                "__atomic_ref_base")
        elif ref is None and name in ATOMIC_METHODS:
            # Dependent call in a template the AST could not resolve; the
            # repo's convention is that these spellings are atomic-only.
            is_atomic_recv = True
        if not is_atomic_recv:
            return
        toks = list(cur.get_tokens())
        orders = []
        for i, t in enumerate(toks):
            s = t.spelling
            if s.startswith("memory_order_"):
                orders.append(s[len("memory_order_"):])
            elif s == "memory_order" and i + 2 < len(toks) \
                    and toks[i + 1].spelling == "::":
                orders.append(toks[i + 2].spelling)
        line = loc.line
        for t in toks:
            if t.spelling == name.replace("operator", "") or t.spelling == name:
                line = t.location.line
                break
        facts.atomic_ops.append(AtomicOp(rel, line, name, orders))

    def _collect_class(self, cur, virtual_map, guard_marks, facts):
        ci = self.cindex
        K = ci.CursorKind
        TK = ci.TypeKind
        loc = cur.location
        f = os.path.abspath(loc.file.name)
        rel = self._relpath(f, virtual_map)
        fields = []
        owns_mutex = False
        for ch in cur.get_children():
            if ch.kind != K.FIELD_DECL:
                continue
            try:
                t = ch.type
                spelling = t.spelling or ""
                try:
                    canon = t.get_canonical().spelling or spelling
                except Exception:
                    canon = spelling
                both = spelling + " " + canon
                is_ref = t.kind in (TK.LVALUEREFERENCE, TK.RVALUEREFERENCE) \
                    or spelling.rstrip().endswith("&")
                is_ptr = t.kind == TK.POINTER or spelling.rstrip().endswith("*")
                is_const = t.is_const_qualified() \
                    or canon.startswith("const ") \
                    or bool(re.match(r"\s*const\b", spelling))
                is_atomic = bool(re.search(r"\batomic(_flag)?\b", both))
                is_mutexish = bool(MUTEXISH_RE.search(remove_angles(both))) \
                    and not is_ptr and not is_ref
                is_self_sync = any(
                    re.search(r"\b" + s + r"\b", remove_angles(both))
                    for s in SELF_SYNC_TYPES)
                if is_mutexish and re.search(r"\bMutex\b", both):
                    owns_mutex = True
                start, end = ch.extent.start.line, ch.extent.end.line
                guarded = any(gf == f and start <= gl <= end
                              and gm in ("SEPDC_GUARDED_BY",
                                         "SEPDC_PT_GUARDED_BY")
                              for gf, gl, gm in guard_marks)
                unguarded_ok = any(gf == f and start <= gl <= end
                                   and gm == "SEPDC_UNGUARDED_OK"
                                   for gf, gl, gm in guard_marks)
                fields.append(FieldInfo(
                    name=ch.spelling, line=start,
                    exempt=(is_const or is_ref or is_atomic or is_mutexish
                            or is_self_sync),
                    guarded=guarded, unguarded_ok=unguarded_ok))
            except Exception:
                continue
        facts.classes.append(ClassInfo(cur.spelling, rel, loc.line,
                                       owns_mutex, fields))

    # -- entry points ------------------------------------------------------

    def analyze_fixture(self, real_path, virtual_path, include_dirs):
        args = ["-x", "c++", "-std=c++20"]
        for d in include_dirs:
            args += ["-I", d]
        tu = self._parse(real_path, args)
        virtual_map = {os.path.abspath(real_path): virtual_path}
        facts = TuFacts()

        def in_scope(rel):
            return rel == virtual_path
        self._collect(tu, virtual_map, in_scope, facts)
        # Text layer for preprocessor/template facts, fixture file only.
        text = self._text(real_path)
        facts.throws = scan_throws(text, virtual_path)
        facts.section_reads = scan_section_reads(text, virtual_path)
        # Pins: TU-wide (macro instantiations already collected) plus the
        # fixture's own text (in case the pin is inside an unparsed region).
        facts.pins |= scan_pins(text)
        return facts

    def analyze_compile_commands(self, cc_path):
        try:
            with open(cc_path, "r", encoding="utf-8") as fobj:
                entries = json.load(fobj)
        except (OSError, ValueError) as e:
            raise SemalyzeError(f"cannot read {cc_path}: {e}")
        merged = TuFacts()
        virtual_map = {}

        def in_scope(rel):
            return rel.startswith("src" + os.sep) or rel.startswith("src/")
        seen_sources = set()
        for entry in entries:
            src_file = entry.get("file", "")
            directory = entry.get("directory", ".")
            absf = os.path.normpath(os.path.join(directory, src_file))
            rel = os.path.relpath(absf, self.root)
            if not in_scope(rel) or absf in seen_sources:
                continue
            seen_sources.add(absf)
            if "arguments" in entry:
                argv = list(entry["arguments"])
            else:
                argv = shlex.split(entry.get("command", ""))
            args = self._filter_args(argv, directory)
            tu = self._parse(absf, args)
            facts = TuFacts()
            self._collect(tu, virtual_map, in_scope, facts)
            tu_files = self._tu_files(tu, absf)
            for fpath in sorted(tu_files):
                frel = os.path.relpath(fpath, self.root)
                if not in_scope(frel):
                    continue
                text = self._text(fpath)
                facts.throws += scan_throws(text, frel)
                facts.section_reads += scan_section_reads(text, frel)
                facts.pins |= scan_pins(text)
            merged.atomic_ops += facts.atomic_ops
            merged.classes += facts.classes
            merged.throws += facts.throws
            for r in facts.section_reads:
                if r.base not in facts.pins:
                    merged.section_reads.append(r)
        merged.pins = set()
        return merged

    @staticmethod
    def _filter_args(argv, directory):
        args = ["-working-directory=" + directory]
        skip_next = False
        for a in argv[1:]:
            if skip_next:
                skip_next = False
                continue
            if a in ("-c", "-S", "-E"):
                continue
            if a in ("-o", "-MF", "-MT", "-MQ", "--output"):
                skip_next = True
                continue
            if a.startswith("-o") and len(a) > 2 and not a.startswith("-of"):
                continue
            if a in ("-MD", "-MMD", "-MP"):
                continue
            if not a.startswith("-") and re.search(r"\.(cpp|cc|cxx|c)$", a):
                continue  # the source file itself; parse() gets it directly
            args.append(a)
        return args


# --------------------------------------------------------------------------
# Check layer: facts -> findings.
# --------------------------------------------------------------------------

def _in_src(path):
    return path.startswith("src/") or path.startswith("src" + os.sep)


def run_checks(facts):
    findings = set()

    # sepdc-memory-order
    for op in facts.atomic_ops:
        if not _in_src(op.file):
            continue
        if op.op in ATOMIC_OPERATORS or op.op.startswith("operator"):
            findings.add(Finding(
                CHECK_MEMORY_ORDER, op.file, op.line,
                f"atomic {op.op} cannot spell a memory_order; "
                f"use the named member function with an explicit order"))
            continue
        if not op.orders:
            findings.add(Finding(
                CHECK_MEMORY_ORDER, op.file, op.line,
                f"atomic {op.op}() without an explicit std::memory_order "
                f"(implicit seq_cst)"))
        elif "seq_cst" in op.orders and (op.file, op.op) not in ALLOW_SEQ_CST:
            findings.add(Finding(
                CHECK_MEMORY_ORDER, op.file, op.line,
                f"atomic {op.op}() uses memory_order_seq_cst at a site not "
                f"in ALLOW_SEQ_CST (tools/semalyze.py); justify it there or "
                f"weaken the order"))

    # sepdc-guarded-by-completeness
    for cls in facts.classes:
        if not cls.owns_mutex or not _in_src(cls.file):
            continue
        for f in cls.fields:
            if f.exempt or f.guarded or f.unguarded_ok:
                continue
            findings.add(Finding(
                CHECK_GUARDED_BY, cls.file, f.line,
                f"{cls.name}::{f.name} is mutable state in a mutex-owning "
                f"class but is neither SEPDC_GUARDED_BY, atomic, const, nor "
                f"SEPDC_UNGUARDED_OK(\"why\")"))

    # sepdc-pin-layout
    for r in facts.section_reads:
        if not _in_src(r.file):
            continue
        if r.base in facts.pins:
            continue
        findings.add(Finding(
            CHECK_PIN_LAYOUT, r.file, r.line,
            f"typed_section<{r.base}> but no SEPDC_PIN_TRIVIAL_LAYOUT pin "
            f"for {r.base} is visible in this translation unit"))

    # sepdc-typed-throw
    for t in facts.throws:
        if not any(t.file.startswith(s) for s in TYPED_THROW_SCOPES):
            continue
        if t.kind == "rethrow":
            continue
        if t.kind == "type" and t.base in ALLOWED_THROW_TYPES:
            continue
        what = t.base if t.kind == "type" else t.kind
        findings.add(Finding(
            CHECK_TYPED_THROW, t.file, t.line,
            f"throw of {what} in {os.path.dirname(t.file)}/; use the typed "
            f"errors ({', '.join(sorted(ALLOWED_THROW_TYPES))}) or rethrow"))

    return sorted(findings, key=lambda f: (f.file, f.line, f.check))


# --------------------------------------------------------------------------
# Self-test over the fixture corpus.
# --------------------------------------------------------------------------

def parse_fixture(path):
    with open(path, "r", encoding="utf-8") as f:
        raw = f.read()
    first = raw.splitlines()[0] if raw else ""
    m = FIXTURE_MARKER_RE.match(first.strip())
    if not m:
        raise SemalyzeError(
            f"{path}: first line must be '// semalyze-fixture: <virtual path>'")
    virtual = m.group(1)
    expects = set()
    for i, line in enumerate(raw.splitlines(), start=1):
        em = EXPECT_RE.search(line)
        if em:
            for check in re.split(r"\s*,\s*", em.group(1)):
                expects.add((check, i))
    return virtual, expects


def fixture_findings(frontend, path, virtual, root):
    include_dirs = [os.path.join(root, "src"), os.path.dirname(path)]
    if isinstance(frontend, ClangFrontend):
        facts = frontend.analyze_fixture(path, virtual, include_dirs)
    else:
        facts = frontend.analyze_file(path, virtual, include_dirs)
    return [f for f in run_checks(facts) if f.file == virtual]


def self_test(frontend, root):
    fx_root = os.path.join(root, "tools", "semalyze_fixtures")
    failures = []
    coverage = {c: {"pass": 0, "fail": 0} for c in ALL_CHECKS}
    for mode in ("pass", "fail"):
        d = os.path.join(fx_root, mode)
        files = sorted(glob.glob(os.path.join(d, "*.cpp")))
        if not files:
            failures.append(f"no fixtures under {d}")
            continue
        for path in files:
            name = os.path.basename(path)
            for c in ALL_CHECKS:
                if name.startswith(c + "__"):
                    coverage[c][mode] += 1
            virtual, expects = parse_fixture(path)
            got_list = fixture_findings(frontend, path, virtual, root)
            got = {(f.check, f.line) for f in got_list}
            if mode == "pass":
                if expects:
                    failures.append(f"{name}: pass fixture must not carry "
                                    f"'// expect:' comments")
                if got:
                    failures.append(
                        f"{name}: expected clean, got "
                        + ", ".join(f"{c}@{ln}" for c, ln in sorted(got)))
            else:
                if not expects:
                    failures.append(f"{name}: fail fixture has no "
                                    f"'// expect:' comments")
                if got != expects:
                    missing = expects - got
                    extra = got - expects
                    parts = []
                    if missing:
                        parts.append("missing " + ", ".join(
                            f"{c}@{ln}" for c, ln in sorted(missing)))
                    if extra:
                        parts.append("unexpected " + ", ".join(
                            f"{c}@{ln}" for c, ln in sorted(extra)))
                    failures.append(f"{name}: " + "; ".join(parts))
            # Findings must serialize: the JSON format is part of the
            # contract (CI and editor integrations consume it).
            json.loads(json.dumps([f.as_json() for f in got_list]))
    for check, cov in coverage.items():
        if cov["pass"] == 0 or cov["fail"] == 0:
            failures.append(f"{check}: needs >=1 pass and >=1 fail fixture "
                            f"(have {cov['pass']} pass / {cov['fail']} fail)")
    if failures:
        print(f"semalyze self-test [{frontend.name}]: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    total = sum(c["pass"] + c["fail"] for c in coverage.values())
    print(f"semalyze self-test [{frontend.name}]: OK "
          f"({total} check-tagged fixtures, {len(ALL_CHECKS)} checks)")
    return 0


# --------------------------------------------------------------------------
# CLI.
# --------------------------------------------------------------------------

def make_frontend(kind, root):
    if kind == "reduced":
        return ReducedFrontend(root)
    if kind == "clang":
        return ClangFrontend(root)
    # auto
    try:
        return ClangFrontend(root)
    except ClangUnavailable:
        return ReducedFrontend(root)


def emit(findings, as_json):
    if as_json:
        print(json.dumps({"findings": [f.as_json() for f in findings]},
                         indent=2))
    else:
        for f in findings:
            print(f"{f.file}:{f.line}: [{f.check}] {f.message}")
        if findings:
            print(f"semalyze: {len(findings)} finding(s)", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script's dir)")
    ap.add_argument("--compile-commands", default=None,
                    help="analyze every TU in this compile_commands.json "
                         "(requires the clang frontend)")
    ap.add_argument("--frontend", choices=("auto", "reduced", "clang"),
                    default="auto")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus and verify exact findings")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable findings on stdout")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        for c in ALL_CHECKS:
            print(c)
        return 0

    root = os.path.abspath(
        args.root
        or os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    want = args.frontend
    if args.compile_commands and want == "auto":
        want = "clang"
    try:
        frontend = make_frontend(want, root)
    except ClangUnavailable as e:
        print(f"semalyze: clang frontend unavailable: {e}", file=sys.stderr)
        return 77

    try:
        if args.self_test:
            return self_test(frontend, root)
        if args.compile_commands:
            if not isinstance(frontend, ClangFrontend):
                print("semalyze: --compile-commands requires the clang "
                      "frontend", file=sys.stderr)
                return 77
            facts = frontend.analyze_compile_commands(args.compile_commands)
        else:
            if isinstance(frontend, ClangFrontend):
                # Tree mode without compile commands: fall back to reduced
                # (parsing headers standalone would need per-TU flags).
                frontend = ReducedFrontend(root)
            facts = frontend.analyze_tree()
        findings = run_checks(facts)
        emit(findings, args.json)
        return 1 if findings else 0
    except SemalyzeError as e:
        print(f"semalyze: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
