#!/usr/bin/env python3
"""irbuf's semantic analyzer: AST/dataflow checks the regex linter cannot express.

Where tools/lint/irbuf_lint.py pattern-matches single lines, this tool
builds a real model of every function in the tree — scopes, local
declarations, lock acquisitions, call graph — and runs dataflow checks
over it:

  pin-escape          A pointer/reference/span derived from a
                      buffer::PinnedPage (frame data, the cached decoded
                      PostingBlock) must not outlive the pin: no
                      returning it from the pinning function, no storing
                      it into a longer-lived object or outer scope, no
                      use after Release()/end of the pin's scope.
                      Moving the PinnedPage itself transfers the pin and
                      is fine; copies of scalar values are fine.
  lock-cycle          Every lock acquisition edge (MutexLock nesting,
                      IRBUF_REQUIRES contracts, interprocedural
                      acquisitions through the call graph) is collected
                      into one lock-order graph; any cycle is a
                      potential deadlock and is reported with the full
                      edge chain. The acyclic graph is also what
                      generates DESIGN.md's lock-ordering table
                      (--emit-lock-table / --check-lock-table).
  blocking-under-lock No disk read, SleepUs, raw sleep, condition-
                      variable wait (other than on the innermost held
                      mutex), barrier wait, future get or thread join
                      may run while any Mutex is held — directly or via
                      any callee. Misses must overlap; the policy latch
                      and the page-table stripes are CAS-speed locks.
  unchecked-status    A util::Status / Result<T> stored into a local
                      must be consumed on some later statement (.ok(),
                      IRBUF_RETURN_NOT_OK, return, passed on). The
                      [[nodiscard]] audit only sees immediate drops of
                      an unnamed temporary; this catches the named ones.
  hot-alloc-ast       Inside // LINT-HOT-LOOP regions: no new
                      expressions, no allocating container/string
                      calls, no construction of allocating locals, and
                      no call to a repo function that (transitively)
                      allocates — unless the callee is annotated
                      `// irbuf-analyzer: amortized-alloc`, the
                      documented contract for amortized growth paths
                      (e.g. AccumulatorSet::Grow).

Frontends. The analyzer runs its checks over a normalized IR
(ir.Function) that two interchangeable frontends produce:

  * clang    (CI)     consumes `clang++ -Xclang -ast-dump=json` driven
                      from compile_commands.json, so the model is exactly
                      what the build sees. AST dumps are cached in
                      --ast-cache keyed on (file content, compile args,
                      clang version) hashes.
  * internal (always) a built-in C++ frontend: comment/string-stripping
                      lexer, brace-accurate scope tracking, declaration
                      and call extraction tuned to this codebase's
                      idiom. It is what the dev container (GCC only) and
                      the ctest `lint` label run.

`--backend auto` (default) picks clang when available, else internal.
Known soundness gaps are documented in DESIGN.md section 11 (lambdas are
analyzed at their definition site; name-based call resolution; no
template instantiation).

Usage:
  irbuf_analyzer.py [--root DIR] [--backend auto|clang|internal]
  irbuf_analyzer.py --self-test        run every check against the
                                       fixture corpus in fixtures/
  irbuf_analyzer.py --emit-lock-table  print the generated lock-order
                                       table (markdown)
  irbuf_analyzer.py --check-lock-table verify DESIGN.md's generated
                                       table matches the tree
  irbuf_analyzer.py --write-lock-table rewrite DESIGN.md's table in place
  irbuf_analyzer.py --json-out FILE    also write findings as JSON

Exit status: 0 clean, 1 findings (or self-test/table-drift failure),
2 usage/environment error.

A line can be exempted with a trailing `// irbuf-analyzer: allow(<check>)`
comment; use sparingly and explain why in an adjacent comment.
"""

import argparse
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from typing import Dict, List, Optional, Set, Tuple

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))

ALL_CHECKS = ("pin-escape", "lock-cycle", "blocking-under-lock",
              "unchecked-status", "hot-alloc-ast")

ALLOW_RE = re.compile(r"//\s*irbuf-analyzer:\s*allow\(([\w,\s-]+)\)")
AMORTIZED_RE = re.compile(r"//\s*irbuf-analyzer:\s*amortized-alloc")
EXPECT_RE = re.compile(r"//\s*ANALYZE-EXPECT:\s*([\w,\s-]+)")
LINT_PATH_RE = re.compile(r"//\s*LINT-PATH:\s*(\S+)")
HOT_LOOP_START_RE = re.compile(r"//\s*LINT-HOT-LOOP(?!-END)")
HOT_LOOP_END_RE = re.compile(r"//\s*LINT-HOT-LOOP-END")


class Finding:
    """One analyzer finding, printable as path:line: [check] message."""

    def __init__(self, path: str, line: int, check: str, message: str):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.check)

    def __repr__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


# ===========================================================================
# Lexing (internal frontend)
# ===========================================================================

# Token kinds: 'id' (identifier/keyword), 'num', 'str', 'punct'.
class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.text}@{self.line}"


_ID_START = set("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")
# Longest-match punctuation the parser cares about distinguishing.
_PUNCT3 = ("->*", "<<=", ">>=", "...", "<=>")
_PUNCT2 = ("->", "::", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
           "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literal *contents*, preserving
    line structure and literal delimiters (a string literal becomes "")."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                break
            i = j  # keep the newline
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                j = n - 2
            out.append(" ".join(text[i:j + 2].splitlines(True)) if False
                       else "".join(ch if ch == "\n" else " "
                                    for ch in text[i:j + 2]))
            i = j + 2
        elif c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                if i < n and text[i] == "\n":
                    out.append("\n")
                i += 1
            out.append(quote)
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def tokenize(code: str) -> List[Tok]:
    toks: List[Tok] = []
    line = 1
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "#":  # preprocessor: skip to end of (continued) line
            while i < n:
                j = code.find("\n", i)
                if j < 0:
                    i = n
                    break
                if code[j - 1] == "\\":
                    i = j + 1
                    line += 1
                    continue
                i = j
                break
            continue
        if c in _ID_START:
            j = i + 1
            while j < n and code[j] in _ID_CONT:
                j += 1
            toks.append(Tok("id", code[i:j], line))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (code[j] in _ID_CONT or code[j] in ".'"):
                j += 1
            toks.append(Tok("num", code[i:j], line))
            i = j
            continue
        if c in "\"'":
            # Literal contents were blanked; consume the empty literal.
            j = code.find(c, i + 1)
            if j < 0:
                j = i
            toks.append(Tok("str", code[i:j + 1], line))
            i = j + 1
            continue
        three, two = code[i:i + 3], code[i:i + 2]
        if three in _PUNCT3:
            toks.append(Tok("punct", three, line))
            i += 3
        elif two in _PUNCT2:
            toks.append(Tok("punct", two, line))
            i += 2
        else:
            toks.append(Tok("punct", c, line))
            i += 1
    return toks


# ===========================================================================
# Normalized IR
# ===========================================================================
#
# A Function is a flat event list over a scope tree, the common currency
# both frontends produce. Events (line, depth, kind, data):
#
#   open/close       scope boundaries; depth is the depth *inside*
#   decl             (type, name, init) - init is a token-text list
#   lock             (guard, mutexpr)   - MutexLock guard(mutexpr)
#   unlock/relock    (guard,)           - guard.Unlock() / guard.Lock()
#   call             (recv, name, args, stmt) - one call site; recv is
#                    the receiver token-text list ([] for free calls),
#                    args a flat token-text list, stmt True when the
#                    call is the whole statement (value unused)
#   return           (tokens,)
#   assign           (lhs_tokens, rhs_tokens)
#   use              (name,)            - identifier read in a statement
#   condwait         (recv, mutexpr)    - CondVar Wait(mutexpr)

class Function:
    def __init__(self, path: str, line: int, qual_name: str, name: str,
                 cls: Optional[str]):
        self.path = path
        self.line = line
        self.qual_name = qual_name   # e.g. serve::ConcurrentBufferPool::FetchPinned
        self.name = name             # unqualified
        self.cls = cls               # enclosing class qual name or None
        self.params: List[Tuple[str, str]] = []   # (type, name)
        self.requires: List[str] = []             # raw IRBUF_REQUIRES args
        self.ret = ""                             # return type token text
        self.end_line = line
        self.events: List[Tuple[int, int, str, tuple]] = []
        self.is_lambda_host = False

    def add(self, line: int, depth: int, kind: str, data: tuple):
        self.events.append((line, depth, kind, data))


class FileModel:
    def __init__(self, path: str):
        self.path = path
        self.functions: List[Function] = []
        # class qual name -> {member name: declared type}
        self.members: Dict[str, Dict[str, str]] = {}
        # (class qual name, member name) -> guarding mutex expr text
        self.guarded: Dict[Tuple[str, str], str] = {}
        # class qual name -> its direct base classes (last name segment);
        # every class defined in the file has an entry, possibly empty.
        self.bases: Dict[str, List[str]] = {}
        self.allow: Dict[int, Set[str]] = {}      # line -> allowed checks
        self.amortized_lines: Set[int] = set()    # `amortized-alloc` lines
        self.hot_regions: List[Tuple[int, int]] = []  # [start, end) lines
        self.new_lines: Set[int] = set()          # lines with `new` exprs
        self.raw_lines: List[str] = []


class Program:
    """Whole-tree model: files plus cross-file indexes."""

    def __init__(self):
        self.files: Dict[str, FileModel] = {}
        self.functions: List[Function] = []
        # unqualified name -> [Function]; last-segment lookup for calls.
        self.by_name: Dict[str, List[Function]] = {}
        self.by_qual: Dict[str, Function] = {}
        # class member type tables merged across files.
        self.members: Dict[str, Dict[str, str]] = {}
        # qual function name -> IRBUF_REQUIRES args seen on any decl.
        self.requires_decls: Dict[str, List[str]] = {}
        # functions annotated amortized-alloc (by qual name).
        self.amortized: Set[str] = set()
        # (class, member) -> guarding mutex expr (from IRBUF_GUARDED_BY).
        self.guarded: Dict[Tuple[str, str], str] = {}
        # class qual name -> path of the file that declared its members.
        self.class_origin: Dict[str, str] = {}
        # class last name segment -> direct bases (last segments), for
        # every class the tree defines.
        self.bases: Dict[str, Set[str]] = {}

    def add_file(self, fm: FileModel):
        self.files[fm.path] = fm
        self.guarded.update(fm.guarded)
        for cls in fm.members:
            self.class_origin.setdefault(cls, fm.path)
        stash = getattr(fm, "_requires_decls", None)
        if stash:
            for qn, reqs in stash.items():
                self.requires_decls.setdefault(qn, []).extend(reqs)
        for cls, mem in fm.members.items():
            self.members.setdefault(cls, {}).update(mem)
        for cls, bases in fm.bases.items():
            self.bases.setdefault(cls.split("::")[-1], set()).update(bases)
        for fn in fm.functions:
            self.functions.append(fn)
            self.by_name.setdefault(fn.name, []).append(fn)
            self.by_qual[fn.qual_name] = fn

    def dispatch_classes(self, cls: str) -> Optional[Set[str]]:
        """Classes a call on a `cls` receiver can land in: `cls`, its
        subclasses (virtual overrides) and its bases (inherited bodies).
        None when the tree neither defines nor derives from `cls`."""
        if cls not in self.bases and \
                not any(cls in b for b in self.bases.values()):
            return None
        out = {cls}
        todo = [cls]
        while todo:  # bases, transitively
            for b in self.bases.get(todo.pop(), ()):
                if b not in out:
                    out.add(b)
                    todo.append(b)
        down = {cls}
        grew = True
        while grew:  # subclasses, transitively
            grew = False
            for sub, bases in self.bases.items():
                if sub not in down and bases & down:
                    down.add(sub)
                    grew = True
        return out | down

    def finish(self):
        for fn in self.functions:
            extra = self.requires_decls.get(fn.qual_name)
            if extra:
                for r in extra:
                    if r not in fn.requires:
                        fn.requires.append(r)


# ===========================================================================
# Internal frontend: parsing token streams into the IR
# ===========================================================================

CV_KEYWORDS = {"const", "constexpr", "mutable", "static", "inline",
               "virtual", "explicit", "volatile", "register", "typename",
               "friend", "extern", "thread_local"}
NOT_A_TYPE = {"return", "if", "else", "while", "for", "do", "switch",
              "case", "default", "break", "continue", "goto", "new",
              "delete", "throw", "sizeof", "using", "typedef", "public",
              "private", "protected", "template", "operator", "co_return",
              "try", "catch", "namespace", "class", "struct", "enum",
              "union", "static_assert", "alignas"}
ANNOTATION_MACROS = {"IRBUF_REQUIRES", "IRBUF_EXCLUDES", "IRBUF_ACQUIRE",
                     "IRBUF_RELEASE", "IRBUF_TRY_ACQUIRE",
                     "IRBUF_GUARDED_BY", "IRBUF_PT_GUARDED_BY",
                     "IRBUF_CAPABILITY", "IRBUF_SCOPED_CAPABILITY",
                     "IRBUF_NO_THREAD_SAFETY_ANALYSIS",
                     "IRBUF_LIFETIME_BOUND"}


def _skip_balanced(toks: List[Tok], i: int, open_c: str, close_c: str) -> int:
    """i points at open_c; returns index just past its match."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_c:
            depth += 1
        elif t == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _base_names(toks: List[Tok], lo: int, hi: int) -> List[str]:
    """Base classes of a class head toks[lo:hi] (the tokens between the
    class name and its '{'): the last name segment of each base
    specifier, template arguments skipped."""
    i = lo
    while i < hi and toks[i].text != ":":
        i += 1
    out: List[str] = []
    last: Optional[str] = None
    depth = 0
    for t in toks[i + 1:hi]:
        if t.text == "<":
            depth += 1
        elif t.text == ">":
            depth -= 1
        elif t.text == ">>":
            depth -= 2
        elif depth > 0:
            continue
        elif t.text == ",":
            if last:
                out.append(last)
            last = None
        elif t.kind == "id" and t.text not in ("public", "private",
                                                "protected", "virtual"):
            last = t.text
    if last:
        out.append(last)
    return out


def _collect_text(toks: List[Tok], lo: int, hi: int) -> List[str]:
    return [t.text for t in toks[lo:hi]]


class InternalParser:
    """Parses one preprocessed C++ file into a FileModel.

    Structure pass: tracks namespace/class nesting, finds function
    definitions (including constructors with init lists), collects class
    member declarations. Body pass: statement segmentation with
    brace-accurate scopes, declaration / call / lock extraction; lambda
    bodies are analyzed inline at their definition site (a documented
    approximation, see DESIGN.md section 11).
    """

    def __init__(self, path: str, raw_text: str):
        self.path = path
        self.raw_lines = raw_text.splitlines()
        code = strip_comments_and_strings(raw_text)
        self.toks = tokenize(code)
        self.fm = FileModel(path)
        self.fm.raw_lines = self.raw_lines
        for t in self.toks:
            if t.kind == "id" and t.text == "new":
                self.fm.new_lines.add(t.line)
        self._collect_line_markers()

    def _collect_line_markers(self):
        region_start = None
        for lineno, raw in enumerate(self.raw_lines, start=1):
            m = ALLOW_RE.search(raw)
            if m:
                self.fm.allow[lineno] = {s.strip()
                                         for s in m.group(1).split(",")}
            if AMORTIZED_RE.search(raw):
                self.fm.amortized_lines.add(lineno)
            if HOT_LOOP_END_RE.search(raw):
                if region_start is not None:
                    self.fm.hot_regions.append((region_start, lineno))
                    region_start = None
            elif HOT_LOOP_START_RE.search(raw):
                region_start = lineno
        if region_start is not None:
            self.fm.hot_regions.append((region_start,
                                        len(self.raw_lines) + 1))

    # ---- structure pass -------------------------------------------------

    def parse(self) -> FileModel:
        self._parse_region(0, len(self.toks), ns=[], cls=[])
        return self.fm

    def _parse_region(self, lo: int, hi: int, ns: List[str],
                      cls: List[str]):
        """Walks declarations between lo and hi at namespace/class scope."""
        toks = self.toks
        i = lo
        while i < hi:
            t = toks[i]
            if t.text == "namespace":
                j = i + 1
                parts = []
                while j < hi and toks[j].text != "{" and toks[j].text != ";":
                    if toks[j].kind == "id":
                        parts.append(toks[j].text)
                    j += 1
                if j < hi and toks[j].text == "{":
                    end = _skip_balanced(toks, j, "{", "}")
                    # "namespace {" (anonymous) adds no name segment.
                    self._parse_region(j + 1, end - 1, ns + parts, cls)
                    i = end
                else:
                    i = j + 1
                continue
            if t.text in ("class", "struct") and i + 1 < hi \
                    and toks[i + 1].kind == "id":
                # Distinguish definition from fwd decl / elaborated use:
                # scan to the first of '{' or ';' at this nesting level.
                # An annotation macro (class IRBUF_CAPABILITY("x") Mutex)
                # sits between the keyword and the real name: skip it.
                ni = i + 1
                while ni < hi and toks[ni].kind == "id" and \
                        toks[ni].text in ANNOTATION_MACROS:
                    ni += 1
                    if ni < hi and toks[ni].text == "(":
                        ni = _skip_balanced(toks, ni, "(", ")")
                if ni >= hi or toks[ni].kind != "id":
                    i = self._skip_statement(i, hi)
                    continue
                name = toks[ni].text
                j = ni + 1
                # Skip IRBUF_CAPABILITY(...) etc. and base clause.
                while j < hi and toks[j].text not in ("{", ";"):
                    if toks[j].text == "(":
                        j = _skip_balanced(toks, j, "(", ")")
                        continue
                    if toks[j].text == "<":
                        # template args in a base clause; skip token-wise
                        j += 1
                        continue
                    j += 1
                if j < hi and toks[j].text == "{":
                    end = _skip_balanced(toks, j, "{", "}")
                    self.fm.bases["::".join(cls + [name])] = \
                        _base_names(toks, ni + 1, j)
                    self._parse_class_body(j + 1, end - 1, ns,
                                           cls + [name])
                    i = end
                else:
                    i = j + 1
                continue
            if t.text == "enum":
                # enum/enum class { ... }: skip the brace block entirely.
                j = i + 1
                while j < hi and toks[j].text not in ("{", ";"):
                    j += 1
                i = (_skip_balanced(toks, j, "{", "}")
                     if j < hi and toks[j].text == "{" else j + 1)
                continue
            if t.text == "template":
                # skip template<...> header, keep going (the decl that
                # follows is parsed normally).
                j = i + 1
                if j < hi and toks[j].text == "<":
                    depth = 0
                    while j < hi:
                        if toks[j].text == "<":
                            depth += 1
                        elif toks[j].text == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        elif toks[j].text == ">>":
                            depth -= 2
                            if depth <= 0:
                                break
                        j += 1
                    i = j + 1
                else:
                    i = j
                continue
            # Try a function definition / declaration at this scope.
            nxt = self._try_function(i, hi, ns, cls, in_class=bool(cls))
            if nxt is not None:
                i = nxt
                continue
            # Otherwise: skip one declaration-ish unit.
            i = self._skip_statement(i, hi)

    def _parse_class_body(self, lo: int, hi: int, ns: List[str],
                          cls: List[str]):
        """Class scope: member variables + inline member functions."""
        toks = self.toks
        qual_cls = "::".join(cls)
        members = self.fm.members.setdefault(qual_cls, {})
        i = lo
        while i < hi:
            t = toks[i]
            if t.kind == "id" and t.text in ("public", "private",
                                             "protected") \
                    and i + 1 < hi and toks[i + 1].text == ":":
                i += 2
                continue
            if t.text in ("class", "struct", "enum", "namespace",
                          "template", "using", "friend"):
                # nested types parsed by the region walker semantics
                if t.text in ("class", "struct"):
                    ni = i + 1
                    while ni < hi and toks[ni].kind == "id" and \
                            toks[ni].text in ANNOTATION_MACROS:
                        ni += 1
                        if ni < hi and toks[ni].text == "(":
                            ni = _skip_balanced(toks, ni, "(", ")")
                    name = toks[ni].text if ni < hi and \
                        toks[ni].kind == "id" else None
                    j = ni + 1 if name else i + 1
                    while j < hi and toks[j].text not in ("{", ";"):
                        if toks[j].text == "(":
                            j = _skip_balanced(toks, j, "(", ")")
                            continue
                        j += 1
                    if j < hi and toks[j].text == "{":
                        end = _skip_balanced(toks, j, "{", "}")
                        if name:
                            self.fm.bases["::".join(cls + [name])] = \
                                _base_names(toks, ni + 1, j)
                            self._parse_class_body(j + 1, end - 1, ns,
                                                   cls + [name])
                        # struct members may declare a variable after '}'
                        k = end
                        while k < hi and toks[k].text != ";":
                            k += 1
                        i = k + 1
                    else:
                        i = j + 1
                    continue
                i = self._skip_statement(i, hi)
                continue
            nxt = self._try_function(i, hi, ns, cls, in_class=True)
            if nxt is not None:
                i = nxt
                continue
            # Member variable declaration: TYPE name [init] ... ;
            i = self._member_decl(i, hi, qual_cls, members)

    def _member_decl(self, i: int, hi: int, qual_cls: str,
                     members: Dict[str, str]) -> int:
        toks = self.toks
        start = i
        # find the ';' terminating this member (skip balanced groups)
        j = i
        while j < hi and toks[j].text != ";":
            if toks[j].text == "{":
                j = _skip_balanced(toks, j, "{", "}")
                continue
            if toks[j].text == "(":
                j = _skip_balanced(toks, j, "(", ")")
                continue
            j += 1
        stmt = toks[start:j]
        # Peel trailing annotation macros (IRBUF_GUARDED_BY(mu_) etc.)
        # off the declarator so the name resolves correctly, and record
        # the guard relation for the lock table's Guards column.
        guard_expr = None
        while len(stmt) >= 3 and stmt[-1].text == ")":
            k = len(stmt) - 2
            depth = 1
            while k >= 0:
                if stmt[k].text == ")":
                    depth += 1
                elif stmt[k].text == "(":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            if k <= 0 or stmt[k - 1].kind != "id" or \
                    stmt[k - 1].text not in ANNOTATION_MACROS:
                break
            if stmt[k - 1].text == "IRBUF_GUARDED_BY":
                guard_expr = " ".join(t.text for t in stmt[k + 1:-1])
            stmt = stmt[:k - 1]
        decl = parse_decl_tokens(stmt)
        if decl is not None:
            dtype, name, _ = decl
            members[name] = dtype
            if guard_expr:
                self.fm.guarded[(qual_cls, name)] = guard_expr
        return j + 1

    def _skip_statement(self, i: int, hi: int) -> int:
        toks = self.toks
        while i < hi:
            t = toks[i].text
            if t == ";":
                return i + 1
            if t == "{":
                return _skip_balanced(toks, i, "{", "}")
            if t == "(":
                i = _skip_balanced(toks, i, "(", ")")
                continue
            i += 1
        return hi

    # ---- function detection ---------------------------------------------

    def _try_function(self, i: int, hi: int, ns: List[str],
                      cls: List[str], in_class: bool) -> Optional[int]:
        """Returns the index past the function if one starts at i."""
        toks = self.toks
        # Scan the pre-paren part: type tokens then the function name
        # (possibly qualified Class::Name) directly before '('.
        j = i
        name_idx = None
        while j < hi:
            t = toks[j]
            if t.text in ("{", "}", ";"):
                return None
            if t.text == "=":
                return None
            if t.text == "operator":
                # operator() etc: treat the operator token as the name.
                k = j + 1
                while k < hi and toks[k].text != "(":
                    k += 1
                name_idx = j
                j = k
                break
            if t.text == "(":
                name_idx = j - 1
                break
            if t.text == "<":
                # template-id in return type or name; token-skip.
                j += 1
                continue
            j += 1
        if name_idx is None or name_idx < i or j >= hi:
            return None
        if toks[name_idx].kind != "id" or \
                toks[name_idx].text in NOT_A_TYPE or \
                toks[name_idx].text in ANNOTATION_MACROS:
            return None
        # Name and owning-class resolution (Foo::Bar::Baz(...)).
        name = toks[name_idx].text
        quals = []
        k = name_idx - 1
        while k - 1 >= i and toks[k].text == "::" and \
                toks[k - 1].kind == "id":
            quals.insert(0, toks[k - 1].text)
            k -= 2
        # Return-type sanity: constructors/destructors have no type
        # tokens; other functions need at least one id token before the
        # name/qualifiers (or the file scope says it's a ctor).
        pre = [t for t in toks[i:k + 1]
               if t.kind == "id" and t.text not in CV_KEYWORDS]
        is_ctor_like = (not pre and (quals and quals[-1] == name.lstrip("~")
                        or (in_class and cls and
                            name.lstrip("~") == cls[-1])))
        if not pre and not is_ctor_like and toks[name_idx].text != "operator":
            return None
        params_end = _skip_balanced(toks, j, "(", ")")
        # Walk the post-param qualifiers to find '{', ';' or rejection.
        m = params_end
        requires: List[str] = []
        seen_colon = False
        while m < hi:
            t = toks[m]
            if t.text == ";":
                # Declaration only: record REQUIRES contract for merge.
                if requires:
                    qn = self._qual_name(ns, cls, quals, name)
                    # store on the program later via FileModel; use a
                    # stash on the model keyed by qual name.
                    self.fm_requires_decl(qn, requires)
                return m + 1
            if t.text == "{":
                if seen_colon:
                    pass  # init-list handled below via _ctor_init_scan
                body_end = _skip_balanced(toks, m, "{", "}")
                fn = self._make_function(i, ns, cls, quals, name)
                fn.requires = requires
                fn.ret = " ".join(t2.text for t2 in toks[i:k + 1])
                fn.end_line = toks[body_end - 1].line \
                    if body_end - 1 < len(toks) else toks[m].line
                self._parse_params(toks[j + 1:params_end - 1], fn)
                self._parse_body(fn, m + 1, body_end - 1)
                self.fm.functions.append(fn)
                return body_end
            if t.kind == "id" and t.text in ("IRBUF_REQUIRES",
                                             "IRBUF_EXCLUDES"):
                is_req = t.text == "IRBUF_REQUIRES"
                if m + 1 < hi and toks[m + 1].text == "(":
                    end = _skip_balanced(toks, m + 1, "(", ")")
                    if is_req:
                        requires.append(
                            " ".join(_collect_text(toks, m + 2, end - 1)))
                    m = end
                    continue
            if t.text in ("const", "noexcept", "override", "final",
                          "mutable", "&", "&&", "throw", "try"):
                m += 1
                continue
            if t.kind == "id" and t.text in ANNOTATION_MACROS:
                m += 1
                if m < hi and toks[m].text == "(":
                    m = _skip_balanced(toks, m, "(", ")")
                continue
            if t.text == "[":
                # [[attribute]]
                depth = 0
                while m < hi:
                    if toks[m].text == "[":
                        depth += 1
                    elif toks[m].text == "]":
                        depth -= 1
                        if depth == 0:
                            break
                    m += 1
                m += 1
                continue
            if t.text == "->":
                # trailing return type: skip to '{' or ';'
                m += 1
                while m < hi and toks[m].text not in ("{", ";"):
                    if toks[m].text == "(":
                        m = _skip_balanced(toks, m, "(", ")")
                        continue
                    m += 1
                continue
            if t.text == ":":
                # ctor init list: skip balanced items until body '{'
                seen_colon = True
                m += 1
                while m < hi and toks[m].text != "{":
                    if toks[m].text == "(":
                        m = _skip_balanced(toks, m, "(", ")")
                        continue
                    if toks[m].text == "{":
                        break
                    if toks[m].kind == "id" and m + 1 < hi and \
                            toks[m + 1].text == "{":
                        m = _skip_balanced(toks, m + 1, "{", "}")
                        continue
                    m += 1
                continue
            if t.text == "=":
                # = default / = delete / = 0
                while m < hi and toks[m].text != ";":
                    m += 1
                return m + 1
            return None
        return None

    def fm_requires_decl(self, qual_name: str, requires: List[str]):
        stash = getattr(self.fm, "_requires_decls", None)
        if stash is None:
            stash = {}
            setattr(self.fm, "_requires_decls", stash)
        stash.setdefault(qual_name, []).extend(requires)

    def _qual_name(self, ns, cls, quals, name) -> str:
        parts = list(ns) + list(cls) + list(quals) + [name]
        return "::".join(parts)

    def _make_function(self, i: int, ns, cls, quals, name) -> Function:
        cls_parts = list(cls) + list(quals)
        qn = self._qual_name(ns, cls, quals, name)
        fn = Function(self.path, self.toks[i].line, qn, name,
                      "::".join(cls_parts) if cls_parts else None)
        return fn

    def _parse_params(self, ptoks: List[Tok], fn: Function):
        # split on top-level commas
        item: List[Tok] = []
        depth = 0
        items = []
        for t in ptoks:
            if t.text in ("(", "<", "[", "{"):
                depth += 1
            elif t.text in (")", ">", "]", "}"):
                depth -= 1
            if t.text == "," and depth == 0:
                items.append(item)
                item = []
            else:
                item.append(t)
        if item:
            items.append(item)
        for it in items:
            ids = [t for t in it if t.kind == "id"
                   and t.text not in CV_KEYWORDS]
            if len(ids) >= 2:
                ptype = " ".join(t.text for t in it[:-1])
                fn.params.append((ptype, ids[-1].text))

    # ---- body pass ------------------------------------------------------

    def _parse_body(self, fn: Function, lo: int, hi: int):
        """Parses a function body into scoped events."""
        self._parse_block(fn, lo, hi, depth=1)

    def _parse_block(self, fn: Function, lo: int, hi: int, depth: int):
        toks = self.toks
        fn.add(toks[lo].line if lo < hi else 0, depth, "open", ())
        i = lo
        while i < hi:
            t = toks[i]
            if t.text == "{":
                end = _skip_balanced(toks, i, "{", "}")
                self._parse_block(fn, i + 1, end - 1, depth + 1)
                i = end
                continue
            if t.text == "}":
                i += 1
                continue
            if t.kind == "id" and t.text in ("if", "while", "switch",
                                             "for", "catch"):
                # header parens: extract decls (for-range, if-init) and
                # calls/uses from the condition; the controlled block is
                # parsed as a nested scope.
                j = i + 1
                if j < hi and toks[j].text == "(":
                    hdr_end = _skip_balanced(toks, j, "(", ")")
                    self._parse_header(fn, j + 1, hdr_end - 1, depth + 1,
                                       kind=t.text)
                    # Note: header decls live at depth+1 — the same
                    # depth as the controlled block, so a for-range var
                    # dies when the loop does.
                    i = hdr_end
                    continue
                i += 1
                continue
            if t.kind == "id" and t.text in ("else", "do", "try"):
                i += 1
                continue
            # A plain statement: up to ';' at this level (or a '{' that
            # opens a nested block mid-statement, e.g. a lambda).
            i = self._parse_statement(fn, i, hi, depth)
        fn.add(toks[hi - 1].line if hi - 1 >= lo and hi - 1 < len(toks)
               else 0, depth, "close", ())

    def _parse_header(self, fn: Function, lo: int, hi: int, depth: int,
                      kind: str):
        toks = self.toks
        # for (init; cond; step) / for (decl : range) / if (decl) ...
        segs: List[Tuple[int, int]] = []
        d = 0
        seg_lo = lo
        colon_at = None
        for k in range(lo, hi):
            tt = toks[k].text
            if tt in ("(", "[", "{"):
                d += 1
            elif tt in (")", "]", "}"):
                d -= 1
            elif tt == ";" and d == 0:
                segs.append((seg_lo, k))
                seg_lo = k + 1
            elif tt == ":" and d == 0 and colon_at is None \
                    and kind == "for":
                colon_at = k
        segs.append((seg_lo, hi))
        if colon_at is not None:
            # range-for: decl : range-expr
            decl = parse_decl_tokens(toks[lo:colon_at])
            rng = toks[colon_at + 1:hi]
            if decl is not None:
                dtype, name, _ = decl
                fn.add(toks[lo].line, depth, "decl",
                       (dtype, name, [t.text for t in rng]))
            self._emit_expr_events(fn, colon_at + 1, hi, depth)
            return
        for (a, b) in segs:
            if a >= b:
                continue
            decl = parse_decl_tokens(toks[a:b])
            if decl is not None:
                dtype, name, init = decl
                self._emit_expr_events(fn, a, b, depth)
                fn.add(toks[a].line, depth, "decl", (dtype, name, init))
            else:
                self._emit_expr_events(fn, a, b, depth)

    def _parse_statement(self, fn: Function, i: int, hi: int,
                         depth: int) -> int:
        """Parses one statement starting at i; returns index past it.

        Handles: MutexLock decls, var decls (incl. lambda initializers,
        whose bodies are parsed inline as nested scopes), returns,
        assignments, calls. A '{' inside the statement that is a lambda
        body is recursed into; any other '{' ends statement parsing for
        safety.
        """
        toks = self.toks
        start = i
        d = 0
        lambda_blocks: List[Tuple[int, int]] = []
        j = i
        while j < hi:
            tt = toks[j].text
            if tt in ("(", "["):
                d += 1
            elif tt in (")", "]"):
                d -= 1
            elif tt == "{":
                # lambda body / brace-init: find it via lookbehind —
                # ']' or ')' preceded by a '[...]' capture means lambda.
                if self._is_lambda_body(j):
                    end = _skip_balanced(toks, j, "{", "}")
                    lambda_blocks.append((j + 1, end - 1))
                    j = end
                    continue
                end = _skip_balanced(toks, j, "{", "}")
                j = end
                continue
            elif tt == ";" and d == 0:
                break
            j += 1
        stmt = toks[start:j]
        # Lambda bodies are parsed as blocks (inline or synthetic) below;
        # exclude their token ranges from statement-level expr events so
        # their calls are not attributed to the wrong context.
        self._statement_events(fn, stmt, depth,
                               start_idx=start, end_idx=j,
                               skip=lambda_blocks)
        for (a, b) in lambda_blocks:
            fn.is_lambda_host = True
            # Immediately-invoked lambdas ( `[&]{...}()` ) run at the
            # definition site and are analyzed inline with the current
            # held-lock set. A stored/posted lambda runs later on an
            # unknown thread: its body becomes a separate synthetic
            # function with an empty entry state (DESIGN.md section 11).
            invoked = b + 1 < len(toks) and toks[b + 1].text == "("
            if invoked:
                self._parse_block(fn, a, b, depth + 1)
            else:
                sub = Function(
                    fn.path, toks[a].line if a < len(toks) else fn.line,
                    f"{fn.qual_name}::<lambda:{toks[a].line}>",
                    "<lambda>", fn.cls)
                sub.params = list(fn.params)
                self._parse_block(sub, a, b, 1)
                sub.end_line = max([sub.line] +
                                   [e[0] for e in sub.events])
                self.fm.functions.append(sub)
        return j + 1 if j < hi else hi

    def _is_lambda_body(self, brace_idx: int) -> bool:
        """True when the '{' at brace_idx opens a lambda body."""
        toks = self.toks
        k = brace_idx - 1
        # skip qualifiers between ) and { : mutable, noexcept, -> type
        while k >= 0 and (toks[k].text in ("mutable", "noexcept", "const")
                          or toks[k].kind == "id"
                          or toks[k].text in ("->", "*", "&", "::", ">",
                                              "<", ",")):
            if toks[k].text == ")" or toks[k].text == "]":
                break
            k -= 1
        if k < 0:
            return False
        if toks[k].text == ")":
            # find matching '(' then check for ']' before it
            depth = 0
            m = k
            while m >= 0:
                if toks[m].text == ")":
                    depth += 1
                elif toks[m].text == "(":
                    depth -= 1
                    if depth == 0:
                        break
                m -= 1
            k = m - 1
        if k >= 0 and toks[k].text == "]":
            # walk back to '['
            depth = 0
            m = k
            while m >= 0:
                if toks[m].text == "]":
                    depth += 1
                elif toks[m].text == "[":
                    depth -= 1
                    if depth == 0:
                        break
                m -= 1
            # lambda if '[' is at an expression position (not subscript)
            if m >= 0:
                prev = toks[m - 1] if m - 1 >= 0 else None
                if prev is None or prev.text in ("(", ",", "=", "return",
                                                 "{", ";", "&&", "||",
                                                 "?", ":") \
                        or prev.kind == "punct" and prev.text not in (")",
                                                                     "]"):
                    return True
                if prev.kind == "id" and prev.text in ("return",):
                    return True
            return False
        return False

    def _statement_events(self, fn: Function, stmt: List[Tok],
                          depth: int, start_idx: int, end_idx: int,
                          skip: Optional[List[Tuple[int, int]]] = None):
        if not stmt:
            return
        toks = self.toks
        line = stmt[0].line
        texts = [t.text for t in stmt]
        # return statement
        if texts[0] == "return":
            fn.add(line, depth, "return", (texts[1:],))
            self._emit_expr_events(fn, start_idx + 1, end_idx, depth,
                                   skip=skip)
            return
        # MutexLock guard(expr);  (also: MutexLock guard{expr};)
        if texts[0] in ("MutexLock", "irbuf") and "MutexLock" in texts[:3]:
            mi = texts.index("MutexLock")
            if mi + 1 < len(stmt) and stmt[mi + 1].kind == "id":
                guard = stmt[mi + 1].text
                if mi + 2 < len(stmt) and stmt[mi + 2].text in ("(", "{"):
                    close = ")" if stmt[mi + 2].text == "(" else "}"
                    k = mi + 3
                    expr = []
                    d = 1
                    while k < len(stmt):
                        if stmt[k].text == stmt[mi + 2].text:
                            d += 1
                        elif stmt[k].text == close:
                            d -= 1
                            if d == 0:
                                break
                        expr.append(stmt[k].text)
                        k += 1
                    fn.add(line, depth, "lock", (guard, expr))
                    return
        decl = parse_decl_tokens(stmt)
        if decl is not None:
            dtype, name, init = decl
            # expr events first: a "use" on the decl's own statement must
            # not count as consuming the declared value (status check).
            self._emit_expr_events(fn, start_idx, end_idx, depth,
                                   skip=skip)
            fn.add(line, depth, "decl", (dtype, name, init))
            return
        # assignment at top level?
        d = 0
        is_assign = False
        for k, t in enumerate(stmt):
            if t.text in ("(", "[", "{", "<"):
                d += 1
            elif t.text in (")", "]", "}", ">"):
                d -= 1
            elif t.text == ">>":
                d -= 2
            elif t.text == "=" and d <= 0 and k > 0:
                fn.add(line, depth, "assign",
                       (texts[:k], texts[k + 1:]))
                is_assign = True
                break
        # the result of a call on an assignment's RHS is consumed by the
        # assignment, so only a pure expression statement is "bare".
        self._emit_expr_events(fn, start_idx, end_idx, depth,
                               whole_statement=not is_assign, skip=skip)

    def _emit_expr_events(self, fn: Function, lo: int, hi: int,
                          depth: int, whole_statement: bool = False,
                          skip: Optional[List[Tuple[int, int]]] = None):
        """Emits call and use events for the token range [lo, hi)."""
        toks = self.toks
        k = lo
        emitted_call = False
        while k < hi:
            if skip:
                jumped = False
                for (a, b) in skip:
                    if a <= k < b:
                        k = b
                        jumped = True
                        break
                if jumped:
                    continue
            t = toks[k]
            if t.kind == "id" and k + 1 < hi and toks[k + 1].text == "(" \
                    and t.text not in NOT_A_TYPE \
                    and t.text not in ("MutexLock",):
                # receiver chain lookbehind: a.b->c.Method(
                recv: List[str] = []
                m = k - 1
                while m >= lo:
                    if toks[m].text in (".", "->"):
                        m -= 1
                        seg: List[str] = []
                        # a balanced primary: id, id(...)/(...)/[...] chain
                        while m >= lo:
                            tm = toks[m].text
                            if tm in (")", "]"):
                                depth2 = 0
                                while m >= lo:
                                    if toks[m].text in (")", "]"):
                                        depth2 += 1
                                    elif toks[m].text in ("(", "["):
                                        depth2 -= 1
                                        if depth2 == 0:
                                            break
                                    m -= 1
                                seg.insert(0, "()")
                                m -= 1
                                continue
                            if toks[m].kind == "id" or tm == "::":
                                seg.insert(0, tm)
                                m -= 1
                                continue
                            break
                        recv = seg + recv
                        if m >= lo and toks[m].text in (".", "->"):
                            continue
                        break
                    break
                args_end = _skip_balanced(toks, k + 1, "(", ")")
                args = _collect_text(toks, k + 2, args_end - 1)
                fn.add(t.line, depth, "call",
                       (recv, t.text, args, whole_statement
                        and not emitted_call))
                emitted_call = True
                # CondVar wait?
                if t.text == "Wait" and len(args) >= 1:
                    fn.add(t.line, depth, "condwait",
                           (recv, " ".join(args)))
                k += 2  # descend into args for nested calls/uses
                continue
            if t.kind == "id" and t.text not in NOT_A_TYPE \
                    and t.text not in CV_KEYWORDS:
                fn.add(t.line, depth, "use", (t.text,))
            k += 1


def parse_decl_tokens(stmt: List[Tok]) -> Optional[
        Tuple[str, str, List[str]]]:
    """Recognizes `TYPE name [= init | (init) | {init}]` in a statement.

    Returns (type, name, init tokens) or None. A declaration needs a
    real type: either `auto`, or >= 1 type-ish tokens before the name
    where the token sequence cannot be an expression (two adjacent
    identifiers, or identifier after a closing `>` / `&` / `*`).
    """
    if not stmt:
        return None
    texts = [t.text for t in stmt]
    if texts[0] in NOT_A_TYPE or texts[0] in ("IRBUF_DCHECK",
                                              "IRBUF_RETURN_NOT_OK"):
        return None
    # locate the declared name: the last identifier before '=', or
    # before '(' / '{' / end when the prefix parses as a type.
    stop = len(stmt)
    d = 0
    for k, t in enumerate(stmt):
        if t.text in ("(", "[", "{"):
            d += 1
        elif t.text in (")", "]", "}"):
            d -= 1
        elif t.text == "<":
            d += 1
        elif t.text == ">":
            d -= 1
        elif t.text == ">>":
            d -= 2  # nested template close: Result<vector<T>>
        elif t.text == "=" and d == 0:
            stop = k
            break
    # name = last id token directly before stop (allowing ref/ptr marks)
    k = stop - 1
    while k >= 0 and stmt[k].text in ("&", "*", ")"):
        k -= 1
    if k < 0 or stmt[k].kind != "id" or stmt[k].text in NOT_A_TYPE:
        return None
    name = stmt[k].text
    type_toks = [t for t in stmt[:k]]
    # Strip cv keywords for the "is this a type" test.
    core = [t for t in type_toks
            if not (t.kind == "id" and t.text in CV_KEYWORDS)]
    if not core:
        return None
    ids = [t for t in core if t.kind == "id"]
    if not ids:
        return None
    if any(t.text in NOT_A_TYPE for t in ids):
        return None
    # Expression guard: `a = b`-style starts with a single id then '='
    # (handled by stop), `x->y...` etc. contain punctuation a type
    # cannot: reject if core contains '.', '->', '(' before a '<'.
    for t in core:
        if t.text in (".", "->", "+", "-", "/", "==", "!=", "[", "]"):
            return None
    # Adjacent plausibility: last core token must be id, '>', '&' or '*'.
    if core[-1].kind != "id" and core[-1].text not in (">", "&", "*",
                                                       "::", ">>"):
        return None
    if stop == len(stmt):
        # `Type name;` or `Type name(args);` / `Type name{args};`
        init = texts[k + 1:]
        # a bare `name` followed by nothing or parens
        if init and init[0] not in ("(", "{", ";", ""):
            return None
        return (" ".join(t.text for t in type_toks), name,
                [x for x in init if x not in ("(", ")", "{", "}", ";")])
    return (" ".join(t.text for t in type_toks), name, texts[stop + 1:])


# ===========================================================================
# Semantic analysis over the IR
# ===========================================================================

MUTEX_TYPES = ("Mutex",)          # util/mutex.h wrapper (not MutexLock)
STATUS_TYPES = ("Status", "Result")
BLOCKING_CALLS = {"SleepUs", "sleep_for", "sleep_until", "usleep",
                  "nanosleep", "ReadPage", "join", "wait", "wait_for",
                  "wait_until", "get_future_blocking"}
ALLOC_CALLS = {"push_back", "emplace_back", "emplace", "resize",
               "reserve", "append", "make_unique", "make_shared",
               "to_string", "StrFormat", "substr", "str", "insert"}
ALLOC_DECL_TYPES = ("vector", "string", "unordered_map", "unordered_set",
                    "deque", "map", "set", "function", "shared_ptr",
                    "unique_ptr", "stringstream", "ostringstream")
PIN_TYPES = ("PinnedPage",)


def extract_class(typestr: str) -> Optional[str]:
    """Best-effort class name from a declared type's token text."""
    ids = [w for w in typestr.split()
           if w and (w[0].isalpha() or w[0] == "_")
           and w not in CV_KEYWORDS and w not in NOT_A_TYPE
           and w != "std"]
    return ids[-1] if ids else None


def resolve_class(prog: Program, name: Optional[str]) -> Optional[str]:
    if not name:
        return None
    if name in prog.members:
        return name
    cands = [k for k in prog.members if k.endswith("::" + name)]
    if len(cands) == 1:
        return cands[0]
    return name


def class_chain(cls: Optional[str]) -> List[str]:
    """['A::B::C', 'A::B', 'A'] — outer classes as member-lookup fallback."""
    out = []
    while cls:
        out.append(cls)
        cls = cls.rsplit("::", 1)[0] if "::" in cls else None
    return out


def _find_member_owner(prog: Program, cls: Optional[str],
                       member: str) -> Optional[str]:
    for c in class_chain(cls):
        rc = resolve_class(prog, c)
        if rc in prog.members and member in prog.members[rc]:
            return rc
    return None


def normalize_mutex(tokens: List[str], fn: Function, prog: Program,
                    vars_: Dict[str, Tuple[str, int]],
                    trusted: bool = False) -> Optional[str]:
    """Canonical lock name ('Class::member') for a mutex expression.

    `trusted` contexts (MutexLock guard args, IRBUF_REQUIRES) accept a
    bare unresolvable identifier as a member of the enclosing class /
    file-scope mutex; untrusted contexts (a plain `.Lock()` receiver)
    must resolve to a Mutex-typed member to avoid false positives.
    """
    toks = [t for t in tokens if t not in ("&", "*", "this", "std")]
    while toks and toks[0] in ("->", ".", "::"):
        toks = toks[1:]
    if not toks:
        return None
    segs: List[str] = []
    i = 0
    while i < len(toks):
        t = toks[i]
        if t in (".", "->"):
            i += 1
            continue
        if t == "::":
            # fold explicit qualification into the previous segment
            if segs and i + 1 < len(toks):
                segs[-1] = segs[-1] + "::" + toks[i + 1]
                i += 2
                continue
            i += 1
            continue
        if t == "()":
            return None          # call in the chain: unresolvable
        segs.append(t)
        i += 1
    if not segs:
        return None
    base = segs[0]
    cur_cls: Optional[str] = None
    if len(segs) == 1:
        # bare name: parameter, member of this class, or file-scope.
        if base in vars_:
            btype = vars_[base][0]
            if any(m in btype for m in MUTEX_TYPES) or trusted:
                return f"<param>::{base}" if not trusted else \
                    f"<param>::{base}"
            return None
        owner = _find_member_owner(prog, fn.cls, base)
        if owner:
            mtype = prog.members[owner][base]
            if any(m in mtype.split() for m in MUTEX_TYPES) or trusted:
                return f"{owner}::{base}"
            return None
        if trusted:
            return f"{fn.cls}::{base}" if fn.cls else base
        return None
    # dotted chain: resolve the base's class, walk intermediate members.
    if base in vars_:
        cur_cls = extract_class(vars_[base][0])
    else:
        owner = _find_member_owner(prog, fn.cls, base)
        if owner:
            cur_cls = extract_class(prog.members[owner][base])
        elif trusted:
            cur_cls = base        # fixture style: Global.mu
        else:
            return None
    for seg in segs[1:-1]:
        rc = resolve_class(prog, cur_cls)
        if rc in prog.members and seg in prog.members[rc]:
            cur_cls = extract_class(prog.members[rc][seg])
        else:
            return None
    last = segs[-1]
    rc = resolve_class(prog, cur_cls)
    if rc in prog.members and last in prog.members[rc]:
        mtype = prog.members[rc][last]
        if any(m in mtype.split() for m in MUTEX_TYPES) or trusted:
            return f"{rc}::{last}"
        return None
    if trusted and rc:
        return f"{rc}::{last}"
    return None


class CallSite:
    def __init__(self, line: int, held: Tuple[str, ...], recv: List[str],
                 name: str, args: List[str], is_stmt: bool,
                 recv_cls: Optional[str]):
        self.line = line
        self.held = held
        self.recv = recv
        self.name = name
        self.args = args
        self.is_stmt = is_stmt
        self.recv_cls = recv_cls


class FnInfo:
    """Per-function lock/call facts from one simulation walk."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.entry_locks: Set[str] = set()     # from IRBUF_REQUIRES
        self.acquired: Set[str] = set()        # direct body acquisitions
        self.edges: List[Tuple[str, str, int]] = []  # (held, acquired, line)
        self.calls: List[CallSite] = []
        self.condwaits: List[Tuple[int, Tuple[str, ...], Optional[str]]] = []
        # transitive facts (filled by fixpoints)
        self.acq_star: Set[str] = set()
        self.may_block: bool = False
        self.block_reason: str = ""
        self.may_alloc: bool = False
        self.alloc_reason: str = ""


# The mutex wrapper types themselves: their bodies acquire their own
# members generically; the lock IDENTITY lives at their call sites, so
# their internal acquisitions are excluded from the lock graph.
WRAPPER_CLASSES = {"Mutex", "MutexLock", "CondVar"}

# Names so generic (std containers, accessors) that resolving them
# through an unresolved receiver would wire unrelated classes into the
# call graph; calls to them resolve only via an exactly-matched
# receiver class.
GENERIC_METHOD_NAMES = {"size", "empty", "begin", "end", "clear",
                        "find", "count", "at", "front", "back",
                        "reset", "get", "value", "str", "data",
                        "length", "ok", "swap", "insert", "erase"}


def _auto_elem_class(fn: Function, prog: Program,
                     vars_: Dict[str, Tuple[str, int]],
                     init: List[str]) -> Optional[str]:
    """`for (const auto& b : buffers_)`: the element class is the
    innermost template argument of the range's declared type."""
    for tok in init:
        if not tok or not (tok[0].isalpha() or tok[0] == "_"):
            continue
        if tok in vars_:
            t = vars_[tok][0]
        else:
            owner = _find_member_owner(prog, fn.cls, tok)
            if owner is None:
                continue
            t = prog.members[owner][tok]
        ids = [w for w in t.split()
               if w and (w[0].isalpha() or w[0] == "_")
               and w not in CV_KEYWORDS and w != "std"
               and w not in ("vector", "deque", "unique_ptr",
                             "shared_ptr", "array", "list", "map",
                             "unordered_map", "set", "unordered_set",
                             "optional", "span", "auto")]
        if ids:
            return ids[-1]
        return None
    return None


def simulate_locks(fn: Function, prog: Program) -> FnInfo:
    info = FnInfo(fn)
    vars_: Dict[str, Tuple[str, int]] = {p[1]: (p[0], 0)
                                         for p in fn.params}
    # entry lock set from REQUIRES (skip param-generic requirements,
    # e.g. CondVar::Wait(Mutex& mu) IRBUF_REQUIRES(mu)).
    for req in fn.requires:
        rtoks = req.split()
        if len(rtoks) == 1 and rtoks[0] in vars_:
            continue
        ln = normalize_mutex(rtoks, fn, prog, vars_, trusted=True)
        if ln:
            info.entry_locks.add(ln)
    # held: list of [lock, depth_or_None, guard_or_None]
    held: List[List] = [[ln, None, None] for ln in sorted(info.entry_locks)]

    def held_names() -> Tuple[str, ...]:
        return tuple(h[0] for h in held)

    def acquire(lock: Optional[str], depth, guard, line: int):
        if lock is None:
            return
        for h in held:
            info.edges.append((h[0], lock, line))
        if lock not in info.entry_locks:
            info.acquired.add(lock)
        held.append([lock, depth, guard])

    def release_lock(lock: str):
        for idx in range(len(held) - 1, -1, -1):
            if held[idx][0] == lock:
                del held[idx]
                return

    for (line, depth, kind, data) in fn.events:
        if kind == "close":
            for idx in range(len(held) - 1, -1, -1):
                if held[idx][1] is not None and held[idx][1] >= depth:
                    del held[idx]
            for v in [n for n, (_, d) in vars_.items() if d >= depth]:
                del vars_[v]
        elif kind == "decl":
            dtype, name, _init = data
            if "auto" in dtype.split() and _init:
                hint = _auto_elem_class(fn, prog, vars_, _init)
                if hint:
                    dtype = hint
            vars_[name] = (dtype, depth)
        elif kind == "lock":
            guard, expr = data
            ln = normalize_mutex(expr, fn, prog, vars_, trusted=True)
            acquire(ln, depth, guard, line)
            vars_[guard] = ("MutexLock", depth)
        elif kind == "call":
            recv, name, args, is_stmt = data
            # guard re-lock / early unlock: guard.Unlock() / guard.Lock()
            if len(recv) == 1 and recv[0] in vars_ and \
                    vars_[recv[0]][0] == "MutexLock" and \
                    name in ("Lock", "Unlock"):
                g = recv[0]
                if name == "Unlock":
                    for idx in range(len(held) - 1, -1, -1):
                        if held[idx][2] == g:
                            del held[idx]
                            break
                else:
                    # re-lock: re-derive the guard's lock from the
                    # original MutexLock event for this guard name.
                    for (l2, d2, k2, dat2) in fn.events:
                        if k2 == "lock" and dat2[0] == g:
                            ln2 = normalize_mutex(dat2[1], fn, prog,
                                                  vars_, trusted=True)
                            acquire(ln2, vars_[g][1], g, line)
                            break
                continue
            # direct mutex ops: expr.Lock() / expr.Unlock()
            if recv and name in ("Lock", "Unlock", "TryLock"):
                ln = normalize_mutex(recv, fn, prog, vars_, trusted=False)
                if ln:
                    if name == "Lock":
                        acquire(ln, None, None, line)
                    elif name == "Unlock":
                        release_lock(ln)
                    continue
            recv_cls = None
            if recv:
                base = recv[0]
                if base == "this":
                    recv_cls = fn.cls
                elif base in vars_:
                    recv_cls = extract_class(vars_[base][0])
                else:
                    owner = _find_member_owner(prog, fn.cls, base)
                    if owner:
                        recv_cls = extract_class(prog.members[owner][base])
                if recv_cls and len(recv) > 1 and "()" not in recv[1:]:
                    # walk the member chain to the final receiver class
                    cur = recv_cls
                    ok = True
                    for seg in recv[1:]:
                        rc = resolve_class(prog, cur)
                        if rc in prog.members and \
                                seg in prog.members[rc]:
                            cur = extract_class(prog.members[rc][seg])
                        else:
                            ok = False
                            break
                    recv_cls = cur if ok else None
            info.calls.append(CallSite(line, held_names(), recv, name,
                                       args, is_stmt, recv_cls))
        elif kind == "condwait":
            recv, argstr = data
            ln = normalize_mutex(argstr.split(), fn, prog, vars_,
                                 trusted=True)
            info.condwaits.append((line, held_names(), ln))
    if fn.cls and fn.cls.split("::")[-1] in WRAPPER_CLASSES:
        info.acquired.clear()
        info.edges.clear()
        info.entry_locks.clear()
    return info


def resolve_callees(prog: Program, site: CallSite) -> List[Function]:
    cands = prog.by_name.get(site.name, [])
    if not cands:
        return []
    if site.recv_cls:
        last = site.recv_cls.split("::")[-1]
        exact = [c for c in cands
                 if c.cls and c.cls.split("::")[-1] == last]
        if exact:
            return exact
        if site.name in GENERIC_METHOD_NAMES:
            return []      # a std container / accessor, not repo code
        # Virtual dispatch through an interface the receiver names: an
        # override in one of its subclasses, or a body inherited from a
        # base — never an unrelated class's same-named method.
        related = prog.dispatch_classes(last)
        if related is not None:
            return [c for c in cands
                    if c.cls and c.cls.split("::")[-1] in related]
        # A receiver class the tree does not define: conservative union.
        return cands
    if site.recv and site.name in GENERIC_METHOD_NAMES:
        return []          # x.size() etc. with unresolved receiver
    # no receiver: prefer same-class (implicit this), then free fns.
    return cands


class SemanticAnalyzer:
    """Runs the five checks over a Program built by either frontend."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.infos: Dict[int, FnInfo] = {}
        for fn in prog.functions:
            self.infos[id(fn)] = simulate_locks(fn, prog)
        self._mark_amortized()
        self._fixpoint_acq()
        self._fixpoint_block()
        self._fixpoint_alloc()

    # ---- suppression -----------------------------------------------------

    def _allowed(self, path: str, line: int, check: str) -> bool:
        fm = self.prog.files.get(path)
        if not fm:
            return False
        for ln in (line, line - 1):
            allowed = fm.allow.get(ln)
            if allowed and (check in allowed or "all" in allowed):
                return True
        return False

    def _finding(self, out: List[Finding], path: str, line: int,
                 check: str, msg: str):
        if not self._allowed(path, line, check):
            out.append(Finding(path, line, check, msg))

    # ---- interprocedural fixpoints ---------------------------------------

    def _mark_amortized(self):
        for fn in self.prog.functions:
            fm = self.prog.files.get(fn.path)
            if not fm:
                continue
            for ln in fm.amortized_lines:
                if fn.line - 3 <= ln <= fn.end_line:
                    self.prog.amortized.add(fn.qual_name)

    def _fixpoint_acq(self):
        for info in self.infos.values():
            info.acq_star = set(info.acquired)
        changed = True
        while changed:
            changed = False
            for info in self.infos.values():
                for site in info.calls:
                    for callee in resolve_callees(self.prog, site):
                        ci = self.infos[id(callee)]
                        add = ci.acq_star - ci.entry_locks
                        if not add <= info.acq_star:
                            info.acq_star |= add
                            changed = True

    def _fixpoint_block(self):
        for info in self.infos.values():
            for site in info.calls:
                if site.name in BLOCKING_CALLS and \
                        not resolve_callees(self.prog, site):
                    info.may_block = True
                    info.block_reason = \
                        f"calls {site.name} at line {site.line}"
                    break
            else:
                if info.condwaits:
                    info.may_block = True
                    info.block_reason = "waits on a condition variable"
        changed = True
        while changed:
            changed = False
            for info in self.infos.values():
                if info.may_block:
                    continue
                for site in info.calls:
                    for callee in resolve_callees(self.prog, site):
                        ci = self.infos[id(callee)]
                        if ci.may_block:
                            info.may_block = True
                            info.block_reason = (
                                f"calls {callee.qual_name} "
                                f"({ci.block_reason})")
                            changed = True
                            break
                    if info.may_block:
                        break

    def _direct_alloc(self, info: FnInfo) -> Optional[str]:
        fn = info.fn
        fm = self.prog.files.get(fn.path)
        if fm:
            for ln in fm.new_lines:
                if fn.line <= ln <= fn.end_line:
                    return f"new-expression at line {ln}"
        for (line, depth, kind, data) in fn.events:
            if kind == "decl":
                dtype = data[0]
                hit = next((a for a in ALLOC_DECL_TYPES
                            if a in dtype.split()), None)
                if hit:
                    return f"constructs {hit} at line {line}"
            elif kind == "call":
                if data[1] in ALLOC_CALLS and \
                        not self.prog.by_name.get(data[1]):
                    return f"calls {data[1]} at line {line}"
        return None

    def _fixpoint_alloc(self):
        for info in self.infos.values():
            if info.fn.qual_name in self.prog.amortized:
                continue
            reason = self._direct_alloc(info)
            if reason:
                info.may_alloc = True
                info.alloc_reason = reason
        changed = True
        while changed:
            changed = False
            for info in self.infos.values():
                if info.may_alloc or \
                        info.fn.qual_name in self.prog.amortized:
                    continue
                for site in info.calls:
                    for callee in resolve_callees(self.prog, site):
                        if callee.qual_name in self.prog.amortized:
                            continue
                        ci = self.infos[id(callee)]
                        if ci.may_alloc:
                            info.may_alloc = True
                            info.alloc_reason = (
                                f"calls {callee.qual_name} "
                                f"({ci.alloc_reason})")
                            changed = True
                            break
                    if info.may_alloc:
                        break

    # ---- check 1: pin-escape ---------------------------------------------

    def check_pin_escape(self) -> List[Finding]:
        out: List[Finding] = []
        for fn in self.prog.functions:
            self._pin_escape_fn(fn, out)
        return out

    def _pin_escape_fn(self, fn: Function, out: List[Finding]):
        pins: Dict[str, int] = {}           # live pin var -> decl depth
        dead: Set[str] = set()              # Released pins
        derived: Dict[str, Tuple[str, int]] = {}  # var -> (pin, depth)
        poisoned: Set[str] = set()          # derived vars whose pin died
        decls: Dict[str, int] = {}          # every local -> decl depth
        ret_is_ref = any(w in ("&", "*", "span") for w in fn.ret.split())

        def roots_in(texts: List[str]) -> Optional[str]:
            for w in texts:
                if w in derived and w not in poisoned:
                    return derived[w][0]
            for i, w in enumerate(texts):
                if w in pins:
                    # `pin.get`, `pin->field`, `pin.value()->member`:
                    # anything reached THROUGH the pin is derived data.
                    # (Both frontends put get/value/-> within a few
                    # tokens of the root; a bare `pin` mention - move,
                    # pass-by-ref - is a pin transfer, not an escape.)
                    window = texts[i + 1:i + 5]
                    if any(t in ("get", "->", "value") for t in window):
                        return w
            return None

        for (line, depth, kind, data) in fn.events:
            if kind == "close":
                for p in [n for n, d in pins.items() if d >= depth]:
                    del pins[p]
                    for dv, (root, ddepth) in list(derived.items()):
                        if root == p and ddepth < depth:
                            poisoned.add(dv)
                for dv in [n for n, (_, d) in derived.items()
                           if d >= depth]:
                    del derived[dv]
                    poisoned.discard(dv)
                for n in [n for n, d in decls.items() if d >= depth]:
                    del decls[n]
            elif kind == "decl":
                dtype, name, init = data
                decls[name] = depth
                if any(p in dtype.split() for p in PIN_TYPES):
                    pins[name] = depth
                    dead.discard(name)
                elif ("&" in dtype.split() or "*" in dtype.split()
                      or "span" in dtype):
                    root = roots_in(init)
                    if root:
                        derived[name] = (root, depth)
            elif kind == "return":
                texts = data[0]
                hit = False
                for w in texts:
                    if w in poisoned:
                        self._finding(
                            out, fn.path, line, "pin-escape",
                            f"returns '{w}', derived from a PinnedPage "
                            f"whose pin was already released")
                        hit = True
                        break
                # Returning derived data BY VALUE copies it out while
                # the pin is still held - legal. Only a reference,
                # pointer, or span return type can smuggle the pin's
                # storage out.
                if not hit and ret_is_ref:
                    for w in texts:
                        if w in derived:
                            self._finding(
                                out, fn.path, line, "pin-escape",
                                f"returns '{w}', a reference derived "
                                f"from pinned page '{derived[w][0]}' — "
                                f"the pin dies when this function "
                                f"returns")
                            hit = True
                            break
                    if not hit:
                        root = roots_in(texts)
                        if root:
                            self._finding(
                                out, fn.path, line, "pin-escape",
                                f"returns a reference/pointer into "
                                f"pinned page '{root}'")
            elif kind == "assign":
                lhs, rhs = data
                root = roots_in(rhs)
                src = None
                for w in rhs:
                    if w in derived and w not in poisoned:
                        src = w
                        break
                if root is None:
                    continue
                target = next((w for w in lhs
                               if w and (w[0].isalpha() or w[0] == "_")),
                              None)
                if target is None:
                    continue
                is_member = (target.endswith("_")
                             and target not in decls) or lhs[:1] == ["this"]
                outlives = (target in decls and root in pins
                            and decls[target] < pins[root])
                if is_member or outlives:
                    what = src or f"data from '{root}'"
                    self._finding(
                        out, fn.path, line, "pin-escape",
                        f"stores {what!s} (derived from pinned page "
                        f"'{root}') into "
                        f"{'member' if is_member else 'outer-scope'} "
                        f"'{target}', which outlives the pin")
            elif kind == "call":
                recv, name, args, _is_stmt = data
                if recv and recv[0] in pins and \
                        name in ("Release", "reset"):
                    p = recv[0]
                    dead.add(p)
                    del pins[p]
                    for dv, (root, _d) in derived.items():
                        if root == p:
                            poisoned.add(dv)
                elif recv and recv[0] in dead and name != "Release":
                    self._finding(
                        out, fn.path, line, "pin-escape",
                        f"calls '{name}' on pinned page '{recv[0]}' "
                        f"after Release()")
            elif kind == "use":
                (name,) = data
                if name in poisoned:
                    self._finding(
                        out, fn.path, line, "pin-escape",
                        f"uses '{name}' after the PinnedPage it was "
                        f"derived from was released")
                    poisoned.discard(name)  # one finding per var

    # ---- check 2: lock-order graph / cycles ------------------------------

    def lock_graph(self) -> Dict[Tuple[str, str],
                                 List[Tuple[str, int, str]]]:
        """(held, acquired) -> [(path, line, fn_qual)] across the tree."""
        edges: Dict[Tuple[str, str], List[Tuple[str, int, str]]] = {}

        def add(frm: str, to: str, path: str, line: int, fq: str):
            if frm.startswith("<param>") or to.startswith("<param>"):
                return
            edges.setdefault((frm, to), []).append((path, line, fq))

        for info in self.infos.values():
            fn = info.fn
            for (frm, to, line) in info.edges:
                add(frm, to, fn.path, line, fn.qual_name)
            for site in info.calls:
                if not site.held:
                    continue
                for callee in resolve_callees(self.prog, site):
                    ci = self.infos[id(callee)]
                    for lock in ci.acq_star - ci.entry_locks:
                        for h in site.held:
                            # h == lock is an interprocedural
                            # self-deadlock; keep the edge.
                            add(h, lock, fn.path, site.line,
                                fn.qual_name)
        return edges

    def check_lock_cycle(self) -> List[Finding]:
        out: List[Finding] = []
        edges = self.lock_graph()
        graph: Dict[str, Set[str]] = {}
        for (frm, to) in edges:
            graph.setdefault(frm, set()).add(to)
            graph.setdefault(to, set())
        # self-deadlock: an edge L -> L (non-reentrant mutex).
        for (frm, to), sites in sorted(edges.items()):
            if frm == to:
                path, line, fq = sites[0]
                self._finding(
                    out, path, line, "lock-cycle",
                    f"{fq} acquires '{to}' while already holding it "
                    f"(non-reentrant Mutex self-deadlock)")
        # cycles via iterative DFS (white/grey/black).
        color: Dict[str, int] = {n: 0 for n in graph}
        stack_path: List[str] = []
        reported: Set[frozenset] = set()

        def dfs(start: str):
            stack = [(start, iter(sorted(graph[start])))]
            color[start] = 1
            stack_path.append(start)
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt == node:
                        continue
                    if color[nxt] == 1:
                        cyc = stack_path[stack_path.index(nxt):] + [nxt]
                        key = frozenset(cyc)
                        if key not in reported:
                            reported.add(key)
                            first = edges.get((cyc[0], cyc[1]))
                            path, line, fq = first[0] if first else \
                                ("<unknown>", 0, "?")
                            self._finding(
                                out, path, line, "lock-cycle",
                                "lock-order cycle: " +
                                " -> ".join(cyc) +
                                f" (edge taken in {fq})")
                    elif color[nxt] == 0:
                        color[nxt] = 1
                        stack_path.append(nxt)
                        stack.append((nxt, iter(sorted(graph[nxt]))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack_path.pop()
                    stack.pop()

        for n in sorted(graph):
            if color[n] == 0:
                dfs(n)
        return out

    # ---- check 3: blocking while holding a mutex -------------------------

    def check_blocking(self) -> List[Finding]:
        out: List[Finding] = []
        for info in self.infos.values():
            fn = info.fn
            # legal waits: CondVar::Wait(m) while holding exactly {m}.
            legal_wait_lines: Set[int] = set()
            for (line, held, mutex) in info.condwaits:
                extra = [h for h in held if h != mutex]
                if mutex is not None and not extra:
                    legal_wait_lines.add(line)
                elif extra:
                    self._finding(
                        out, fn.path, line, "blocking-under-lock",
                        f"{fn.qual_name} waits on a condition variable "
                        f"for '{mutex}' while also holding "
                        f"{', '.join(repr(e) for e in extra)}")
            for site in info.calls:
                if not site.held:
                    continue
                if site.line in legal_wait_lines and site.name == "Wait":
                    continue
                callees = resolve_callees(self.prog, site)
                if not callees and site.name in BLOCKING_CALLS:
                    self._finding(
                        out, fn.path, site.line, "blocking-under-lock",
                        f"{fn.qual_name} calls blocking '{site.name}' "
                        f"while holding "
                        f"{', '.join(repr(h) for h in site.held)}")
                    continue
                for callee in callees:
                    ci = self.infos[id(callee)]
                    if ci.may_block and not (
                            callee.cls and
                            callee.cls.split('::')[-1] == "CondVar"):
                        self._finding(
                            out, fn.path, site.line,
                            "blocking-under-lock",
                            f"{fn.qual_name} calls "
                            f"{callee.qual_name}, which may block "
                            f"({ci.block_reason}), while holding "
                            f"{', '.join(repr(h) for h in site.held)}")
                        break
        return out

    # ---- check 4: status-propagation dataflow ----------------------------

    def check_status(self) -> List[Finding]:
        out: List[Finding] = []
        for info in self.infos.values():
            fn = info.fn
            events = fn.events
            # a) declared Status/Result values that are never read.
            for idx, (line, depth, kind, data) in enumerate(events):
                if kind != "decl":
                    continue
                dtype, name, _init = data
                words = dtype.replace("<", " ").replace(">", " ").split()
                if not any(s in words for s in STATUS_TYPES):
                    continue
                consumed = False
                for (l2, d2, k2, dat2) in events[idx + 1:]:
                    if k2 == "use" and dat2[0] == name:
                        consumed = True
                        break
                    if k2 == "return" and name in dat2[0]:
                        consumed = True
                        break
                    if k2 == "decl" and dat2[1] == name:
                        break  # shadowed / redeclared in a sibling scope
                if not consumed:
                    self._finding(
                        out, fn.path, line, "unchecked-status",
                        f"{fn.qual_name} declares {dtype.split()[0]} "
                        f"'{name}' but never checks, returns, or "
                        f"propagates it")
            # b) expression-statement calls whose Status result vanishes.
            for site in info.calls:
                if not site.is_stmt:
                    continue
                callees = resolve_callees(self.prog, site)
                if not callees:
                    continue
                rets = []
                for c in callees:
                    words = c.ret.replace("<", " ").replace(">", " ")
                    rets.append(any(s in words.split()
                                    for s in STATUS_TYPES))
                if rets and all(rets):
                    self._finding(
                        out, fn.path, site.line, "unchecked-status",
                        f"{fn.qual_name} discards the "
                        f"Status/Result returned by '{site.name}' "
                        f"(call is a bare expression statement)")
        return out

    # ---- check 5: allocation inside LINT-HOT-LOOP regions ----------------

    def check_hot_alloc(self) -> List[Finding]:
        out: List[Finding] = []
        for path, fm in self.prog.files.items():
            if not fm.hot_regions:
                continue

            def in_region(line: int) -> bool:
                return any(a <= line <= b for (a, b) in fm.hot_regions)

            for ln in sorted(fm.new_lines):
                if in_region(ln):
                    self._finding(
                        out, path, ln, "hot-alloc-ast",
                        "new-expression inside a LINT-HOT-LOOP region")
            for fn in fm.functions:
                info = self.infos[id(fn)]
                for (line, depth, kind, data) in fn.events:
                    if not in_region(line):
                        continue
                    if kind == "decl":
                        dtype = data[0]
                        words = dtype.replace("<", " ") \
                                     .replace(">", " ").split()
                        if any(a in words for a in ALLOC_DECL_TYPES):
                            self._finding(
                                out, path, line, "hot-alloc-ast",
                                f"constructs allocating type "
                                f"'{dtype}' inside a LINT-HOT-LOOP "
                                f"region")
                for site in info.calls:
                    if not in_region(site.line):
                        continue
                    callees = resolve_callees(self.prog, site)
                    if not callees and site.name in ALLOC_CALLS:
                        self._finding(
                            out, path, site.line, "hot-alloc-ast",
                            f"allocating call '{site.name}' inside a "
                            f"LINT-HOT-LOOP region")
                        continue
                    for callee in callees:
                        if callee.qual_name in self.prog.amortized:
                            continue
                        ci = self.infos[id(callee)]
                        if ci.may_alloc:
                            self._finding(
                                out, path, site.line, "hot-alloc-ast",
                                f"call to {callee.qual_name} may "
                                f"allocate ({ci.alloc_reason}) inside "
                                f"a LINT-HOT-LOOP region")
                            break
        return out

    # ---- driver ----------------------------------------------------------

    def run(self, checks=ALL_CHECKS) -> List[Finding]:
        out: List[Finding] = []
        if "pin-escape" in checks:
            out.extend(self.check_pin_escape())
        if "lock-cycle" in checks:
            out.extend(self.check_lock_cycle())
        if "blocking-under-lock" in checks:
            out.extend(self.check_blocking())
        if "unchecked-status" in checks:
            out.extend(self.check_status())
        if "hot-alloc-ast" in checks:
            out.extend(self.check_hot_alloc())
        seen: Set[Tuple[str, int, str]] = set()
        uniq: List[Finding] = []
        for f in sorted(out, key=lambda f: (f.path, f.line, f.check)):
            if f.key() not in seen:
                seen.add(f.key())
                uniq.append(f)
        return uniq

    # ---- lock table ------------------------------------------------------

    def lock_table_markdown(self, src_prefix: str = "src/") -> str:
        """Deterministic markdown lock-ordering table for DESIGN.md."""
        edges = self.lock_graph()
        locks: Set[str] = set()
        for info in self.infos.values():
            if not info.fn.path.startswith(src_prefix):
                continue
            locks |= info.acquired | info.entry_locks
        for (frm, to) in edges:
            locks.add(frm)
            locks.add(to)
        locks = {l for l in locks if not l.startswith("<param>")
                 and self.prog.class_origin.get(
                     l.rsplit("::", 1)[0], "").startswith(src_prefix)}
        preds: Dict[str, Set[str]] = {l: set() for l in locks}
        for (frm, to) in edges:
            if frm in locks and to in locks and frm != to:
                preds[to].add(frm)
        # level = longest acquisition chain ending at the lock (1-based).
        level: Dict[str, int] = {}

        def lv(lock: str, seen: Tuple[str, ...] = ()) -> int:
            if lock in level:
                return level[lock]
            if lock in seen:
                return 1  # cycle: reported by check_lock_cycle
            v = 1 + max((lv(p, seen + (lock,)) for p in preds[lock]),
                        default=0)
            level[lock] = v
            return v

        for l in locks:
            lv(l)
        guards: Dict[str, List[str]] = {l: [] for l in locks}
        for (cls, member), expr in sorted(self.prog.guarded.items()):
            tok = expr.split()[0] if expr.split() else ""
            owner = _find_member_owner(self.prog, cls, tok)
            lock = f"{owner}::{tok}" if owner else f"{cls}::{tok}"
            if lock in guards:
                guards[lock].append(f"{cls}::{member}")
        lines = ["| Lock | Level | Acquired while holding | Guards |",
                 "| --- | --- | --- | --- |"]
        for l in sorted(locks, key=lambda x: (level[x], x)):
            held = ", ".join(f"`{p}`" for p in sorted(preds[l])) \
                if preds[l] else "nothing"
            g = ", ".join(f"`{x}`" for x in guards[l]) if guards[l] \
                else "—"
            lines.append(f"| `{l}` | {level[l]} | {held} | {g} |")
        return "\n".join(lines)


# ===========================================================================
# Clang frontend: JSON AST dump ingestion (-Xclang -ast-dump=json)
# ===========================================================================

def collect_markers(fm: FileModel, raw_lines: List[str]):
    """Comment-level markers (allow / amortized / hot regions) are not in
    the AST; both frontends collect them from source text."""
    region_start = None
    for lineno, raw in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(raw)
        if m:
            fm.allow[lineno] = {s.strip() for s in m.group(1).split(",")}
        if AMORTIZED_RE.search(raw):
            fm.amortized_lines.add(lineno)
        if HOT_LOOP_END_RE.search(raw):
            if region_start is not None:
                fm.hot_regions.append((region_start, lineno))
                region_start = None
        elif HOT_LOOP_START_RE.search(raw):
            region_start = lineno
    if region_start is not None:
        fm.hot_regions.append((region_start, len(raw_lines) + 1))


def _spaced_type(qual_type: str) -> str:
    """'std::vector<int> &' -> 'std :: vector < int > &' (token text)."""
    s = re.sub(r"(::|<|>|&&|&|\*|,)", r" \1 ", qual_type)
    return " ".join(s.split())


class ClangAstConverter:
    """Converts one clang JSON AST (one TU) into FileModels.

    Only nodes whose expansion location lands in `want_path` (the TU's
    main file or a repo header) are kept. Location tracking is stateful:
    clang omits file/line fields that repeat the previous node's values
    in traversal order.
    """

    def __init__(self, repo_root: str, want_prefixes: Tuple[str, ...]):
        self.repo_root = repo_root
        self.want_prefixes = want_prefixes
        self.models: Dict[str, FileModel] = {}
        self.cur_file: Optional[str] = None
        self.cur_line: int = 0

    # -- location handling -------------------------------------------------

    def _loc(self, node: dict) -> Tuple[Optional[str], int]:
        loc = node.get("loc") or {}
        if "expansionLoc" in loc:
            loc = loc["expansionLoc"]
        if not loc:
            rng = node.get("range") or {}
            loc = rng.get("begin") or {}
            if "expansionLoc" in loc:
                loc = loc["expansionLoc"]
        f = loc.get("file")
        if f is not None:
            self.cur_file = self._rel(f)
        if "line" in loc:
            self.cur_line = loc["line"]
        return self.cur_file, self.cur_line

    def _rel(self, path: str) -> str:
        p = os.path.normpath(path)
        root = os.path.normpath(self.repo_root) + os.sep
        if p.startswith(root):
            return p[len(root):]
        return p

    def _wanted(self, path: Optional[str]) -> bool:
        return path is not None and \
            any(path.startswith(p) for p in self.want_prefixes)

    def _model(self, path: str) -> FileModel:
        fm = self.models.get(path)
        if fm is None:
            fm = FileModel(path)
            full = os.path.join(self.repo_root, path)
            if os.path.exists(full):
                with open(full, "r", encoding="utf-8",
                          errors="replace") as f:
                    fm.raw_lines = f.read().splitlines()
                collect_markers(fm, fm.raw_lines)
                for lineno, raw in enumerate(fm.raw_lines, start=1):
                    if re.search(r"\bnew\b", raw):
                        fm.new_lines.add(lineno)
            self.models[path] = fm
        return fm

    # -- entry -------------------------------------------------------------

    def convert(self, tu: dict) -> List[FileModel]:
        self._walk_decl(tu, ns=[], cls=[])
        return list(self.models.values())

    def _walk_decl(self, node: dict, ns: List[str], cls: List[str]):
        kind = node.get("kind", "")
        self._loc(node)
        if kind == "NamespaceDecl":
            name = node.get("name")
            inner_ns = ns + ([name] if name else [])
            for ch in node.get("inner", []):
                self._walk_decl(ch, inner_ns, cls)
            return
        if kind == "CXXRecordDecl":
            name = node.get("name")
            if not name or not node.get("completeDefinition"):
                for ch in node.get("inner", []):
                    self._walk_decl(ch, ns, cls)
                return
            self._record(node, ns, cls + [name])
            return
        if kind in ("FunctionDecl", "CXXMethodDecl",
                    "CXXConstructorDecl", "CXXDestructorDecl"):
            self._function(node, ns, cls)
            return
        if kind in ("TranslationUnitDecl", "LinkageSpecDecl",
                    "ExportDecl"):
            for ch in node.get("inner", []):
                self._walk_decl(ch, ns, cls)

    def _record(self, node: dict, ns: List[str], cls: List[str]):
        path, _line = self._loc(node)
        qual_cls = "::".join(cls)
        members: Dict[str, str] = {}
        for ch in node.get("inner", []):
            k = ch.get("kind", "")
            self._loc(ch)
            if k == "FieldDecl":
                name = ch.get("name")
                qt = (ch.get("type") or {}).get("qualType", "")
                if name:
                    members[name] = _spaced_type(qt)
                    for attr in ch.get("inner", []):
                        if "GuardedBy" in attr.get("kind", ""):
                            names = []
                            _collect_json_names(attr, names)
                            if names and self._wanted(path):
                                fm = self._model(path)
                                fm.guarded[(qual_cls, name)] = names[-1]
            elif k in ("CXXRecordDecl", "CXXMethodDecl",
                       "CXXConstructorDecl", "CXXDestructorDecl",
                       "FunctionDecl"):
                self._walk_decl(ch, ns, cls)
        if self._wanted(path):
            fm = self._model(path)
            fm.bases[qual_cls] = [
                _type_last_segment((b.get("type") or {}).get("qualType", ""))
                for b in node.get("bases", [])]
            if members:
                fm.members.setdefault(qual_cls, {}).update(members)

    def _function(self, node: dict, ns: List[str], cls: List[str]):
        path, line = self._loc(node)
        name = node.get("name", "")
        body = None
        params: List[Tuple[str, str]] = []
        requires: List[str] = []
        for ch in node.get("inner", []):
            k = ch.get("kind", "")
            if k == "ParmVarDecl":
                self._loc(ch)
                pn = ch.get("name")
                qt = (ch.get("type") or {}).get("qualType", "")
                if pn:
                    params.append((_spaced_type(qt), pn))
            elif "RequiresCapability" in k or "LocksRequired" in k:
                names: List[str] = []
                _collect_json_names(ch, names)
                requires.extend(names)
            elif k == "CompoundStmt":
                body = ch
        if not self._wanted(path) or not name:
            return
        qt = (node.get("type") or {}).get("qualType", "")
        ret = _spaced_type(qt.split("(", 1)[0].strip())
        qual = "::".join(ns + cls + [name])
        fn = Function(path, line, qual, name,
                      "::".join(cls) if cls else None)
        fn.params = params
        fn.requires = requires
        fn.ret = ret
        fm = self._model(path)
        if body is None:
            if requires:
                stash = getattr(fm, "_requires_decls", None)
                if stash is None:
                    stash = {}
                    setattr(fm, "_requires_decls", stash)
                stash.setdefault(qual, []).extend(requires)
            return
        self._stmt(fn, body, depth=0)
        fn.end_line = max([line] + [e[0] for e in fn.events])
        fm.functions.append(fn)

    # -- statements --------------------------------------------------------

    def _stmt(self, fn: Function, node: dict, depth: int):
        kind = node.get("kind", "")
        _path, line = self._loc(node)
        if kind == "CompoundStmt":
            fn.add(line, depth + 1, "open", ())
            for ch in node.get("inner", []):
                self._stmt(fn, ch, depth + 1)
            fn.add(self.cur_line, depth + 1, "close", ())
            return
        if kind == "DeclStmt":
            for ch in node.get("inner", []):
                if ch.get("kind") != "VarDecl":
                    continue
                _p, dline = self._loc(ch)
                vname = ch.get("name", "")
                qt = _spaced_type(
                    (ch.get("type") or {}).get("qualType", ""))
                init_names: List[str] = []
                for sub in ch.get("inner", []):
                    self._expr(fn, sub, depth, collect=init_names)
                if "MutexLock" in qt.split():
                    fn.add(dline, depth, "lock", (vname, init_names))
                else:
                    fn.add(dline, depth, "decl",
                           (qt, vname, init_names))
            return
        if kind == "ReturnStmt":
            names: List[str] = []
            for ch in node.get("inner", []):
                self._expr(fn, ch, depth, collect=names)
            fn.add(line, depth, "return", (names,))
            return
        if kind == "BinaryOperator" and node.get("opcode") == "=":
            inner = node.get("inner", [])
            lhs: List[str] = []
            rhs: List[str] = []
            if len(inner) == 2:
                self._expr(fn, inner[0], depth, collect=lhs)
                self._expr(fn, inner[1], depth, collect=rhs)
                fn.add(line, depth, "assign", (lhs, rhs))
            return
        if kind in ("IfStmt", "WhileStmt", "ForStmt", "DoStmt",
                    "CXXForRangeStmt", "SwitchStmt", "CaseStmt",
                    "DefaultStmt", "CXXTryStmt", "CXXCatchStmt"):
            for ch in node.get("inner", []):
                self._stmt(fn, ch, depth)
            return
        # expression statement or anything else: emit expr events.
        self._expr(fn, node, depth, collect=None, is_stmt=True)

    def _expr(self, fn: Function, node: dict, depth: int,
              collect: Optional[List[str]], is_stmt: bool = False):
        if not isinstance(node, dict):
            return
        kind = node.get("kind", "")
        _path, line = self._loc(node)
        if kind == "LambdaExpr":
            for ch in node.get("inner", []):
                if ch.get("kind") == "CompoundStmt":
                    fn.is_lambda_host = True
                    self._stmt(fn, ch, depth)
            return
        if kind in ("CallExpr", "CXXMemberCallExpr",
                    "CXXOperatorCallExpr"):
            inner = node.get("inner", [])
            callee = inner[0] if inner else {}
            name, recv = _callee_name_and_recv(callee)
            args: List[str] = []
            for a in inner[1:]:
                self._expr(fn, a, depth, collect=args)
            if name:
                fn.add(line, depth, "call", (recv, name, args, is_stmt))
                if name == "Wait" and args:
                    fn.add(line, depth, "condwait",
                           (recv, " ".join(args)))
                if collect is not None:
                    collect.extend(recv)
                    collect.append(name)
                    collect.extend(args)
            for n2 in recv:
                if n2 not in ("this", "()"):
                    fn.add(line, depth, "use", (n2,))
            return
        if kind == "DeclRefExpr":
            name = (node.get("referencedDecl") or {}).get("name") \
                or node.get("name")
            if name:
                fn.add(line, depth, "use", (name,))
                if collect is not None:
                    collect.append(name)
            return
        if kind == "MemberExpr":
            name = node.get("name")
            for ch in node.get("inner", []):
                self._expr(fn, ch, depth, collect=collect)
            if name:
                fn.add(line, depth, "use", (name,))
                if collect is not None:
                    if node.get("isArrow"):
                        collect.append("->")
                    else:
                        collect.append(".")
                    collect.append(name)
            return
        if kind == "CompoundStmt":
            self._stmt(fn, node, depth)
            return
        for ch in node.get("inner", []):
            self._expr(fn, ch, depth, collect=collect)


def _type_last_segment(qual_type: str) -> str:
    """'buffer::BufferPool' -> 'BufferPool'; template arguments dropped."""
    return qual_type.split("<", 1)[0].strip().split("::")[-1]


def _collect_json_names(node: dict, out: List[str]):
    if not isinstance(node, dict):
        return
    name = (node.get("referencedDecl") or {}).get("name") \
        or (node.get("name") if node.get("kind") in
            ("DeclRefExpr", "MemberExpr") else None)
    if name:
        out.append(name)
    for ch in node.get("inner", []):
        _collect_json_names(ch, out)


def _callee_name_and_recv(callee: dict) -> Tuple[Optional[str],
                                                 List[str]]:
    """Peels ImplicitCastExpr etc. to get the called name + receiver."""
    node = callee
    while isinstance(node, dict) and node.get("kind") in (
            "ImplicitCastExpr", "ParenExpr", "ConstantExpr"):
        inner = node.get("inner", [])
        node = inner[0] if inner else {}
    kind = node.get("kind", "")
    if kind == "DeclRefExpr":
        return (node.get("referencedDecl") or {}).get("name") \
            or node.get("name"), []
    if kind == "MemberExpr":
        name = node.get("name")
        chain: List[str] = []
        base = node.get("inner", [])
        cur = base[0] if base else {}
        while isinstance(cur, dict):
            k = cur.get("kind", "")
            if k in ("ImplicitCastExpr", "ParenExpr"):
                nxt = cur.get("inner", [])
                cur = nxt[0] if nxt else {}
                continue
            if k == "MemberExpr":
                if cur.get("name"):
                    chain.insert(0, cur["name"])
                nxt = cur.get("inner", [])
                cur = nxt[0] if nxt else {}
                continue
            if k == "DeclRefExpr":
                nm = (cur.get("referencedDecl") or {}).get("name") \
                    or cur.get("name")
                if nm:
                    chain.insert(0, nm)
                break
            if k == "CXXThisExpr":
                chain.insert(0, "this")
                break
            if k in ("CallExpr", "CXXMemberCallExpr"):
                chain.insert(0, "()")
                break
            break
        return name, chain
    return None, []


def run_clang_backend(repo_root: str, build_dir: str, cache_dir: str,
                      paths: List[str]) -> Program:
    """Drives clang over compile_commands.json with an AST-dump cache
    keyed on the source file's content hash + compile flags."""
    ccpath = os.path.join(build_dir, "compile_commands.json")
    with open(ccpath, "r", encoding="utf-8") as f:
        cc = json.load(f)
    clang = os.environ.get("IRBUF_CLANG", "clang++")
    os.makedirs(cache_dir, exist_ok=True)
    prog = Program()
    seen_paths: Set[str] = set()
    for entry in cc:
        src = os.path.normpath(os.path.join(entry.get("directory", "."),
                                            entry["file"]))
        rel = os.path.relpath(src, repo_root)
        if paths and rel not in paths:
            continue
        if not rel.startswith("src" + os.sep):
            continue
        argv = entry.get("arguments")
        if argv is None:
            argv = shlex.split(entry.get("command", ""))
        flags = [a for a in argv[1:]
                 if a not in ("-c", "-o") and not a.endswith(".o")
                 and os.path.normpath(a) != src]
        with open(src, "rb") as f:
            digest = hashlib.sha256(
                f.read() + "\0".join(flags).encode()).hexdigest()
        cached = os.path.join(cache_dir, digest + ".json")
        if os.path.exists(cached):
            with open(cached, "r", encoding="utf-8") as f:
                tu = json.load(f)
        else:
            cmd = ([clang] + flags +
                   ["-fsyntax-only", "-Xclang", "-ast-dump=json", src])
            res = subprocess.run(cmd, capture_output=True, text=True)
            if res.returncode != 0 and not res.stdout:
                raise RuntimeError(
                    f"clang AST dump failed for {rel}:\n{res.stderr}")
            tu = json.loads(res.stdout)
            with open(cached, "w", encoding="utf-8") as f:
                json.dump(tu, f)
        conv = ClangAstConverter(repo_root, ("src/",))
        for fm in conv.convert(tu):
            if fm.path in seen_paths:
                continue
            seen_paths.add(fm.path)
            prog.add_file(fm)
    prog.finish()
    return prog


# ===========================================================================
# Drivers: tree walk, self-test, lock-table file management, main()
# ===========================================================================

TREE_DIRS = ("src",)
LOCK_TABLE_BEGIN = "<!-- BEGIN GENERATED: irbuf-analyzer lock table -->"
LOCK_TABLE_END = "<!-- END GENERATED: irbuf-analyzer lock table -->"


def collect_tree_files(root: str) -> List[str]:
    out: List[str] = []
    for d in TREE_DIRS:
        base = os.path.join(root, d)
        for dirpath, _dirs, files in os.walk(base):
            for f in sorted(files):
                if f.endswith((".h", ".cc")):
                    out.append(os.path.relpath(os.path.join(dirpath, f),
                                               root))
    return sorted(out)


def build_program_internal(root: str, rel_paths: List[str]) -> Program:
    prog = Program()
    for rel in rel_paths:
        full = os.path.join(root, rel)
        with open(full, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        prog.add_file(InternalParser(rel, text).parse())
    prog.finish()
    return prog


def pick_backend(requested: str) -> str:
    if requested != "auto":
        return requested
    clang = os.environ.get("IRBUF_CLANG", "clang++")
    return "clang" if shutil.which(clang) else "internal"


def build_program(root: str, backend: str, build_dir: str,
                  cache_dir: str, rel_paths: List[str]) -> Program:
    if backend == "clang":
        return run_clang_backend(root, build_dir, cache_dir, rel_paths)
    return build_program_internal(root, rel_paths)


# ---- self-test -----------------------------------------------------------

def expected_findings(raw_lines: List[str]) -> Set[Tuple[int, str]]:
    out: Set[Tuple[int, str]] = set()
    for lineno, raw in enumerate(raw_lines, start=1):
        m = EXPECT_RE.search(raw)
        if m:
            for check in m.group(1).split(","):
                out.add((lineno, check.strip()))
    return out


def run_self_test(script_dir: str) -> int:
    fixtures = os.path.join(script_dir, "fixtures")
    failures = 0
    cc_fixtures = sorted(f for f in os.listdir(fixtures)
                         if f.endswith(".cc"))
    for fname in cc_fixtures:
        full = os.path.join(fixtures, fname)
        with open(full, "r", encoding="utf-8") as f:
            text = f.read()
        raw_lines = text.splitlines()
        prog = Program()
        prog.add_file(InternalParser(f"fixtures/{fname}", text).parse())
        prog.finish()
        analyzer = SemanticAnalyzer(prog)
        got = {(f2.line, f2.check) for f2 in analyzer.run()}
        want = expected_findings(raw_lines)
        for (line, check) in sorted(want - got):
            print(f"SELFTEST FAIL {fname}:{line}: expected a "
                  f"'{check}' finding that did not fire")
            failures += 1
        for (line, check) in sorted(got - want):
            print(f"SELFTEST FAIL {fname}:{line}: unexpected "
                  f"'{check}' finding")
            failures += 1
    # clang AST JSON samples: exercise the clang frontend's converter
    # without needing clang in the environment.
    json_fixtures = sorted(f for f in os.listdir(fixtures)
                           if f.endswith(".ast.json"))
    for fname in json_fixtures:
        full = os.path.join(fixtures, fname)
        with open(full, "r", encoding="utf-8") as f:
            tu = json.load(f)
        conv = ClangAstConverter(script_dir, ("fixtures/",))
        prog = Program()
        for fm in conv.convert(tu):
            prog.add_file(fm)
        prog.finish()
        analyzer = SemanticAnalyzer(prog)
        got = {(f2.line, f2.check) for f2 in analyzer.run()}
        expect_path = full[:-len(".ast.json")] + ".expect"
        want: Set[Tuple[int, str]] = set()
        if os.path.exists(expect_path):
            with open(expect_path, "r", encoding="utf-8") as f:
                for raw in f:
                    raw = raw.strip()
                    if not raw or raw.startswith("#"):
                        continue
                    line_s, check = raw.split()
                    want.add((int(line_s), check))
        for (line, check) in sorted(want - got):
            print(f"SELFTEST FAIL {fname}:{line}: expected a "
                  f"'{check}' finding from the clang frontend")
            failures += 1
        for (line, check) in sorted(got - want):
            print(f"SELFTEST FAIL {fname}:{line}: unexpected "
                  f"'{check}' finding from the clang frontend")
            failures += 1
    total = len(cc_fixtures) + len(json_fixtures)
    if failures == 0:
        print(f"self-test OK: {total} fixtures, all expectations met")
        return 0
    print(f"self-test: {failures} failures across {total} fixtures")
    return 1


# ---- lock table file management ------------------------------------------

def replace_lock_table(doc_path: str, table: str) -> Tuple[str, bool]:
    with open(doc_path, "r", encoding="utf-8") as f:
        text = f.read()
    begin = text.find(LOCK_TABLE_BEGIN)
    end = text.find(LOCK_TABLE_END)
    if begin < 0 or end < 0 or end < begin:
        raise RuntimeError(
            f"{doc_path}: generated-lock-table markers not found "
            f"({LOCK_TABLE_BEGIN!r} ... {LOCK_TABLE_END!r})")
    head = text[:begin + len(LOCK_TABLE_BEGIN)]
    tail = text[end:]
    new_text = head + "\n" + table + "\n" + tail
    return new_text, new_text != text


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="irbuf semantic analyzer (see module docstring)")
    ap.add_argument("--root", default=REPO_ROOT)
    ap.add_argument("--backend", default="auto",
                    choices=("auto", "clang", "internal"))
    ap.add_argument("--build-dir", default=None,
                    help="build dir containing compile_commands.json "
                         "(clang backend)")
    ap.add_argument("--ast-cache", default=None,
                    help="AST-dump cache dir (clang backend)")
    ap.add_argument("--checks", default=",".join(ALL_CHECKS),
                    help="comma-separated subset of: " +
                         ", ".join(ALL_CHECKS))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--json-out", default=None)
    ap.add_argument("--emit-lock-table", action="store_true")
    ap.add_argument("--check-lock-table", action="store_true")
    ap.add_argument("--write-lock-table", action="store_true")
    ap.add_argument("--doc", default=None,
                    help="DESIGN.md path for the lock-table modes")
    ap.add_argument("paths", nargs="*",
                    help="restrict analysis to these repo-relative "
                         "files")
    args = ap.parse_args(argv)

    script_dir = os.path.dirname(os.path.abspath(__file__))
    if args.self_test:
        return run_self_test(script_dir)

    for c in args.checks.split(","):
        if c.strip() and c.strip() not in ALL_CHECKS:
            print(f"unknown check: {c.strip()}", file=sys.stderr)
            return 2
    checks = tuple(c.strip() for c in args.checks.split(",")
                   if c.strip())

    root = os.path.abspath(args.root)
    backend = pick_backend(args.backend)
    table_mode = (args.emit_lock_table or args.check_lock_table
                  or args.write_lock_table)
    if table_mode and args.backend == "auto":
        # the committed table must not depend on which toolchain the
        # machine happens to have: always derive it deterministically.
        backend = "internal"
    build_dir = args.build_dir or os.path.join(root, "build")
    cache_dir = args.ast_cache or os.path.join(build_dir, "ast-cache")
    rel_paths = args.paths or collect_tree_files(root)
    try:
        prog = build_program(root, backend, build_dir, cache_dir,
                             rel_paths)
    except (OSError, RuntimeError, json.JSONDecodeError) as e:
        print(f"irbuf_analyzer: {e}", file=sys.stderr)
        return 2
    analyzer = SemanticAnalyzer(prog)

    if table_mode:
        table = analyzer.lock_table_markdown()
        doc = args.doc or os.path.join(root, "DESIGN.md")
        if args.emit_lock_table:
            print(table)
            return 0
        try:
            new_text, changed = replace_lock_table(doc, table)
        except (OSError, RuntimeError) as e:
            print(f"irbuf_analyzer: {e}", file=sys.stderr)
            return 2
        if args.check_lock_table:
            if changed:
                print(f"{doc}: generated lock table is stale — run\n"
                      f"  python3 tools/analyze/irbuf_analyzer.py "
                      f"--write-lock-table")
                return 1
            print(f"{doc}: lock table is up to date "
                  f"({backend} backend)")
            # fall through: the tree must ALSO be finding-free, so one
            # ctest entry (analyzer_tree) gates both properties.
        else:
            with open(doc, "w", encoding="utf-8") as f:
                f.write(new_text)
            print(f"{doc}: lock table "
                  f"{'updated' if changed else 'already current'}")
            return 0

    findings = analyzer.run(checks)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump([{"path": x.path, "line": x.line,
                        "check": x.check, "message": x.message}
                       for x in findings], f, indent=2)
    for x in findings:
        print(f"{x.path}:{x.line}: [{x.check}] {x.message}")
    n_fn = len(prog.functions)
    print(f"irbuf_analyzer: {len(findings)} finding(s) across "
          f"{len(prog.files)} files / {n_fn} functions "
          f"({backend} backend)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
