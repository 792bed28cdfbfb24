#!/usr/bin/env python3
"""bluedbm-lint: project-specific static analysis for the BlueDBM tree.

The repository's published numbers (bit-identical paper
reproductions in BENCH_paper.json, the serving-throughput trajectory,
exact span-sum telescoping) rest on invariants that no general-purpose tool checks:

  * the simulation is deterministic -- one simulated clock, sim::Rng
    as the sole entropy source, no wall-clock or libc entropy anywhere
    in src/;
  * the event hot path is allocation-free -- files marked
    `// lint: hot-path` must not name std::function, std::any,
    std::shared_ptr, or unpooled new/make_unique;
  * status-returning APIs on the kv/fs/flash surface carry
    [[nodiscard]] so an ignored failure is a compile error, not a
    latent durability bug;
  * headers are hygienic: conventional include guards, no entropy /
    threading / iostream transitive includes.

The environment has no clang-tidy or cppcheck, so this analyzer is
deliberately self-contained: Python stdlib only, no compilation.  It
strips comments / string literals / raw strings properly, then applies
token-level rules to what remains, so banned names in prose or test
strings never fire.

Suppressions are inline and must carry a reason:

    // lint: allow(rule-a, rule-b) reason why this use is sound

placed on the offending line or alone on the line directly above it.
A reasonless allow() is itself a finding.

Grandfathered findings live in a checked-in baseline (default
tools/lint/baseline.txt) holding per-(rule, file) counts.  The
baseline is a ratchet: going above a count fails the build, and going
BELOW it also fails until `--update-baseline` shrinks the file, so
improvements are locked in as soon as they land.

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------
# Source preparation
# --------------------------------------------------------------------

_RAW_STRING_RE = re.compile(r'R"([^()\\ \t\n]{0,16})\(')


def strip_code(text):
    """Blank out comments, string literals (incl. raw strings) and
    char literals, preserving every newline and column offset so the
    rule layer reports true line numbers.  Returns the stripped text.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            # Line comment: blank to end of line.
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            seg = text[i:j]
            out.append("".join("\n" if ch == "\n" else " " for ch in seg))
            i = j
        elif c == "R" and nxt == '"':
            m = _RAW_STRING_RE.match(text, i)
            if not m:
                out.append(c)
                i += 1
                continue
            closer = ")" + m.group(1) + '"'
            j = text.find(closer, m.end())
            j = n if j == -1 else j + len(closer)
            seg = text[i:j]
            out.append("".join("\n" if ch == "\n" else " " for ch in seg))
            i = j
        elif c == '"' or c == "'":
            # Ordinary string / char literal with escapes.  Only treat
            # a single quote as a char literal when it plausibly opens
            # one (avoids eating digit separators like 1'000'000).
            if c == "'" and not _opens_char_literal(text, i):
                out.append(c)
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            seg = text[i:j]
            out.append("".join("\n" if ch == "\n" else " " for ch in seg))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _opens_char_literal(text, i):
    """A ' preceded by an alphanumeric is a digit separator (1'000)
    or part of an identifier-adjacent token, not a char literal."""
    return not (i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"))


# --------------------------------------------------------------------
# Inline directives (parsed from the RAW text: they are comments)
# --------------------------------------------------------------------

_DIRECTIVE_RE = re.compile(r"//\s*lint:\s*(.*)$")
_ALLOW_RE = re.compile(r"allow\(([^)]*)\)\s*(.*)$")


class Directives:
    def __init__(self):
        self.hot_path = False
        # line -> set of rule names allowed there (with a reason)
        self.allows = {}
        # findings produced while parsing (reasonless allow etc.)
        self.errors = []


def parse_directives(path, raw_text):
    d = Directives()
    lines = raw_text.splitlines()
    for lineno, line in enumerate(lines, 1):
        m = _DIRECTIVE_RE.search(line)
        if not m:
            continue
        body = m.group(1).strip()
        if body == "hot-path":
            d.hot_path = True
            continue
        am = _ALLOW_RE.match(body)
        if am:
            rules = {r.strip() for r in am.group(1).split(",") if r.strip()}
            reason = am.group(2).strip()
            if not rules or not reason:
                d.errors.append(Finding(
                    path, lineno, "bad-suppression",
                    "allow() needs rule name(s) and a written reason: "
                    "// lint: allow(rule) why this is sound"))
                continue
            # A standalone allow-comment covers the next CODE line
            # (the suppression comment may wrap over several `//`
            # lines, and blank lines are skipped too); an end-of-line
            # allow covers its own line.
            standalone = line.strip().startswith("//")
            if standalone:
                target = lineno + 1
                while target <= len(lines):
                    t = lines[target - 1].strip()
                    if t and not t.startswith("//"):
                        break
                    target += 1
            else:
                target = lineno
            d.allows.setdefault(target, set()).update(rules)
        else:
            d.errors.append(Finding(
                path, lineno, "bad-suppression",
                "unrecognized lint directive %r" % body))
    return d


# --------------------------------------------------------------------
# Findings
# --------------------------------------------------------------------

class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


# --------------------------------------------------------------------
# Rules.  Each takes (relpath, stripped_lines, directives) and yields
# Finding objects.  Preprocessor lines are only examined by the
# include rules; token rules skip them (so `#include <new>` never
# trips the allocation rule).
# --------------------------------------------------------------------

def _is_pp(line):
    return line.lstrip().startswith("#")


# ---- determinism -----------------------------------------------------

_DET_INCLUDE = re.compile(
    r'^\s*#\s*include\s*[<"](random|chrono|ctime|time\.h|sys/time\.h)[>"]')
_DET_STD = re.compile(
    r"\bstd\s*::\s*(rand|srand|random_device|mt19937(?:_64)?|"
    r"default_random_engine|minstd_rand0?|knuth_b|ranlux\w+|"
    r"(?:uniform_int|uniform_real|normal|bernoulli|poisson|exponential|"
    r"geometric|binomial|discrete|piecewise\w*)_distribution|"
    r"(?:system|steady|high_resolution)_clock|chrono)\b")
_DET_LIBC_CALL = re.compile(
    r"(?<![\w:.>])(rand|srand|drand48|lrand48|mrand48|random|"
    r"time|clock|gettimeofday|clock_gettime|timespec_get|"
    r"localtime|gmtime|mktime)\s*\(")
_DET_CLOCK = re.compile(
    r"(?<![\w:])(system_clock|steady_clock|high_resolution_clock)\b")


def rule_determinism(path, lines, directives):
    for i, line in enumerate(lines, 1):
        if _is_pp(line):
            m = _DET_INCLUDE.match(line)
            if m:
                yield Finding(
                    path, i, "determinism",
                    "entropy/clock header <%s>: the simulation's only "
                    "clock is sim::Simulator::now() and its only "
                    "entropy source is sim::Rng" % m.group(1))
            continue
        for rx, what in ((_DET_STD, "std::%s"),
                         (_DET_LIBC_CALL, "%s()"),
                         (_DET_CLOCK, "%s")):
            for m in rx.finditer(line):
                yield Finding(
                    path, i, "determinism",
                    (what % m.group(1)) + " is nondeterministic across "
                    "runs/platforms; draw from sim::Rng / "
                    "sim::Simulator::now() instead")


# ---- hot-path allocation discipline ---------------------------------

_HOT_BANNED = [
    (re.compile(r"\bstd\s*::\s*function\b"), "std::function",
     "type-erased callables heap-allocate their captures; use "
     "sim::InlineFunction"),
    (re.compile(r"\bstd\s*::\s*any\b"), "std::any",
     "type erasure allocates; use a pooled PayloadRef or a concrete "
     "type"),
    (re.compile(r"\b(?:std\s*::\s*)?(shared_ptr|make_shared)\b"),
     "shared ownership",
     "control-block allocation plus atomic refcounts on the event "
     "path; move the state through the continuation chain instead"),
    (re.compile(r"\b(?:std\s*::\s*)?make_unique\b"), "make_unique",
     "unpooled allocation on the hot path"),
    (re.compile(r"\bnew\b(?!\s*\()"), "new",
     "unpooled allocation on the hot path (placement `new (addr)` "
     "is allowed)"),
]


def rule_hot_path_alloc(path, lines, directives):
    if not directives.hot_path:
        return
    for i, line in enumerate(lines, 1):
        if _is_pp(line):
            continue
        for rx, what, why in _HOT_BANNED:
            if rx.search(line):
                yield Finding(path, i, "hot-path-alloc",
                              "%s in a hot-path file: %s" % (what, why))


# ---- std::function ratchet (non-hot-path files, baselined) ----------

_STD_FUNCTION = re.compile(r"\bstd\s*::\s*function\b")


def rule_std_function(path, lines, directives):
    if directives.hot_path:
        return  # governed by the hard hot-path-alloc rule
    for i, line in enumerate(lines, 1):
        if _is_pp(line):
            continue
        if _STD_FUNCTION.search(line):
            yield Finding(
                path, i, "std-function",
                "std::function heap-allocates most captures; new code "
                "should take sim::InlineFunction (existing uses are "
                "grandfathered in tools/lint/baseline.txt)")


# ---- [[nodiscard]] on the kv/fs/flash status surface ----------------

_NODISCARD_SURFACE = ("src/kv/", "src/fs/", "src/flash/")
_DECL_ONE_LINE = re.compile(
    r"^\s*(?:(?:static|virtual|constexpr|inline|explicit|friend)\s+)*"
    r"(Status|KvStatus|bool)\s+([A-Za-z_]\w*)\s*\(")
_DECL_TYPE_ALONE = re.compile(
    r"^\s*(?:(?:static|virtual|constexpr|inline)\s+)*"
    r"(Status|KvStatus|bool)\s*$")
_DECL_NAME_LINE = re.compile(r"^\s*([A-Za-z_]\w*)\s*\(")


def rule_nodiscard_status(path, lines, directives):
    if not path.endswith(".hh"):
        return
    if not any(path.startswith(p) for p in _NODISCARD_SURFACE):
        return

    def has_nodiscard(idx):  # idx is 0-based line of the return type
        window = lines[max(0, idx - 2):idx + 1]
        return any("[[nodiscard]]" in w for w in window)

    for i, line in enumerate(lines):
        if _is_pp(line) or "using " in line:
            continue
        m = _DECL_ONE_LINE.match(line)
        name = None
        if m:
            name = m.group(2)
            typ = m.group(1)
        else:
            t = _DECL_TYPE_ALONE.match(line)
            if t and i + 1 < len(lines):
                nm = _DECL_NAME_LINE.match(lines[i + 1])
                if nm:
                    name = nm.group(1)
                    typ = t.group(1)
        if name is None or name == "operator":
            continue
        if has_nodiscard(i):
            continue
        yield Finding(
            path, i + 1, "nodiscard-status",
            "%s-returning API %s() on the kv/fs/flash surface must be "
            "[[nodiscard]]: an ignored failure here is a silent "
            "durability/consistency bug" % (typ, name))


# ---- include hygiene ------------------------------------------------

_GUARD_IFNDEF = re.compile(r"^\s*#\s*ifndef\s+(\w+)", re.M)
_GUARD_DEFINE = re.compile(r"^\s*#\s*define\s+(\w+)", re.M)

_BANNED_INCLUDES = {
    "thread": "the simulator is single-threaded by construction",
    "mutex": "the simulator is single-threaded by construction",
    "shared_mutex": "the simulator is single-threaded by construction",
    "condition_variable":
        "the simulator is single-threaded by construction",
    "future": "the simulator is single-threaded by construction",
    "stop_token": "the simulator is single-threaded by construction",
}
_BANNED_HEADER_ONLY = {
    "iostream": "global stream objects drag in static-init order and "
                "buffering state; headers must stay iostream-free "
                "(use sim/logging.hh)",
}
_INCLUDE_RE = re.compile(r"^\s*#\s*include\s*<([^>]+)>")


def expected_guard(relpath):
    """src/net/link.hh -> BLUEDBM_NET_LINK_HH (repo convention)."""
    stem = relpath
    if stem.startswith("src/"):
        stem = stem[len("src/"):]
    stem = re.sub(r"\.hh$", "", stem)
    return "BLUEDBM_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_HH"


def rule_include_hygiene(path, lines, directives):
    is_header = path.endswith(".hh")
    text = "\n".join(lines)
    if is_header:
        if "#pragma once" not in text:
            gi = _GUARD_IFNDEF.search(text)
            gd = _GUARD_DEFINE.search(text)
            if not (gi and gd and gi.group(1) == gd.group(1)):
                yield Finding(path, 1, "include-hygiene",
                              "header lacks an include guard "
                              "(#ifndef/#define pair or #pragma once)")
            elif gi.group(1) != expected_guard(path):
                yield Finding(
                    path, 1, "include-hygiene",
                    "guard %s does not follow the BLUEDBM_<PATH>_HH "
                    "convention (expected %s)"
                    % (gi.group(1), expected_guard(path)))
    for i, line in enumerate(lines, 1):
        m = _INCLUDE_RE.match(line)
        if not m:
            continue
        inc = m.group(1)
        if inc in _BANNED_INCLUDES:
            yield Finding(path, i, "include-hygiene",
                          "banned include <%s>: %s"
                          % (inc, _BANNED_INCLUDES[inc]))
        elif is_header and inc in _BANNED_HEADER_ONLY:
            yield Finding(path, i, "include-hygiene",
                          "banned transitive include <%s>: %s"
                          % (inc, _BANNED_HEADER_ONLY[inc]))


RULES = [
    rule_determinism,
    rule_hot_path_alloc,
    rule_std_function,
    rule_nodiscard_status,
    rule_include_hygiene,
]

RULE_NAMES = ("determinism", "hot-path-alloc", "std-function",
              "nodiscard-status", "include-hygiene", "bad-suppression")


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

def lint_file(root, relpath):
    """Lint one file; returns (findings, suppressed_count)."""
    full = os.path.join(root, relpath)
    try:
        with open(full, "r", encoding="utf-8") as f:
            raw = f.read()
    except OSError as e:
        return [Finding(relpath, 0, "io", str(e))], 0

    directives = parse_directives(relpath, raw)
    stripped = strip_code(raw)
    lines = stripped.split("\n")

    findings = list(directives.errors)
    for rule in RULES:
        findings.extend(rule(relpath, lines, directives))

    kept, suppressed = [], 0
    for f in findings:
        if f.rule in directives.allows.get(f.line, ()):
            suppressed += 1
        else:
            kept.append(f)
    return kept, suppressed


SOURCE_EXTS = (".cc", ".hh")


def discover(root):
    files = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "src")):
        for fn in sorted(filenames):
            if fn.endswith(SOURCE_EXTS):
                files.append(os.path.relpath(os.path.join(dirpath, fn),
                                             root))
    return sorted(files)


def load_baseline(path):
    """Baseline file: lines of `rule<TAB>relpath<TAB>count`."""
    base = {}
    if not os.path.exists(path):
        return base
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not parts[2].isdigit():
                raise ValueError("%s:%d: malformed baseline line %r"
                                 % (path, lineno, line))
            base[(parts[0], parts[1])] = int(parts[2])
    return base


def write_baseline(path, counts):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# bluedbm-lint baseline: grandfathered findings as\n"
                "# rule<TAB>file<TAB>count.  This file only shrinks:\n"
                "# exceeding a count fails CI, and dropping below one\n"
                "# fails too until --update-baseline records the win.\n")
        for (rule, rel), n in sorted(counts.items()):
            f.write("%s\t%s\t%d\n" % (rule, rel, n))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: "
                         "all of src/)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels above "
                         "this script)")
    ap.add_argument("--baseline", default=None,
                    help="baseline file (default: tools/lint/"
                         "baseline.txt under the root); 'none' "
                         "disables the baseline entirely")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline to the current "
                         "finding counts")
    args = ap.parse_args(argv)

    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    if args.baseline == "none":
        baseline_path = None
    else:
        baseline_path = args.baseline or os.path.join(
            root, "tools", "lint", "baseline.txt")

    if args.paths:
        files = []
        for p in args.paths:
            ap_ = os.path.abspath(p)
            if os.path.isdir(ap_):
                for dirpath, _, names in sorted(os.walk(ap_)):
                    for n in sorted(names):
                        if n.endswith(SOURCE_EXTS):
                            files.append(os.path.relpath(
                                os.path.join(dirpath, n), root))
            else:
                files.append(os.path.relpath(ap_, root))
    else:
        files = discover(root)
    if not files:
        print("bluedbm-lint: nothing to lint under %s" % root,
              file=sys.stderr)
        return 2

    all_findings = []
    suppressed_total = 0
    for rel in files:
        kept, suppressed = lint_file(root, rel)
        all_findings.extend(kept)
        suppressed_total += suppressed

    counts = {}
    for f in all_findings:
        counts[(f.rule, f.path)] = counts.get((f.rule, f.path), 0) + 1

    if args.update_baseline:
        if baseline_path is None:
            print("--update-baseline needs a baseline file",
                  file=sys.stderr)
            return 2
        write_baseline(baseline_path, counts)
        print("bluedbm-lint: baseline updated (%d grandfathered "
              "findings across %d (rule, file) pairs)"
              % (sum(counts.values()), len(counts)))
        return 0

    try:
        baseline = (load_baseline(baseline_path)
                    if baseline_path else {})
    except ValueError as e:
        print("bluedbm-lint: %s" % e, file=sys.stderr)
        return 2

    failed = False
    grandfathered = 0
    # New findings: anything beyond the baselined count for its
    # (rule, file) cell.  Report the LAST n findings of an exceeded
    # cell (the newest lines are likelier culprits, but all are shown
    # if the cell is brand new).
    for key in sorted(set(counts) | set(baseline)):
        have = counts.get(key, 0)
        allowed = baseline.get(key, 0)
        if have > allowed:
            failed = True
            cell = [f for f in all_findings
                    if (f.rule, f.path) == key]
            for f in cell[allowed:]:
                print(f)
            if allowed:
                print("%s: [%s] %d finding(s) exceed the baselined %d"
                      % (key[1], key[0], have, allowed))
        elif have < allowed:
            failed = True
            print("%s: [%s] baseline is stale (%d baselined, %d "
                  "remain) -- lock the improvement in with "
                  "--update-baseline" % (key[1], key[0], allowed, have))
            grandfathered += have
        else:
            grandfathered += have

    if failed:
        print("bluedbm-lint: FAILED (%d findings, %d grandfathered, "
              "%d suppressed inline)"
              % (sum(counts.values()), grandfathered, suppressed_total),
              file=sys.stderr)
        return 1
    print("bluedbm-lint: OK -- %d files, %d grandfathered finding(s), "
          "%d suppressed inline"
          % (len(files), grandfathered, suppressed_total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
