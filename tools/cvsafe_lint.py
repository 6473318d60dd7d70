#!/usr/bin/env python3
"""cvsafe_lint: project-specific static checks for the cvsafe tree.

The safety framework's guarantee (the compound planner never enters the
unsafe set) is only as strong as the code computing it, so a handful of
constructions are banned outright in the library sources (src/ and
include/):

  pragma-once        every header starts with #pragma once
  no-iostream-header <iostream> must not be included from public headers
                     (it injects static init order dependencies and pulls
                     heavy streams into every consumer; use <iosfwd>)
  no-std-rand        std::rand/srand/rand are banned — all randomness goes
                     through util::Rng so runs stay seed-reproducible
  no-naked-new       no naked new/delete; ownership goes through
                     make_unique/make_shared/containers
  float-compare      ==/!= against floating-point literals is almost
                     always a bug in interval/filter code; annotate the
                     rare intentional exact comparison
  missing-override   implementations of the planner/filter/safety-model
                     virtual interfaces must say `override` (or `final`)
  no-assert-header   public headers use the CVSAFE_EXPECTS/ENSURES/ASSERT
                     contracts (configurable, always-on) instead of assert
  no-adhoc-sim-loop  the eval layer must not hand-roll closed-loop
                     simulations (stepping DoubleIntegrator dynamics or
                     drawing AccelProfile workloads); scenario loops live
                     behind sim::Engine / ScenarioAdapter in src/sim and
                     include/cvsafe/sim
  no-unchecked-message-fields
                     filter code must not read V2V Message payload fields
                     (.data.* / .stamp()) directly; every payload passes
                     through the plausibility gate
                     (filter/plausibility.hpp) before it is trusted, so
                     non-finite, implausible or spoofed values cannot
                     reach the estimators
  no-raw-stream-logging
                     library code under src/ must not write to
                     std::cout/std::cerr (or the stdio print family)
                     directly; diagnostics go through the obs recorder /
                     metrics registry so output stays deterministic and
                     machine-readable. Streaming into a caller-supplied
                     std::ostream& is fine — the rule bans the process-
                     global streams only. Annotate the rare legitimate
                     site (e.g. the contract-failure abort path)
  no-raw-endpoint-arithmetic
                     inside the sound-certifier sources (the file set in
                     SOUND_VERIFIER_FILES) direct +,-,*,/ touching an
                     Interval endpoint (.lo/.hi) is banned: a raw op
                     silently reintroduces round-to-nearest into a chain
                     that must round outward, voiding the certificate's
                     soundness argument. Compute through util::rounded.
                     Annotate sites whose result does not feed a bound
                     (e.g. the bisection split point — any split is sound)
  no-unrounded-bound-in-verify
                     same file set: the round-to-nearest Interval
                     conveniences (.mid()/.shifted()/.inflated()/
                     Interval::centered()) and raw std::nextafter /
                     std::fma are banned; the directed equivalents live
                     in util::rounded (prev/next/widen_ulps/...), which
                     centralise the infinity fixed-point handling
  no-scalar-stack-in-fleet
                     inside the fleet engine sources (the file set in
                     FLEET_ENGINE_FILES) the scalar safety-stack types
                     and entry points (KalmanFilter, DegradationLadder,
                     per-lane propagate() calls) are banned: the batched
                     shard-step must go through the pool-resident SoA
                     sweeps (FleetEstimator::update_batch/predict_batch,
                     ReachSweep::run, FleetLadder) or it silently
                     reintroduces the per-lane cache-residency regression
                     the SoA refactor removed. A pool without a
                     FleetStackContext reaches the scalar stack only
                     through the episode's virtual observe(), which this
                     rule does not flag; annotate any legitimate direct
                     use
  no-episode-recorder-in-fleet-sweep
                     same file set: the episode-level obs::Recorder (the
                     allocating JSONL event recorder) and the
                     obs::recording() guard are banned from the fleet
                     engine — a recorder mounted inside the shard-step
                     allocates per event and serializes in retirement
                     order, breaking both the zero-alloc steady state
                     and byte-determinism. Fleet observability goes
                     through the fixed-capacity obs::RingRecorder
                     (flight_recorder.hpp), whose only allocation is
                     arm() at pool construction; RingRecorder /
                     FlightRecorderConfig / ring_recording() do not
                     match. The scalar oracle (run_episode) may mount
                     recorders — it is outside this file set

A finding on a line that carries the annotation
    cvsafe-lint: allow(<rule>)
is suppressed; the annotation documents intent at the site.

Exit status: 0 when clean, 1 when findings were reported, 2 on usage
errors. Run as `ctest -R cvsafe_lint` or directly:
    python3 tools/cvsafe_lint.py --root .
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from dataclasses import dataclass

HEADER_SUFFIXES = {".hpp", ".h", ".hh"}
SOURCE_SUFFIXES = {".cpp", ".cc", ".cxx"} | HEADER_SUFFIXES

# Virtual methods declared by the project's polymorphic interfaces
# (PlannerBase, SafetyModelBase, Estimator, Optimizer). Implementations in
# derived classes must be marked override/final.
KNOWN_VIRTUALS = {
    "plan",
    "name",
    "in_unsafe_set",
    "in_boundary_safe_set",
    "emergency_accel",
    "shrink_for_planner",
    "boundary_reason",
    "on_sensor",
    "on_message",
    "estimate",
    "update",
    "end_step",
    "set_learning_rate",
    "learning_rate",
}

# Base classes whose derived classes the missing-override rule inspects.
INTERFACE_BASES = re.compile(
    r":\s*(?:public|protected|private)\s+"
    r"(?:\w+::)*(PlannerBase|SafetyModelBase|Estimator|Optimizer)\b"
)

FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+|\d+\.)(?:[eE][+-]?\d+)?[fFlL]?|\d+[eE][+-]?\d+[fFlL]?"
RE_FLOAT_CMP = re.compile(
    rf"(?:(?:{FLOAT_LITERAL})\s*[=!]=)|(?:[=!]=\s*(?:{FLOAT_LITERAL}))"
)
RE_STD_RAND = re.compile(r"\bstd\s*::\s*rand\b|\bsrand\s*\(|(?<![\w:.])rand\s*\(")
RE_NAKED_NEW = re.compile(r"(?<![\w:])new\b(?!\s*\()")
RE_NAKED_DELETE = re.compile(r"(?<![\w:])delete\b(?:\s*\[\s*\])?\s+[\w:*(]")
RE_ASSERT = re.compile(r"(?<![\w.])assert\s*\(|#\s*include\s*<cassert>")
RE_IOSTREAM = re.compile(r"#\s*include\s*<iostream>")
# Markers of a hand-rolled closed-loop simulation: integrating vehicle
# dynamics or drawing a random workload profile. Outside the engine tree
# these indicate a per-scenario loop that bypasses sim::Engine (the exact
# duplication the eval refactor removed).
RE_ADHOC_SIM = re.compile(
    r"\bDoubleIntegrator\b|\bAccelProfile\s*::\s*random\b"
)
# Directories where hand-rolled loops are banned (relative to the repo
# root). The eval layer is analysis/reporting only; closed loops belong
# to src/sim + include/cvsafe/sim.
ADHOC_SIM_BANNED_DIRS = ("src/eval", "include/cvsafe/eval")
# Direct reads of a comm::Message payload (.data.<field>) or its stamp().
# Inside the filter tree these bypass the plausibility gate; only the gate
# implementation itself (filter/plausibility.*) touches raw payloads.
RE_MSG_FIELD = re.compile(r"\.\s*data\s*\.|\.\s*stamp\s*\(")
MSG_FIELD_BANNED_DIRS = ("src/filter", "include/cvsafe/filter")
MSG_FIELD_EXEMPT_STEM = "plausibility"
# Writes to the process-global streams. Qualified std::cout/cerr/clog and
# std::printf-family calls, plus unqualified stdio calls; the lookbehind
# keeps snprintf/vsnprintf (formatting into buffers, not streams) and
# member calls like .inputs( out of scope.
RE_RAW_STREAM = re.compile(
    r"\bstd\s*::\s*(?:cout|cerr|clog|printf|fprintf|vfprintf|fputs|fputc"
    r"|puts|putchar|perror)\b"
    r"|(?<![\w:.])(?:printf|fprintf|vfprintf|fputs|fputc|puts|putchar"
    r"|perror)\s*\("
)
# The sound-certification sources: every floating-point endpoint that
# feeds a certified bound must be produced by util::rounded directed ops.
# The interval implementation headers themselves (util/interval.hpp,
# util/rounded_interval.hpp) are deliberately NOT in this set — they are
# where endpoint arithmetic is supposed to live.
SOUND_VERIFIER_FILES = (
    "include/cvsafe/nn/interval_mlp.hpp",
    "include/cvsafe/verify/sound.hpp",
    "src/nn/interval_mlp.cpp",
    "src/verify/sound.cpp",
)
# An Interval endpoint read (.lo/.hi) directly adjacent to an arithmetic
# operator, on either side. Negation is exact in IEEE-754 but is still
# flagged (annotate it) so the rule stays simple and reviewable.
# The right-hand alternation deliberately excludes parentheses so that a
# function *reading* an endpoint after an operator (`"," + hexd(iv.lo)`)
# does not fire; arithmetic whose operand is a parenthesised expression
# still trips on the operator inside the parens.
RE_RAW_ENDPOINT = re.compile(
    r"\.\s*(?:lo|hi)\b\s*[-+*/]"
    r"|[-+*/]\s*[\w.\[\]]*\.\s*(?:lo|hi)\b"
)
# Round-to-nearest conveniences and raw directed-step primitives that the
# sound sources must not call; the rounded equivalents handle infinities
# and empties centrally.
RE_UNROUNDED_BOUND = re.compile(
    r"\bstd\s*::\s*nextafter\b"
    r"|\bstd\s*::\s*fma\b"
    r"|\.\s*(?:mid|shifted|inflated)\s*\("
    r"|\bInterval\s*::\s*centered\s*\("
)
# The fleet engine sources: the shard-step must reach estimator/ladder/
# reachability state through the pool-resident SoA sweeps, never through
# the scalar per-lane stack (which reintroduces one cold ~5 KB object per
# lane per step — the pool8k cache-residency regression).
FLEET_ENGINE_FILES = (
    "include/cvsafe/sim/fleet.hpp",
    "src/sim/fleet.cpp",
)
# Scalar safety-stack types / entry points banned inside the fleet
# engine: the scalar filter and ladder classes, and per-lane propagate()
# calls (propagate_batch / ReachSweep::run are the sweep entry points and
# do not match).
RE_SCALAR_STACK = re.compile(
    r"\bKalmanFilter\b"
    r"|\bDegradationLadder\b"
    r"|\bpropagate\s*\("
)
# The episode-level JSONL recorder inside the fleet engine. `Recorder`
# must stand alone as an identifier tail: RingRecorder and
# FlightRecorderConfig never match (no word boundary before/after the
# embedded "Recorder"), and ring_recording() never matches the
# recording() alternative (the leading underscore is a word character).
RE_EPISODE_RECORDER = re.compile(
    r"\bRecorder\b"
    r"|\brecording\s*\("
)
RE_PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\b")
RE_ALLOW = re.compile(r"cvsafe-lint:\s*allow\(([a-z0-9_,\- ]+)\)")
RE_CLASS_DECL = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{]*")
RE_MEMBER_DECL = re.compile(
    r"^\s*(?:virtual\s+)?[\w:<>,&*\s]+?\b(\w+)\s*\("
)


@dataclass
class Finding:
    path: pathlib.Path
    line: int
    rule: str
    message: str

    def render(self, root: pathlib.Path) -> str:
        rel = self.path.relative_to(root)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Returns a 'code view' of each line: comments and string/char literal
    contents replaced by spaces, so rules do not fire inside prose."""
    out = []
    in_block = False
    for raw in lines:
        buf = []
        i = 0
        n = len(raw)
        while i < n:
            ch = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if in_block:
                if ch == "*" and nxt == "/":
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif ch == "/" and nxt == "/":
                buf.append(" " * (n - i))
                break
            elif ch == "/" and nxt == "*":
                in_block = True
                buf.append("  ")
                i += 2
            elif ch in "\"'":
                quote = ch
                buf.append(quote)
                i += 1
                while i < n:
                    if raw[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                    elif raw[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    else:
                        buf.append(" ")
                        i += 1
            else:
                buf.append(ch)
                i += 1
        out.append("".join(buf))
    return out


def allowed_rules(raw_line: str) -> set[str]:
    rules: set[str] = set()
    for match in RE_ALLOW.finditer(raw_line):
        for rule in match.group(1).split(","):
            rules.add(rule.strip())
    return rules


class FileLinter:
    def __init__(self, path: pathlib.Path, in_include_tree: bool,
                 adhoc_sim_banned: bool = False,
                 msg_fields_banned: bool = False,
                 raw_streams_banned: bool = False,
                 sound_rules: bool = False,
                 fleet_rules: bool = False):
        self.path = path
        self.in_include_tree = in_include_tree
        self.adhoc_sim_banned = adhoc_sim_banned
        self.msg_fields_banned = msg_fields_banned
        self.raw_streams_banned = raw_streams_banned
        self.sound_rules = sound_rules
        self.fleet_rules = fleet_rules
        self.raw = path.read_text(encoding="utf-8").splitlines()
        self.code = strip_comments_and_strings(self.raw)
        self.findings: list[Finding] = []

    def report(self, line_no: int, rule: str, message: str) -> None:
        # Allow-annotations may sit on the offending line, or on a
        # comment-only line directly above (so a trailing annotation never
        # leaks onto the next line).
        here = allowed_rules(self.raw[line_no - 1])
        above: set[str] = set()
        if line_no >= 2 and self.raw[line_no - 2].lstrip().startswith("//"):
            above = allowed_rules(self.raw[line_no - 2])
        if rule in here or rule in above:
            return
        self.findings.append(Finding(self.path, line_no, rule, message))

    # --- rules -----------------------------------------------------------

    def check_pragma_once(self) -> None:
        if self.path.suffix not in HEADER_SUFFIXES:
            return
        for line_no, code in enumerate(self.code, start=1):
            if not code.strip():
                continue
            if RE_PRAGMA_ONCE.match(code):
                return
            break
        self.report(1, "pragma-once",
                    "header must start with '#pragma once'")

    def check_line_rules(self) -> None:
        is_header = self.path.suffix in HEADER_SUFFIXES
        for line_no, code in enumerate(self.code, start=1):
            if RE_STD_RAND.search(code):
                self.report(line_no, "no-std-rand",
                            "use util::Rng, not the C rand family "
                            "(seed-reproducibility)")
            if RE_NAKED_NEW.search(code):
                self.report(line_no, "no-naked-new",
                            "naked 'new'; use make_unique/make_shared or a "
                            "container")
            if RE_NAKED_DELETE.search(code):
                self.report(line_no, "no-naked-new",
                            "naked 'delete'; ownership must be RAII-managed")
            if RE_FLOAT_CMP.search(code):
                self.report(line_no, "float-compare",
                            "==/!= against a floating-point literal; compare "
                            "with a tolerance or annotate the exact intent")
            if self.adhoc_sim_banned and RE_ADHOC_SIM.search(code):
                self.report(line_no, "no-adhoc-sim-loop",
                            "hand-rolled closed-loop simulation in the eval "
                            "layer; scenario loops go through sim::Engine "
                            "(src/sim, include/cvsafe/sim)")
            if self.msg_fields_banned and RE_MSG_FIELD.search(code):
                self.report(line_no, "no-unchecked-message-fields",
                            "direct Message payload access in filter code; "
                            "route payloads through the plausibility gate "
                            "(filter/plausibility.hpp)")
            if self.sound_rules and RE_RAW_ENDPOINT.search(code):
                self.report(line_no, "no-raw-endpoint-arithmetic",
                            "raw arithmetic on an Interval endpoint in a "
                            "sound-certifier source; compute through "
                            "util::rounded so the bound rounds outward")
            if self.sound_rules and RE_UNROUNDED_BOUND.search(code):
                self.report(line_no, "no-unrounded-bound-in-verify",
                            "round-to-nearest interval helper in a sound-"
                            "certifier source; use the util::rounded "
                            "directed equivalent")
            if self.fleet_rules and RE_SCALAR_STACK.search(code):
                self.report(line_no, "no-scalar-stack-in-fleet",
                            "scalar safety-stack use in the fleet engine; "
                            "the shard-step goes through the pool-resident "
                            "SoA sweeps (FleetEstimator, ReachSweep, "
                            "FleetLadder)")
            if self.fleet_rules and RE_EPISODE_RECORDER.search(code):
                self.report(line_no, "no-episode-recorder-in-fleet-sweep",
                            "episode-level obs::Recorder in the fleet "
                            "engine; it allocates per event and breaks "
                            "byte-determinism — use the fixed-capacity "
                            "obs::RingRecorder (flight_recorder.hpp)")
            if self.raw_streams_banned and RE_RAW_STREAM.search(code):
                self.report(line_no, "no-raw-stream-logging",
                            "library code must not write to the global "
                            "streams; emit through obs::Recorder / "
                            "MetricsRegistry or take a std::ostream&")
            if is_header and self.in_include_tree:
                if RE_IOSTREAM.search(code):
                    self.report(line_no, "no-iostream-header",
                                "public headers must not include <iostream>; "
                                "use <iosfwd>")
                if RE_ASSERT.search(code):
                    self.report(line_no, "no-assert-header",
                                "public headers use CVSAFE_EXPECTS/ENSURES/"
                                "ASSERT contracts, not assert()")

    def check_missing_override(self) -> None:
        """Flags declarations of known interface virtuals, at direct class
        scope of a class deriving from a project interface, that lack
        override/final. Brace-depth tracking keeps method bodies (where
        those names appear as *calls*) out of scope."""
        depth = 0
        class_stack: list[tuple[int, bool]] = []  # (body depth, is_derived)
        pending_decl: tuple[int, str] | None = None

        for line_no, code in enumerate(self.code, start=1):
            stripped = code.strip()

            if pending_decl is not None:
                first_line, acc = pending_decl
                acc += " " + stripped
                if ";" in stripped or "{" in stripped:
                    self._check_decl(first_line, acc)
                    pending_decl = None
                else:
                    pending_decl = (first_line, acc)

            at_class_scope = bool(class_stack) and depth == class_stack[-1][0]
            derived = class_stack[-1][1] if class_stack else False
            class_decl = RE_CLASS_DECL.search(code)
            opens_class_body = class_decl and "{" in code and ";" not in code.split("{")[0]

            if (pending_decl is None and at_class_scope and derived
                    and not opens_class_body):
                member = RE_MEMBER_DECL.match(code)
                if member and member.group(1) in KNOWN_VIRTUALS:
                    if ";" in code or "{" in code:
                        self._check_decl(line_no, code)
                    else:
                        pending_decl = (line_no, stripped)

            for ch in code:
                if ch == "{":
                    depth += 1
                    if opens_class_body:
                        is_derived = bool(INTERFACE_BASES.search(code))
                        class_stack.append((depth, is_derived))
                        opens_class_body = False
                elif ch == "}":
                    if class_stack and depth == class_stack[-1][0]:
                        class_stack.pop()
                    depth -= 1

    def _check_decl(self, line_no: int, decl: str) -> None:
        body_or_term = decl.split("{")[0] if "{" in decl else decl
        if "override" in body_or_term or "final" in body_or_term:
            return
        if "= 0" in body_or_term:  # new pure virtual on a derived interface
            return
        if "static" in body_or_term:
            return
        member = RE_MEMBER_DECL.match(decl)
        name = member.group(1) if member else "?"
        self.report(line_no, "missing-override",
                    f"'{name}' implements an interface virtual and must be "
                    "marked override")

    def run(self) -> list[Finding]:
        self.check_pragma_once()
        self.check_line_rules()
        self.check_missing_override()
        return self.findings


def lint_tree(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for subdir in ("include", "src"):
        base = root / subdir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            banned = any(rel.startswith(d + "/")
                         for d in ADHOC_SIM_BANNED_DIRS)
            msg_banned = (any(rel.startswith(d + "/")
                              for d in MSG_FIELD_BANNED_DIRS)
                          and not path.stem.startswith(
                              MSG_FIELD_EXEMPT_STEM))
            linter = FileLinter(path, in_include_tree=(subdir == "include"),
                                adhoc_sim_banned=banned,
                                msg_fields_banned=msg_banned,
                                raw_streams_banned=(subdir == "src"),
                                sound_rules=(rel in SOUND_VERIFIER_FILES),
                                fleet_rules=(rel in FLEET_ENGINE_FILES))
            findings.extend(linter.run())
    return findings


# --- self-test ------------------------------------------------------------
# Each case is (name, filename, linter kwargs, source, expected rule set).
# The linter lints its own rule corpus: a rule that silently stops firing
# (regex rot, scoping mistake) fails the suite, not just the codebase.
SELF_TEST_CASES: list[tuple[str, str, dict, str, set[str]]] = [
    ("sound-clean-directed-ops", "sound.cpp", {"sound_rules": True},
     "#include \"cvsafe/util/rounded_interval.hpp\"\n"
     "namespace rd = cvsafe::util::rounded;\n"
     "double f(const Interval& a, const Interval& b) {\n"
     "  const Interval s = rd::add(a, b);\n"
     "  return rd::div_up(1.0, 3.0) + s.width();\n"
     "}\n",
     set()),
    ("raw-endpoint-sub", "sound.cpp", {"sound_rules": True},
     "double w(const Interval& box) { return box.hi - box.lo; }\n",
     {"no-raw-endpoint-arithmetic"}),
    ("raw-endpoint-rhs-of-op", "sound.cpp", {"sound_rules": True},
     "double m(const Interval& a) { return 0.5 * (a.lo + a.hi); }\n",
     {"no-raw-endpoint-arithmetic"}),
    ("raw-endpoint-allowed-split", "sound.cpp", {"sound_rules": True},
     "double m(const Interval& a) {\n"
     "  // Split point only. cvsafe-lint: allow(no-raw-endpoint-arithmetic)\n"
     "  return 0.5 * (a.lo + a.hi);\n"
     "}\n",
     set()),
    ("raw-endpoint-out-of-scope", "planner.cpp", {"sound_rules": False},
     "double gap(const Interval& p) { return front - p.hi; }\n",
     set()),
    ("endpoint-read-without-op-is-fine", "sound.cpp", {"sound_rules": True},
     "double g(const Interval& z) { return fast_tanh(z.lo); }\n"
     "bool h(const Interval& z) { return z.hi <= threshold; }\n",
     set()),
    ("endpoint-function-arg-after-op-is-fine", "sound.cpp",
     {"sound_rules": True},
     "std::string j(const Interval& iv) {\n"
     "  return prefix + hexd(iv.lo) + hexd(iv.hi);\n"
     "}\n",
     set()),
    ("unrounded-mid", "sound.cpp", {"sound_rules": True},
     "double c(const Interval& span) { return span.mid(); }\n",
     {"no-unrounded-bound-in-verify"}),
    ("unrounded-nextafter", "sound.cpp", {"sound_rules": True},
     "#include <cmath>\n"
     "double u(double x) { return std::nextafter(x, 1e300); }\n",
     {"no-unrounded-bound-in-verify"}),
    ("unrounded-centered", "sound.cpp", {"sound_rules": True},
     "Interval pad(double c, double r) {\n"
     "  return Interval::centered(c, r);\n"
     "}\n",
     {"no-unrounded-bound-in-verify"}),
    ("unrounded-comment-does-not-fire", "sound.cpp", {"sound_rules": True},
     "// one nextafter step outward; see Interval::centered for contrast\n"
     "double v() { return 0.0; }\n",
     set()),
    ("fleet-clean-soa-sweeps", "fleet.hpp", {"fleet_rules": True},
     "#pragma once\n"
     "void step(FleetStackContext& ctx) {\n"
     "  ctx.estimator.update_batch();\n"
     "  ctx.estimator.predict_batch();\n"
     "  ctx.reach.run();  // ReachSweep: SoA propagate_batch inside\n"
     "}\n",
     set()),
    ("fleet-scalar-kalman", "fleet.hpp", {"fleet_rules": True},
     "#pragma once\n"
     "void step(filter::KalmanFilter& kf, const Reading& r) {\n"
     "  kf.update(r);\n"
     "}\n",
     {"no-scalar-stack-in-fleet"}),
    ("fleet-scalar-propagate", "fleet.cpp", {"fleet_rules": True},
     "void sweep(const filter::StateBounds& b, double t) {\n"
     "  g = filter::propagate(b, t, limits_);\n"
     "}\n",
     {"no-scalar-stack-in-fleet"}),
    ("fleet-batch-propagate-is-fine", "fleet.cpp", {"fleet_rules": True},
     "void sweep(const filter::ReachLanes& in) {\n"
     "  filter::propagate_batch(in, limits_, t_, pl_, ph_, vl_, vh_);\n"
     "}\n",
     set()),
    ("fleet-scalar-ladder-allowed-reference", "fleet.hpp",
     {"fleet_rules": True},
     "#pragma once\n"
     "// Reference path. cvsafe-lint: allow(no-scalar-stack-in-fleet)\n"
     "core::DegradationLadder ladder{config};\n",
     set()),
    ("fleet-rule-out-of-scope", "engine.hpp", {"fleet_rules": False},
     "#pragma once\n"
     "filter::KalmanFilter kf{config};\n",
     set()),
    ("fleet-ring-recorder-is-fine", "fleet.hpp", {"fleet_rules": True},
     "#pragma once\n"
     "void arm(const obs::FlightRecorderConfig& flight) {\n"
     "  rings_.push_back(std::make_unique<obs::RingRecorder>(flight));\n"
     "  if (obs::ring_recording(rings_.back().get())) count_ += 1;\n"
     "}\n",
     set()),
    ("fleet-episode-recorder", "fleet.hpp", {"fleet_rules": True},
     "#pragma once\n"
     "void mount(obs::Recorder* rec) { rec_ = rec; }\n",
     {"no-episode-recorder-in-fleet-sweep"}),
    ("fleet-recording-guard", "fleet.cpp", {"fleet_rules": True},
     "void emit() {\n"
     "  if (obs::recording(rec_)) rec_->event(obs::EventKind::kStep);\n"
     "}\n",
     {"no-episode-recorder-in-fleet-sweep"}),
    ("episode-recorder-out-of-fleet", "engine.hpp", {"fleet_rules": False},
     "#pragma once\n"
     "void mount(obs::Recorder* rec) { rec_ = rec; }\n",
     set()),
    ("std-rand-still-fires", "noise.cpp", {},
     "int r() { return std::rand(); }\n",
     {"no-std-rand"}),
    ("pragma-once-still-fires", "header.hpp", {},
     "struct S {};\n",
     {"pragma-once"}),
]


def self_test() -> int:
    import tempfile

    failures = 0
    with tempfile.TemporaryDirectory(prefix="cvsafe_lint_selftest") as tmp:
        base = pathlib.Path(tmp)
        for name, filename, kwargs, source, expected in SELF_TEST_CASES:
            path = base / name / filename
            path.parent.mkdir()
            path.write_text(source, encoding="utf-8")
            got = {f.rule for f in FileLinter(path, in_include_tree=False,
                                              **kwargs).run()}
            if got == expected:
                print(f"  ok   {name}")
            else:
                failures += 1
                print(f"  FAIL {name}: expected {sorted(expected) or '[]'}, "
                      f"got {sorted(got) or '[]'}", file=sys.stderr)
    if failures:
        print(f"cvsafe_lint --self-test: {failures} case(s) failed",
              file=sys.stderr)
        return 1
    print(f"cvsafe_lint --self-test: all {len(SELF_TEST_CASES)} cases pass")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (contains include/ and src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's embedded rule corpus and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root).resolve()
    if not (root / "include").is_dir() or not (root / "src").is_dir():
        print(f"cvsafe_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    findings = lint_tree(root)
    for finding in findings:
        print(finding.render(root))
    if findings:
        print(f"cvsafe_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("cvsafe_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
