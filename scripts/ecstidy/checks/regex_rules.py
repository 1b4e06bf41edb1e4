"""The regex rules (wire-codec, deterministic-rng, bench-metrics).

They run under the ecstidy driver with the shared finding format,
suppression syntax, and exit-code contract; select them alone with
`scripts/ecstidy --checks regex`.
"""
from __future__ import annotations

import re

from ..findings import Finding
from ..ir import ProgramIR

_WIRE_RULES = [
    (re.compile(r"\bmemcpy\s*\("), "raw memcpy on buffers (use WireReader/WireWriter)"),
    (re.compile(r"\bmemmove\s*\("), "raw memmove on buffers (use WireReader/WireWriter)"),
    (re.compile(r"\b(htons|ntohs|htonl|ntohl)\s*\("),
     "byte-order intrinsics (WireReader/WireWriter are already big-endian)"),
]
_WIRE_EXEMPT = {"src/dnscore/wire.cpp"}

_RNG_RULES = [
    (re.compile(r"\bstd::random_device\b"), "nondeterministic std::random_device"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "C rand()/srand()"),
    (re.compile(r"\bstd::(mt19937(_64)?|minstd_rand0?|default_random_engine)\b"),
     "direct <random> engine (use netsim::Rng with an explicit seed)"),
]
_RNG_EXEMPT = {"src/netsim/rng.h", "src/netsim/rng.cpp"}

_LINE_COMMENT = re.compile(r"//.*$")


def _scan(program: ProgramIR, rules, exempt, check: str) -> list[Finding]:
    out: list[Finding] = []
    for fir in program.files:
        if fir.path in exempt:
            continue
        for lineno, line in enumerate(fir.lines, 1):
            code = _LINE_COMMENT.sub("", line)
            for pattern, message in rules:
                m = pattern.search(code)
                if m:
                    out.append(Finding(check=check, path=fir.path,
                                       line=lineno, col=m.start() + 1,
                                       message=message))
    return out


def check_wire_codec(program: ProgramIR) -> list[Finding]:
    return _scan(program, _WIRE_RULES, _WIRE_EXEMPT, "wire-codec")


def check_deterministic_rng(program: ProgramIR) -> list[Finding]:
    return _scan(program, _RNG_RULES, _RNG_EXEMPT, "deterministic-rng")


def check_bench_metrics(program: ProgramIR) -> list[Finding]:
    out: list[Finding] = []
    for fir in program.files:
        if not (fir.path.startswith("bench/") and fir.path.endswith(".cpp")):
            continue
        if fir.path == "bench/alloc_hooks.cpp":
            continue  # the operator-new override TU, not a bench binary
        if not any("ObsSession" in line for line in fir.lines):
            out.append(Finding(
                check="bench-metrics", path=fir.path, line=1, col=1,
                message="no ObsSession (every bench must support --metrics-out)",
            ))
    return out
