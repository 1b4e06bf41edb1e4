"""Driver: file discovery, backend selection, suppression handling, report.

Exit-code contract (shared by every entry point): 0 = clean, 1 =
unsuppressed findings, 2 = usage/internal error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, clang_backend, config
from .checks import ALL_CHECKS, GROUPS, run_checks
from .findings import apply_suppressions, dumps, parse_allows, report
from .index import index_file
from .ir import ProgramIR
from .lexer import lex


def repo_root(start: Path) -> Path:
    p = start.resolve()
    for cand in (p, *p.parents):
        if (cand / "CMakeLists.txt").exists() and (cand / "src").is_dir():
            return cand
    return start


def discover_files(root: Path, paths: list[str]) -> list[Path]:
    out: list[Path] = []
    if paths:
        for raw in paths:
            p = Path(raw)
            p = p if p.is_absolute() else root / p
            if p.is_dir():
                for suffix in config.SOURCE_SUFFIXES:
                    out.extend(sorted(p.rglob(f"*{suffix}")))
            elif p.exists():
                out.append(p)
            else:
                raise FileNotFoundError(raw)
    else:
        for top in config.SOURCE_ROOTS:
            base = root / top
            if not base.is_dir():
                continue
            for suffix in config.SOURCE_SUFFIXES:
                out.extend(sorted(base.rglob(f"*{suffix}")))
    def excluded(p: Path) -> bool:
        rel = p.relative_to(root).as_posix() if p.is_relative_to(root) else p.as_posix()
        return any(rel.startswith(d + "/") or rel == d
                   for d in config.EXCLUDE_DIRS)
    return [p for p in out if not excluded(p)]


def build_ir(root: Path, files: list[Path], backend: str,
             compile_commands: Path | None) -> tuple[ProgramIR, str]:
    """Returns (program, backend_used). `auto` prefers clang when libclang
    is importable and a compilation database exists; the text backend is
    always available and needs neither."""
    sources = []
    for p in files:
        rel = p.relative_to(root).as_posix() if p.is_relative_to(root) else p.as_posix()
        sources.append((rel, p.read_text(encoding="utf-8")))
    if backend == "text":
        return ProgramIR([index_file(rel, text) for rel, text in sources]), "text"
    clang_ok = clang_backend.available()
    if backend == "clang" and not clang_ok:
        raise RuntimeError(
            "backend 'clang' requested but python clang.cindex / libclang "
            "is not available (pip install libclang, or apt install "
            "python3-clang); the 'text' backend needs no dependencies")
    if clang_ok:
        try:
            program = clang_backend.build_program(root, sources,
                                                  compile_commands)
            # Suppressions and det-clock always come from the text lexer.
            for fir, (_, text) in zip(program.files, sources):
                lr = lex(text)
                fir.comments = lr.comments
                fir.tokens = lr.tokens
                fir.lines = text.splitlines()
            return program, "clang"
        except Exception as exc:  # pragma: no cover - depends on local clang
            if backend == "clang":
                raise
            print(f"ecstidy: clang backend failed ({exc}); "
                  f"falling back to text backend", file=sys.stderr)
    return ProgramIR([index_file(rel, text) for rel, text in sources]), "text"


def resolve_checks(spec: str) -> list[str]:
    names: list[str] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part in GROUPS:
            names.extend(GROUPS[part])
        elif part in ALL_CHECKS:
            names.append(part)
        else:
            raise ValueError(
                f"unknown check '{part}' (known: {', '.join(ALL_CHECKS)}; "
                f"groups: {', '.join(sorted(GROUPS))})")
    seen: set[str] = set()
    return [n for n in names if not (n in seen or seen.add(n))]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="ecstidy",
        description="AST-level invariant checker for the ecsdns repo "
                    "(determinism, cache lifetime, noalloc contracts + "
                    "legacy regex rules).")
    ap.add_argument("--all", action="store_true",
                    help="run every check (default when --checks is absent)")
    ap.add_argument("--checks", default="",
                    help="comma-separated checks or groups "
                         f"({', '.join(ALL_CHECKS)}; groups: ast, regex, all)")
    ap.add_argument("--backend", choices=("auto", "clang", "text"),
                    default="auto",
                    help="AST backend (auto = clang when libclang is "
                         "available, else text)")
    ap.add_argument("--compile-commands", type=Path, default=None,
                    help="compilation database for the clang backend "
                         "(default: <repo>/build/compile_commands.json)")
    ap.add_argument("--paths", nargs="*", default=[],
                    help="files or directories to scan (default: "
                         f"{', '.join(config.SOURCE_ROOTS)})")
    ap.add_argument("--root", type=Path, default=None,
                    help="repo root (default: discovered from this script)")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--out", type=Path, default=None,
                    help="also write the JSON report (findings artifact) here")
    ap.add_argument("--include-suppressed", action="store_true",
                    help="print suppressed findings too (text format)")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--version", action="version", version=__version__)
    args = ap.parse_args(argv)

    if args.list_checks:
        for name in ALL_CHECKS:
            print(name)
        return 0

    try:
        checks = resolve_checks(args.checks) if args.checks else list(ALL_CHECKS)
    except ValueError as exc:
        print(f"ecstidy: {exc}", file=sys.stderr)
        return 2

    root = args.root.resolve() if args.root else repo_root(Path(__file__).parent)
    try:
        files = discover_files(root, args.paths)
    except FileNotFoundError as exc:
        print(f"ecstidy: no such path: {exc}", file=sys.stderr)
        return 2
    if not files:
        print("ecstidy: no source files found", file=sys.stderr)
        return 2

    compile_commands = args.compile_commands
    if compile_commands is None:
        default_db = root / "build" / "compile_commands.json"
        compile_commands = default_db if default_db.exists() else None

    try:
        program, backend_used = build_ir(root, files, args.backend,
                                         compile_commands)
    except RuntimeError as exc:
        print(f"ecstidy: {exc}", file=sys.stderr)
        return 2

    findings = run_checks(program, checks)
    allows = {fir.path: parse_allows(fir.path, fir.comments,
                                     {t.line for t in fir.tokens})
              for fir in program.files}
    findings = apply_suppressions(findings, allows, set(checks))

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(dumps(findings, backend_used, checks),
                            encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(dumps(findings, backend_used, checks))
    else:
        shown = [f for f in findings
                 if args.include_suppressed or not f.suppressed]
        for f in shown:
            print(f.render())
        unsuppressed = sum(1 for f in findings if not f.suppressed)
        suppressed = len(findings) - unsuppressed
        state = "clean" if unsuppressed == 0 else f"{unsuppressed} finding(s)"
        print(f"ecstidy[{backend_used}]: {len(files)} files, "
              f"{len(checks)} checks: {state}"
              + (f" ({suppressed} suppressed)" if suppressed else ""))
    rep = report(findings, backend_used, checks)
    return 0 if rep["counts"]["unsuppressed"] == 0 else 1
