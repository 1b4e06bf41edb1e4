"""ecstidy — AST-level invariant checker for the ecsdns reproduction.

Three check families that line-oriented regexes cannot express:

  determinism   range-for / iterator loops over unordered containers whose
                bodies reach an output sink (CSV / metrics JSON / trace /
                log writers), and wall-clock calls outside annotated
                exemptions.
  lifetime      pointers or references obtained from cache accessors
                (EcsCache::lookup, FlatHashMap::find) that stay live across
                a call that can mutate the same container — the PR 6
                CNAME-restart dangling-pointer class, generalized.
  noalloc       the transitive call graph of every ECSDNS_NOALLOC-annotated
                function must not reach operator new, container growers
                (push_back and friends), or std::string construction.

Plus the legacy regex rules (wire-codec, deterministic-rng, bench-metrics)
folded into the same driver, finding format, and exit-code contract.

Backends: `clang` (python clang.cindex over compile_commands.json, used
when libclang is importable — CI installs it) and `text` (a self-contained
C++ lexer/indexer, no dependencies — always available). Both produce the
same IR (`ir.py`); every check runs unchanged on either backend.

Exit codes: 0 = clean, 1 = unsuppressed findings, 2 = usage/internal error.
"""

__version__ = "1.0"
