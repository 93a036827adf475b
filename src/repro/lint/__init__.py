"""``repro lint`` — the repo's AST-based invariant linter.

The reproduction's credibility rests on invariants that are otherwise
enforced only dynamically: bit-reproducibility from seeded
:mod:`repro.utils.rng` streams, registry kwarg contracts, process-pool
picklability and crash semantics, and batched/serial equivalence
advertisement.  This package checks them *statically* — at review time
instead of as a flaky sweep three PRs later — via seven rule families:

* **REP1xx determinism** — legacy ``np.random`` module-state calls,
  unseeded ``default_rng()``, stdlib ``random``, wall-clock/OS-entropy
  reads and unordered-set iteration inside cache-key/signature
  functions;
* **REP2xx registry/spec contracts** — registration metadata consistent
  with factory signatures, golden specs naming only registered
  components;
* **REP3xx executor safety** — process-pool entries must be
  module-level and closure-free, broad ``except`` clauses must re-raise
  or carry a pragma, worker entry points must not rebind parent-shared
  module globals;
* **REP4xx equivalence coverage** — components advertising
  ``supports_batched_clients`` and every ``ExecutorBackend`` must
  appear in the any-two-paths-agree test parametrization;
* **REP5xx seed provenance** (whole-program) — every generator sink's
  seed must derive from a spec-owned seed field or a parameter fed by
  one: literal seeds, wall-clock seeds and seed-dropping call chains
  are flagged via interprocedural dataflow
  (:mod:`repro.lint.dataflow`);
* **REP6xx cache-key soundness** (whole-program) — a content-keyed
  cache site's computation must not read config values its key payload
  omits, and ``content_key`` payloads must not contain run-volatile
  values;
* **REP7xx scheduler races** (whole-program) — shared attributes are
  lock-guarded consistently or single-writer; thread-reachable code
  must not write attributes bare; no blocking calls under a lock.

A finding is suppressed by a pragma carrying a reason::

    except Exception:  # repro: allow[REP302] recovery path, see docstring

Findings, rules, the program graph and the runner are exposed here for
programmatic use; the CLI lives in :mod:`repro.lint.cli`
(``repro lint``).
"""

from repro.lint.baseline import (
    BASELINE_SCHEMA_VERSION,
    BaselineError,
    filter_findings,
    load_baseline,
    write_baseline,
)
from repro.lint.dataflow import DataflowAnalysis
from repro.lint.findings import Finding, Pragma, parse_pragmas
from repro.lint.program import ProgramGraph, ProgramRule
from repro.lint.report import REPORT_SCHEMA_VERSION, render_json, render_text
from repro.lint.rules import (
    ALL_RULES,
    FILE_RULES,
    PROGRAM_RULES,
    PROJECT_RULES,
    rule_catalog,
)
from repro.lint.runner import (
    LintError,
    expand_selectors,
    lint_paths,
    lint_program_sources,
    lint_project,
    lint_source,
    normalize_path,
    run_lint,
)

__all__ = [
    "ALL_RULES",
    "BASELINE_SCHEMA_VERSION",
    "BaselineError",
    "DataflowAnalysis",
    "FILE_RULES",
    "Finding",
    "LintError",
    "PROGRAM_RULES",
    "PROJECT_RULES",
    "Pragma",
    "ProgramGraph",
    "ProgramRule",
    "REPORT_SCHEMA_VERSION",
    "expand_selectors",
    "filter_findings",
    "lint_paths",
    "lint_program_sources",
    "lint_project",
    "lint_source",
    "load_baseline",
    "normalize_path",
    "parse_pragmas",
    "render_json",
    "render_text",
    "rule_catalog",
    "run_lint",
    "write_baseline",
]
