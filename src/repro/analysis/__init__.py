"""Project-invariant static analysis (`repro lint`).

A stdlib-``ast`` checker framework that machine-checks the invariants
the rest of the codebase only promises in prose: zero-copy scanning on
the hot path, batched-only backend probes, a blocking-call-free asyncio
service, lock-ordered shared cache state, exhaustive wire-protocol
dispatch, and metrics counters that actually reach the snapshot.

Layout:

* :mod:`repro.analysis.index` — one shared parse of every source file
  (AST + suppression comments), built once per run.
* :mod:`repro.analysis.graph` — a lightweight name-reference graph over
  the parsed universe (definitions, ``Name``/``Attribute`` references,
  ``__all__`` exports) that keeps whole-repo rules O(repo).
* :mod:`repro.analysis.registry` — the checker plugin registry; a new
  rule is a ~50-line :class:`~repro.analysis.registry.Checker`
  subclass decorated with ``@register``.
* :mod:`repro.analysis.rules_core` / ``rules_service`` /
  ``rules_deadcode`` — the shipped rules.
* :mod:`repro.analysis.runner` — orchestration: build index, run
  checkers, apply suppressions + baseline, sort findings.

Suppression syntax — on the offending line or the line above::

    data = bytes(view)  # repro: lint-ok[zero-copy] materialization API

``lint-ok[*]`` silences every rule for that line.  The baseline file
(``lint-baseline.json`` at the repo root, a JSON list of
``{"rule", "path", "message"}`` objects) grandfathers findings without
touching the source; CI fails on anything not in it.  The shipped
baseline is empty — violations get fixed, not baselined away.
"""

from repro.analysis.model import Finding
from repro.analysis.runner import LintResult, run_lint

__all__ = ["Finding", "LintResult", "run_lint"]
