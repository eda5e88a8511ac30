"""Lint orchestration: index, run checkers, suppress, baseline, sort."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.index import ModuleIndex, discover_files
from repro.analysis.model import Finding, apply_baseline, load_baseline
from repro.analysis.registry import LintContext, all_checkers

__all__ = ["LintResult", "run_lint"]

#: Repo-root baseline file name (shipped empty: fix, don't baseline).
DEFAULT_BASELINE = "lint-baseline.json"

#: Directories always added to the parse universe when they exist under
#: the root: whole-repo rules (dead code, protocol/metrics coverage)
#: need to see callers outside the linted paths, or a helper used only
#: by tests would be declared dead.
UNIVERSE_DIRS = ("src", "tests", "benchmarks", "examples")


@dataclass
class LintResult:
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    checked_files: int = 0
    #: Physical lines (newline count, as ``wc -l``) of the Python files
    #: under each requested path — the per-PR size trend of ``src/``.
    lines: dict[str, int] = field(default_factory=dict)
    #: Internal errors (unparseable file, checker crash): exit code 2.
    errors: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "counts": {
                "findings": len(self.findings),
                "suppressed": self.suppressed,
                "baselined": self.baselined,
                "checked_files": self.checked_files,
            },
            "lines": self.lines,
            "errors": self.errors,
        }


def run_lint(
    paths: list[str | Path],
    *,
    root: str | Path | None = None,
    rules: list[str] | None = None,
    baseline_path: str | Path | None = None,
) -> LintResult:
    """Run the registered checkers and report findings under ``paths``.

    The parse universe is ``paths`` plus the standard repo directories
    under ``root`` (so cross-module rules see everything); findings are
    reported only for files inside ``paths``.  ``rules`` restricts the
    run to the named checkers; ``baseline_path`` (default: the root's
    ``lint-baseline.json`` when present) forgives known findings.
    """
    result = LintResult()
    root = Path(root) if root is not None else Path.cwd()
    root = root.resolve()
    requested = [Path(p) if Path(p).is_absolute() else root / p for p in paths]
    for path in requested:
        if not path.exists():
            result.errors.append(f"path does not exist: {path}")
            return result
    universe = list(requested)
    for name in UNIVERSE_DIRS:
        extra = root / name
        if extra.is_dir():
            universe.append(extra)
    checkers = all_checkers()
    if rules:
        unknown = [r for r in rules if r not in checkers]
        if unknown:
            known = ", ".join(sorted(checkers))
            result.errors.append(
                f"unknown rule(s) {', '.join(unknown)} — known: {known}"
            )
            return result
        checkers = {name: checkers[name] for name in rules}

    index = ModuleIndex(discover_files(universe), root)
    for rel, message in index.broken:
        result.errors.append(f"failed to parse {rel}: {message}")
    report_rels: set[str] = set()
    for given, path in zip(paths, requested):
        files = {f.resolve() for f in discover_files([path])}
        modules = [m for m in index.modules if m.path in files]
        report_rels.update(m.rel for m in modules)
        result.lines[str(given)] = sum(m.source.count("\n") for m in modules)
    result.checked_files = len(report_rels)

    ctx = LintContext(index)
    raw: list[Finding] = []
    for name, cls in sorted(checkers.items()):
        try:
            raw.extend(cls().check(ctx))
        except Exception as exc:  # noqa: BLE001 — a broken rule is exit 2
            result.errors.append(
                f"checker {name!r} crashed: {type(exc).__name__}: {exc}"
            )

    kept: list[Finding] = []
    for finding in raw:
        if finding.path not in report_rels:
            continue
        module = index.by_rel.get(finding.path)
        if module is not None and module.is_suppressed(
            finding.rule, finding.line
        ):
            result.suppressed += 1
            continue
        kept.append(finding)

    if baseline_path is None:
        default = root / DEFAULT_BASELINE
        baseline_path = default if default.is_file() else None
    if baseline_path is not None:
        try:
            baseline = load_baseline(Path(baseline_path))
        except (OSError, ValueError) as exc:
            result.errors.append(f"bad baseline: {exc}")
            return result
        kept, result.baselined = apply_baseline(kept, baseline)

    result.findings = sorted(kept, key=lambda f: (f.path, f.line, f.rule))
    return result
