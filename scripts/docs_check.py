#!/usr/bin/env python
"""Documentation consistency check (the Makefile's ``docs-check`` target).

Fails (exit code 1) when the documentation drifts from the code:

* every ``repro.*`` dotted name mentioned in README.md, docs/*.md, or the
  docstrings and comments of ``src/repro/**/*.py`` must resolve to an
  importable module, or to an attribute of one;
* every ``python -m repro.cli <subcommand> --flag ...`` line inside a fenced
  code block must name a real subcommand and real flags — walking *nested*
  subcommand trees (``scenario run``) to the deepest parser, so each flag is
  checked against the parser that actually owns it;
* every repo-relative file path a CLI line references (config files, traces)
  must exist, so cookbook commands keep working as files move;
* every relative file link / path reference checked must exist;
* no generated artefact (compiled bytecode, the ``build/`` output tree,
  obs export files) may be tracked by git — the guard that keeps the PR-0
  cleanup permanent;
* the generated field tables in docs/SPEC.md must match what
  :mod:`repro.spec.docgen` renders from the model declarations — regenerate
  with ``--update-spec`` after changing a spec model.

Run with::

    PYTHONPATH=src python scripts/docs_check.py
"""

from __future__ import annotations

import argparse
import ast
import importlib
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
SOURCE_FILES = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))

DOTTED_NAME = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
FENCED_BLOCK = re.compile(r"```[a-z]*\n(.*?)```", re.DOTALL)
CLI_LINE = re.compile(r"python -m repro\.cli\s+(.*)")
MD_LINK = re.compile(r"\]\(([^)#][^)]*)\)")


def check_dotted_names(text: str, errors: list[str], *, source: str) -> None:
    """Verify every ``repro.*`` dotted name is a module or an attribute of one.

    The longest importable prefix is the module; every later part must then
    resolve as an attribute of the one before, so ``repro.pkg.mod.Class.method``
    checks the class and the method.
    """
    for name in sorted(set(DOTTED_NAME.findall(text))):
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:cut]))
                break
            except ImportError:
                continue
        else:
            errors.append(f"{source}: {name!r} is not an importable module")
            continue
        for index in range(cut, len(parts)):
            if not hasattr(target, parts[index]):
                errors.append(
                    f"{source}: {'.'.join(parts[:index])!r} has no attribute "
                    f"{parts[index]!r} (referenced as {name!r})"
                )
                break
            target = getattr(target, parts[index])


def source_prose(source: str) -> str:
    """The docstrings and comments of one Python source file, joined.

    String literals that are not docstrings are code, not prose, and are
    left out.
    """
    parts = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                parts.append(docstring)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            parts.append(token.string)
    return "\n".join(parts)


def _subparsers_action(parser: argparse.ArgumentParser) -> argparse._SubParsersAction | None:
    """The parser's subcommand action, or None for a leaf parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    return None


def _check_cli_tokens(tokens: list[str], parser: argparse.ArgumentParser,
                      errors: list[str], *, source: str, path: str) -> None:
    """Walk one CLI line down the (possibly nested) subcommand tree."""
    subparsers = _subparsers_action(parser)
    if subparsers is not None:
        if not tokens:
            errors.append(f"{source}: CLI line {path!r} is missing a subcommand")
            return
        subcommand = tokens[0]
        subparser = subparsers.choices.get(subcommand)
        if subparser is None:
            errors.append(
                f"{source}: unknown CLI subcommand {(path + ' ' + subcommand).strip()!r}"
            )
            return
        _check_cli_tokens(tokens[1:], subparser, errors, source=source,
                          path=(path + " " + subcommand).strip())
        return
    known_flags = {
        option for action in parser._actions for option in action.option_strings
    }
    for token in tokens:
        if token.startswith("--"):
            flag = token.split("=", 1)[0]
            if flag not in known_flags:
                errors.append(f"{source}: subcommand {path!r} has no flag {flag!r}")
        elif "/" in token and not token.startswith(("/", "-")):
            # A repo-relative file argument (e.g. a scenario config) must exist;
            # absolute paths (/tmp output files) are runtime artefacts, skipped.
            if not (REPO_ROOT / token).exists():
                errors.append(
                    f"{source}: CLI line {path!r} references missing file {token!r}"
                )


def check_cli_lines(text: str, errors: list[str], *, source: str) -> None:
    """Verify CLI invocations in fenced code blocks against the real parser."""
    from repro.cli import build_parser

    parser = build_parser()
    for block in FENCED_BLOCK.findall(text):
        for match in CLI_LINE.finditer(block):
            tokens = match.group(1).split()
            _check_cli_tokens(tokens, parser, errors, source=source, path="")


def check_links(text: str, errors: list[str], *, source: str, base: Path) -> None:
    """Verify relative markdown links point at files that exist."""
    for target in MD_LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not (base / target).exists():
            errors.append(f"{source}: broken relative link {target!r}")


#: Git pathspecs of machine-generated artefacts that must never be tracked:
#: compiled bytecode, the ``build/`` output tree (obs exports, perf reports),
#: and the export files the obs tooling writes wherever ``--out`` points.
GENERATED_PATHSPECS = [
    "*.pyc", "*.pyo", "*__pycache__*",
    "build/*", "obs-exports/*",
    "*.trace.json", "*.prom.txt", "*.spans.jsonl",
]


def check_no_tracked_artifacts(errors: list[str]) -> None:
    """Fail when git tracks generated artefacts (bytecode, exports, build/).

    These are machine-local run outputs; a tracked one means a commit slipped
    past ``.gitignore`` (as happened before the PR-0 cleanup).  Skipped
    silently when git is unavailable (e.g. a source tarball).
    """
    try:
        listing = subprocess.run(
            ["git", "ls-files", "--", *GENERATED_PATHSPECS],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return
    if listing.returncode != 0:
        return
    for path in listing.stdout.splitlines():
        if path:
            errors.append(f"generated artefact is tracked by git: {path!r}")


def check_spec_tables(errors: list[str]) -> None:
    """Fail when docs/SPEC.md's generated tables drift from the spec models."""
    from repro.spec.docgen import render_spec_doc

    spec_doc = REPO_ROOT / "docs" / "SPEC.md"
    if not spec_doc.exists():
        return  # reported as a missing DOC_FILES entry already
    current = spec_doc.read_text(encoding="utf-8")
    try:
        expected = render_spec_doc(current)
    except ValueError as exc:
        errors.append(f"docs/SPEC.md: {exc}")
        return
    if current != expected:
        errors.append(
            "docs/SPEC.md: generated spec tables are out of date — run "
            "`PYTHONPATH=src python scripts/docs_check.py --update-spec`"
        )


def update_spec_tables() -> int:
    """Regenerate docs/SPEC.md's tables in place (the ``--update-spec`` mode)."""
    from repro.spec.docgen import render_spec_doc

    spec_doc = REPO_ROOT / "docs" / "SPEC.md"
    current = spec_doc.read_text(encoding="utf-8")
    updated = render_spec_doc(current)
    if updated == current:
        print("docs-check: docs/SPEC.md already up to date")
        return 0
    spec_doc.write_text(updated, encoding="utf-8")
    print("docs-check: regenerated spec tables in docs/SPEC.md")
    return 0


def main(argv: list[str] | None = None) -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--update-spec", action="store_true",
                     help="regenerate docs/SPEC.md's field tables and exit")
    args = cli.parse_args(argv)
    if args.update_spec:
        return update_spec_tables()

    errors: list[str] = []
    checked = 0
    check_no_tracked_artifacts(errors)
    check_spec_tables(errors)
    for path in DOC_FILES:
        if not path.exists():
            errors.append(f"missing documentation file: {path.relative_to(REPO_ROOT)}")
            continue
        text = path.read_text(encoding="utf-8")
        source = str(path.relative_to(REPO_ROOT))
        check_dotted_names(text, errors, source=source)
        check_cli_lines(text, errors, source=source)
        check_links(text, errors, source=source, base=path.parent)
        checked += 1
    for path in SOURCE_FILES:
        source = str(path.relative_to(REPO_ROOT))
        check_dotted_names(source_prose(path.read_text(encoding="utf-8")),
                           errors, source=source)
        checked += 1
    if errors:
        print(f"docs-check: {len(errors)} problem(s) found:", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print(f"docs-check: OK ({checked} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
