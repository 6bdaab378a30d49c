"""Stdlib-only AST lint for the repository.

Not a style checker -- every rule here targets a class of bug that has no
other automated guard in this repo:

* ``E9``  syntax errors (file does not parse at all)
* ``F401`` unused module-level import (dead dependency edges; skipped in
  ``__init__.py`` where imports *are* the re-export surface)
* ``F811`` duplicate def/class in one scope -- the classic silently-lost
  test when two tests share a name
* ``T100`` forgotten debugger hooks (``breakpoint()``, ``pdb.set_trace``)
* ``W191`` tab indentation, ``W291`` trailing whitespace, ``W292`` missing
  final newline (``--fix`` rewrites these three in place)
* ``E501`` line longer than ``MAX_LINE`` characters
* ``H100`` ``dataclasses.fields()`` inside a function under the hot-path
  packages (``src/repro/{core,hardware,sim}``) -- reflection there once
  cost a double-digit share of every attribution sample; cold paths go on
  the explicit allowlist instead
* ``H101`` list/dict comprehension inside a function whose ``def`` line
  carries a ``# hot-path`` marker -- each comprehension allocates a fresh
  container per sample on paths that run per context switch / overflow;
  hot functions use preallocated buffers and explicit loops instead
* ``H200`` ``hashlib`` imported under ``src/repro`` outside
  ``repro/fingerprint.py`` -- every run/report digest goes through its one
  encoder and hash; the seed-derivation and byte-integrity files that pin
  bytes rather than values sit on an explicit allowlist

Run:  ``python -m ci lint [--fix]``
"""

from __future__ import annotations

import ast
import os
from ci.report import Finding

MAX_LINE = 120

#: Directories never scanned.
SKIP_DIRS = {
    "__pycache__", ".git", ".hypothesis", ".pytest_cache", ".benchmarks",
    "build", "dist", "results",
}

#: Decorators that make re-definition intentional.
_REDEF_OK_DECORATORS = {"overload", "setter", "getter", "deleter", "register"}

#: Packages whose functions run on the per-sample/per-event hot path, where
#: ``dataclasses.fields()`` reflection is a measurable per-call cost (H100).
_HOT_PATH_PREFIXES = tuple(
    os.path.join("src", "repro", pkg) + os.sep
    for pkg in ("core", "hardware", "sim")
)

#: ``(relpath, function_name)`` pairs allowed to call ``dataclasses.fields``
#: because they are cold paths (setup, reporting -- run per experiment, not
#: per sample).  Additions need a comment saying why the path is cold.
_FIELDS_ALLOWLIST: set[tuple[str, str]] = set()


#: Files under ``src/repro`` allowed to import ``hashlib`` (H200).  Digests
#: of values go through ``repro.fingerprint``; the others pin exact bytes,
#: so a value-canonical encoding is the wrong tool for them.
_HASHLIB_ALLOWLIST = {
    # The one value-canonical encoder, hash and chain.
    "src/repro/fingerprint.py",
    # Seed derivation: pinned values that drive every random stream.
    "src/repro/sim/rng.py",
    "src/repro/analysis/parallel.py",
    "src/repro/shard/transport.py",
    # Byte integrity: checkpoint payload and file-header digests.
    "src/repro/checkpoint/state.py",
    "src/repro/checkpoint/manager.py",
}


def iter_python_files(root: str) -> list[str]:
    """Every tracked-looking ``.py`` file under ``root``, sorted."""
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames
            if d not in SKIP_DIRS and not d.endswith(".egg-info")
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                out.append(os.path.join(dirpath, name))
    return out


def _decorator_names(node: ast.AST) -> set[str]:
    names = set()
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _check_redefinitions(tree: ast.Module, relpath: str) -> list[Finding]:
    """F811: two defs with one name in the same scope."""
    findings = []
    scopes = [tree] + [
        n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
    ]
    for scope in scopes:
        seen: dict[str, int] = {}
        for node in scope.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if _decorator_names(node) & _REDEF_OK_DECORATORS:
                continue
            if node.name in seen:
                findings.append(Finding(
                    relpath, node.lineno, "F811",
                    f"redefinition of {node.name!r} "
                    f"(first defined at line {seen[node.name]}) -- "
                    "the earlier definition is silently shadowed",
                ))
            seen[node.name] = node.lineno
    return findings


def _check_unused_imports(tree: ast.Module, relpath: str) -> list[Finding]:
    """F401 on module-level imports (conservative: any textual use counts)."""
    imported: dict[str, tuple[int, str]] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = (node.lineno, alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imported[bound] = (node.lineno, alias.name)
    if not imported:
        return []

    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # `import a.b; a.b.c` -- the Name root is covered above.
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Forward-reference annotations and __all__ entries.
            if node.value.isidentifier():
                used.add(node.value)
            else:
                for part in node.value.replace(".", " ").split():
                    if part.isidentifier():
                        used.add(part)

    findings = []
    for bound, (lineno, target) in sorted(imported.items()):
        if bound not in used:
            findings.append(Finding(
                relpath, lineno, "F401", f"{target!r} imported but unused",
            ))
    return findings


def _check_debugger(tree: ast.Module, relpath: str) -> list[Finding]:
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "breakpoint":
                findings.append(Finding(
                    relpath, node.lineno, "T100", "breakpoint() left in code",
                ))
            elif (
                isinstance(fn, ast.Attribute) and fn.attr == "set_trace"
                and isinstance(fn.value, ast.Name)
                and fn.value.id in ("pdb", "ipdb")
            ):
                findings.append(Finding(
                    relpath, node.lineno, "T100",
                    f"{fn.value.id}.set_trace() left in code",
                ))
    return findings


def _is_fields_call(node: ast.Call, fields_aliases: set[str]) -> bool:
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id in fields_aliases
    return (
        isinstance(fn, ast.Attribute)
        and fn.attr == "fields"
        and isinstance(fn.value, ast.Name)
        and fn.value.id == "dataclasses"
    )


def _check_hot_reflection(tree: ast.Module, relpath: str) -> list[Finding]:
    """H100: ``dataclasses.fields()`` inside a hot-path function."""
    if not relpath.startswith(_HOT_PATH_PREFIXES):
        return []
    # Names that ``dataclasses.fields`` is bound to in this module.
    fields_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            for alias in node.names:
                if alias.name == "fields":
                    fields_aliases.add(alias.asname or alias.name)
    findings = []
    reported: set[int] = set()  # call ids (nested defs are walked twice)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (relpath, func.name) in _FIELDS_ALLOWLIST:
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and id(node) not in reported
                and _is_fields_call(node, fields_aliases)
            ):
                reported.add(id(node))
                findings.append(Finding(
                    relpath, node.lineno, "H100",
                    f"dataclasses.fields() inside {func.name!r} -- "
                    "reflection on the attribution hot path; precompute "
                    "the field tuple at class/module level, or allowlist "
                    "the function in ci/lint.py if the path is cold",
                ))
    return findings


def _check_hashlib(tree: ast.Module, relpath: str) -> list[Finding]:
    """H200: ``hashlib`` imported under ``src/repro`` off the allowlist."""
    posix = relpath.replace(os.sep, "/")
    if not posix.startswith("src/repro/") or posix in _HASHLIB_ALLOWLIST:
        return []
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "hashlib" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "hashlib"
        else:
            continue
        if hit:
            findings.append(Finding(
                relpath, node.lineno, "H200",
                "hashlib imported outside repro/fingerprint.py -- digest "
                "values with repro.fingerprint.digest/chain, or allowlist "
                "the file in ci/lint.py if it pins bytes (seeds, integrity)",
            ))
    return findings


#: The marker that opts a function into the H101 comprehension ban.  It
#: lives in a comment, so the check reads the ``def`` source line -- the
#: AST does not carry comments.
_HOT_PATH_MARKER = "# hot-path"


def _check_hot_comprehensions(
    tree: ast.Module, lines: list[str], relpath: str
) -> list[Finding]:
    """H101: list/dict comprehension inside a ``# hot-path`` function."""
    findings = []
    reported: set[int] = set()  # node ids (nested defs are walked twice)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if func.lineno > len(lines):
            continue
        if _HOT_PATH_MARKER not in lines[func.lineno - 1]:
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, (ast.ListComp, ast.DictComp))
                and id(node) not in reported
            ):
                reported.add(id(node))
                kind = "list" if isinstance(node, ast.ListComp) else "dict"
                findings.append(Finding(
                    relpath, node.lineno, "H101",
                    f"{kind} comprehension inside hot-path function "
                    f"{func.name!r} -- allocates a fresh container per "
                    "sample; use a preallocated buffer or an explicit loop",
                ))
    return findings


def _check_text(source: str, relpath: str) -> list[Finding]:
    findings = []
    lines = source.splitlines()
    for i, line in enumerate(lines, start=1):
        stripped = line.rstrip("\n")
        indent = stripped[: len(stripped) - len(stripped.lstrip())]
        if "\t" in indent:
            findings.append(Finding(relpath, i, "W191", "tab in indentation"))
        if stripped != stripped.rstrip():
            findings.append(Finding(relpath, i, "W291", "trailing whitespace"))
        if len(stripped) > MAX_LINE:
            findings.append(Finding(
                relpath, i, "E501",
                f"line too long ({len(stripped)} > {MAX_LINE})",
            ))
    if source and not source.endswith("\n"):
        findings.append(Finding(
            relpath, len(lines), "W292", "no newline at end of file",
        ))
    return findings


def _fix_text(source: str) -> str:
    """Rewrite the W191/W291/W292 classes; leave everything else alone."""
    fixed_lines = []
    for line in source.splitlines():
        stripped = line.rstrip()
        indent = stripped[: len(stripped) - len(stripped.lstrip())]
        if "\t" in indent:
            stripped = indent.replace("\t", "    ") + stripped.lstrip()
        fixed_lines.append(stripped)
    return "\n".join(fixed_lines) + "\n" if fixed_lines else source


def lint_file(path: str, root: str, fix: bool = False) -> list[Finding]:
    """All findings for one file (optionally auto-fixing whitespace)."""
    relpath = os.path.relpath(path, root)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()

    findings = _check_text(source, relpath)
    if fix and any(f.code in ("W191", "W291", "W292") for f in findings):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_fix_text(source))
        findings = [
            f for f in findings if f.code not in ("W191", "W291", "W292")
        ]

    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        findings.append(Finding(
            relpath, exc.lineno or 1, "E9", f"syntax error: {exc.msg}",
        ))
        return findings

    findings.extend(_check_redefinitions(tree, relpath))
    findings.extend(_check_debugger(tree, relpath))
    findings.extend(_check_hot_reflection(tree, relpath))
    findings.extend(_check_hashlib(tree, relpath))
    findings.extend(_check_hot_comprehensions(
        tree, source.splitlines(), relpath
    ))
    if os.path.basename(path) != "__init__.py":
        findings.extend(_check_unused_imports(tree, relpath))
    return sorted(findings, key=lambda f: (f.path, f.line, f.code))


def run_lint(root: str, fix: bool = False):
    """Lane entry point -> (ok, findings, detail)."""
    findings = []
    files = iter_python_files(root)
    for path in files:
        findings.extend(lint_file(path, root, fix=fix))
    return not findings, findings, f"{len(files)} files"
