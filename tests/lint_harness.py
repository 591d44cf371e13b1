"""Fixture helpers shared by the repro.lint test files.

Every fixture goes through the linter's single entry point,
:func:`repro.lint.lint`: snippets and fixture packages are written to
disk first, exactly as a real tree would be read.
"""

import os
import shutil
import tempfile
import textwrap

from repro.lint import RULES_BY_CODE, lint, select_rules
from repro.lint.program import build_program
from repro.lint.source import SourceModule

SRC_REPRO = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
REPO_SRC = os.path.abspath(os.path.join(SRC_REPRO, ".."))


def codes(violations):
    return [v.code for v in violations]


def rules(code):
    return [RULES_BY_CODE[code]]


def run(snippet, select=None, path="fixture.py"):
    """Lint one dedented snippet saved as ``path`` in a scratch directory.

    ``select`` names one rule code; every rule runs when it is None.
    """
    with tempfile.TemporaryDirectory() as scratch:
        target = os.path.join(scratch, path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(textwrap.dedent(snippet))
        return lint([target], select_rules([select]) if select else None)


def _program_from(tmp_path, files):
    """Write ``{relpath: source}`` under ``tmp_path``; return its Program."""
    sources = []
    for relpath, text in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
        sources.append(
            SourceModule.parse(textwrap.dedent(text), path=str(path))
        )
    return build_program(sources)


def _mutated_tree(tmp_path, relpath, mutate):
    """Copy src/repro and apply ``mutate`` to one file's text."""
    root = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, root)
    target = root / relpath
    target.write_text(mutate(target.read_text()))
    return str(tmp_path)
