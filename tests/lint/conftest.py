"""Fixtures for the linter tests: snippet -> findings."""

import textwrap

import pytest

from repro.lint.engine import lint_paths


@pytest.fixture
def lint_tree(tmp_path):
    """Write files under a fake ``src/repro`` tree and lint them together.

    ``files`` maps package-relative paths (``"world/a.py"``) to source;
    one ``lint_paths`` call over the whole tree gives the project rules
    a real import graph, so cross-file taint and layering can be
    exercised without touching the shipped sources.
    """

    def run(files, rules=None, baseline_path=None):
        root = tmp_path / "src" / "repro"
        for relpath, source in files.items():
            target = root / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        return lint_paths(
            [str(root)], rules=rules, baseline_path=baseline_path
        )

    return run


@pytest.fixture
def lint_snippet(tmp_path):
    """Write a snippet at a package-relative path and lint it.

    The default location (``src/repro/world/snippet.py``) puts the
    snippet inside the path scope of every rule, including the
    ``world/``-only DET004 and the engine-package DET003.
    """

    def run(source, relpath="src/repro/world/snippet.py", rules=None):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
        return lint_paths([str(target)], rules=rules)

    return run


@pytest.fixture
def findings_of(lint_snippet):
    """Like lint_snippet but returns just the findings list."""

    def run(source, **kwargs):
        return lint_snippet(source, **kwargs).findings

    return run
