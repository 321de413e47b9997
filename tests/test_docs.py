"""The docs site is tested: links resolve, registries are documented.

Two guarantees, both cheap enough for tier-1:

* every relative markdown link in ``README.md`` and ``docs/`` points at a
  file that exists (and, for ``#fragment`` links, at a heading that exists —
  GitHub-style slugs);
* every backend registered in ``repro.api.BACKENDS``, every algorithm name
  in ``repro.collectives.ALGORITHM_CHOICES``, every orchestration baseline in
  ``repro.workloads.backends.ORCHESTRATORS`` and every metric declared in
  ``repro.obs.METRIC_NAMES`` is mentioned in its docs page, so extending a
  registry without documenting the new name fails CI.
"""

import re
from pathlib import Path

import pytest

from repro.api import BACKENDS
from repro.collectives import ALGORITHM_CHOICES
from repro.obs import METRIC_NAMES
from repro.workloads.backends import ORCHESTRATORS, coordination_cost

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")])

#: ``[text](target)`` — inline markdown links. Images and reference-style
#: links are not used in this repo's docs.
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _strip_code_blocks(text):
    """Drop fenced code blocks so example snippets are not scanned for links."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def _github_slug(heading):
    """GitHub's anchor slug for a heading: lowercase, punctuation dropped."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*]", "", slug)  # inline formatting markers
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _anchors(markdown_path):
    text = markdown_path.read_text(encoding="utf-8")
    return {_github_slug(match) for match in _HEADING.findall(_strip_code_blocks(text))}


def _relative_links(markdown_path):
    text = _strip_code_blocks(markdown_path.read_text(encoding="utf-8"))
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    """Every relative link in the docs points at an existing file + heading."""
    for target in _relative_links(doc):
        path_part, _, fragment = target.partition("#")
        linked = (doc.parent / path_part).resolve() if path_part else doc
        assert linked.exists(), f"{doc.name}: broken link {target!r}"
        if fragment:
            assert linked.suffix == ".md", (
                f"{doc.name}: fragment link into non-markdown {target!r}")
            assert fragment in _anchors(linked), (
                f"{doc.name}: no heading {fragment!r} in {linked.name} "
                f"(have {sorted(_anchors(linked))})")


def test_docs_directory_is_nonempty():
    assert any(path.name != "README.md" for path in DOC_FILES)


def test_every_backend_documented():
    """Each name in the backend registry appears in docs/algorithms.md.

    Test suites may plug in throwaway backends via ``register_backend`` (the
    fuzzer's negative test does); the documentation contract only covers
    backends whose factory ships in the ``repro`` package.
    """
    text = (REPO_ROOT / "docs" / "algorithms.md").read_text(encoding="utf-8")
    shipped = [name for name, factory in BACKENDS.items()
               if getattr(factory, "__module__", "").startswith("repro.")]
    assert shipped, "backend registry is empty?"
    for name in shipped:
        assert f"`{name}`" in text, (
            f"backend {name!r} is registered but not documented in "
            f"docs/algorithms.md")


def test_every_orchestrator_documented():
    """Each baseline ``coordination_cost`` accepts appears in
    docs/architecture.md."""
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    assert ORCHESTRATORS, "orchestrator table is empty?"
    for name in ORCHESTRATORS:
        coordination_cost(name, world_size=8, num_collectives=4)
        assert f"`{name}`" in text, (
            f"orchestrator {name!r} is accepted but not documented in "
            f"docs/architecture.md")


def test_every_algorithm_documented():
    """Each name the algorithm knob accepts appears in docs/algorithms.md."""
    text = (REPO_ROOT / "docs" / "algorithms.md").read_text(encoding="utf-8")
    for name in ALGORITHM_CHOICES:
        assert f"`{name}`" in text, (
            f"algorithm {name!r} is accepted but not documented in "
            f"docs/algorithms.md")


def test_every_metric_documented():
    """Each declared metric name appears in docs/observability.md."""
    text = (REPO_ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    assert METRIC_NAMES, "metric registry is empty?"
    for name in METRIC_NAMES:
        assert f"`{name}`" in text, (
            f"metric {name!r} is declared but not documented in "
            f"docs/observability.md")
