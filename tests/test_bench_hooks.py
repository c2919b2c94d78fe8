"""The benchmark's per-layer wrappers patch program attributes by name
(``hybbench/layers.py``).  Installing them here makes a renamed or deleted
attribute fail the tests, not only a later traced benchmark run."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "hybbench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import spans  # noqa: E402

import hybnet.aaf_search  # noqa: E402


def test_every_name_the_benchmark_patches_resolves_and_is_restored():
    original = hybnet.aaf_search.collapse_chain
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        assert hybnet.aaf_search.collapse_chain is not original
    finally:
        tracer.uninstall()
    assert hybnet.aaf_search.collapse_chain is original
