"""Shared benchmark fixtures and reporting helpers.

Every benchmark regenerates one paper artifact (figure or quantitative
claim; see DESIGN.md section 3) and prints the reproduced table/series
so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
reproduction report.  Assertions encode the *shape* each artifact must
have (who wins, by roughly what factor), per the reproduction contract.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--extended",
        action="store_true",
        default=False,
        help="run the extended serving benchmarks too: degraded mode "
        "under faults, wall-clock scaling and multi-tenant co-scheduling "
        "(pick one with -k)",
    )


@pytest.fixture
def extended(request):
    """Gate for the extended benchmarks: opt in with ``--extended``."""
    if not request.config.getoption("--extended"):
        pytest.skip("extended benchmark: enable with --extended")


def report(text):
    """Print a reproduction table with a blank line so pytest -s output
    stays readable; also always echo through capture via sys.stdout."""
    print("\n" + text)


@pytest.fixture(scope="session")
def paper_chip_grid():
    from repro.array import paper_grid

    return paper_grid()


@pytest.fixture(scope="session", autouse=True)
def trace_from_env():
    """Honour ``REPRO_TRACE=path`` for benchmark runs: spans from every
    benchmark stream to the JSONL file, flushed+closed at session end."""
    from repro.observability import tracing

    tracer = tracing.configure_from_env()
    yield tracer
    if tracer is not None:
        tracing.shutdown()
