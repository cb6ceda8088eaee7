"""Shared helper for the experiment benches.

Every bench calls its experiment runner through pytest-benchmark (so the
suite doubles as a performance regression harness), prints the regenerated
table and asserts all paper-vs-measured checks.  ``--benchmark-json``
artifacts are stamped with a ``repro_meta`` block (git commit, package
version, timestamp, source fingerprint) so ``repro lab history`` can
order and attribute them across commits.
"""

from __future__ import annotations

from repro.report.experiments import ExperimentResult
from repro.report.tables import render_table


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Stamp the ``--benchmark-json`` artifact with run identity.

    pytest-benchmark's own ``commit_info`` is best-effort (empty under
    shallow CI checkouts); the ``repro_meta`` block is what
    ``repro.obs.history`` keys bench ingestion on.  ``created_at`` is
    the lab's own stamp, so ``lab history`` orders a bench run among
    lab runs of the same second.
    """
    import repro
    from repro.lab.jobs import source_fingerprint
    from repro.lab.store import utc_now
    from repro.obs.history import current_git_commit

    output_json["repro_meta"] = {
        "git_commit": current_git_commit(),
        "package_version": repro.__version__,
        "created_at": utc_now(),
        "source_fingerprint": source_fingerprint(),
    }


def report_and_assert(result: ExperimentResult) -> None:
    """Print the regenerated table and fail on any unmet paper claim."""
    print()
    print(f"== {result.experiment_id}: {result.title}")
    print(render_table(result.headers, result.rows))
    for note in result.notes:
        print(f"note: {note}")
    failures = [check for check in result.checks if not check.passed]
    for check in result.checks:
        status = "ok " if check.passed else "FAIL"
        print(f"[{status}] {check.claim}: expected {check.expected}, "
              f"measured {check.measured}")
    assert not failures, f"{len(failures)} paper claims not reproduced"
