#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from every experiment runner.

Usage::

    python benchmarks/run_all.py [output-path]

Runs all experiments (E01..E16) through the ``repro.lab`` orchestration
subsystem — in parallel, with content-addressed result caching under
the lab root (``$REPRO_LAB_ROOT`` or ``.repro-lab``) — and writes a
Markdown report with every regenerated table and its paper-vs-measured
checks.  A warm cache makes re-generation near-instant; pass
``--force`` to re-simulate everything from scratch.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.lab import (
    ArtifactStore,
    EXPERIMENT_KIND,
    build_registry,
    default_lab_root,
    render_experiments_markdown,
    run_jobs,
)


def main(
    output: str,
    *,
    lab_root: str | None = None,
    workers: int | None = None,
    force: bool = False,
) -> int:
    specs = [
        spec
        for spec in build_registry().values()
        if spec.kind == EXPERIMENT_KIND
    ]
    with ArtifactStore(lab_root or default_lab_root()) as store:
        report = run_jobs(
            specs, store=store, workers=workers, force=force, progress=print
        )
    Path(output).write_text(
        render_experiments_markdown(
            [outcome.record for outcome in report.outcomes]
        )
    )
    print(f"wrote {output}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes"
    )
    parser.add_argument(
        "--force", action="store_true", help="ignore cached artifacts"
    )
    parser.add_argument("--lab-root", default=None)
    args = parser.parse_args()
    raise SystemExit(
        main(
            args.output,
            lab_root=args.lab_root,
            workers=args.jobs,
            force=args.force,
        )
    )
