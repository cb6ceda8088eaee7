"""The source checkout's commit, stamped on every run manifest.

Kept apart from :mod:`repro.obs.history` so that writing a manifest
does not import the history reader.  A process looks the package's
commit up once: every later manifest reads it from the cache, with no
path resolved and no ``git`` started.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

#: Commits by resolved directory; ``None`` keys the package's own.
_COMMIT_CACHE: dict[str | None, str] = {}


def current_git_commit(cwd: str | Path | None = None) -> str:
    """The source checkout's commit hash, or ``""`` outside a repo.

    Prefers ``$GITHUB_SHA`` (set in CI even for shallow checkouts),
    then asks ``git rev-parse`` in ``cwd`` — defaulting to the
    installed ``repro`` package's own directory, so lab runs launched
    from a scratch directory still stamp the commit of the *code* that
    produced them; cached per directory since a process never changes
    commit mid-run.  The package's directory cannot move either, so a
    call without ``cwd`` answers from the cache before resolving any
    path: only the first one pays for ``Path.resolve`` and ``git``.
    """
    env_sha = os.environ.get("GITHUB_SHA", "")
    if env_sha:
        return env_sha
    key = None if cwd is None else str(Path(cwd).resolve())
    if key in _COMMIT_CACHE:
        return _COMMIT_CACHE[key]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent if cwd is None else cwd,
            timeout=10,
            check=False,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    _COMMIT_CACHE[key] = commit
    return commit
