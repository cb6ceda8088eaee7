"""Output checks and the statistics digest, shared by every workload.

Each fetched artifact must satisfy the paper's latency bound and the
program's own verdicts; every violation is one failed operation.  The
digest covers only simulated statistics (never host timings), so a
change that speeds up the simulator without changing what it computes
leaves it unchanged.
"""

from __future__ import annotations

import hashlib
import json


def rows_of(record: dict) -> dict:
    """An artifact's ``[metric, value]`` rows as a dict."""
    return {str(row[0]): row[1] for row in record.get("rows", []) if len(row) == 2}


def point_name(record: dict) -> str:
    """The design point's spec name (what the benchmark generated)."""
    try:
        return json.loads(record["config"]["params"]["spec"])["name"]
    except (KeyError, TypeError, ValueError):
        return str(record.get("title", "")).split(":", 1)[0]


def _ports(record: dict) -> int:
    """The memory port count the design point was simulated with."""
    try:
        return int(json.loads(record["config"]["params"]["spec"])["memory"]["ports"])
    except (KeyError, TypeError, ValueError):
        return 1


def check_record(record: dict, config_hash: str) -> list[str]:
    """Violations of one fetched design-point artifact (empty when good)."""
    problems = []
    if record.get("config_hash") != config_hash:
        problems.append(
            f"artifact fetched as {config_hash[:12]} decodes as "
            f"{str(record.get('config_hash'))[:12]}"
        )
    if not record.get("all_passed"):
        problems.append("job reported failed checks")
    rows = rows_of(record)
    latency, minimum = rows.get("latency"), rows.get("minimum_latency")
    if not isinstance(latency, int) or not isinstance(minimum, int):
        problems.append("latency / minimum_latency missing")
        return problems
    if latency < minimum:
        problems.append(f"latency {latency} below the T+L+1 minimum {minimum}")
    if rows.get("drive") == "planner":
        conflict_free = bool(rows.get("conflict_free"))
        # The paper's single-port bound is exact both ways.  With more
        # ports a request can queue behind a module and the access still
        # finish in T+L+1, so only "conflict-free => T+L+1" must hold.
        if _ports(record) == 1:
            holds = conflict_free == (latency == minimum)
        else:
            holds = latency == minimum or not conflict_free
        if not holds:
            problems.append(
                f"conflict_free={conflict_free} but latency {latency} vs "
                f"minimum {minimum} on {_ports(record)} port(s)"
            )
    if "extra:program" in rows and rows.get("extra:numerically_correct") is not True:
        problems.append("program not numerically correct")
    return problems


def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, list):
        return [_canonical(item) for item in value]
    return value


def digest(entries: dict[str, dict]) -> str:
    """SHA-256 over ``{point name: rows}``, floats to 9 significant digits."""
    canonical = {name: _canonical(list(map(list, rows.items()))) for name, rows in entries.items()}
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
