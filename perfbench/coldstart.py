"""Cold start measured from outside the program.

:func:`import_wall_s` times ``import repro.api`` in a fresh
interpreter, start to exit, as a user launching the program pays it.
:func:`import_breakdown_ms` runs the same import under
``python -X importtime`` and reads the cumulative times of ``repro``
itself and of ``scipy.stats`` from the report.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["import_wall_s", "import_breakdown_ms", "parse_importtime", "child_env"]

_IMPORT = "import repro.api"
_TIMEOUT_S = 60


def child_env(src: Path) -> dict[str, str]:
    """The environment of a child interpreter that imports from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def import_wall_s(src: Path) -> float:
    """Wall seconds of a fresh interpreter that only imports ``repro.api``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _IMPORT],
        env=child_env(src),
        check=True,
        capture_output=True,
        timeout=_TIMEOUT_S,
    )
    return time.perf_counter() - start


def import_breakdown_ms(src: Path) -> dict[str, float]:
    """``-X importtime`` cumulative milliseconds of the interesting imports."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _IMPORT],
        env=child_env(src),
        check=True,
        capture_output=True,
        text=True,
        timeout=_TIMEOUT_S,
    )
    return parse_importtime(done.stderr)


def parse_importtime(report: str) -> dict[str, float]:
    """``repro_api_ms``: cumulative time of the top-level ``repro`` and
    ``repro.*`` imports (the whole ``import repro.api`` statement);
    ``scipy_stats_ms``: cumulative time of ``scipy.stats``, wherever
    it is first imported."""
    repro_us = 0
    scipy_us = 0
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        module = name.rstrip()
        depth = (len(module) - len(module.lstrip())) // 2
        module = module.strip()
        if depth == 0 and (module == "repro" or module.startswith("repro.")):
            repro_us += int(cumulative)
        if module == "scipy.stats" and not scipy_us:
            scipy_us = int(cumulative)
    return {"repro_api_ms": repro_us / 1000.0, "scipy_stats_ms": scipy_us / 1000.0}
