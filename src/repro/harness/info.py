"""``python -m repro info`` — environment, defaults, and registries.

One screen answering "what will run, from where, with what": package and
interpreter versions, the default seed/scale/jobs, the artifact cache
location and occupancy, the resolved Eq. 4 kernel backend, and the
registered workloads, experiments and subcommands.  ``--json`` emits
the same data machine-readably (used by bug reports and CI logs).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Any, Dict, List, Optional

from repro.cache import CacheConfigError
from repro.harness.cliutil import EXIT_OK

__all__ = ["collect_info", "cli"]


def collect_info() -> Dict[str, Any]:
    """Gather the info payload (plain JSON-serializable data)."""
    import numpy as np

    import repro
    from repro.__main__ import SUBCOMMANDS
    from repro.cache import get_cache
    from repro.harness import runner
    from repro.perf.kernels import backend_info
    from repro.workloads import WORKLOADS

    cache = get_cache()
    entries = cache._entries()
    return {
        "version": repro.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "defaults": {"seed": 0, "scale": 0.12, "jobs": 1},
        "cache": {
            "dir": str(cache.root),
            "enabled": bool(cache.enabled),
            "entries": len(entries),
            "size_bytes": int(cache.size_bytes()),
            "max_bytes": int(cache.max_bytes),
        },
        "workloads": sorted(WORKLOADS),
        "experiments": sorted(runner.EXPERIMENTS),
        "kernels": backend_info(),
        # 'list', 'run' and 'all' ride the default parser.
        "subcommands": ["list", "run", "all", *SUBCOMMANDS],
    }


def _render(info: Dict[str, Any]) -> str:
    cache = info["cache"]
    kernels = info["kernels"]
    lines = [
        f"repro {info['version']}  "
        f"(python {info['python']}, numpy {info['numpy']})",
        f"platform   : {info['platform']}",
        f"defaults   : seed={info['defaults']['seed']} "
        f"scale={info['defaults']['scale']} jobs={info['defaults']['jobs']}",
        f"cache      : {cache['dir']} "
        f"({'enabled' if cache['enabled'] else 'disabled'}, "
        f"{cache['entries']} entries, "
        f"{cache['size_bytes'] / (1 << 20):.1f} MiB of "
        f"{cache['max_bytes'] / (1 << 20):.0f} MiB)",
        f"kernels    : {kernels['kernels']}"
        + (f" ({kernels['cc']})" if kernels["cc"] else ""),
        f"subcommands: {' '.join(info['subcommands'])}",
        f"experiments: {' '.join(info['experiments'])}",
        f"workloads  : {' '.join(info['workloads'])}",
    ]
    return "\n".join(lines)


def cli(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro info",
        description="Show environment, defaults, cache state and the "
                    "registered workloads/experiments.")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    args = parser.parse_args(argv)

    try:
        info = collect_info()
    except CacheConfigError as exc:
        parser.error(str(exc))
    if args.json:
        json.dump(info, sys.stdout, sort_keys=True, indent=1)
        sys.stdout.write("\n")
    else:
        print(_render(info))
    return EXIT_OK
