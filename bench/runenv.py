"""Process set-up shared by the runner and the set-up probe.

Importing this module imports nothing heavy, so ``pin_threads`` can run
before numpy is loaded.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One thread everywhere: the machine this was sized on has two cores, and
# the package's own thread pool is bypassed by leaving CRANBOUNDS_THREADS unset.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class SourceMissing(RuntimeError):
    pass


def pin_threads():
    os.environ.pop("CRANBOUNDS_THREADS", None)
    os.environ.update(PINNED)


def use_checkout_sources():
    """Import cranbounds from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cranbounds" / "__init__.py").is_file():
        raise SourceMissing(f"no cranbounds sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cranbounds

    if Path(cranbounds.__file__).resolve().parent != SRC / "cranbounds":
        raise SourceMissing(f"cranbounds imported from {cranbounds.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in PINNED},
        "CRANBOUNDS_THREADS": os.environ.get("CRANBOUNDS_THREADS"),
        "seed": seed,
    }
