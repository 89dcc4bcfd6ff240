"""Time importing ``repro`` and building one workload's specs.

Run in a fresh interpreter by ``common.setup_seconds``::

    python3 perfbench/setup_probe.py ROOT WORKLOAD SEED

Prints ``{"setup_s": ...}``; interpreter start-up is not part of the time.
"""

import time

START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, str(Path(root) / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro  # noqa: F401
    from common import WORKLOAD_MODULES

    importlib.import_module(WORKLOAD_MODULES[workload]).build_specs(seed)
    print(json.dumps({"setup_s": time.perf_counter() - START}))


if __name__ == "__main__":
    main()
