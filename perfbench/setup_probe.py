"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload module> <seed>

Set-up is what the program does before it computes anything: importing
the modules the workload drives, the result cache and the slice
fingerprints of its entry points where the workload uses the cache,
and task planning.  Prints ``{"setup_s": ...}``.
"""

import time

_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    module, seed = sys.argv[1], int(sys.argv[2])
    importlib.import_module(module).Workload(seed).setup()
    print(json.dumps({"setup_s": time.perf_counter() - _START}))


if __name__ == "__main__":
    main()
