"""Set-up probe: import the pipeline, load the config, build the inputs.

    python3 bench/probe.py --workload jump --seed 0

Prints one JSON line {"import_s": ..., "config_s": ...} once the
pipeline is ready, then exits. run.py starts it several times and
times each start from before the interpreter launches to that line.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy  # noqa: F401
    import scipy.interpolate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import workloads
    imported = time.perf_counter()
    workloads.prepare(args.workload, args.seed)
    ready = time.perf_counter()
    print(json.dumps({"import_s": imported - _START,
                      "config_s": ready - imported}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
