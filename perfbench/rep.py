"""One repetition of one workload part, in a fresh interpreter.

``run.py`` starts this script once per repetition so that process-wide
memos (text caches, kernel caches, world chunk caches) start cold, as
they do for a user running the CLI.  It prints one JSON object as the
last line of standard output.

    python3 perfbench/rep.py --part study --seed 2016 --trace 0
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--part", required=True,
                        choices=sorted(workloads.PARTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parity", action="store_true",
                        help="also run the costly brute-force parity check")
    parser.add_argument("--trace-out", type=Path,
                        help="where a traced repetition writes its spans")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    result = workloads.PARTS[args.part](
        args.seed, START, tracer=tracer, parity=args.parity)

    import numpy

    result["env"] = {"python": platform.python_version(),
                     "numpy": numpy.__version__,
                     "blas_threads": blas_threads()}
    if tracer is not None:
        result["layers"]["trace.spans"] = len(tracer.spans)
        if args.trace_out is not None:
            tracer.write(args.trace_out, extra={
                "part": args.part, "seed": args.seed,
                "layers": result["layers"], "env": result["env"]})
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
