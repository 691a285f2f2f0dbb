"""One workload process: runs timed passes and prints one JSON result.

Started by run.py, one process at a time, so that its peak resident
memory is the workload's own.  With ``--probe`` it instead reports the
set-up time of a fresh process: the CPU time from interpreter start to
the end of the workload's first call, which includes importing
holonoise.
"""
import argparse
import contextlib
import hashlib
import itertools
import json
import resource
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 3  # a median needs a few samples, however long a pass takes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    workloads.import_holonoise(ROOT)
    work = workloads.Workload(args.workload, workloads.pass_seed(args.seed, 0, 1), args.quick)
    work.first_call()
    if args.probe:
        print(json.dumps({"setup_s": time.process_time()}))
        return 0

    from tracer import Tracer

    # Passes until the time is up and every input set has run once.  With
    # --trace 1 each untraced pass is followed by a traced pass over the
    # same inputs.
    min_passes = 1 if args.quick else max(MIN_PASSES, work.input_sets)
    passes, outputs = [], {}
    begin = time.perf_counter()
    for index in itertools.count():
        if index >= min_passes and time.perf_counter() - begin >= args.seconds:
            break
        seed = workloads.pass_seed(args.seed, index, work.input_sets)
        work = workloads.Workload(args.workload, seed, args.quick)
        for traced in (False, True) if args.trace else (False,):
            tracer = Tracer()
            with tracer if traced else contextlib.nullcontext():
                start, cpu_start = time.perf_counter(), time.process_time()
                result = work.run_pass()
                wall_s, cpu_s = time.perf_counter() - start, time.process_time() - cpu_start
            digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
            outputs.setdefault(digest, result)
            passes.append({"seed": work.seed, "items": work.items, "digest": digest, "traced": traced,
                           "wall_s": wall_s, "cpu_s": cpu_s,
                           "layers": tracer.stats() if traced else None})
    print(json.dumps({
        "passes": passes,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
