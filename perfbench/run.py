"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload synth-1p --seed 1 --seconds 10 \\
        --trace 0

Prints each metric with its unit and sample count, the output checks,
and — as the last line — one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` the per-layer metrics of a traced run.
Exits 1 when an output check fails, and 2 when the repository's source
tree is not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _use_checkout_source() -> bool:
    """Put this checkout's ``src/`` first on the path.

    The benchmark measures the code next to it, never an installed copy,
    so a checkout without ``src/repro`` is an error (False).
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(SRC), str(ROOT)]
    return True


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker process.

    Shared-memory arenas start it on first use and it would otherwise
    outlive this process by a moment; the run waits for every process it
    started.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    if not _use_checkout_source():
        print(f"perfbench: no source tree at {SRC / 'repro'}",
              file=sys.stderr)
        return 2

    from perfbench.measure import DEFAULT_SEED, HELD_OUT_SEED, run_benchmark
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held "
             "out for confirming a claimed gain)",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        line, artifact = run_benchmark(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace),
        )
    finally:
        _stop_resource_tracker()
    out = artifact["outputs"]
    passes = out["passes"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {passes['untraced']} untraced + "
          f"{passes['traced']} traced passes, "
          f"{passes['frames']} frames in untraced passes")
    print(f"  host slowdown {passes['host_slowdown']:.4f} (host probe "
          f"floor over {passes['untraced']} replicas; timings below are "
          "divided by it)")
    floor = (f"floor over {passes['untraced']} passes of "
             f"{passes['frames_per_pass']} frames")
    counts = {
        "fps": floor,
        "frame_p50_ms": floor,
        "frame_p99_ms": floor,
        "setup_s": f"median of {passes['setup_runs']} set-ups",
        "peak_alloc_mb": "prefix pass peak less its inputs' own",
    }
    for name, metric in line["metrics"].items():
        note = counts.get(name, "traced passes")
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<6}"
              f" ({note})")
    for key in ("err_median_m", "mota", "id_switches", "sessions"):
        if key in out:
            print(f"  output {key}: {out[key]}")
    print("  checks: " + ", ".join(
        f"{k}={'ok' if v else 'FAILED'}" for k, v in out["checks"].items()
    ))
    print(f"  output digest {out['digest']}, inputs digest "
          f"{artifact['inputs']['digest']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
