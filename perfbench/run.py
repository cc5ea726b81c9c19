"""Benchmark of lagsurf, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload equiv-ladder --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-check

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  Whole
passes over the workload's fixed operation list repeat until ``--seconds``
have passed (at least one pass).  ``--self-check`` runs every workload and
every check at its smallest sizes.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Events hash through a str enum, so set and dict layouts depend on the hash
# seed; every interpreter the benchmark starts gets this one.
HASH_SEED = "0"


def _fixed_interpreter() -> None:
    """Re-execute under the fixed hash seed with the checkout's ``src`` first."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH", "")
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED and path.split(os.pathsep)[0] == src:
        return
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    os.execve(sys.executable, [sys.executable, str(Path(__file__)), *sys.argv[1:]], env)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required unless --self-check is given")

    missing = [p for p in ("src/lagsurf/__init__.py", "corpus/manifest.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a lagsurf checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    _fixed_interpreter()
    # Byte-compile once so that no measured interpreter pays for it.
    compileall.compile_dir(str(ROOT / "src" / "lagsurf"), quiet=1)

    import harness

    import lagsurf

    if Path(lagsurf.__file__).resolve().parent != ROOT / "src" / "lagsurf":
        print(f"error: lagsurf resolved to {lagsurf.__file__}, not this checkout", file=sys.stderr)
        return 2

    if args.self_check:
        ok = True
        for workload in harness.WORKLOADS:
            for trace in (False, True):
                result = harness.run_workload(workload, args.seed, 0.0, trace, small=True)
                ok &= result["correct"]
                print(workload, "trace" if trace else "end-to-end", json.dumps(result))
        print("self-check", "passed" if ok else "FAILED")
        return 0 if ok else 1

    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
