"""The repository benchmark: one workload, one seed, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0

Workloads: ``scan``, ``adhoc``, ``worlds``, ``serve`` (see RATIONALE.md).
The run writes its seeded inputs with ``gen.py``, measures them in a fresh
child process (``child.py``) with the checkout's ``src`` on the import
path, prints every metric with its unit and sample count, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  It exits
non-zero, printing no result, when an answer is wrong, when a percentile
lacks samples, or when the checkout holds no program to measure.

Scratch files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import stats  # noqa: E402

#: Longest a child run may take before it is killed (the run then fails).
CHILD_TIMEOUT_S = 170.0


def source_digest(root: Path) -> str:
    """SHA-1 over the program's source files (the checkout is not a git
    repository, so this stands in for the commit)."""
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metric_names(root: Path, trace: bool) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: no program to measure (src/repro missing); run from a checkout root",
              file=sys.stderr)
        return 2

    work = root / ".perfbench"
    run_dir = work / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    manifest = gen.generate(args.workload, args.seed, run_dir / "inputs")
    out_path = run_dir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(manifest), repr(args.seconds),
         str(args.trace), str(out_path)],
        env=env, cwd=root,
    )
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: the measuring process timed out", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    if code != 0 or not out_path.exists():
        print(f"error: the measuring process exited with {code}", file=sys.stderr)
        return 3
    result = json.loads(out_path.read_text())
    shutil.rmtree(run_dir / "inputs")

    environment = dict(result["environment"], git_sha=git_sha(root),
                       source_sha1=source_digest(root), host=platform.node())
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} {json.dumps(environment, sort_keys=True)}")
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"wrong={result['wrong']} errors={json.dumps(result['errors'], sort_keys=True)}")
    metrics = result["metrics"]
    names = metric_names(root, bool(args.trace))
    for name in names:
        metric = metrics[name]
        note = " (n/a)" if metric["refused"] else ""
        print(f"{name:34s} {metric['value']:>16.6f} {metric['unit']:6s} n={metric['samples']}{note}")

    if "info" in result:
        print(f"# not gated: {json.dumps(result['info'], sort_keys=True)}")
    if "probe" in result:
        print(f"# known-failure probe (Q2 by-tuple distribution, not counted): {result['probe']}")

    if result["wrong"]:
        print(f"error: {result['wrong']} wrong answer(s)", file=sys.stderr)
        return 1
    if result.get("too_few_repeats"):
        print(f"error: a request was answered fewer than {stats.MIN_REPEATS} times; run longer",
              file=sys.stderr)
        return 1
    if not args.trace:
        refused = [name for name, metric in metrics.items() if metric["refused"]]
        if refused:
            print(f"error: too few samples for {', '.join(refused)}", file=sys.stderr)
            return 1
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in names},
    }))
    return 0


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so ``finally`` blocks stop the
    processes a run started."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


if __name__ == "__main__":
    exit_on_sigterm()
    sys.exit(main())
