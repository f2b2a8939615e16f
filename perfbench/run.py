"""hierstat benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload {cli-mix,thermo-inverse,chains} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a hierstat checkout; it uses the package under
``src/`` and the golden files under ``tests/data/``, and writes only under
``.perfbench-work/`` there.  With ``--trace 0`` it measures the
end-to-end metrics, with ``--trace 1`` the per-layer ones (see
perfbench/NOTES.md).  Human-readable lines come first; the last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics.  Failed operations are logged to stderr and appended to
``.perfbench-work/failures.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-mix", "thermo-inverse", "chains")
REQUIRED_FILES = (
    "BENCHMARK.json",
    "src/hierstat/__init__.py",
    "src/hierstat/cli.py",
    "tests/data/golden_simulate_config.json",
    "tests/data/golden_simulate_summary.json",
    "tests/data/golden_canonical_l3.json",
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh-process imports per run; setup_s is their median
SETUP_REPEATS = 5
#: the whole run must end within 180 s
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not produce a valid result."""


def child_env(root: Path) -> dict:
    """Environment of every process the benchmark starts.

    The package is imported from the checkout's ``src``, and numeric
    libraries are held to one thread so that the figures measure the
    program rather than the scheduler of a small machine.
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment_record(root: Path) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src" / "hierstat").glob("*.py")))
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "commit": commit, "src_hierstat_lines": src_lines,
            "threads": {var: "1" for var in THREAD_VARS}}


def setup_seconds(workload: str, root: Path, env: dict) -> float:
    """Median time, in reference seconds, of a fresh interpreter importing the package."""
    module = "hierstat.cli" if workload == "cli-mix" else "hierstat"
    cmd = [sys.executable, "-c", f"import {module}"]
    return statistics.median(
        calibration.timed(lambda: subprocess.run(cmd, cwd=root, env=env, check=True,
                                                 timeout=60))[1]
        for _ in range(SETUP_REPEATS))


def run_worker(root: Path, env: dict, workload: str, seed: int, seconds: float,
               trace: int, rounds: int | None = None, timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run worker.py in a fresh process group and return its JSON result."""
    workdir = root / ".perfbench-work" / f"{workload}-seed{seed}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker exceeded {timeout} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def declared_metrics(root: Path, trace: int) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [f for f in REQUIRED_FILES if not (root / f).is_file()]
    if missing:
        print(f"not a hierstat checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        record = environment_record(root)
        print("env " + json.dumps(record, sort_keys=True), flush=True)
        setup_s = None if args.trace else setup_seconds(args.workload, root, env)
        res = run_worker(root, env, args.workload, args.seed, args.seconds, args.trace)
        metrics = {k: (m["value"], m["unit"]) for k, m in res["metrics"].items()}
        if setup_s is not None:
            metrics["setup_s"] = (setup_s, "s")
        declared = declared_metrics(root, args.trace)
        if {k: u for k, (_, u) in metrics.items()} != declared:
            raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                             f"{sorted(declared)}")
        bad = [k for k, (v, _) in metrics.items() if v is None or v != v or v in
               (float("inf"), float("-inf"))]
        if bad:
            raise BenchError(f"no finite value for {bad} (too few successful samples)")
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} rounds {res['rounds']} "
          f"operations {res['attempted']} failed {res['failed']} "
          f"wrong outputs {res['wrong']}")
    for name, m in sorted(res["details"].items()):
        print(f"  {name:<40} {m['value']!r} {m['unit']}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<40} {value!r} {unit}")
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
