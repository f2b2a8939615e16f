"""Small-size self-check of the hierstat benchmark.

    python3 perfbench/smoke.py        (from the root of a hierstat checkout)

For every workload it checks that the same seed draws the same inputs and
another seed different ones, that one untraced round runs with correct
outputs, and that two traced runs of one round with the same seed give
identical work counts.  Prints one line per check and exits 0 when all
pass.  Takes about a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    missing = [f for f in run.REQUIRED_FILES if not (root / f).is_file()]
    if missing:
        print(f"not a hierstat checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import worker
    from tracer import WORK_COUNTS

    env = run.child_env(root)
    problems = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    for name in run.WORKLOADS:
        workdir = root / ".perfbench-work" / f"smoke-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        wl = worker.WORKLOADS[name](root, workdir, 1)
        first = worker.draw_rounds(wl, 1, 2)
        check(first == worker.draw_rounds(wl, 1, 2), f"{name}: seed 1 draws the same inputs twice")
        check(first != worker.draw_rounds(wl, 2, 2), f"{name}: seeds 1 and 2 draw different inputs")

        res = run.run_worker(root, env, name, 1, 1, 0, rounds=1)
        check(res["wrong"] == 0 and res["attempted"] > 0,
              f"{name}: one untraced round, {res['attempted']} operations, "
              f"{res['failed']} failed, {res['wrong']} wrong outputs")

        traced = [run.run_worker(root, env, name, 1, 1, 1, rounds=1) for _ in range(2)]
        counts = [{k: t["metrics"][k]["value"] for k in WORK_COUNTS} for t in traced]
        check(counts[0] == counts[1], f"{name}: traced work counts repeat for seed 1")
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in WORK_COUNTS
                    if counts[0][k] != counts[1][k]}
            print(f"     differing counts: {diff}")

    print("smoke test passed" if not problems else f"{len(problems)} checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
