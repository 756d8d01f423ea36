"""Regenerate pins.json, the output digests every benchmark run is checked
against, and costs.json, the measured cost of every pool item.

    python3 perfbench/make_pins.py

Run from the root of a checkout whose outputs are trusted.  It runs every
ladder rung through the CLI and every item of every workload pool once
(each pool in a fresh interpreter), refuses to pin when an independent
check fails (Euler characteristic, determinant at all-ones points, oracle
agreement), and writes

- ``e1-ladder``: per rung, the arguments and the sha256 of the JSON output;
- per seeded workload: one 12-hex-digit sha256 prefix per pool item, in
  pool order; for ``verify-grid`` also the pool indices where ``verify``
  reports a mismatch (a mathematical outcome, pinned like any output);
- ``costs.json``: per seeded workload, the time of each pool item in
  microseconds at the ``speed`` reference speed, by which ``workloads.py``
  stratifies its samples.  Regenerating it changes which items a seed picks.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def ladder_pins() -> list:
    from superbott.cohomology import BundleSpec, main_theorem_char
    from superbott.partitions import Partition
    from superbott.superschur import SuperDim

    env = run.scrubbed_env()
    pins = []
    for rung in workloads.LADDER:
        argv = run.ladder_argv(rung)
        out = subprocess.run(
            [sys.executable, "-m", "superbott.cli"] + argv, cwd=ROOT, env=env, capture_output=True, text=True, check=True
        ).stdout
        (p, q), (m, n), alpha, beta = rung
        spec = BundleSpec(p, q, SuperDim(m, n), Partition(alpha), Partition(beta))
        if run.euler_from_json(out) != main_theorem_char(spec).euler_characteristic().terms:
            sys.exit(f"e1-ladder rung {argv}: Euler characteristic differs from the closed form")
        pins.append({"argv": argv, "sha256": hashlib.sha256(out.encode()).hexdigest()})
    return pins


def pool_pins(workload: str) -> tuple[dict, list]:
    pool = workloads.POOLS[workload]()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "pass", workload, "all", "0"],
        cwd=ROOT,
        env=run.scrubbed_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    res = json.loads(proc.stdout)
    if res["errors"]:
        sys.exit(f"{workload}: {len(res['errors'])} operations raised, e.g. {next(iter(res['errors'].values()))}")
    out = {"digests": res["digests"]}
    if workload == "verify-grid":
        out["mismatches"] = [i for i, matches in enumerate(res["extra"]) if not matches]
    elif workload == "closed-form":
        bad = [i for i, total in enumerate(res["extra"]) if run.closed_form_dim(pool[i]) != int(total)]
        if bad:
            sys.exit(f"closed-form: total_dim differs from the determinant on items {bad[:10]}")
    elif not all(res["extra"]):
        sys.exit("oracle-check: fast path and oracle disagree")
    factors = speed.local_scales(res["gauge_at"], res["gauge_s"], res["op_at"])
    costs = [round(t * f * 1e6) for t, f in zip(res["op_s"], factors)]
    print(f"{workload}: {len(pool)} items pinned in {sum(costs) / 1e6:.1f} s", file=sys.stderr)
    return out, costs


def main() -> int:
    pins = {"e1-ladder": ladder_pins()}
    costs = {}
    for workload in ("verify-grid", "closed-form", "oracle-check"):
        pins[workload], costs[workload] = pool_pins(workload)
    for name, data in (("pins.json", pins), ("costs.json", costs)):
        with open(HERE / name, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
