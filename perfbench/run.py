"""superbott benchmark: four workloads, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The program is used from ``src/`` as it
stands; nothing is built or installed.  One operation runs at a time and at
most one child process exists at a time (a closed loop with one client).

With ``--trace 0`` whole passes over the seed's inputs run, each in a fresh
interpreter, until the next pass would end after ``--seconds``; at least one
pass runs.  Every end-to-end time is reported at a fixed reference speed,
read from the ``speed`` kernel slices taken between operations (see
``speed.py``): the host's own speed drifts too much to compare raw times
across runs.  With ``--trace 1`` one untraced pass and two traced passes run;
the traced passes give the per-layer metrics, their difference to the
untraced pass the tracing overhead, and the counters in
``layertrace.EXACT_COUNTERS`` must agree between them.

Every output is checked outside the timed region: against the digests in
``pins.json`` and against an independent computation (Euler characteristic,
determinant, oracle).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HARD_LIMIT_S = 170.0  # every run exits well inside 180 s
# The determinant takes about 14 ms a shape, so each run checks every fifth
# sampled shape; make_pins.py checked the whole pool before pinning.
DET_STRIDE = 5
SETUP_REPEATS = 15
GAUGE_BLOCK = 8  # kernel slices the parent takes before and after each child it times
SETUP_CODE = "import time; t = time.perf_counter(); import superbott.cli; print(time.perf_counter() - t)"


class Run:
    """State of one benchmark run: deadline, child environment, failures."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.env = scrubbed_env()
        self.problems: list[str] = []
        self.gauge = speed.Gauge()

    def remaining(self) -> float:
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))

    def child(self, argv: list[str]) -> tuple[int, str, float]:
        """Run one child to completion: (exit code, stdout, wall seconds)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable] + argv,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired:
            self.problem(f"timed out: {' '.join(argv[:3])}")
            return -1, "", time.perf_counter() - start
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.problem(f"exit {proc.returncode}: {' '.join(argv[:3])} {tail[0]}")
        return proc.returncode, proc.stdout, wall

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def gauge_block(self) -> list[float]:
        """A few kernel slices in this process, between two timed children."""
        start = len(self.gauge.samples)
        self.gauge.sample(GAUGE_BLOCK)
        return self.gauge.samples[start:]

    def timed_cli(self, argvs: list[list[str]], traced: bool) -> list[tuple[dict, float]]:
        """Run ``worker.py cli`` children one after the other: (record, time at reference speed).

        A child's speed is read from the kernel slices it took from its
        second thread, and from those taken here just before and after it;
        the child's own slices are taken out of its wall time.
        """
        out = []
        before = self.gauge_block()
        for argv in argvs:
            code, stdout, wall = self.child([str(HERE / "worker.py"), "cli", "1" if traced else "0"] + argv)
            after = self.gauge_block()
            record = json.loads(stdout) if code == 0 else {"exit": code, "stdout": "", "raw": None, "gauge_s": []}
            inside = record.pop("gauge_s")
            out.append((record, (wall - sum(inside)) * speed.scale(before + inside + after)))
            before = after
        return out


def scrubbed_env() -> dict:
    """Only what the children need: no SUPERBOTT_* or PYTHON* from the caller."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C",
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


def measure_setup(run: Run) -> float:
    """Median import time of superbott.cli in a fresh interpreter, bytecode warm,
    at reference speed."""
    run.child(["-c", "import superbott.cli"])  # writes the bytecode cache
    samples = []
    before = run.gauge_block()
    for _ in range(SETUP_REPEATS):
        code, out, _wall = run.child(["-c", SETUP_CODE])
        after = run.gauge_block()
        if code == 0:
            samples.append(float(out) * speed.scale(before + after))
        before = after
    return statistics.median(samples) if samples else float("nan")


# --- passes ----------------------------------------------------------------


def ladder_argv(rung) -> list[str]:
    (p, q), (m, n), alpha, beta = rung
    alpha_s, beta_s = ("[" + ",".join(map(str, lam)) + "]" for lam in (alpha, beta))
    return ["--output", "json", "e1", "--grass", f"{p},{q}", "--dim", f"{m},{n}", "--alpha", alpha_s, "--beta", beta_s]


def ladder_pass(run: Run, traced: bool) -> dict:
    """Each rung is one ``superbott.cli.run`` call in a fresh interpreter, timed spawn to exit."""
    op_s, outputs, exits, raws = [], [], [], []
    for record, rung_s in run.timed_cli([ladder_argv(rung) for rung in workloads.LADDER], traced):
        if record["raw"] is not None:
            raws.append(record["raw"])
        op_s.append(rung_s)
        outputs.append(record["stdout"])
        exits.append(record["exit"])
    return {
        "pass_s": sum(op_s),
        "op_s": op_s,
        "items": list(range(len(workloads.LADDER))),
        "outputs": outputs,
        "exits": exits,
        "raw": layertrace.merge(raws) if traced else None,
    }


def worker_pass(run: Run, traced: bool) -> dict:
    argv = [str(HERE / "worker.py"), "pass", run.workload, str(run.seed), "1" if traced else "0"]
    code, out, _wall = run.child(argv)
    if code == 0:
        result = json.loads(out)
        factors = speed.local_scales(result.pop("gauge_at"), result.pop("gauge_s"), result.pop("op_at"))
        result["op_s"] = [t * f for t, f in zip(result["op_s"], factors)]
        result["pass_s"] = sum(result["op_s"])
        return result
    items = workloads.SAMPLES[run.workload](run.seed)
    return {
        "pass_s": None,
        "op_s": [],
        "items": items,
        "digests": [""] * len(items),
        "extra": [None] * len(items),
        "errors": {str(k): "worker failed" for k in range(len(items))},
        "raw": None,
    }


def one_pass(run: Run, traced: bool) -> dict:
    if run.workload == "e1-ladder":
        return ladder_pass(run, traced)
    return worker_pass(run, traced)


# --- checks ----------------------------------------------------------------


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_pins() -> dict:
    with open(HERE / "pins.json") as fh:
        return json.load(fh)


def check_ladder(run: Run, passes: list[dict], pins: dict) -> int:
    """Exit code, pinned sha256 and Euler characteristic of every rung run."""
    from superbott.cohomology import BundleSpec, main_theorem_char
    from superbott.partitions import Partition
    from superbott.superschur import SuperDim

    euler_expected = []
    for (p, q), (m, n), alpha, beta in workloads.LADDER:
        spec = BundleSpec(p, q, SuperDim(m, n), Partition(alpha), Partition(beta))
        euler_expected.append(main_theorem_char(spec).euler_characteristic().terms)
    failed = 0
    for ps in passes:
        for k, (code, out) in enumerate(zip(ps["exits"], ps["outputs"])):
            ok = code == 0
            if ok and hashlib.sha256(out.encode()).hexdigest() != pins["e1-ladder"][k]["sha256"]:
                run.problem(f"rung {k}: output digest differs from pins.json")
                ok = False
            if ok and euler_from_json(out) != euler_expected[k]:
                run.problem(f"rung {k}: Euler characteristic differs from the closed form")
                ok = False
            failed += not ok
    return failed


def euler_from_json(text: str) -> dict:
    out: dict = {}
    for deg, terms in json.loads(text)["degrees"].items():
        sign = -1 if int(deg) % 2 else 1
        for t in terms:
            key = (tuple(t["w0"]), tuple(t["w1"]))
            out[key] = out.get(key, 0) + sign * t["mult"]
    return {k: v for k, v in out.items() if v}


def check_worker(run: Run, passes: list[dict], pins: dict) -> int:
    """Pinned digests, pinned verify mismatches, determinant and oracle checks."""
    pinned = pins[run.workload]
    mismatches = set(pinned.get("mismatches", ()))
    pool = workloads.POOLS[run.workload]()
    det_checked: dict = {}
    failed = 0
    for ps in passes:
        for k, (i, digest, extra) in enumerate(zip(ps["items"], ps["digests"], ps["extra"])):
            ok = str(k) not in ps["errors"]
            if ok and digest != pinned["digests"][i]:
                run.problem(f"{run.workload} item {i}: output digest differs from pins.json")
                ok = False
            if ok and run.workload == "verify-grid" and (not extra) != (i in mismatches):
                run.problem(f"verify-grid item {i}: verify outcome differs from the pinned mismatch set")
                ok = False
            if ok and run.workload == "closed-form" and k % DET_STRIDE == 0:
                if i not in det_checked:
                    det_checked[i] = closed_form_dim(pool[i])
                if det_checked[i] != int(extra):
                    run.problem(f"closed-form item {i}: total_dim differs from the determinant")
                    ok = False
            if ok and run.workload == "oracle-check" and not extra:
                run.problem(f"oracle-check item {i}: fast path and oracle disagree")
                ok = False
            failed += not ok
    return failed


def closed_form_dim(item) -> int:
    """Super dimension from the composite determinant at all-ones points."""
    from superbott.partitions import Partition
    from superbott.superschur import SuperDim, composite_det_specialized

    alpha, beta, m, n = item
    det = composite_det_specialized(Partition(alpha), Partition(beta), SuperDim(m, n), ([1] * m, [1] * n))
    return int(det)


# --- metrics ---------------------------------------------------------------


def end_to_end(run: Run, passes: list[dict], setup_s: float) -> dict:
    """Medians over passes; op latency percentiles over per-op medians."""
    per_op = [statistics.median(samples) for samples in zip(*(ps["op_s"] for ps in passes))]
    cuts = statistics.quantiles(per_op, n=10, method="inclusive")
    pass_s = [ps["pass_s"] for ps in passes]
    return {
        "total_s": statistics.median(pass_s),
        "ops_per_s": len(per_op) * len(passes) / sum(pass_s),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": cuts[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def traced_metrics(run: Run, untraced: dict, traced: list[dict]) -> dict:
    first, second = (layertrace.layer_metrics(layertrace.merge([ps["raw"]])) for ps in traced)
    for name in layertrace.EXACT_COUNTERS:
        if first[name] != second[name]:
            run.problem(f"{name} differs between two traced passes: {first[name]} != {second[name]}")
    out = {}
    for name, value in first.items():
        out[name] = (value + second[name]) / 2 if name.endswith("_s") else value
    out["trace.overhead_s"] = statistics.mean(ps["pass_s"] for ps in traced) - untraced["pass_s"]
    return out


# --- main ------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "superbott" / "__init__.py").is_file():
        print(f"perfbench: no superbott sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    print(f"perfbench workload={run.workload} seed={run.seed} seconds={run.seconds} trace={int(run.trace)}")
    setup_s = measure_setup(run)

    passes: list[dict] = []
    if run.trace:
        passes = [one_pass(run, False), one_pass(run, True), one_pass(run, True)]
    else:
        begin = time.perf_counter()
        while True:
            passes.append(one_pass(run, False))
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / len(passes) > run.seconds or time.monotonic() - run.started > HARD_LIMIT_S / 2:
                break

    pins = load_pins()
    sys.path.insert(0, str(ROOT / "src"))
    check = check_ladder if run.workload == "e1-ladder" else check_worker
    failed = check(run, passes, pins)
    attempted = sum(len(ps["items"]) for ps in passes)
    env["loadavg_end"] = list(os.getloadavg())
    print("env " + json.dumps(env, sort_keys=True))

    timed = [ps for ps in passes if ps["pass_s"] is not None]
    if len(timed) < len(passes) and (run.trace or not timed):
        for text in run.problems[:20]:
            print(f"problem: {text}")
        print("perfbench: no complete pass to measure", file=sys.stderr)
        return 1
    spec = load_benchmark()
    if run.trace:
        computed = traced_metrics(run, passes[0], passes[1:])
        wanted = spec["per_layer"]
    else:
        computed = end_to_end(run, timed, setup_s)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"passes {len(passes)}, operations per pass {attempted // len(passes)}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    if run.workload == "e1-ladder" and not run.trace:
        largest = statistics.median(ps["op_s"][-1] for ps in timed)
        print(f"  {'largest_rung_s':<44} {largest:>14.6g} s")
    print(f"  {'failed_ratio':<44} {failed / attempted:>14.6g} ({failed}/{attempted})")
    for text in run.problems[:20]:
        print(f"problem: {text}")
    result = {"correct": not run.problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
