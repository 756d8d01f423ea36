"""One pass of a workload in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py pass <workload> <seed|all> <trace 0|1>
    python3 perfbench/worker.py cli <trace 0|1> <superbott argv...>

``pass`` runs every operation of the seed's sample (or of the whole pool)
once, in pool order, timing each, with ``speed`` kernel slices between
operations; digests and other checks are computed after the loop.  ``cli``
runs ``superbott.cli.run`` on the given arguments with its standard output
captured (one ladder rung), with ``speed`` kernel slices taken from a second
thread meanwhile.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402


def canonical(obj) -> str:
    """The CLI's JSON form: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _import_superbott():
    import superbott

    if not Path(superbott.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"worker: superbott imported from {superbott.__file__}, not from this checkout")
    from superbott import characters, cli, cohomology, oracle, superschur

    return characters, cli, cohomology, oracle, superschur


def _prepare(workload: str, items: list):
    """The program-level inputs of the given pool items, built before timing."""
    from superbott.cohomology import BundleSpec
    from superbott.partitions import Partition
    from superbott.superschur import SuperDim

    pool = workloads.POOLS[workload]()
    inputs = []
    for i in items:
        if workload == "verify-grid":
            p, q, m, n, alpha, beta = pool[i]
            inputs.append(BundleSpec(p, q, SuperDim(m, n), Partition(alpha), Partition(beta)))
        elif workload == "closed-form":
            alpha, beta, m, n = pool[i]
            inputs.append((Partition(alpha), Partition(beta), SuperDim(m, n)))
        else:
            lam, mu = pool[i]
            m, n = workloads.oracle_dims(lam, mu)
            nus = [Partition(nu) for nu in workloads.partitions_of(sum(lam) + sum(mu))]
            inputs.append((Partition(lam), Partition(mu), nus, SuperDim(m, n)))
    return inputs


def run_items(workload: str, items: list, trace: bool) -> dict:
    """Run the operations of the given pool items once, in order."""
    characters, _cli, cohomology, oracle, superschur = _import_superbott()
    inputs = _prepare(workload, items)
    evens = list(workloads.EVEN_POINTS)
    odds = list(workloads.ODD_POINTS)

    def op(x):
        if workload == "verify-grid":
            return cohomology.verify_main_theorem(x)
        if workload == "closed-form":
            return superschur.rational_schur_char(*x)
        lam, mu, nus, d = x
        table = {}
        agree = True
        for nu in nus:
            c = characters.lr_coefficient(lam, mu, nu)
            agree &= c == oracle.lr_bruteforce(lam, mu, nu)
            if c:
                table[nu] = c
        char = superschur.rational_schur_char(lam, mu, d)
        value = oracle.specialize_character(char, evens[: d.m], odds[: d.n])
        det = superschur.composite_det_specialized(lam, mu, d, (evens[: d.m], odds[: d.n]))
        return table, value, agree and value == det

    tracer = Tracer()
    if trace:
        tracer.install()
    results, op_s, op_at, errors = [], [], [], {}
    gauge = speed.Gauge()
    gauge.sample()
    clock = time.perf_counter
    for k, x in enumerate(inputs):
        gauge.poll()
        t0 = clock()
        try:
            results.append(op(x))
        except Exception as exc:  # an operation that raises is a failed operation
            results.append(None)
            errors[k] = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        op_s.append(t1 - t0)
        op_at.append((t0 + t1) / 2)
    gauge.sample()
    raw = tracer.raw() if trace else None

    digests, extra = [], []
    for res in results:
        if res is None:
            digests.append("")
            extra.append(None)
        elif workload == "verify-grid":
            diffs = {str(d): vc.to_json_obj() for d, vc in sorted(res.diffs.items())}
            digests.append(short_digest(canonical({"matches": res.matches, "diffs": diffs})))
            extra.append(res.matches)
        elif workload == "closed-form":
            total = str(res.total_dim())
            digests.append(short_digest(canonical({"m": res.m, "n": res.n, "terms": res.to_json_obj(), "total_dim": total})))
            extra.append(total)
        else:
            table, value, agree = res
            lr = [[list(nu), c] for nu, c in sorted(table.items())]
            digests.append(short_digest(canonical({"lr": lr, "value": str(value)})))
            extra.append(agree)
    return {
        "op_s": op_s,
        "op_at": op_at,
        "gauge_s": gauge.samples,
        "gauge_at": gauge.at,
        "items": items,
        "digests": digests,
        "extra": extra,
        "errors": errors,
        "raw": raw,
    }


def run_cli(trace: bool, argv: list) -> dict:
    _characters, cli, *_ = _import_superbott()
    tracer = Tracer()
    if trace:
        tracer.install()
    buf = io.StringIO()
    with speed.BackgroundGauge() as gauge, contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    out = buf.getvalue()
    raw = tracer.raw() if trace else None
    if raw is not None:
        raw["json_bytes"] = len(out.encode())
    return {"exit": code, "stdout": out, "raw": raw, "gauge_s": gauge.samples}


def main(argv: list) -> int:
    if argv[:1] == ["pass"] and len(argv) == 4:
        workload = argv[1]
        if argv[2] == "all":
            items = list(range(len(workloads.POOLS[workload]())))
        else:
            items = workloads.SAMPLES[workload](int(argv[2]))
        result = run_items(workload, items, argv[3] == "1")
    elif argv[:1] == ["cli"] and len(argv) >= 2:
        result = run_cli(argv[1] == "1", argv[2:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(canonical(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
