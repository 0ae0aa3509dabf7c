"""Benchmark cstree end to end on one seeded workload.

    python3 perfbench/run.py --workload pima-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The inputs are generated from ``--seed``
into ``.perfbench_work/<workload>/``; a separate worker process then
imports cstree from ``src/`` and drives ``cstree.cli.main`` in a closed
loop, one operation at a time, for ``--seconds``. Afterwards every
operation's outputs are checked against computations made apart from the
program (see ``checks.py``). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--workload all`` runs every workload in turn.

The end-to-end times are in reference seconds: each measured time is
scaled by ``CALIBRATION_REF_S`` over the time of a fixed calibration kernel
measured in the same process next to it (see ``worker.calibrate``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 10  # set-up-only processes, half before the worker and half after
DEADLINE_S = 165.0  # the whole run, checks included, must end within 180 s
AFTER_PROBES_S = 15.0  # kept free for the probes that run after the worker
# The calibration kernel's time on the 2-vCPU reference machine in its fast
# phases. That host's speed phases slow the kernel and cstree alike, by up
# to 2x for seconds to minutes. Over 463 back-to-back 25-trial experiments,
# the median wall time of each 16 in a row spread 0.34 (interquartile range
# over median); divided by their neighbouring calibrations, 0.04.
CALIBRATION_REF_S = 0.05

PER_LAYER = (
    ("tree.best_split.calls", "count"),
    ("tree.best_split.self_s", "s"),
    ("tree.best_split.rows", "count"),
    ("tree.best_split.distinct_row_sets", "count"),
    ("tree.build_tree.calls", "count"),
    ("tree.build_tree.self_s", "s"),
    ("tree.build_tree.nodes", "count"),
    ("tree.classify.calls", "count"),
    ("pruning.post_prune.self_s", "s"),
    ("pruning.post_prune.decisions", "count"),
    ("evaluation.average_cost.self_s", "s"),
    ("evaluation.average_cost.rows", "count"),
    ("tree.serialize.self_s", "s"),
    ("tree.serialize.bytes", "B"),
    ("tree.deserialize.self_s", "s"),
    ("tree.attach_instances.self_s", "s"),
    ("data.load_csv.calls", "count"),
    ("data.load_csv.self_s", "s"),
    ("competition.run_competition.self_s", "s"),
    ("competition.with_test_costs.self_s", "s"),
    ("experiment.run_experiment.self_s", "s"),
    ("experiment.report_summary.self_s", "s"),
    ("experiment.write_rows_csv.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _reference_s(seconds, calibration_s):
    """A measured time as it would read on the host at its reference speed."""
    return seconds * CALIBRATION_REF_S / calibration_s


def _worker(args, env, timeout):
    """Run worker.py to completion; on timeout it is killed and reaped."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    subprocess.run(cmd, env=env, timeout=timeout, check=True, stdin=subprocess.DEVNULL)


def _check_op(plan, kind, op_dir, table) -> list[str]:
    workload = plan["workload"]
    params = plan["ops"][kind]["params"]
    if workload == "sample-experiment":
        return checks.check_experiment(op_dir, table, params["trials"], workloads.GRID_SIZE)
    if workload == "pima-sweep":
        return checks.check_sweep(op_dir, table, plan["costs"], params["seed"], workloads.GRID_SIZE)
    return checks.check_train_replay(op_dir, table, plan["costs"])


OUTPUT_FLAGS = ("--out-csv", "--out-json", "--tree-out")


def _timed_outputs(op) -> set[str]:
    """Names of the files an operation's timed steps write into its directory."""
    names = set()
    for step, argv in enumerate(op["argv"]):
        names |= {f"stdout{step}.txt", f"stderr{step}.txt"}
        names |= {Path(argv[i + 1]).name for i, arg in enumerate(argv) if arg in OUTPUT_FLAGS}
    return names


def _same_outputs(op, first: Path, repeat: Path) -> bool:
    names = _timed_outputs(op)
    if {p.name for p in repeat.iterdir()} != names:
        return False
    return all((first / n).read_bytes() == (repeat / n).read_bytes() for n in names)


def _verify(plan, records, work) -> list[str]:
    """Check each distinct operation once; its repeats must match it byte for byte.

    An operation whose CLI call exited non-zero is a problem in itself: no
    workload has an operation that is expected to fail.
    """
    table = checks.Table(plan["data"])
    problems = []
    first: dict[int, Path] = {}
    for record in records:
        if not record["ok"]:
            problems.append(f"op {record['index']}: a cstree call exited non-zero (see its stderr*.txt)")
            continue
        op_dir = work / "ops" / str(record["index"])
        kind = record["kind"]
        if kind not in first:
            first[kind] = op_dir
            problems += [f"op {record['index']}: {p}" for p in _check_op(plan, kind, op_dir, table)]
        elif not _same_outputs(plan["ops"][kind], first[kind], op_dir):
            problems.append(f"op {record['index']}: outputs differ from op {first[kind].name}")
    return problems


def _per_layer(trace, records, rounds_ops, problems):
    passes = trace["passes"]
    if passes[0]["counts"] != passes[1]["counts"]:
        problems.append("work counts differ between the two traced passes")
    counts = passes[0]["counts"]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            # rounds: cold warm-up, untraced reference, two traced passes;
            # in reference seconds, as the host's phases would swamp it
            op_s = [
                sum(_reference_s(r["seconds"], r["calibration_s"]) for r in records[i * rounds_ops:(i + 1) * rounds_ops])
                for i in range(4)
            ]
            value = (op_s[2] + op_s[3]) / 2 - op_s[1]
        elif name.endswith(".self_s"):
            key = name[: -len(".self_s")]
            value = min(p["self_s"].get(key, 0.0) for p in passes)
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(workload, seed, seconds, trace, started) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workloads.build_plan(workload, seed, work)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    common = ["--plan", str(plan_path), "--work", str(work)]
    setups = []

    def probe_setup(i):
        probe = work / f"setup{i}.json"
        _worker([*common, "--result", str(probe), "--setup-only"], env, 60)
        setups.append(json.loads(probe.read_text(encoding="utf-8")))

    # Probes on both sides of the worker sample more of the host's speed
    # phases than a burst of probes at one time would. A traced run reports
    # no set-up time and makes none.
    for i in range(0 if trace else SETUP_PROBES // 2):
        probe_setup(i)
    result_path = work / "result.json"
    remaining = DEADLINE_S - AFTER_PROBES_S - (time.monotonic() - started)
    _worker(
        [*common, "--result", str(result_path), "--seconds", str(seconds), "--trace", str(trace)],
        env,
        max(remaining, 1.0),
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    records = result["ops"]
    problems = _verify(plan, records, work)
    ok = [r for r in records if r["ok"]]
    if trace:
        metrics = _per_layer(result["trace"], records, len(plan["ops"]), problems)
    else:
        for i in range(SETUP_PROBES // 2, SETUP_PROBES):
            probe_setup(i)
        # A failed call stops its operation early; its time would read as speed.
        timed = ok or records
        op_s = [_reference_s(r["seconds"], r["calibration_s"]) for r in timed]
        trees = plan["ops"][0]["trees"] * len(timed)
        metrics = {
            "setup_s": {
                "value": statistics.median(_reference_s(p["setup_s"], p["calibration_s"]) for p in setups),
                "unit": "s",
            },
            "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
            "trees_per_s": {"value": trees / sum(op_s), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
        wall_s = [r["seconds"] for r in timed]
        print(
            f"{workload}: wall clock, not gated: median operation {statistics.median(wall_s)} s, "
            f"{trees / sum(wall_s)} trees/s, median set-up {statistics.median(p['setup_s'] for p in setups)} s, "
            f"worker's own set-up {_reference_s(result['setup_s'], result['calibration_s'])} reference s, "
            f"median calibration {statistics.median(r['calibration_s'] for r in timed)} s",
            file=sys.stderr,
        )
    for problem in problems:
        print(f"{workload}: check failed: {problem}", file=sys.stderr)
    print(
        f"{workload}: seed {seed}, {len(records)} operations attempted, "
        f"{len(records) - len(ok)} failed",
        file=sys.stderr,
    )
    for name, metric in metrics.items():
        print(f"{workload}: {name} = {metric['value']} {metric['unit']}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "cstree" / "__init__.py").is_file():
        print("error: run from the root of a cstree checkout (no src/cstree here)", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, time.monotonic())
        except subprocess.SubprocessError as exc:
            print(f"error: {name}: worker failed: {exc}", file=sys.stderr)
            return 1
        correct = correct and result["correct"]
        print(json.dumps(result if len(names) == 1 else {"workload": name, **result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
