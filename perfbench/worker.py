"""One workload in one process: set-up, then a closed loop of operations.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. It imports cstree, reads the workload's inputs once (the set-up
time), then runs whole rounds of the plan's operations through
``cstree.cli.main`` until the timed operations add up to ``--seconds``. Each operation's
standard output and files land in its own directory under ``ops/``.
The calibration kernel runs right after the set-up and right before and
after each operation, outside the timed sections.

With ``--trace 1`` the round runs four times: twice untraced (a warm-up,
then the reference for the tracing overhead), then twice under the tracer,
whose counts must agree exactly between the two traced passes. The result
goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from pathlib import Path


def calibrate() -> float:
    """Seconds for a fixed mix of small numpy calls and interpreter work.

    It runs no cstree code and holds the collector off, so no change to
    cstree can move it. The host's speed phases move it as they move the
    operations, and ``run.py`` divides them out with it.
    """
    import numpy as np

    values = np.linspace(0.0, 1.0, 64)
    table = {j: float(j) for j in range(8)}
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = 0.0
    for i in range(20000):
        j = i % 8
        total += float(np.sum(values[j:j + 40])) + table[j] * 0.5
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


def _setup(plan):
    start = time.perf_counter()
    import cstree.cli  # noqa: F401  (the import is part of set-up)
    from cstree.costs import load_cost_file
    from cstree.data import load_csv

    load_csv(plan["data"])
    if plan["costs"]:
        load_cost_file(plan["costs"])
    return time.perf_counter() - start


def _cli(cli, argv, out_dir: Path, step: int) -> int:
    argv = [arg.replace("{op}", str(out_dir)) for arg in argv]
    with open(out_dir / f"stdout{step}.txt", "w", encoding="utf-8") as out, open(
        out_dir / f"stderr{step}.txt", "w", encoding="utf-8"
    ) as err, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli.main(argv)


def _run_op(cli, plan, kind, index, work: Path, tracer=None):
    op = plan["ops"][kind]
    out_dir = work / "ops" / str(index)
    out_dir.mkdir(parents=True)
    before = calibrate()
    if tracer is not None:
        tracer.begin_op(index)
    start = time.perf_counter()
    ok = all(_cli(cli, argv, out_dir, step) == 0 for step, argv in enumerate(op["argv"]))
    seconds = time.perf_counter() - start
    after = calibrate()
    return {"index": index, "kind": kind, "seconds": seconds, "calibration_s": (before + after) / 2, "ok": ok}


def _untimed(cli, plan, record, work: Path):
    """Follow-up calls that check an operation; run once per distinct operation."""
    out_dir = work / "ops" / str(record["index"])
    op = plan["ops"][record["kind"]]
    for step, argv in enumerate(op.get("untimed_argv", []), start=len(op["argv"])):
        if record["ok"] and _cli(cli, argv, out_dir, step) != 0:
            record["ok"] = False


def _round(cli, plan, work, records, tracer=None):
    for kind in range(len(plan["ops"])):
        record = _run_op(cli, plan, kind, len(records), work, tracer)
        if len(records) < len(plan["ops"]):
            _untimed(cli, plan, record, work)
        records.append(record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    work = Path(args.work)
    result = {"setup_s": _setup(plan), "calibration_s": calibrate()}
    if not args.setup_only:
        import cstree.cli as cli

        records: list[dict] = []
        if args.trace:
            from tracing import Tracer

            for _ in range(2):
                _round(cli, plan, work, records)
            tracer = Tracer()
            tracer.install()
            tracer.active = True
            passes = []
            for _ in range(2):
                tracer.reset_totals()
                _round(cli, plan, work, records, tracer)
                passes.append({"counts": dict(tracer.counts), "self_s": dict(tracer.self_s)})
            tracer.active = False
            tracer.uninstall()
            tracer.write_spans(work / "spans.csv")
            result["trace"] = {"passes": passes}
        else:
            # whole rounds until the timed operations add up to --seconds
            while sum(r["seconds"] for r in records) < args.seconds:
                _round(cli, plan, work, records)
        result["ops"] = records
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
