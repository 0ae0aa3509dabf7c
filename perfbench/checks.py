"""Output checks computed apart from cstree, in plain Python.

Each check reads the program's CSV, JSON and tree files for one operation
and recomputes what they claim from the input table alone. Labels are
mapped to class indices through the ``class_mapping`` the program
reports. A check returns a list of problems; an empty list means the
operation's outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REL = 1e-12  # float outputs are recomputed in the program's summation order
ROOT_REL = 1e-9  # vectorised against scalar entropy arithmetic
MIN_LEAF = 2
MIN_SPLIT_INFO = 1e-12
TRAIN_FRACTION = 0.6


class Table:
    """A data CSV as float rows and string labels, last column the class."""

    def __init__(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            body = list(csv.reader(fh))[1:]
        self.rows = [[float(cell) for cell in row[:-1]] for row in body]
        self.labels = [row[-1].strip() for row in body]


def _costs(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return [float(c) for c in doc["test_costs"]], [[float(v) for v in r] for r in doc["mc_matrix"]]


def _close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def _class_index(mapping, table, problems):
    names = {name: index for index, name in mapping}
    if sorted(names.values()) != list(range(len(names))) or set(names) != set(table.labels):
        problems.append(f"class_mapping {mapping} does not cover the table's labels")
        return None
    return [names[label] for label in table.labels]


def _walk(node, row):
    tested = set()
    path = "root"
    while "leaf" not in node:
        tested.add(node["attribute"])
        if row[node["attribute"]] <= node["threshold"]:
            node, path = node["left"], path + ".left"
        else:
            node, path = node["right"], path + ".right"
    return node, path, tested


def _walk_cost(root, table, truth, indices, tc, mc):
    """(tests total, penalty total, count) of classifying the given rows."""
    test_total = 0.0
    mc_total = 0.0
    for i in indices:
        leaf, _, tested = _walk(root, table.rows[i])
        test_total += float(sum(tc[a] for a in sorted(tested)))
        mc_total += mc[truth[i]][leaf["leaf"]]
    return test_total, mc_total, len(indices)


def _check_breakdown(label, reported, totals, problems):
    test_total, mc_total, count = totals
    expected = {
        "test_cost_total": test_total,
        "misclassification_total": mc_total,
        "count": count,
        "average": (test_total + mc_total) / count,
    }
    for key, value in expected.items():
        if not _close(float(reported[key]), float(value)):
            problems.append(f"{label} {key}: reported {reported[key]}, recomputed {value}")


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _lam_key(lam):
    return repr(float(lam))


def _expected_summary(rows):
    """The experiment summary's statistics, recomputed from its CSV rows."""
    lams = sorted({float(r["lambda"]) for r in rows})
    trials = sorted({int(r["trial"]) for r in rows})
    modes = {}
    for mode, flag in (("unpruned", "false"), ("pruned", "true")):
        cell = {(int(r["trial"]), float(r["lambda"])): r for r in rows if r["pruned"] == flag}
        per_lambda = {}
        for lam in lams:
            column = [cell[(t, lam)] for t in trials]
            per_lambda[_lam_key(lam)] = {
                f"mean_{col}": sum(float(r[col]) for r in column) / len(column)
                for col in ("train_avg_cost", "test_avg_cost", "tree_nodes")
            }
        wins = {_lam_key(lam): 0 for lam in lams}
        hits = 0
        for t in trials:
            tests = {lam: float(cell[(t, lam)]["test_avg_cost"]) for lam in lams}
            trains = {lam: float(cell[(t, lam)]["train_avg_cost"]) for lam in lams}
            for lam in lams:
                wins[_lam_key(lam)] += tests[lam] == min(tests.values())
            winner = max(lam for lam in lams if trains[lam] == min(trains.values()))
            hits += tests[winner] == min(tests.values())
        modes[mode] = {
            "per_lambda": per_lambda,
            "win_counts": wins,
            "winner_comin_test_rate": hits / len(trials),
        }
    reductions = {}
    for lam in lams:
        column = [
            float(r["reduction_ratio"])
            for r in rows
            if r["pruned"] == "true" and float(r["lambda"]) == lam
        ]
        reductions[_lam_key(lam)] = sum(column) / len(column)
    average = sum(reductions.values()) / len(reductions)
    return {
        "grid": lams,
        "modes": modes,
        "reduction": {"per_lambda_mean": reductions, "average_reduction_ratio": average},
    }


def _compare(label, reported, expected, problems):
    if isinstance(expected, dict):
        if not isinstance(reported, dict) or set(reported) != set(expected):
            problems.append(f"{label}: keys differ from the recomputed summary")
            return
        for key in expected:
            _compare(f"{label}.{key}", reported[key], expected[key], problems)
    elif isinstance(expected, list):
        if not isinstance(reported, list) or len(reported) != len(expected):
            problems.append(f"{label}: length differs from the recomputed summary")
            return
        for i, (r, e) in enumerate(zip(reported, expected)):
            _compare(f"{label}[{i}]", r, e, problems)
    elif isinstance(expected, int) and not isinstance(expected, bool):
        if reported != expected:
            problems.append(f"{label}: reported {reported}, recomputed {expected}")
    elif not isinstance(reported, (int, float)) or not _close(float(reported), expected):
        problems.append(f"{label}: reported {reported}, recomputed {expected}")


def check_experiment(op_dir, table: Table, trials: int, grid_size: int) -> list[str]:
    """Rows, per-exponent pruning gains and the summary of ``cstree experiment``."""
    op_dir = Path(op_dir)
    problems: list[str] = []
    rows = _read_rows(op_dir / "rows.csv")
    if len(rows) != trials * grid_size * 2:
        problems.append(f"{len(rows)} CSV rows, expected {trials} x {grid_size} x 2")
        return problems
    pairs: dict = {}
    for r in rows:
        pairs.setdefault((int(r["trial"]), float(r["lambda"])), {})[r["pruned"]] = r
    if len(pairs) != trials * grid_size or any(set(p) != {"true", "false"} for p in pairs.values()):
        problems.append("rows do not hold one unpruned and one pruned tree per trial and exponent")
        return problems
    for (trial, lam), pair in sorted(pairs.items()):
        before = float(pair["false"]["train_avg_cost"])
        after = float(pair["true"]["train_avg_cost"])
        ratio = float(pair["true"]["reduction_ratio"])
        if after > before:
            problems.append(f"trial {trial} lambda {lam}: pruning raised training cost")
        expected = (before - after) / before if before > 0 else 0.0
        if ratio < 0 or not _close(ratio, expected):
            problems.append(f"trial {trial} lambda {lam}: reduction_ratio {ratio}, expected {expected}")
    summary = json.loads((op_dir / "summary.json").read_text(encoding="utf-8"))
    _class_index([tuple(p) for p in summary["class_mapping"]], table, problems)
    if summary["trials"] != trials:
        problems.append(f"summary counts {summary['trials']} trials, expected {trials}")
    reported = {key: summary.get(key) for key in ("grid", "modes", "reduction")}
    _compare("summary", reported, _expected_summary(rows), problems)
    return problems


def _split(n, seed):
    """Train and test row indices of ``sweep --seed seed`` (a seeded permutation)."""
    perm = np.random.default_rng([seed, 0, 1]).permutation(n).tolist()
    size = int(math.floor(TRAIN_FRACTION * n + 0.5))
    return sorted(perm[:size]), sorted(perm[size:])


def _entropy(counts):
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c > 0)


def _score(left, right, weight):
    """Gain ratio times weight of one partition given class counts; None if inadmissible."""
    nl, nr = sum(left), sum(right)
    n = nl + nr
    parent = [a + b for a, b in zip(left, right)]
    gain = max(_entropy(parent) - nl / n * _entropy(left) - nr / n * _entropy(right), 0.0)
    split_info = _entropy([nl, nr])
    if gain <= 0 or split_info < MIN_SPLIT_INFO:
        return None
    return gain / split_info * weight


def best_root_score(table, truth, indices, k, tc, lam):
    """Brute-force maximum of gain ratio x tc**lam over every admissible threshold."""
    best = None
    for a in range(len(tc)):
        ordered = sorted((table.rows[i][a], truth[i]) for i in indices)
        total = [0] * k
        for _, c in ordered:
            total[c] += 1
        left = [0] * k
        for j in range(len(ordered) - 1):
            left[ordered[j][1]] += 1
            if ordered[j][0] == ordered[j + 1][0]:
                continue
            if j + 1 < MIN_LEAF or len(ordered) - j - 1 < MIN_LEAF:
                continue
            score = _score(left, [t - l for t, l in zip(total, left)], tc[a] ** lam)
            if score is not None and (best is None or score > best):
                best = score
    return best


def check_sweep(op_dir, table: Table, cost_path, seed: int, grid_size: int) -> list[str]:
    """Winners, the winning tree's reported costs and its root split of ``cstree sweep``."""
    op_dir = Path(op_dir)
    problems: list[str] = []
    tc, mc = _costs(cost_path)
    rows = _read_rows(op_dir / "rows.csv")
    summary = json.loads((op_dir / "summary.json").read_text(encoding="utf-8"))
    truth = _class_index([tuple(p) for p in summary["class_mapping"]], table, problems)
    if truth is None:
        return problems
    if len(rows) != grid_size * 2:
        problems.append(f"{len(rows)} CSV rows, expected {grid_size} x 2")
        return problems
    for mode, flag in (("unpruned", "false"), ("pruned", "true")):
        trains = {float(r["lambda"]): float(r["train_avg_cost"]) for r in rows if r["pruned"] == flag}
        lowest = min(trains.values())
        winner = max(lam for lam, avg in trains.items() if avg == lowest)
        if summary["winners"].get(mode) != winner:
            problems.append(f"{mode} winner {summary['winners'].get(mode)}, expected {winner}")
    doc = json.loads((op_dir / "tree.json").read_text(encoding="utf-8"))
    winner = summary["winners"]["pruned"]
    row = [r for r in rows if r["pruned"] == "true" and float(r["lambda"]) == winner]
    if len(row) != 1 or doc["lambda"] != winner or doc["test_costs"] != tc:
        problems.append("tree.json is not the pruned winner grown with the file's test costs")
        return problems
    train, test = _split(len(table.rows), seed)
    for side, indices in (("train", train), ("test", test)):
        test_total, mc_total, count = _walk_cost(doc["root"], table, truth, indices, tc, mc)
        reported = float(row[0][f"{side}_avg_cost"])
        if not _close(reported, (test_total + mc_total) / count):
            problems.append(f"winner {side} average {reported}, walked {(test_total + mc_total) / count}")
    problems += _leaf_histograms(doc["root"], table, truth, train, len(mc))
    root = doc["root"]
    if "leaf" in root:
        problems.append("the pruned winner is a single leaf; its root split cannot be checked")
        return problems
    k = len(mc)
    left, right = [0] * k, [0] * k
    for i in train:
        side = left if table.rows[i][root["attribute"]] <= root["threshold"] else right
        side[truth[i]] += 1
    chosen = _score(left, right, tc[root["attribute"]] ** winner)
    best = best_root_score(table, truth, train, k, tc, winner)
    if chosen is None or best is None or not _close(chosen, best, ROOT_REL):
        problems.append(f"root split scores {chosen}, brute-force maximum {best}")
    return problems


def _route(root, table, truth, indices, k):
    """Class counts of the rows reaching each leaf, keyed by the leaf's path."""
    counts: dict[str, list[int]] = {}
    for i in indices:
        _, path, _ = _walk(root, table.rows[i])
        counts.setdefault(path, [0] * k)[truth[i]] += 1
    return counts


def _leaves(node, path="root"):
    if "leaf" in node:
        yield path, node
    else:
        yield from _leaves(node["left"], path + ".left")
        yield from _leaves(node["right"], path + ".right")


def _leaf_histograms(root, table, truth, indices, k):
    routed = _route(root, table, truth, indices, k)
    problems = []
    for path, leaf in _leaves(root):
        if leaf["histogram"] != routed.get(path, [0] * k):
            problems.append(f"leaf {path} histogram {leaf['histogram']}, routed {routed.get(path)}")
    return problems


def _majority(hist):
    return max(range(len(hist)), key=lambda c: (hist[c], -c))


def _expected_trace(root, routed, tc, mc):
    """Post-order keep/prune totals of every internal node, and the pruned tree."""
    k = len(mc)
    entries = []

    def visit(node, path, above):
        """Returns (keep tests, keep penalties, histogram, pruned copy of node)."""
        if "leaf" in node:
            hist = routed.get(path, [0] * k)
            tests = float(sum(tc[a] for a in sorted(above))) * sum(hist)
            penalty = float(sum(c * mc[t][node["leaf"]] for t, c in enumerate(hist)))
            return tests, penalty, hist, node
        deeper = above | {node["attribute"]}
        lt, lm, lh, lnode = visit(node["left"], path + ".left", deeper)
        rt, rm, rh, rnode = visit(node["right"], path + ".right", deeper)
        hist = [a + b for a, b in zip(lh, rh)]
        count = sum(hist)
        keep_t, keep_m = lt + rt, lm + rm
        major = _majority(hist)
        prune_t = float(sum(tc[a] for a in sorted(above))) * count
        prune_m = float(sum(c * mc[t][major] for t, c in enumerate(hist)))
        pruned = (prune_t + prune_m) / count < (keep_t + keep_m) / count
        entries.append(
            {
                "node": path,
                "attribute": node["attribute"],
                "instances": count,
                "keep": (keep_t, keep_m, count),
                "prune": (prune_t, prune_m, count),
                "pruned": pruned,
            }
        )
        if pruned:
            return keep_t, keep_m, hist, {"leaf": major, "histogram": hist}
        copy = dict(node, left=lnode, right=rnode)
        return keep_t, keep_m, hist, copy

    *_, pruned_root = visit(root, "root", frozenset())
    return entries, pruned_root


def _check_trace(label, reported, expected, problems):
    if len(reported) != len(expected):
        problems.append(f"{label}: {len(reported)} trace entries, expected {len(expected)}")
        return
    for step, (got, want) in enumerate(zip(reported, expected), start=1):
        for key in ("node", "attribute", "instances", "pruned"):
            if got[key] != want[key]:
                problems.append(f"{label} step {step} {key}: {got[key]}, expected {want[key]}")
        _check_breakdown(f"{label} step {step} keep", got["keep"], want["keep"], problems)
        _check_breakdown(f"{label} step {step} prune", got["prune"], want["prune"], problems)


def check_train_replay(op_dir, table: Table, cost_path) -> list[str]:
    """``cstree train`` on every row, then ``cstree prune`` of its tree, then a replay."""
    op_dir = Path(op_dir)
    problems: list[str] = []
    tc, mc = _costs(cost_path)
    k = len(mc)
    report = json.loads((op_dir / "train.json").read_text(encoding="utf-8"))
    truth = _class_index([tuple(p) for p in report["class_mapping"]], table, problems)
    if truth is None:
        return problems
    everything = range(len(table.rows))
    tree = json.loads((op_dir / "tree.json").read_text(encoding="utf-8"))
    grown = _walk_cost(tree["root"], table, truth, everything, tc, mc)
    _check_breakdown("train report", report["train"], grown, problems)
    problems += _leaf_histograms(tree["root"], table, truth, everything, k)
    node_count = sum(2 for _ in _leaves(tree["root"])) - 1
    if report["nodes"] != node_count:
        problems.append(f"train reports {report['nodes']} nodes, tree.json has {node_count}")

    prune = json.loads((op_dir / "prune.json").read_text(encoding="utf-8"))
    if prune["class_mapping"] != report["class_mapping"]:
        problems.append("prune and train report different class mappings")
    _check_breakdown("prune initial", prune["initial"], grown, problems)
    routed = _route(tree["root"], table, truth, everything, k)
    entries, expected_root = _expected_trace(tree["root"], routed, tc, mc)
    _check_trace("prune trace", prune["trace"], entries, problems)
    pruned = json.loads((op_dir / "pruned_tree.json").read_text(encoding="utf-8"))
    if pruned["root"] != expected_root:
        problems.append("pruned_tree.json differs from the tree the trace's decisions leave")
    _check_breakdown(
        "prune final", prune["pruned"], _walk_cost(pruned["root"], table, truth, everything, tc, mc),
        problems,
    )
    if prune["pruned"]["average"] > prune["initial"]["average"]:
        problems.append("pruning raised the average cost")
    if not any(entry["pruned"] for entry in prune["trace"]) or "leaf" in pruned["root"]:
        problems.append("pruning should cut some subtrees but not the whole tree")

    replay = json.loads((op_dir / "replay.json").read_text(encoding="utf-8"))
    if any(entry["pruned"] for entry in replay["trace"]):
        problems.append("replaying the pruned tree pruned again")
    if (op_dir / "replay_tree.json").read_bytes() != (op_dir / "pruned_tree.json").read_bytes():
        problems.append("replaying the pruned tree changed it")
    if replay["initial"] != prune["pruned"] or replay["pruned"] != prune["pruned"]:
        problems.append("replay costs differ from the pruned costs")
    return problems
