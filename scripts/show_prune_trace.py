"""Walk the bundled tree through cost-based pruning, step by step."""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from cstree.costs import load_cost_file
from cstree.data import load_csv
from cstree.evaluation import average_cost
from cstree.pruning import post_prune
from cstree.tree import check_training_rows, deserialize

ASSETS = REPO / "tests" / "assets"


def main() -> int:
    dataset = load_csv(ASSETS / "diabetes_sample.csv")
    tree = deserialize((ASSETS / "prune_example_tree.json").read_text(encoding="utf-8"))
    tc, mc = load_cost_file(ASSETS / "example_costs.json")
    check_training_rows(tree, dataset)

    initial = average_cost(tree, dataset, tc, mc)
    print(f"tree: {tree.node_count()} nodes, exponent {tree.lambda_used}")
    print(f"test costs {tuple(int(c) for c in tc.costs)}")
    print(f"initial average cost {initial.average:.4f} over {initial.count} rows")
    print()

    pruned, trace = post_prune(tree, tc, mc)
    for step, entry in enumerate(trace, start=1):
        word = "PRUNE" if entry.pruned else "keep"
        print(
            f"step {step}: attribute a{entry.attribute + 1} over "
            f"{entry.instance_count:2d} rows  "
            f"keep {entry.cost_keep.average:8.4f} "
            f"(tests {entry.cost_keep.test_cost_total:5.0f}, "
            f"penalties {entry.cost_keep.misclassification_total:4.0f})  "
            f"prune {entry.cost_prune.average:8.4f} "
            f"(tests {entry.cost_prune.test_cost_total:5.0f}, "
            f"penalties {entry.cost_prune.misclassification_total:4.0f})  "
            f"-> {word}"
        )

    final = average_cost(pruned, dataset, tc, mc)
    print()
    print(f"pruned: {pruned.node_count()} nodes, average cost {final.average:.4f}")
    saving = (initial.average - final.average) / initial.average
    print(f"reduction ratio {saving:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
