"""The demo scripts run end to end."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_show_prune_trace_reaches_the_pruned_tree():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "show_prune_trace.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    pruned = [line for line in result.stdout.splitlines() if line.startswith("pruned:")]
    assert pruned == ["pruned: 5 nodes, average cost 8.1667"]


def test_run_sample_experiments_repeats_its_reports(tmp_path):
    outputs = []
    for run in ("first", "second"):
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / "run_sample_experiments.py"), "--trials", "2",
             "--out-dir", str(tmp_path / run)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        outputs.append({path.name: path.read_bytes() for path in (tmp_path / run).iterdir()})
    expected = {
        f"{kind}_{part}"
        for kind in ("uniform", "normal", "pareto")
        for part in ("rows.csv", "summary.json")
    }
    assert set(outputs[0]) == expected
    assert outputs[0] == outputs[1]
