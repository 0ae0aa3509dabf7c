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
