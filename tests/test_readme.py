import os
import re
import subprocess
import sys
from pathlib import Path

import wdag

ROOT = Path(__file__).resolve().parents[1]


def test_quick_start_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    env = {**os.environ, "PYTHONPATH": str(Path(wdag.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert done.stdout.splitlines() == [
        "VWDigraph(dims=(2, 3, 3, 3), [1->2:01, 1->4:11, 4->2:100, 4->3:011])",
        "432",
        "25",
        "3",
    ]
