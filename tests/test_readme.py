"""The README's library example runs against the installed package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], f"{README}:python", "exec"), namespace)
    # the fitted lines give back the (D, E) the example simulated
    assert abs(namespace["params"].D - 1392.0) < 0.1
    assert abs(namespace["params"].E - 53.0) < 0.1
