import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```",
                      README.read_text(), re.MULTILINE | re.DOTALL)
    assert match, "README has no python block under '## Library use'"
    namespace = {}
    exec(compile(match.group(1), str(README), "exec"), namespace)
    pick = namespace["pick"]
    assert pick.range_m == pytest.approx(0.6, abs=0.05)
    assert pick.velocity_mps == pytest.approx(-0.075, abs=0.01)
