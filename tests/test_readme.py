import re
from pathlib import Path

import pytest

from csisense.scenarios import _KEYS

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


def test_scenario_key_table_matches_parser():
    section = README.read_text().split("## Scenario files\n", 1)[1]
    rows = re.findall(r"^\| (.*?) \|", section.split("\n## ", 1)[0],
                      re.MULTILINE)
    keys = {key for row in rows[2:] for key in re.findall(r"`(\w+)`", row)}
    assert keys == set(_KEYS)
