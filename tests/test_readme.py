"""The README's "Python API" block is the documented API: it must run as
written, with no names defined outside it."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, f"{README}:Python API", "exec"), namespace)
    report, doc = namespace["report"], namespace["doc"]
    assert 0.0 <= report.ks_cont <= 1.0 and 0.0 <= report.f1 <= 1.0
    assert 0.0 <= doc["mia_accuracy"] <= 1.0 and 0.0 <= doc["mia_auc"] <= 1.0
    assert list(doc)[-2:] == ["mia_accuracy", "mia_auc"]
    assert "ks_cont" in capsys.readouterr().out
