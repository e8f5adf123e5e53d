"""README's "Library usage" example runs as written, so the documented API
cannot drift from the code."""

import re
from pathlib import Path

from cluster_mlp.mlp import load_model

README = Path(__file__).resolve().parent.parent / "README.md"


def library_usage_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library usage", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library usage section has no python block"
    return match.group(1)


def test_library_usage_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the example writes model.json
    namespace = {}
    exec(compile(library_usage_block(), str(README), "exec"), namespace)
    report = namespace["report"]
    assert load_model(tmp_path / "model.json").spec == report.spec
    assert namespace["dbscan"].k == report.k == 5
    assert str(report.spec) in capsys.readouterr().out
