"""README's "Library usage" example and its CLI blob demo run as written,
so the documented API and configs cannot drift from the code."""

import json
import re
from pathlib import Path

from cluster_mlp.cli import EXIT_OK, main
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


def blob_demo() -> tuple[list[list[str]], list[str]]:
    """The demo's commands, each as main's argv, and its three config
    blocks in order: blobs.json, demo.json, kmins.json."""
    section = README.read_text(encoding="utf-8").split("The blob demo and the kmin study", 1)[1]
    section = section.split("\n## ", 1)[0]
    command = re.search(r"```sh\n(.*?)\n```", section, re.DOTALL).group(1)
    argvs = [part.split()[1:] for part in command.split("&&")]
    assert all(part.split()[0] == "cluster-mlp" for part in command.split("&&"))
    return argvs, re.findall(r"```json\n(.*?)```", section, re.DOTALL)


def test_cli_blob_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the configs name relative paths
    argvs, blocks = blob_demo()
    assert [argv[0] for argv in argvs] == ["synth", "pipeline", "stability"]
    assert [argv[1] for argv in argvs] == ["blobs.json", "demo.json", "kmins.json"]
    for argv, block in zip(argvs, blocks, strict=True):
        (tmp_path / argv[1]).write_text(block, encoding="utf-8")
    for argv in argvs:
        assert main(argv) == EXIT_OK, argv
    demo = json.loads((tmp_path / "demo-report.json").read_text())["body"]
    kmins = json.loads((tmp_path / "kmin-report.json").read_text())["body"]
    assert demo["k"] == 5
    assert [row["kmin"] for row in kmins["rows"]] == [2, 3, 4, 5, 6, 8, 10]
