"""README's library examples run as written, and the public names resolve."""

import re
from pathlib import Path

import antjam

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    library_use, standalone_search = blocks("python")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "demo.cfg").write_text(blocks("ini")[0])

    exec(library_use, {})
    pdr, reroutes = capsys.readouterr().out.split()
    # the Quick start's account of seed 7: pdr 0.89, one reroute
    assert round(float(pdr), 2) == 0.89 and reroutes == "1"

    exec(standalone_search, {})
    assert capsys.readouterr().out == "(0, 3, 6, 7, 8) 0.025\n"


def test_every_public_name_resolves():
    for name in antjam.__all__:
        assert getattr(antjam, name) is not None, name
