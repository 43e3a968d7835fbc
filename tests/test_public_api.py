"""README's library examples run as written, and the public names resolve."""

import re
import subprocess
import sys
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


# Imports antjam and its CLI, runs a small jammed scenario through to report
# bytes, and prints every newly loaded top-level module outside the standard
# library. `__mp_main__` is the alias multiprocessing registers for the main
# module when the CLI imports its process pool.
STDLIB_ONLY = """
import sys
before = set(sys.modules)
import antjam, antjam.cli
from antjam.config import GridNetworkSpec, JammerSpec, ScenarioConfig
from antjam.reporting import report_json_bytes
cfg = ScenarioConfig(
    network=GridNetworkSpec(3, 3, 10.0, 12.0, pe=8),
    jammers=(JammerSpec("random", 10.0, 10.0, 0.01),),
    duration=10,
)
assert report_json_bytes(antjam.run_scenario(cfg, 1))
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(*sorted(loaded - sys.stdlib_module_names - {"antjam", "__mp_main__"}))
"""


def test_runtime_loads_only_the_standard_library(child_env):
    proc = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY], capture_output=True, text=True,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
