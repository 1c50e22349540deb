"""The README's library example and CLI block run against the library as it is."""

import json
import re
from pathlib import Path

from schrofield.cli import main
from schrofield.config import build_scenario, config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_first_python_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README.md has no python block"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})


def _block(text, opening, first_word):
    """The first fenced block opened by `opening` whose text starts with first_word."""
    pattern = rf"^{re.escape(opening)}\n(.*?)^```$"
    blocks = re.findall(pattern, text, flags=re.DOTALL | re.MULTILINE)
    return next(b for b in blocks if b.startswith(first_word))


# The integrator each command runs with; the README config's own is crank_nicolson.
INTEGRATORS = {"run-field": "leapfrog", "run-constrained": "rk4"}


def test_readme_cli_block_runs(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    raw = json.loads(_block(text, "```json", "{"))
    build_scenario(config_from_dict(raw))

    # The README's shape, shrunk: 20 steps on 40 points.
    raw["grid"]["n"] = 40
    raw["t_final"] = 20 * raw["dt"]
    lines = _block(text, "```", "schrofield ").splitlines()
    for i, line in enumerate(lines):
        program, command, *args = line.split("#")[0].split()
        assert program == "schrofield"
        cfg = tmp_path / f"cfg_{i}.json"
        integrator = INTEGRATORS.get(command, raw["integrator"])
        cfg.write_text(json.dumps({**raw, "integrator": integrator}))
        out = tmp_path / f"run_{i}"
        out.mkdir()
        args = [str(cfg) if a == "cfg.json" else str(out) if a == "run/" else a for a in args]
        assert main([command, *args]) == 0, (line, capsys.readouterr())
        manifest = out / "manifest.json"
        if manifest.exists():
            listed = [f["path"] for f in json.loads(manifest.read_text())["files"]]
            assert listed == sorted(p.name for p in out.iterdir() if p != manifest), line
