"""The run directory as the one writer of --out.

Every command that writes files (the three `run-*` commands, `dequantize`,
`spectrum`, `convergence` and `verify`) writes them through `runs._RunDir`,
which hashes each file's bytes as it writes them. So the manifest is an
oracle of the files on disk, no command opens a file that it wrote for
reading, and an --out that cannot be made a directory ends in one line and
exit 2 before any work.
"""

import builtins
import hashlib
import io
import json
from pathlib import Path

import pytest

from schrofield import brackets
from schrofield.cli import main

_CONFIG = {
    "grid": {"n": 64, "x_min": -9.0, "x_max": 9.0},
    "potential": {"name": "harmonic", "omega": 1.0},
    "initial_state": "eigenstate:0",
    "dt": 0.002,
    "t_final": 0.04,
    "output": {"snapshot_stride": 10},
}
# command -> (integrator, further arguments)
COMMANDS = {
    "run-schrodinger": ("crank_nicolson", []),
    "run-field": ("leapfrog", []),
    "run-constrained": ("rk4", []),
    "dequantize": ("spectral", []),
    "spectrum": ("spectral", []),
    "convergence": ("spectral", []),
    "verify": ("spectral", ["--seed", "7"]),
}


def _argv(tmp_path, command, out, quiet=True):
    integrator, extra = COMMANDS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_CONFIG, "integrator": integrator}), encoding="utf-8")
    argv = [command, "--config", str(cfg), *extra]
    argv += [] if out is None else ["--out", str(out)]
    return argv + (["--quiet"] if quiet else [])


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_digests_are_those_of_the_files_on_disk(tmp_path, command):
    out = tmp_path / "run"
    assert main(_argv(tmp_path, command, out)) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert [f["path"] for f in files] == sorted(
        p.name for p in out.iterdir() if p.name != "manifest.json"
    )
    for entry in files:
        data = (out / entry["path"]).read_bytes()
        assert entry["bytes"] == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_reads_back_a_file_it_wrote(tmp_path, monkeypatch, command):
    # the manifest's digests come from the bytes as they are written
    out = tmp_path / "run"
    opened, real_open = [], io.open

    def recording_open(file, mode="r", *args, **kwargs):
        opened.append((Path(str(file)), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    assert main(_argv(tmp_path, command, out)) == 0
    modes = [mode for path, mode in opened if path.parent == out]
    assert "manifest.json" in {path.name for path, _ in opened}
    assert modes and all("w" in mode and "+" not in mode for mode in modes)


@pytest.mark.parametrize("under_a_file", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", COMMANDS)
def test_an_unusable_out_is_one_line_and_exit_2(tmp_path, capsys, monkeypatch, command, under_a_file):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    out = taken / "sub" if under_a_file else taken
    # verify makes its run directory before its first check
    monkeypatch.setattr(brackets, "dirac_structure", lambda *a, **k: pytest.fail("a check ran"))
    assert main(_argv(tmp_path, command, out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot make the output directory {out}: " + (
        "Not a directory\n" if under_a_file else "File exists\n"
    )
    assert captured.out == ""
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


def test_verify_prints_the_same_with_and_without_out(tmp_path, capsys):
    assert main(_argv(tmp_path, "verify", None, quiet=False)) == 0
    without = capsys.readouterr().out
    assert main(_argv(tmp_path, "verify", tmp_path / "run", quiet=False)) == 0
    assert capsys.readouterr().out == without
    lines = without.splitlines()
    report = json.loads((tmp_path / "run" / "verify_report.json").read_text())
    assert len(lines) == len(report["identities"]) + 1
    assert all(line.startswith(("PASS ", "FAIL ")) for line in lines[:-1])
    assert lines[-1] == "verify: all pass"


def test_render_refuses_a_missing_run_directory(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert main(["render", "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no run directory {missing}\n"
    assert captured.out == "" and not missing.exists()
