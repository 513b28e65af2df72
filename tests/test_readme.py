"""The README's quick start runs as written.

Its `sh` block is read from `README.md`, with `\\` continuations joined
and each command split as a shell splits it, and run through `cli.main`
in a fresh directory that holds the README's `config.yaml`. Only
`shapefeat` is imported, so this also runs against an installed package.
"""
import re
import shlex
from pathlib import Path

from shapefeat import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The quick start's commands, each an argv without `shapefeat`, and its config text."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):]
    script = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    config = re.search(r"`config\.yaml`:\s*```yaml\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in script.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "shapefeat", line
            commands.append(argv[1:])
    return commands, config


def test_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    commands, config = quick_start()
    assert [argv[0] for argv in commands] == [
        "synth", "synth", "train", "classify", "eval", "compare", "roc", "freq",
    ]
    (tmp_path / "config.yaml").write_text(config)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
        outs = [value for flag, value in zip(argv, argv[1:]) if flag.startswith("--out")]
        assert outs, argv
        for out in outs:
            assert (tmp_path / out).is_file(), (argv, out)
