"""The README quick start prints what the comments on its lines say, and
every command of its command-line block parses."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from medianflip.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DECIMAL = re.compile(r"-?\d+\.\d+")


def _rounded_like(printed, claim):
    """printed with each decimal rounded to the places that the decimal
    in the same position of claim shows."""
    places = iter(len(d.split(".")[1]) for d in DECIMAL.findall(claim))
    return DECIMAL.sub(lambda m: f"{float(m.group()):.{next(places)}f}",
                       printed)


def test_quick_start_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    claims = [line.split("#", 1)[1].strip() for line in block.splitlines()
              if line.startswith("print(")]
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", block],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(claims)
    shown = [_rounded_like(p, c) for p, c in zip(printed, claims)]
    assert shown == ["0.4792", "{0: 0.0}", "0.5700 True"]
    for value, claim in zip(shown, claims):
        assert claim.startswith(value)


def test_command_line_block_parses():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line.split("#", 1)[0])
                for line in block.splitlines() if line.strip()]
    assert len(commands) == 8
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "medianflip"
        parser.parse_args(argv[1:])  # argparse exits on an invalid command
