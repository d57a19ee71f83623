"""EXPERIMENTS.md quotes the bench gates' outputs verbatim.

Each fenced block opened as ```` ```text benchmarks/out/<name>.txt ````
must be a contiguous run of that file's lines (both sides stripped of
trailing blanks: ``ascii_table`` pads its cells), and every
``benchmarks/out/*.txt`` must be quoted by at least one block.  The
committed outputs are then the only copy of each measured number, and a
regenerated output that the record does not re-copy fails here.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
EXPERIMENTS = REPO / "EXPERIMENTS.md"
OUT = "benchmarks/out/"

OPENING = re.compile(r"^```text (\S+)\s*$")


def quoted_blocks(text: str) -> list[tuple[str, list[str]]]:
    """``(path, lines)`` of every block opened as ```` ```text <path> ````."""
    blocks = []
    lines = iter(text.splitlines())
    for line in lines:
        opened = OPENING.match(line)
        if opened is None:
            continue
        body = []
        for line in lines:
            if line.startswith("```"):
                break
            body.append(line.rstrip())
        blocks.append((opened.group(1), body))
    return blocks


def record_faults(text: str, repo: Path = REPO) -> list[str]:
    """What in ``text`` (an EXPERIMENTS.md) does not quote ``repo``'s
    ``benchmarks/out/`` verbatim, one line per fault; empty when it all
    does."""
    faults = []
    quoted = set()
    for number, (name, body) in enumerate(quoted_blocks(text), start=1):
        path = repo / name
        if not name.startswith(OUT) or not path.is_file():
            faults.append(f"block {number} names no file under {OUT}: {name}")
            continue
        quoted.add(path.name)
        lines = [line.rstrip() for line in path.read_text().splitlines()]
        span = len(body)
        if span == 0 or not any(
            lines[start:start + span] == body
            for start in range(len(lines) - span + 1)
        ):
            faults.append(
                f"block {number} is not a contiguous run of {name}'s lines"
            )
    for path in sorted((repo / OUT).glob("*.txt")):
        if path.name not in quoted:
            faults.append(f"{OUT}{path.name} is quoted by no block")
    return faults


def test_experiments_quotes_every_output_verbatim():
    assert record_faults(EXPERIMENTS.read_text()) == []


def test_one_changed_digit_inside_a_block_is_reported():
    lines = EXPERIMENTS.read_text().splitlines()
    opened = next(i for i, line in enumerate(lines) if OPENING.match(line))
    # the last digit of the block's first measured decimal
    row = next(
        i for i in range(opened + 1, len(lines))
        if re.search(r"\d\.\d", lines[i])
    )
    end = re.search(r"\d\.\d+", lines[row]).end()
    changed = str((int(lines[row][end - 1]) + 1) % 10)
    lines[row] = lines[row][:end - 1] + changed + lines[row][end:]
    assert record_faults("\n".join(lines)) == [
        "block 1 is not a contiguous run of "
        f"{OPENING.match(lines[opened]).group(1)}'s lines"
    ]


def test_a_block_naming_a_missing_file_is_reported():
    text = EXPERIMENTS.read_text() + (
        "\n```text benchmarks/out/no_such_output.txt\nrow\n```\n"
    )
    faults = record_faults(text)
    assert len(faults) == 1
    assert faults[0].endswith("names no file under benchmarks/out/: "
                              "benchmarks/out/no_such_output.txt")


def test_unquoted_outputs_and_foreign_paths_are_reported(tmp_path):
    out = tmp_path / OUT
    out.mkdir(parents=True)
    (out / "quoted.txt").write_text("title\na  | 1.0   \nb  | 2.0   \n")
    (out / "unquoted.txt").write_text("title\n")
    (tmp_path / "README.md").write_text("title\n")
    text = (
        "```text benchmarks/out/quoted.txt\na  | 1.0\nb  | 2.0\n```\n"
        "```text README.md\ntitle\n```\n"
        "```text benchmarks/out/quoted.txt\n```\n"
    )
    assert record_faults(text, tmp_path) == [
        "block 2 names no file under benchmarks/out/: README.md",
        "block 3 is not a contiguous run of benchmarks/out/quoted.txt's lines",
        "benchmarks/out/unquoted.txt is quoted by no block",
    ]
