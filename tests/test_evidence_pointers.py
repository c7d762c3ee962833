"""Measurement tables live in BENCH_*.json records and CHANGES.md entries,
not in the code, which keeps a pointer to each.  Every pointer must
resolve, so a moved or renamed record cannot leave a dead one behind."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "stiefel_cayley").glob("*.py"))


def _prose(path: Path) -> str:
    """The file's text with comment markers dropped and whitespace
    collapsed, so a pointer wrapped across comment lines reads as one."""
    text = re.sub(r"\n\s*#:?", " ", path.read_text(encoding="utf-8"))
    return " ".join(text.split())


def test_named_bench_records_exist():
    named = {name for path in SOURCES for name in re.findall(r"BENCH_\d+\.json", _prose(path))}
    assert named  # the tables moved out of the code point here
    assert sorted(name for name in named if not (ROOT / name).is_file()) == []


def test_changes_entry_pointers_resolve():
    """``CHANGES.md, the entry "<phrase>"`` names the one entry that begins
    with that phrase."""
    entries = (ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines()
    pointers = {(path.name, phrase) for path in SOURCES
                for phrase in re.findall(r'CHANGES\.md, the entry "([^"]+)"', _prose(path))}
    mentions = sum(_prose(path).count("CHANGES.md") for path in SOURCES)
    assert pointers and mentions == sum(
        len(re.findall(r'CHANGES\.md, the entry "', _prose(path))) for path in SOURCES)
    for where, phrase in sorted(pointers):
        starts = [line for line in entries if line.startswith(f"- {phrase}")]
        assert len(starts) == 1, (where, phrase)
