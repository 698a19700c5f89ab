"""The docs match the repository: every repo path README.md, DESIGN.md
and EXPERIMENTS.md cite exists, and every cell of EXPERIMENTS.md's
Figure 10–14 and Table 1 tables equals the committed
``benchmarks/results/*.txt`` value, rounded to the digits it prints."""

import glob
import itertools
import os
import re

import pytest

REPO = os.path.join(os.path.dirname(__file__), "..")
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
#: where a cited path may be rooted (``meta/search.py`` is a module path)
BASES = ["", "src", "src/repro", "benchmarks", "examples"]
#: first path segments that name something in the repository
ROOTS = {name for base in BASES for name in os.listdir(os.path.join(REPO, base))}


def _read(name):
    with open(os.path.join(REPO, name)) as f:
        return f.read()


def _cited_paths(text):
    for span in re.findall(r"`([^`\s]+)`", text):
        path = re.split(r"::|:\d", span)[0]
        if "/" in path:
            if path.split("/")[0] in ROOTS:
                yield path
        elif re.search(r"\.(py|md|json|txt)$", path):
            yield path


@pytest.mark.parametrize("doc", DOCS)
def test_cited_paths_exist(doc):
    missing = [
        path for path in sorted(set(_cited_paths(_read(doc))))
        if not any(glob.glob(os.path.join(REPO, base, path)) for base in BASES)
    ]
    assert not missing, f"{doc} cites missing paths: {missing}"


def _table_rows(section):
    """``{label: [cells]}`` of the first markdown table in ``section``."""
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    rows = [line.strip().strip("|").split("|") for line in table]
    return {row[0].strip(): [c.strip() for c in row[1:]] for row in rows}


def _rounded_like(printed, value):
    """``value`` rounded to the decimals ``printed`` shows."""
    number = re.fullmatch(r"\d+(?:\.(\d+))?(\D*)", printed)
    measured = re.fullmatch(r"(\d+(?:\.\d+)?)(\D*)", value)
    if number is None or measured is None:
        return value
    digits = len(number.group(1) or "")
    return f"{float(measured.group(1)):.{digits}f}{measured.group(2)}"


SECTIONS = ["Figure 10", "Figure 11", "Figure 12", "Figure 13", "Figure 14", "Table 1"]


@pytest.mark.parametrize("title", SECTIONS)
def test_experiments_tables_match_results(title):
    text = _read("EXPERIMENTS.md")
    section = re.search(rf"^## {title} .*?(?=^## )", text, re.M | re.S).group(0)
    doc_rows = _table_rows(section)
    result_file = f"benchmarks/results/{title.lower().replace(' ', '')}.txt"
    result_rows = {line.split()[0]: line.split()[1:] for line in _read(result_file).splitlines()
                   if line.strip()}
    assert doc_rows
    for label, cells in doc_rows.items():
        # The doc prints the trailing columns of each results row.
        values = result_rows[label][-len(cells):]
        assert cells == [_rounded_like(c, v) for c, v in zip(cells, values)], (title, label)
