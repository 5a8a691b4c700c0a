"""The registry page must mirror the code registry exactly, and the
README's scenario example must parse."""

import dataclasses
import pathlib
import re

from relqft.config import DEFAULT_CONFIG, parse_config
from relqft.scenarios import CHECKS, SUITES

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "check_registry.md"
README = ROOT / "README.md"


def markdown_tables(text):
    tables = []
    rows = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("|"):
            cells = [c.strip() for c in stripped.strip("|").split("|")]
            if all(set(c) <= {"-"} for c in cells):
                continue  # separator row
            if rows is None:
                rows = []
                tables.append(rows)
            rows.append(cells)
        else:
            rows = None
    return tables


def test_check_table_matches_registry():
    tables = markdown_tables(DOC.read_text(encoding="utf-8"))
    header, *rows = tables[0]
    assert header == ["check", "suite", "anchor", "verifies"]
    assert [r[0] for r in rows] == list(CHECKS)
    suite_of = {name: suite for suite, names in SUITES.items()
                if suite != "all" for name in names}
    for name, suite, anchor, verifies in rows:
        assert suite == suite_of[name]
        assert anchor == CHECKS[name].anchor
        assert verifies == CHECKS[name].summary


def test_suite_table_matches_registry():
    tables = markdown_tables(DOC.read_text(encoding="utf-8"))
    header, *rows = tables[1]
    assert header == ["suite", "checks"]
    listed = {suite: tuple(part.strip() for part in members.split(","))
              for suite, members in rows}
    expected = {suite: names for suite, names in SUITES.items()
                if suite != "all"}
    assert listed == expected


def test_verdicts_documented():
    text = DOC.read_text(encoding="utf-8")
    for verdict in ("verified", "vacuous", "failed", "no-certificate"):
        assert verdict in text


def test_readme_scenario_example_parses():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Scenario configs", 1)[1]
    blocks = re.findall(r"```json\n(.*?)```", section, flags=re.S)
    assert blocks, "no json block under 'Scenario configs'"
    cfg = parse_config(blocks[0], path="README.md")
    # the example spells out the bundled scenario plus one override
    assert cfg.tolerances == {"tol_eq": 1e-10}
    assert dataclasses.replace(cfg, tolerances={}) == DEFAULT_CONFIG
