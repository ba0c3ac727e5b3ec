"""The README's tables against the code they describe: the Layout block
names exactly the package's modules, the refinement table lists
estimates.REFINEMENTS tag by tag, and the estimate-tag table lists
estimates.ALL_TAGS in order."""

import pathlib
import re

from ostrovsky.estimates import ALL_TAGS, REFINEMENTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def section(title):
    """The README text under a `## title` heading, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_layout_names_every_module():
    layout = section("Layout")
    package = layout.split("src/ostrovsky/\n", 1)[1].split("\n    scripts/", 1)[0]
    named = re.findall(r"^      (\w+\.py) ", package, flags=re.M)
    modules = sorted(p.name for p in (ROOT / "src" / "ostrovsky").glob("*.py"))
    assert sorted(named) == modules and len(named) == len(set(named))


def test_refinement_table_equals_refinements():
    rows = README.split("\n| tag | refinements |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for tags, cell in re.findall(r"^\| ([\d., ]+) \| (.+) \|$", rows, flags=re.M):
        names = () if cell == "none" else tuple(re.findall(r"`(\w+)`", cell))
        for tag in tags.split(", "):
            assert tag not in table, f"tag {tag} listed twice"
            table[tag] = names
    assert table == REFINEMENTS


def test_estimate_tag_table_lists_all_tags_in_order():
    rows = README.split("\n| tag   | probed bound |\n|-------|--------------|\n", 1)[1]
    rows = rows.split("\n\n", 1)[0]
    tags = re.findall(r"^\| ([\d.]+) +\| ", rows, flags=re.M)
    assert tuple(tags) == ALL_TAGS and len(rows.splitlines()) == len(tags)
