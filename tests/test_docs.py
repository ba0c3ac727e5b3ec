"""The README against the code it describes: the Layout block names
exactly the package's modules, the refinement table lists each record's
refinements in estimates.TAGS, the estimate-tag table lists the tags of
estimates.TAGS in order, the exit codes are those cli.main returns for
each error type of ostrovsky.errors, the kernel's work-unit figures are
those of its constants, and each test the README names exists and holds
the bound the README gives with it."""

import ast
import builtins
import functools
import pathlib
import re

import pytest

from ostrovsky import cli, errors, kernel
from ostrovsky.estimates import TAGS

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
    assert table == {tag: record.refinements for tag, record in TAGS.items()}


def test_estimate_tag_table_lists_all_tags_in_order():
    rows = README.split("\n| tag   | probed bound |\n|-------|--------------|\n", 1)[1]
    rows = rows.split("\n\n", 1)[0]
    tags = re.findall(r"^\| ([\d.]+) +\| ", rows, flags=re.M)
    assert tuple(tags) == tuple(TAGS) and len(rows.splitlines()) == len(tags)


def exit_codes():
    """({type name: code} of the README's "every `errors.X` ... exits N"
    sentence, {label: code} of its "Exit codes:" list), with the cases in
    parentheses dropped from the list."""
    text = " ".join(README.split("Exit codes: ", 1)[0].rsplit("\n\n", 1)[1].split())
    by_type = {name: int(code)
               for clause, code in re.findall(r"((?:every `[\w.]+`(?: and )?)+) exits (\d)", text)
               for name in re.findall(r"`(?:errors\.)?(\w+)`", clause)}
    flat, depth = "", 0
    for char in " ".join(README.split("Exit codes: ", 1)[1].split("\n\n", 1)[0].split()):
        depth += (char == "(") - (char == ")")
        flat += char if depth == 0 and char != ")" else ""
    listed = {label: int(code) for code, label in re.findall(r"(\d) ([a-z ]+?) *[,.]", flat)}
    return by_type, listed


def test_exit_code_list_agrees_with_the_type_rule():
    by_type, listed = exit_codes()
    assert by_type == {"ConfigError": 1, "OSError": 1, "RunAborted": 2}
    assert listed == {"success": 0, "config or input error": by_type["ConfigError"],
                      "run aborted": by_type["RunAborted"], "invariant violation": 3}


ERROR_TYPES = [value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, Exception)]


@pytest.mark.parametrize("error_type", ERROR_TYPES + [OSError], ids=lambda t: t.__name__)
def test_each_error_type_exits_with_the_listed_code(tmp_path, monkeypatch, capsys, error_type):
    by_type, _ = exit_codes()
    (base,) = [name for name in by_type
               if issubclass(error_type, vars(errors).get(name) or vars(builtins)[name])]
    error = error_type.__new__(error_type)  # the types' own arguments differ
    Exception.__init__(error, "stub failure")

    def command(section, args):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "probe-estimates", command)
    argv = ["probe-estimates", "--which", "2.03", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == by_type[base]
    assert capsys.readouterr().err.endswith(": stub failure\n")


def test_kernel_work_unit_figures_equal_the_constants():
    text = " ".join(README.split())
    (panels,) = re.findall(r"`kernel\.CHUNK_PANELS` = 2\^16 // 31 = (\d+) Gauss-Kronrod", text)
    (points,) = re.findall(r"max\(1, `CHUNK_PANELS` \* 31 // `LEVIN_NODES`\) = (\d+) points",
                           text)
    assert int(panels) == kernel.CHUNK_PANELS == 2**16 // 31
    assert int(points) == max(1, kernel.CHUNK_PANELS * kernel._KRONROD_NODES.size
                              // kernel.LEVIN_NODES)


@functools.cache
def suite_sources():
    """{(class name or None, test name): source} over tests/test_*.py."""
    sources = {}
    for path in (ROOT / "tests").glob("test_*.py"):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.parse(text).body:
            methods = node.body if isinstance(node, ast.ClassDef) else [node]
            owner = node.name if isinstance(node, ast.ClassDef) else None
            for method in methods:
                if isinstance(method, ast.FunctionDef) and method.name.startswith("test_"):
                    source = lines[method.lineno - 1:method.end_lineno]
                    sources[owner, method.name] = "\n".join(source)
    return sources


def named_test(name, sources):
    """Source of the test the README names as `Class::test` or `test`."""
    owner, _, test = name.rpartition("::")
    found = [source for (cls, fn), source in sources.items()
             if fn == test and (not owner or cls == owner)]
    assert len(found) == 1, f"README names {name}, which is not one test"
    return found[0]


NAMED_TESTS = re.findall(r"`((?:Test\w+::)?test_\w+)`", " ".join(README.split()))
NAMED_BOUNDS = re.findall(r"within (\d+e-\d+) relative \(`((?:Test\w+::)?test_\w+)`\)",
                          " ".join(README.split()))


def test_readme_names_tests_and_two_bounds():
    assert NAMED_TESTS and len(NAMED_BOUNDS) == 2
    assert {name for _, name in NAMED_BOUNDS} <= set(NAMED_TESTS)


@pytest.mark.parametrize("name", NAMED_TESTS)
def test_named_test_exists(name):
    named_test(name, suite_sources())


@pytest.mark.parametrize("figure,name", NAMED_BOUNDS)
def test_named_test_holds_its_bound(figure, name):
    assert re.search(rf"\br(?:el|tol)={figure}\b", named_test(name, suite_sources())), name
