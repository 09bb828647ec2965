"""Every public name in `src/hyperlift` has a caller outside the tests.

A public top-level function, class or constant of a package module, and a
public method of a public class, must be named (as a whole word) somewhere in
`src/` other than its own definition, or in `scripts/` or `perfbench/`
outside their tests. What only the tests use belongs in the tests: the
oracles they check against, such as the finite-difference gradient checker,
live in `tests/reference.py`. `ALLOWED` names the exceptions, and has none.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperlift"

# Public names kept for the tests alone: "module.name" -> why.
ALLOWED = {}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, name, node) of each public definition in `tree`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{module}.{node.name}.{member.name}", member.name, member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield f"{module}.{name.id}", name.id, name


def _blank_name(line: str, name: str, node) -> str:
    """`line` with the defining occurrence of `name` replaced by spaces."""
    if isinstance(node, ast.Name):
        start = node.col_offset
    else:
        start = re.compile(rf"\b(def|class)\s+{re.escape(name)}\b").search(line, node.col_offset).start()
        start = line.index(name, start)
    return line[:start] + " " * len(name) + line[start + len(name):]


def census():
    """(every public definition, the text of every place that may call one),
    with each definition's own name blanked out of the text."""
    defined, texts = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for qualname, name, node in _definitions(ast.parse(source), path.stem):
            defined.append((qualname, name))
            lines[node.lineno - 1] = _blank_name(lines[node.lineno - 1], name, node)
        texts.append("\n".join(lines))
    for folder in ("scripts", "perfbench"):
        texts += [p.read_text() for p in sorted((ROOT / folder).rglob("*.py"))
                  if "tests" not in p.relative_to(ROOT).parts]
    return defined, "\n".join(texts)


def _uncalled():
    defined, text = census()
    return {q for q, name in defined if not re.search(rf"\b{re.escape(name)}\b", text)}


def test_every_public_name_has_a_caller_outside_the_tests():
    unexplained = sorted(_uncalled() - set(ALLOWED))
    assert not unexplained, f"public names that only tests use: {unexplained}"


def test_each_allowed_name_is_defined_and_uncalled():
    # an entry whose name gained a caller, or left src/, no longer needs one
    stale = sorted(set(ALLOWED) - _uncalled())
    assert not stale, f"allowlist entries that are not uncalled public names: {stale}"


def test_the_census_blanks_each_definition_and_nothing_else():
    defined, text = census()
    names = {q for q, _ in defined}
    assert {"peft.PEFT_METHODS", "autograd.ParamStore.add", "cli.main", "manifold.lift"} <= names
    assert "checkpoint._read" not in names  # private names are not public surface
    assert not re.search(r"\bdef lift\b", text)  # its definition is blanked
    assert re.search(r"\bPEFT_METHODS\b", text)  # the cli and PeftConfig still read it
