"""The README's examples run as written: a deleted name or option fails here."""

import ast
import re
import shlex
from pathlib import Path

from ekrlab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(heading: str, lang: str) -> list[str]:
    """The ``lang`` code blocks of the ``## heading`` section, in order."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return [x.split("```", 1)[0] for x in section.split(f"```{lang}\n")[1:]]


def test_library_quick_tour():
    code = _blocks("Library quick tour", "python")[0]
    lines, ns, checked = code.splitlines(), {}, []
    for stmt in ast.parse(code).body:
        comment = lines[stmt.lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
            value = ns.get(stmt.targets[0].id) if isinstance(stmt, ast.Assign) else None
        if literal := re.fullmatch(r"(\d+|True|False)(,.*)?", comment):
            want = ast.literal_eval(literal[1])
            assert value == want and type(value) is type(want), (comment, value)
            checked.append(value)
        elif field := re.match(r"\w+\((\w+)=(\d+)", comment):  # e.g. SearchResult(max_size=18, ...)
            assert getattr(value, field[1]) == int(field[2]), (comment, value)
            checked.append(int(field[2]))
    assert checked == [18, 18, 2, True]


def test_cli_examples(tmp_path, monkeypatch, capsys):
    family, grids = _blocks("File formats", "json")
    (tmp_path / "family.json").write_text(family)
    (tmp_path / "grid.json").write_text(grids.splitlines()[0])  # the explicit-cells grid
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(x)[1:] for x in _blocks("CLI", "sh")[0].splitlines()
                if x.startswith("ekrlab ")]
    assert len(commands) == 14
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an unknown option or choice this way
            code = exc.code
        err = capsys.readouterr().err
        assert code != 2 and "internal error" not in err, (argv, code, err)
