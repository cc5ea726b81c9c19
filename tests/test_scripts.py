"""The maintenance scripts, run in-process on small inputs."""

import ast
import importlib.util
import pathlib

import pytest

import lagsurf.cli
from lagsurf.dsl import parse_front
from lagsurf.render import render_svg
from lagsurf.table import derive_table

ROOT = pathlib.Path(__file__).parent.parent


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regenerate_table(capsys):
    code = load_script("regenerate_table").run(["--min-chi", "-3", "--deep-check", "-4"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == [
        "chi   0: -4",
        "chi  -1: -6 -2",
        "chi  -2: -8 -4 0",
        "chi  -3: -10 -6 -2 2",
    ]
    assert captured.err.splitlines() == [
        "replayed 10 witnesses",
        "closure matches the classifier to chi -4 (15 nodes)",
    ]


def test_regenerate_table_reports_a_bad_witness(capsys, monkeypatch):
    script = load_script("regenerate_table")
    monkeypatch.setattr(script, "euler_number", lambda surface: 99)
    code = script.run(["--min-chi", "-1", "--deep-check", "-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: witness for (chi, e) = (0, -4) replays to (0, 99)")


def test_regenerate_table_takes_one_surface_step_per_node(capsys, monkeypatch):
    calls = []
    verbs = lagsurf.cli._script_verbs()
    for verb, (operation, kinds) in list(verbs.items()):
        def counted(*args, verb=verb, operation=operation):
            calls.append(verb)
            return operation(*args)

        monkeypatch.setitem(verbs, verb, (counted, kinds))
    code = load_script("regenerate_table").run(["--min-chi", "-12", "--deep-check", "-1"])
    capsys.readouterr()
    assert code == 0
    # the seed's klein line, then one rule line per other node
    assert len(calls) == len(derive_table(-12).nodes) == 79
    assert calls[0] == "klein" and set(calls[1:]) == {"glue3", "smooth"}


def test_regenerate_table_deep_check_below_the_floor_is_a_usage_error(capsys):
    # the closure holds about 0.38 chi^2 nodes; at -10^8 the check never ends;
    # and the grid starts at chi 0
    for option, value, bound in [
        ("--deep-check", "-2001", "at least -2000"),
        ("--deep-check", "-100000000", "at least -2000"),
        ("--deep-check", "1", "at most 0"),
        ("--min-chi", "1", "at most 0"),
    ]:
        with pytest.raises(SystemExit) as exc:
            load_script("regenerate_table").run([option, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert line.endswith(f"error: argument {option}: must be {bound}, got {value}")


def test_no_behaviour_rests_on_assert():
    # ``python -O`` strips assert statements, so the library and the scripts
    # check with ``if`` and raise
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")])
    assert len(paths) > 10
    asserts = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_render_corpus(tmp_path, capsys):
    code = load_script("render_corpus").run(["--out-dir", str(tmp_path)])
    assert code == 0
    paths = sorted((ROOT / "corpus").glob("*.front"))
    assert len(list(tmp_path.glob("*.svg"))) == len(paths) == 20
    for path in paths:
        doc = parse_front(path.read_text())
        svg = (tmp_path / f"{doc.name}.svg").read_text()
        assert svg == render_svg(doc.to_diagram())
