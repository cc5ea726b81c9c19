"""End-to-end command dispatch: exit codes, JSON contracts, script replay."""

import contextlib
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import lagsurf.cli
import lagsurf.linking
from helpers import reference_derive_table
from lagsurf.cli import _load_diagram, _parser, main, run_surface_script, witness_script
from lagsurf.fronts import PositionOutOfRange
from lagsurf.moves import MoveDirection, MoveId
from lagsurf.surfaces import NoConePoint, euler_number, standard_pieces
from lagsurf.table import Rule, derive_table

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_file(name: str) -> str:
    return str(CORPUS / f"{name}.front")


def test_front_stats_matches_manifest(capsys):
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    code, out, _ = run(capsys, "front", "stats", corpus_file("three-sum-core"))
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["invariants"] == manifest["files"]["three-sum-core"]["invariants"]
    assert payload["name"] == "three-sum-core"


def test_front_stats_counts_every_cusp_and_crossing(capsys):
    files = sorted(CORPUS.glob("*.front"))
    assert len(files) == 20
    for path in files:
        _, diagram = _load_diagram(str(path))
        code, out, _ = run(capsys, "front", "stats", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["cusps"] == len(diagram.cusps())
        assert payload["crossings"] == len(diagram.crossings())


def test_front_check_ok(capsys):
    code, out, err = run(capsys, "front", "check", corpus_file("hopf"))
    assert code == 0
    assert out == "ok: hopf components=2\n"
    assert err == ""


def test_front_check_rejects_open_words(capsys, tmp_path):
    bad = tmp_path / "bad.front"
    bad.write_text("front broken\nL 1\n")
    code, out, err = run(capsys, "front", "check", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_missing_input_file_is_an_error_line(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "front", "stats", "nope.front")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nope.front" in err


def test_unwritable_output_is_an_error_line(capsys, tmp_path):
    target = tmp_path / "nonexistent" / "x.svg"
    code, out, err = run(capsys, "front", "render", corpus_file("unknot"), "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


def test_front_render_is_stable(capsys, tmp_path):
    out_a = tmp_path / "a.svg"
    out_b = tmp_path / "b.svg"
    assert run(capsys, "front", "render", corpus_file("kink-down"), "--out", str(out_a))[0] == 0
    assert run(capsys, "front", "render", corpus_file("kink-down"), "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().startswith("<svg")
    code, out, _ = run(capsys, "front", "render", corpus_file("kink-down"))
    assert code == 0
    assert out == out_a.read_text()


def test_moves_list_and_apply_round(capsys):
    code, out, _ = run(capsys, "moves", "list", corpus_file("kink-down"))
    assert code == 0
    lines = out.splitlines()
    assert lines
    pattern = re.compile(r"^[a-z0-9_]+@\d+:\d+:(forward|backward)$")
    assert all(pattern.match(line) for line in lines)

    code, out, _ = run(capsys, "moves", "apply", corpus_file("kink-down"), lines[0])
    assert code == 0
    assert out.strip()


def test_moves_apply_rejects_bad_spec(capsys):
    code, _, err = run(capsys, "moves", "apply", corpus_file("unknot"), "nonsense")
    assert code == 1
    assert "bad move spec" in err


def test_moves_apply_rejects_a_negative_site(capsys, tmp_path):
    doc = tmp_path / "kinked.front"
    doc.write_text("front kinked\nL 1\nL 1\nL 2\nX 1\nR 2\nR 2\nR 1\n")
    code, out, err = run(capsys, "moves", "apply", str(doc), "r1_kink_below@-5:1:backward")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_moves_equiv_identical(capsys):
    code, out, _ = run(
        capsys, "moves", "equiv", corpus_file("unknot"), corpus_file("unknot")
    )
    assert code == 0
    assert out == "identical\n"


def test_moves_equiv_distinguishes_invariants(capsys):
    code, out, _ = run(
        capsys, "moves", "equiv", corpus_file("unknot"), corpus_file("kink-down"),
        "--depth", "2",
    )
    assert code == 1
    assert "no witness" in out


def test_surface_build_klein(capsys, tmp_path):
    script = tmp_path / "klein.surf"
    script.write_text("# the standard non-orientable base\nklein\n")
    code, out, _ = run(capsys, "surface", "build", str(script))
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["chi"] == 0
    assert payload["orientable"] is False
    assert payload["closed"] is True
    assert payload["euler"] == -4
    assert len(payload["singularities"]) == 4


def test_surface_euler_genus_chain(capsys, tmp_path):
    script = tmp_path / "g.surf"
    script.write_text("genus 3\n")
    code, out, _ = run(capsys, "surface", "euler", str(script))
    assert code == 0
    assert out == "0\n"


def test_surface_build_piece_pipeline(capsys, tmp_path):
    script = tmp_path / "p.surf"
    script.write_text("piece cylinder2\ncap 0 L1 R1\ncap 0 L1 R1\n")
    code, out, _ = run(capsys, "surface", "build", str(script))
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] is True
    assert payload["boundary_components"] == 0


def test_surface_build_unknown_piece(capsys, tmp_path):
    script = tmp_path / "x.surf"
    script.write_text("piece x\n")
    code, out, err = run(capsys, "surface", "build", str(script))
    assert code == 1
    assert out == ""
    assert err == (
        "error: script line 1: unknown piece 'x'; have ['cylinder2', 'cylinder4', 'mobius3']\n"
    )


@pytest.mark.parametrize(
    "lines",
    ["", "split 0\n", "klein\ngenus 2\n", "klein\nwobble 1\n", "klein\nsplit\n"],
)
def test_surface_script_rejections(capsys, tmp_path, lines):
    script = tmp_path / "bad.surf"
    script.write_text(lines)
    code, _, err = run(capsys, "surface", "build", str(script))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "lines, message",
    [
        ("klein\nsplit 99\n", "script line 2: no cone point 99"),
        ("klein\nsplit -1\n", "script line 2: no cone point -1"),
        ("klein\nsplit x\n", "script line 2: expected an integer, got 'x'"),
        ("klein\nmark 99\n", "script line 2: no cone point 99"),
        ("klein\nmark -1\n", "script line 2: no cone point -1"),
        ("klein\ncap 5 L1 R1\n", "script line 2: no boundary component 5"),
        ("klein\ncap -1 L1 R1\n", "script line 2: no boundary component -1"),
        ("klein\nmark\n", "script line 2: mark is missing arguments"),
        ("klein\nhandle 1\n", "script line 2: handle is missing arguments"),
        ("klein junk\nglue3 7\nsmooth 0 99\n", "script line 1: klein has too many arguments"),
        ("klein\nglue3 7\n", "script line 2: glue3 has too many arguments"),
        ("klein\nglue3\nsmooth 0 99\n", "script line 3: smooth has too many arguments"),
    ],
)
def test_surface_script_index_errors(capsys, tmp_path, lines, message):
    # an index out of range is named as such, never as a missing argument,
    # and a negative one never counts from the end
    script = tmp_path / "bad.surf"
    script.write_text(lines)
    code, out, err = run(capsys, "surface", "build", str(script))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_script_errors_keep_their_type_and_fields():
    with pytest.raises(NoConePoint, match=r"^script line 2: no cone point 99$"):
        run_surface_script("klein\nsplit 99\n")
    with pytest.raises(PositionOutOfRange) as caught:
        run_surface_script("piece mobius3\ncap 0 L2 R1\n")
    assert str(caught.value) == "script line 2: event 0 (L2) is out of range with 0 strands active"
    assert (caught.value.index, caught.value.strands) == (0, 0)


# A script: a starter, then up to four lines drawn from every verb, an unknown
# one, and caps whose model word is any run of up to six events.
_EVENTS = st.builds("{}{}".format, st.sampled_from("LXR"), st.integers(0, 4))
_INDEX = st.integers(-1, 3)
_SCRIPT_LINES = st.one_of(
    st.builds("cap {} {}".format, _INDEX, st.lists(_EVENTS, max_size=6).map(" ".join)),
    st.builds("{} {}".format, st.sampled_from(["split", "smooth", "mark", "wobble"]), _INDEX),
    st.builds("handle {} {}".format, _INDEX, _INDEX),
    st.sampled_from(["glue3", "klein", "handle", "cap"]),
)
_SCRIPTS = st.builds(
    lambda starter, lines: "\n".join([starter, *lines]) + "\n",
    st.sampled_from(["klein", "genus 2", *(f"piece {name}" for name in standard_pieces())]),
    st.lists(_SCRIPT_LINES, max_size=4),
)


def run_quietly(*argv):
    """``main(argv)`` with its output captured and a usage exit as its code, for ``@given``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as done:
            code = done.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, err):
    """Exit 0 or 1, and one ``error:`` line exactly when the exit is 1."""
    assert code in (0, 1)
    assert len(err.splitlines()) == code
    assert err.startswith("error: ") or not code


@settings(max_examples=150)
@given(script=_SCRIPTS)
def test_surface_build_keeps_the_cli_contract(tmp_path_factory, script):
    path = tmp_path_factory.getbasetemp() / "fuzz.surf"
    path.write_text(script)
    code, out, err = run_quietly("surface", "build", str(path))
    assert_contract(code, err)
    if code:
        assert err.startswith("error: script line ")
    else:
        assert json.loads(out)["schema"] == 1


_FRONT_LINES = st.one_of(
    st.builds("{} {}".format, st.sampled_from("LXR"), st.integers(0, 4)),
    st.builds("orient {} {}".format, st.integers(0, 2), st.sampled_from("+-*")),
    st.sampled_from(["front f", "front a/b", "X", "wobble 1"]),
)
_MOVE_SPECS = st.one_of(
    st.builds(
        "{}@{}:{}:{}".format,
        st.sampled_from([*MoveId, "nonsense"]),
        st.integers(-1, 6),
        st.integers(-1, 3),
        st.sampled_from([*MoveDirection, "sideways"]),
    ),
    st.sampled_from(["nonsense", "slide@1:1", "slide@x:1:forward"]),
)


@settings(max_examples=150)
@given(lines=st.lists(_FRONT_LINES, max_size=8), move=_MOVE_SPECS)
def test_front_verbs_keep_the_cli_contract(tmp_path_factory, lines, move):
    path = tmp_path_factory.getbasetemp() / "fuzz.front"
    path.write_text("".join(f"{line}\n" for line in lines))
    for argv in (["front", "stats", str(path)], ["moves", "apply", str(path), move]):
        code, _, err = run_quietly(*argv)
        assert_contract(code, err)


_INT64 = st.integers(-(2**63), 2**63 - 1)
_CORPUS_FILES = sorted(str(path) for path in CORPUS.glob("*.front"))
_FLOATS = st.one_of(st.sampled_from([0.0, math.inf, 1e308]), st.floats())
_ARGVS = st.one_of(
    st.builds(
        lambda chi, euler, flags: ["classify", "--chi", str(chi), "--euler", str(euler), *flags],
        st.one_of(st.integers(2 * lagsurf.cli._TABLE_MIN_CHI, 4), _INT64),
        st.one_of(st.integers(-8, 8), _INT64),
        st.sampled_from([[], ["--orientable"], ["--format", "json"]]),
    ),
    st.builds(
        lambda chi: ["table", "--min-chi", str(chi)],
        st.one_of(st.integers(-40, 0), st.integers(-(2**63), 2 * lagsurf.cli._TABLE_MIN_CHI)),
    ),
    st.builds(
        lambda first, second, depth: ["moves", "equiv", first, second, "--depth", str(depth)],
        st.sampled_from(_CORPUS_FILES),
        st.sampled_from(_CORPUS_FILES),
        st.integers(0, 3),
    ),
    st.builds(
        lambda family, options: ["verify", family, *itertools.chain(*options.items())],
        st.sampled_from(["strip", "cone", "umbrella", "curve", "convergence"]),
        st.fixed_dictionaries(
            {},
            optional={
                "--a": _FLOATS.map(str),
                # above the maximum, --grid is a usage error before any grid
                # is built
                "--grid": st.one_of(
                    st.integers(-(2**63), 16), st.integers(lagsurf.cli._MAX_GRID + 1, 2**63)
                ).map(str),
                "--step": _FLOATS.map(str),
                "--tolerance": _FLOATS.map(str),
            },
        ),
    ),
)


@settings(max_examples=150)
@given(argv=_ARGVS)
@example(argv=["verify", "strip", "--a", "9.260300891286481e-192"])
@example(argv=["verify", "cone", "--step", "1e-300"])
@example(argv=["verify", "umbrella", "--grid", str(lagsurf.cli._MAX_GRID + 1)])
def test_argv_keeps_the_cli_contract(argv):
    # in-process and bounded: every chi the CLI takes is at least -2000, and
    # every grid it builds has at most 16 points per axis
    code, _, err = run_quietly(*argv)
    if "--grid" in argv and int(argv[argv.index("--grid") + 1]) > lagsurf.cli._MAX_GRID:
        assert code == 2
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) <= 1
    assert code or not errors


def test_classify_spotlights(capsys):
    code, out, _ = run(capsys, "classify", "--chi", "0", "--euler", "0")
    assert code == 0
    assert out.splitlines()[0] == "rationally_convex: false; stein: true"

    code, out, _ = run(capsys, "classify", "--chi", "0", "--euler", "-4")
    assert code == 0
    assert out.splitlines()[0] == "rationally_convex: true; stein: true"

    code, out, _ = run(capsys, "classify", "--chi", "0", "--euler", "0", "--orientable")
    assert code == 0
    assert out.splitlines()[0] == "rationally_convex: true; stein: true"


def test_classify_json(capsys):
    code, out, _ = run(
        capsys, "classify", "--chi", "1", "--euler", "-2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rationally_convex"] is False
    assert payload["stein"] is True
    assert payload["umbrella_points"] is None


def test_classify_invalid_surface(capsys):
    code, _, err = run(capsys, "classify", "--chi", "3", "--euler", "0")
    assert code == 1
    assert "error:" in err


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--min-chi", "-2")
    assert code == 0
    assert out.splitlines() == [
        "chi   0: -4",
        "chi  -1: -6 -2",
        "chi  -2: -8 -4 0",
    ]


def test_table_json_witnesses_are_runnable(capsys):
    code, out, _ = run(capsys, "table", "--min-chi", "-3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["rows"][0] == {"chi": 0, "euler": [-4]}
    for entry in payload["witnesses"]:
        surface = run_surface_script("\n".join(entry["script"]) + "\n")
        assert surface.chi == entry["chi"]
        assert euler_number(surface) == entry["euler"]
        assert not surface.orientable


# the script line of each rule, stated apart from lagsurf.cli
RULE_LINES = {Rule.VERTICAL: "glue3", Rule.DIAGONAL: "smooth 0"}


@pytest.mark.parametrize("min_chi", [0, -1, -5, -40])
def test_table_output_matches_the_reference_closure(capsys, min_chi):
    # the JSON writer skips the encoder, so it must match it byte for byte;
    # at -200 the stdlib encoder alone takes about 2 s
    nodes, _, witnesses = reference_derive_table(min_chi)
    rows = [
        (chi, sorted(n.euler for n in nodes if n.chi == chi))
        for chi in range(0, min_chi - 1, -1)
    ]
    payload = {
        "schema": 1,
        "min_chi": min_chi,
        "rows": [{"chi": chi, "euler": euler} for chi, euler in rows],
        "witnesses": [
            {
                "chi": node.chi,
                "euler": node.euler,
                "script": ["klein"] + [RULE_LINES[rule] for rule in witnesses[node]],
            }
            for node in sorted(nodes, key=lambda n: (-n.chi, n.euler))
        ],
    }
    code, out, _ = run(capsys, "table", "--min-chi", str(min_chi), "--format", "json")
    assert code == 0
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    code, out, _ = run(capsys, "table", "--min-chi", str(min_chi))
    assert code == 0
    assert out == "".join(f"chi {chi:>3}: {' '.join(map(str, euler))}\n" for chi, euler in rows)


def test_table_min_chi_below_the_floor_is_a_usage_error():
    # the closure holds about 0.38 chi^2 nodes; at -10^8 --check printed
    # nothing within a minute
    assert _parser().parse_args(["table", "--min-chi", "-2000"]).min_chi == -2000
    src = str(pathlib.Path(lagsurf.cli.__file__).parents[1])
    for value in ("-2001", "-100000000"):
        done = subprocess.run(
            [sys.executable, "-m", "lagsurf.cli", "table", "--check", "--min-chi", value],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines()[-1] == (
            f"lagsurf table: error: argument --min-chi: must be at least -2000, got {value}"
        )


def test_classify_chi_below_the_floor_is_a_usage_error():
    # the classifier's sets grow linearly in chi: 67 MiB at -10^6
    assert _parser().parse_args(["classify", "--chi", "-2000", "--euler", "0"]).chi == -2000
    for value in ("-2001", str(-(2**63))):
        code, out, err = run_quietly("classify", "--chi", value, "--euler", "0")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"lagsurf classify: error: argument --chi: must be at least -2000, got {value}"
        )


def test_genus_at_the_lowest_chi_builds():
    assert run_surface_script("genus 1001\n").chi == -2000


@pytest.mark.parametrize("genus", [1002, 10**18])
def test_genus_below_the_lowest_chi_fails_before_building(capsys, monkeypatch, tmp_path, genus):
    # a genus chain holds 2 genus - 2 cone points, so none is built
    verbs = lagsurf.cli._script_verbs()
    monkeypatch.setitem(verbs, "genus", (None, verbs["genus"][1]))
    script = tmp_path / "genus.surf"
    script.write_text(f"genus {genus}\n")
    code, out, err = run(capsys, "surface", "euler", str(script))
    assert (code, out) == (1, "")
    assert err == (
        f"error: script line 1: genus {genus} has chi {2 - 2 * genus}, "
        "below the lowest chi -2000\n"
    )


def test_table_json_below_its_floor_is_a_usage_error(capsys):
    # the witness scripts grow as chi^3: 300 MB at -400, about 37 GB at -2000
    with pytest.raises(SystemExit) as exc:
        main(["table", "--format", "json", "--min-chi", "-401"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert err.splitlines()[-1] == (
        "lagsurf table: error: --format json needs --min-chi at least -400, got -401"
    )
    # text output and --check keep the floor of -2000
    code, out, _ = run(capsys, "table", "--min-chi", "-401")
    assert code == 0
    assert out.splitlines()[-1].startswith("chi -401: -806 -802 ")
    code, out, _ = run(capsys, "table", "--check", "--min-chi", "-401")
    assert code == 0
    assert out.startswith("closure verified to chi -401: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_table_check_reads_no_format(capsys, fmt):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--check", "--format", fmt, "--min-chi", "-3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        "lagsurf table: error: --format does not apply to --check"
    ]


def test_witness_script_matches_graph():
    graph = derive_table(-2)
    for node, path in graph.witnesses.items():
        script = witness_script(path)
        assert script[0] == "klein"
        assert len(script) == len(path) + 1


def test_table_check(capsys):
    code, out, _ = run(capsys, "table", "--check", "--min-chi", "-6")
    assert code == 0
    assert "closure verified" in out


def test_verify_curve(capsys):
    code, out, _ = run(capsys, "verify", "curve")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["framing"] == -2
    assert payload["winding"] == 1



def test_verify_curve_fails_on_a_wrong_winding(capsys, monkeypatch):
    monkeypatch.setattr(lagsurf.linking, "tangent_winding", lambda curve: 0)
    code, out, _ = run(capsys, "verify", "curve")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["winding"] == 0
    assert payload["reports"][0]["passed"] is True

def test_verify_strip_and_convergence(capsys):
    # the transversality margin scales with the strip, so a small a passes
    for a, grid in [("0.5", "32"), ("1e-9", "8"), ("1e-11", "8")]:
        code, out, _ = run(capsys, "verify", "strip", "--a", a, "--grid", grid)
        assert code == 0
        assert json.loads(out)["passed"] is True

    code, out, _ = run(capsys, "verify", "convergence")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_rejects_bad_parameter(capsys):
    code, _, err = run(capsys, "verify", "strip", "--a", "1.5")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["strip", "--step", "nan"],
        ["cone", "--step", "inf"],
        # finite, but the differences overflow and the residual is NaN
        ["strip", "--step", "1e308"],
        ["umbrella", "--step", "1e308"],
        # a step that leaves some grid value where it is checks nothing there
        ["cone", "--step", "1e-300", "--grid", "4"],
        ["strip", "--step", "1e-17", "--grid", "8"],
        ["umbrella", "--step", "1e-20", "--grid", "9"],
        # an a so small that the strip's half-width is not finite
        ["strip", "--a", "1e-160"],
        ["strip", "--a", "1e-300"],
    ],
)
@pytest.mark.filterwarnings("error")
def test_verify_never_prints_non_standard_json(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["strip", "--tolerance", "nan"], ["curve", "--tolerance", "inf"], ["cone", "--tolerance", "-1"]],
    ids=["nan", "inf", "negative"],
)
def test_verify_tolerance_must_be_finite_and_at_least_zero(capsys, argv):
    # a usage error, raised before any check runs
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"lagsurf verify: error: --tolerance must be finite and at least 0, got {float(argv[2])}"
    ]


@pytest.mark.parametrize(
    "argv, option, families",
    [
        (["curve", "--step", "nan"], "--step", "strip, cone and umbrella"),
        (["curve", "--a", "0.5"], "--a", "strip"),
        (["cone", "--a", "0.5"], "--a", "strip"),
        (["umbrella", "--a", "1", "--grid", "8"], "--a", "strip"),
        (["convergence", "--step", "nan", "--tolerance", "5", "--a", "9"], "--a", "strip"),
        (["convergence", "--tolerance", "5"], "--tolerance", "strip, cone, umbrella and curve"),
        (["convergence", "--csv", "out.csv"], "--csv", "strip, cone, umbrella and curve"),
    ],
    ids=["curve-step", "curve-a", "cone-a", "umbrella-a", "convergence-a",
         "convergence-tolerance", "convergence-csv"],
)
def test_verify_rejects_an_option_its_family_does_not_read(capsys, argv, option, families):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"lagsurf verify: error: {option} applies to {families} only"
    ]


def test_verify_defaults_match_the_options_given_explicitly(capsys):
    explicit = {
        "strip": ["--a", "0.5", "--grid", "64", "--step", "1e-4", "--tolerance", "1e-6"],
        "cone": ["--grid", "64", "--step", "0.0001", "--tolerance", "0.000001"],
        "umbrella": ["--grid", "64", "--step", "1e-4", "--tolerance", "1e-6"],
        "curve": ["--tolerance", "1e-6"],
        "convergence": [],
    }
    for family, options in explicit.items():
        assert run(capsys, "verify", family) == run(capsys, "verify", family, *options)


def test_verify_writes_csv(capsys, tmp_path):
    target = tmp_path / "samples.csv"
    code, _, _ = run(
        capsys, "verify", "umbrella", "--grid", "8", "--csv", str(target)
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "a,b,q1,p1,q2,p2"
    assert len(lines) == 1 + 8 * 8


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wobble"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--chi", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    # one grid point proves nothing, a grid above the maximum takes too long,
    # the curve and the convergence check have no grid, and a search cannot
    # go below depth 0
    for argv in (
        ["verify", "strip", "--grid", "1"],
        ["verify", "umbrella", "--grid", str(lagsurf.cli._MAX_GRID + 1)],
        ["verify", "cone", "--grid", "10000000000000"],
        ["verify", "cone", "--grid", "0"],
        ["verify", "umbrella", "--grid", "-3"],
        ["verify", "curve", "--grid", "64"],
        ["verify", "convergence", "--grid", "8"],
        ["moves", "equiv", corpus_file("unknot"), corpus_file("unknot"), "--depth", "-1"],
        # no surface has chi above 2, and the grid starts at chi 0
        ["table", "--min-chi", "1"],
        ["table", "--check", "--min-chi", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1


def test_stdin_dash(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("front x\nL 1\nR 1\n"))
    code, out, _ = run(capsys, "front", "stats", "-")
    assert code == 0
    assert json.loads(out)["components"] == 1


def test_verify_maps_a_degenerate_projection_to_an_error_line(capsys, monkeypatch):
    def degenerate(curve):
        raise lagsurf.linking.DegenerateProjection("all views degenerate")

    monkeypatch.setattr(lagsurf.linking, "contact_framing", degenerate)
    code, out, err = run(capsys, "verify", "curve")
    assert code == 1
    assert out == ""
    assert err == "error: all views degenerate\n"


def cold_layers(capsys, *argv) -> set[str]:
    """The lagsurf layers, and numpy, loaded by ``main(argv)`` in a fresh
    interpreter, whose exit code and output must match an in-process run."""
    script = (
        "import contextlib, io, json, sys\n"
        "import lagsurf.cli\n"
        "buffer = io.StringIO()\n"
        "with contextlib.redirect_stdout(buffer):\n"
        "    code = lagsurf.cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, buffer.getvalue(), sorted(sys.modules)]))\n"
    )
    src = str(pathlib.Path(lagsurf.cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    code, out, modules = json.loads(done.stdout)
    assert [code, out] == list(run(capsys, *argv)[:2])
    return {
        name.removeprefix("lagsurf.")
        for name in modules
        if name.startswith("lagsurf.") or name == "numpy"
    }


def test_cold_verbs_load_only_their_layers(capsys):
    # the cold starts of the benchmark, each in its own interpreter
    loaded = cold_layers(capsys, "classify", "--chi", "-3", "--euler", "-10")
    assert not loaded & {"fronts", "dsl", "moves", "surfaces", "table", "numpy"}
    loaded = cold_layers(capsys, "front", "stats", corpus_file("three-sum-core"))
    assert not loaded & {"moves", "surfaces", "table", "numpy"}
    loaded = cold_layers(
        capsys, "moves", "equiv", corpus_file("kink-down"), corpus_file("nested-down")
    )
    assert not loaded & {"surfaces", "table", "numpy"}
    loaded = cold_layers(capsys, "verify", "curve")
    assert not loaded & {"moves", "surfaces", "table"}
