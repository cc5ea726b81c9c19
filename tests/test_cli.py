"""End-to-end command dispatch: exit codes, JSON contracts, script replay."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import lagsurf.cli
import lagsurf.linking
from helpers import reference_derive_table
from lagsurf.cli import _load_diagram, _parser, main, run_surface_script, witness_script
from lagsurf.surfaces import euler_number
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
    assert err == "error: unknown piece 'x'; have ['cylinder2', 'cylinder4', 'mobius3']\n"


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
        ("klein\nmark 99\n", "script line 2: no cone point 99"),
        ("klein\nmark -1\n", "script line 2: no cone point -1"),
        ("klein\ncap 5 L1 R1\n", "script line 2: no boundary component 5"),
        ("klein\ncap -1 L1 R1\n", "script line 2: no boundary component -1"),
        ("klein\nmark\n", "script line 2: mark is missing arguments"),
        ("klein\nhandle 1\n", "script line 2: handle is missing arguments"),
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
    code, out, _ = run(capsys, "table", "--check", "--format", "json", "--min-chi", "-401")
    assert code == 0
    assert out.startswith("closure verified to chi -401: ")


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
    code, out, _ = run(capsys, "verify", "strip", "--a", "0.5", "--grid", "32")
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
        ["strip", "--tolerance", "nan"],
        ["curve", "--tolerance", "inf"],
        # finite, but the differences overflow and the residual is NaN
        ["umbrella", "--step", "1e308"],
    ],
)
@pytest.mark.filterwarnings("error")
def test_verify_never_prints_non_standard_json(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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
    # one grid point proves nothing, the curve and the convergence check have
    # no grid, and a search cannot go below depth 0
    for argv in (
        ["verify", "strip", "--grid", "1"],
        ["verify", "cone", "--grid", "0"],
        ["verify", "umbrella", "--grid", "-3"],
        ["verify", "curve", "--grid", "64"],
        ["verify", "convergence", "--grid", "8"],
        ["moves", "equiv", corpus_file("unknot"), corpus_file("unknot"), "--depth", "-1"],
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


NUMPY_FREE_VERBS = [
    ["classify", "--chi", "-3", "--euler", "-10"],
    ["front", "stats", corpus_file("three-sum-core")],
    ["moves", "equiv", corpus_file("unknot"), corpus_file("unknot-reversed")],
]


def test_numpy_free_verbs_do_not_import_numpy(capsys):
    script = (
        "import contextlib, io, json, sys\n"
        "import lagsurf.cli\n"
        "loaded = 'numpy' in sys.modules\n"
        "outputs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buffer = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buffer):\n"
        "        code = lagsurf.cli.main(argv)\n"
        "    outputs.append([code, buffer.getvalue()])\n"
        "print(json.dumps([loaded, 'numpy' in sys.modules, outputs]))\n"
    )
    src = str(pathlib.Path(lagsurf.cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(NUMPY_FREE_VERBS)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    loaded_on_import, loaded_after, outputs = json.loads(done.stdout)
    assert not loaded_on_import and not loaded_after
    assert outputs == [list(run(capsys, *argv)[:2]) for argv in NUMPY_FREE_VERBS]
