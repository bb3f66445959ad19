import dataclasses
import hashlib
import json
import re
import weakref

import pytest

from planewheel import cli, enumerate_k3, solver, wheelgeom
from planewheel.cli import run
from planewheel.partition import Partition


def test_generate_model(capsys):
    assert run(["generate", "--bw", "3", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"k": 3, "sizes": [3, 3, 3]}


def test_generate_coords(tmp_path):
    out = tmp_path / "coords.json"
    assert run(["generate", "--bw", "3", "3", "--coords", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["points"]) == 10
    assert obj["interior"] == 0


def test_generate_rejects_bad_model(capsys):
    assert run(["generate", "--gw", "1,1,2"]) == 2
    assert "invalid model" in capsys.readouterr().err


def test_solve_expected_sat(tmp_path):
    out = tmp_path / "result.json"
    code = run(["solve", "--bw", "3", "3", "--mode", "spanning-tree", "--expect", "sat", "-o", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["status"] == "SAT"


def test_solve_expect_mismatch(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = run(["solve", "--bw", "3", "3", "--mode", "spanning-tree", "--expect", "unsat", "-o", str(out)])
    assert code == 1


def test_solve_refuses_an_invalid_witness(tmp_path, capsys, monkeypatch):
    real = solver.solve

    def with_cycle(model, cfg, **kwargs):
        out = real(model, cfg, **kwargs)
        # a hull edge crosses nothing; moved into class 0, a spanning tree, it closes a cycle
        t = wheelgeom.wheel_tables(model)
        w = out.witness
        i = next(i for i, e in enumerate(t.edges) if t.dist.get(e) == 1 and w.colors[i] != 0)
        out.witness = dataclasses.replace(w, colors=w.colors[:i] + (0,) + w.colors[i + 1 :])
        return out

    monkeypatch.setattr(solver, "solve", with_cycle)
    out, part = tmp_path / "r.json", tmp_path / "p.json"
    assert run(["solve", "--bw", "3", "3", "-o", str(out), "--partition-out", str(part)]) == 1
    _one_line_error(capsys, "SAT witness fails validation: class 0")
    assert not out.exists() and not part.exists()


def test_solve_node_limit_exit_code(tmp_path):
    out = tmp_path / "result.json"
    code = run(["solve", "--bw", "3", "5", "--mode", "spanning-tree", "--node-limit", "5", "-o", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["status"] == "LIMIT"


def test_solve_no_symmetry_breaking_fixes_no_colour(tmp_path):
    out = tmp_path / "result.json"
    assert run(["solve", "--bw", "3", "3", "--no-symmetry-breaking", "-o", str(out)]) == 0
    stats = json.loads(out.read_text())["stats"]
    model = wheelgeom.build_bumpy_wheel(3, 3)
    want = solver.solve(model, solver.SolveConfig(), preassigned=[]).stats
    assert stats["preassigned"] == want["preassigned"] == 0
    assert (stats["nodes"], stats["fingerprint"]) == (want["nodes"], want["fingerprint"])


def _one_line_error(capsys, needle):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and needle in err, err


def test_negative_node_limit_rejected(tmp_path, capsys):
    assert run(["solve", "--bw", "3", "5", "--node-limit", "-1", "-o", str(tmp_path / "r.json")]) == 2
    _one_line_error(capsys, "node limit")
    assert not (tmp_path / "r.json").exists()


def test_negative_time_limit_rejected(tmp_path, capsys):
    assert run(["solve", "--bw", "3", "3", "--time-limit", "-1", "-o", str(tmp_path / "r.json")]) == 2
    _one_line_error(capsys, "--time-limit")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag", ["--enforce-class-size", "--enforce-triangle"])
def test_solve_has_no_constraint_knobs(flag):
    # acyclicity already implies both in tree and double-star mode
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--bw", "3", "3", flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["-o", "--partition-out"])
def test_solve_unwritable_output_rejected(tmp_path, capsys, flag):
    # a missing directory used to end in a FileNotFoundError traceback and exit 1
    assert run(["solve", "--bw", "3", "3", flag, str(tmp_path / "missing" / "r.json")]) == 2
    _one_line_error(capsys, "cannot write")


def test_export_lp_rejects_zero_classes(tmp_path, capsys):
    assert run(["export-lp", "--bw", "3", "3", "--m", "0", "-o", str(tmp_path / "m.lp")]) == 2
    _one_line_error(capsys, "--m")
    assert not (tmp_path / "m.lp").exists()


def test_enumerate_count(capsys):
    assert run(["enumerate", "--k", "3", "--emit", "count"]) == 0
    assert capsys.readouterr().out.strip() == "20"


def test_enumerate_case_filter(capsys):
    assert run(["enumerate", "--k", "3", "--case", "1", "--emit", "count"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_enumerate_count_streams(monkeypatch, capsys):
    """--emit count holds one partition at a time, never the whole list."""
    alive = weakref.WeakSet()
    held = []

    class Item:
        pass

    def fake_enumerate_all(k, case="all"):
        for _ in range(50):
            held.append(len(alive))  # earlier items the consumer still holds
            item = Item()
            alive.add(item)
            yield item
            del item

    monkeypatch.setattr(enumerate_k3, "enumerate_all", fake_enumerate_all)
    assert run(["enumerate", "--k", "3", "--emit", "count"]) == 0
    assert capsys.readouterr().out.strip() == "50"
    assert max(held) <= 1


@pytest.mark.parametrize("emit", ["count", "json"])
@pytest.mark.parametrize("flags", [["--k", "4"], ["--k", "1"]])
def test_enumerate_rejects_bad_k(emit, flags, capsys):
    assert run(["enumerate", *flags, "--emit", emit]) == 2
    assert "k must be odd" in capsys.readouterr().err


def test_enumerate_json(tmp_path):
    out = tmp_path / "parts.json"
    assert run(["enumerate", "--k", "3", "--emit", "json", "-o", str(out)]) == 0
    parts = json.loads(out.read_text())
    assert len(parts) == 20


def test_enumerate_json_bytes_pinned(capsys):
    """The 320 BW_{5,3} partitions as JSON, byte for byte: the enumeration
    order, the colours in table edge order and the JSON layout."""
    assert run(["enumerate", "--k", "5", "--emit", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "a4310790c0be705d79da93c0a2096a9041e22351290790d04acdf7922d4e0806"


def test_enumerate_svg(tmp_path, capsys):
    assert run(["enumerate", "--k", "3", "--case", "1", "--emit", "svg", "-o", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.svg"))) == 4


def test_enumerate_svg_into_a_regular_file_rejected(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run(["enumerate", "--k", "3", "--case", "1", "--emit", "svg", "-o", str(taken)]) == 2
    _one_line_error(capsys, "cannot write")


def test_verify_roundtrip(tmp_path):
    parts = tmp_path / "parts.json"
    run(["enumerate", "--k", "3", "--emit", "json", "-o", str(parts)])
    one = tmp_path / "one.json"
    one.write_text(json.dumps(json.loads(parts.read_text())[0]))
    report = tmp_path / "report.json"
    assert run(["verify", str(one), "--mode", "spanning-tree", "-o", str(report)]) == 0
    obj = json.loads(report.read_text())
    assert obj["valid"] and not obj["violations"] and not obj["audit_violations"]


def test_verify_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", str(bad)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert run(["verify", "/nonexistent/partition.json"]) == 2


@pytest.mark.parametrize("command", ["verify", "render"])
def test_unreadable_partition_path_rejected(tmp_path, capsys, command):
    # a directory used to end in an IsADirectoryError traceback and exit 1
    assert run([command, str(tmp_path)]) == 2
    _one_line_error(capsys, "cannot read")


@pytest.mark.parametrize("command", ["verify", "render"])
def test_non_utf8_partition_rejected(tmp_path, capsys, command):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"m": "é"}'.encode("latin-1"))
    assert run([command, str(bad)]) == 2
    _one_line_error(capsys, "not UTF-8")


@pytest.mark.parametrize("command", ["verify", "render"])
def test_wrong_color_count_refused_before_tables(tmp_path, capsys, command):
    """GW_{[601,1,1]} has 604 points and 182,106 edges: one colour is refused
    from the point count alone, without building the model's tables."""
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps({"model": {"k": 3, "sizes": [601, 1, 1]}, "m": 1, "colors": [0]}))
    misses = wheelgeom._build_tables.cache_info().misses
    assert run([command, str(bad)]) == 2
    _one_line_error(capsys, "expected 182106 colors, got 1")
    assert wheelgeom._build_tables.cache_info().misses == misses


# m = 100000 on BW_{3,3} made verify build and report 100,000 classes; render
# writes one picture per class, each with an m-colour palette, so it takes m = 46
@pytest.mark.parametrize("command,m", [("verify", 100_000), ("render", 46)])
def test_class_count_above_the_edge_count_refused(tmp_path, capsys, command, m):
    parts = tmp_path / "parts.json"
    run(["enumerate", "--k", "3", "--emit", "json", "-o", str(parts)])
    obj = json.loads(parts.read_text())[0]
    obj["m"] = m
    path, out = tmp_path / "big_m.json", tmp_path / "out"
    path.write_text(json.dumps(obj))
    assert run([command, str(path), "-o", str(out)]) == 2
    _one_line_error(capsys, f"m must be at most the edge count 45, got {m}")
    assert not out.exists()


@pytest.mark.parametrize("bad", [1.5, "2", True, 7])
def test_verify_refuses_bad_color(tmp_path, capsys, bad):
    parts = tmp_path / "parts.json"
    run(["enumerate", "--k", "3", "--emit", "json", "-o", str(parts)])
    obj = json.loads(parts.read_text())[0]
    obj["colors"][0] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path), "--mode", "spanning-tree"]) == 2
    _one_line_error(capsys, "invalid partition JSON")


@pytest.mark.parametrize("field,bad", [("k", 3.9), ("sizes", 3.9), ("sizes", "3"), ("sizes", True)])
def test_verify_refuses_non_integer_model(tmp_path, capsys, field, bad):
    # truncated to an int, a size of 3.9 would pass as BW_{3,3}
    parts = tmp_path / "parts.json"
    run(["enumerate", "--k", "3", "--emit", "json", "-o", str(parts)])
    obj = json.loads(parts.read_text())[0]
    if field == "k":
        obj["model"]["k"] = bad
    else:
        obj["model"]["sizes"][0] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path), "--mode", "spanning-tree"]) == 2
    _one_line_error(capsys, "k and sizes must be JSON integers")


def test_verify_invalid_partition_fails(tmp_path):
    parts = tmp_path / "parts.json"
    run(["enumerate", "--k", "3", "--emit", "json", "-o", str(parts)])
    obj = json.loads(parts.read_text())[0]
    obj["colors"][0], obj["colors"][-1] = obj["colors"][-1], obj["colors"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(["verify", str(bad), "--mode", "spanning-tree"]) == 1


def test_criteria_report(tmp_path):
    out = tmp_path / "criteria.json"
    assert run(["criteria", "--bw", "3", "3", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["verdicts"]["tree"] == "yes"
    assert obj["criterion_small_families"] is True
    assert obj["empty_triple"] is not None


def test_export_lp(tmp_path):
    out = tmp_path / "model.lp"
    assert run(["export-lp", "--bw", "3", "5", "--m", "8", "--enforce-class-size", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("Minimize")
    assert text.rstrip().endswith("End")


@pytest.mark.parametrize("flags,kwargs", [([], {}), (["--no-enforce-class-size"], {"enforce_class_size": False})])
def test_export_lp_matches_solver(tmp_path, flags, kwargs):
    out = tmp_path / "model.lp"
    assert run(["export-lp", "--bw", "3", "5", "--m", "8", *flags, "-o", str(out)]) == 0
    assert out.read_text() == solver.export_lp(wheelgeom.build_bumpy_wheel(3, 5), 8, **kwargs)


def test_render(tmp_path, capsys):
    parts = tmp_path / "parts.json"
    run(["enumerate", "--k", "3", "--emit", "json", "-o", str(parts)])
    one = tmp_path / "one.json"
    one.write_text(json.dumps(json.loads(parts.read_text())[0]))
    svg = tmp_path / "picture.svg"
    assert run(["render", str(one), "-o", str(svg)]) == 0
    assert len(list(tmp_path.glob("picture_class*.svg"))) == 5
    p = Partition.from_json(json.loads(one.read_text()))
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<line") == len(p.colors) == 45
    palette = cli._palette(p.m)
    for c, es in enumerate(p.classes()):
        text = (tmp_path / f"picture_class{c}.svg").read_text()
        assert text.count("<line") == len(es)
        assert set(re.findall(r'<line [^>]*stroke="([^"]+)"', text)) == {palette[c]}


@pytest.mark.parametrize("command", ["enumerate", "render"])
def test_svg_output_realizes_the_model_once(tmp_path, monkeypatch, command):
    # and builds the palette once, not once per picture
    calls, palettes = [], []

    def counted(model):
        calls.append(model)
        return wheelgeom.realize_coordinates(model)

    def counted_palette(m):
        palettes.append(m)
        return real_palette(m)

    parts = tmp_path / "parts.json"
    run(["enumerate", "--k", "3", "--emit", "json", "-o", str(parts)])
    one = tmp_path / "one.json"
    one.write_text(json.dumps(json.loads(parts.read_text())[0]))
    real_palette = cli._palette
    monkeypatch.setattr(cli, "realize_coordinates", counted)
    monkeypatch.setattr(cli, "_palette", counted_palette)
    if command == "enumerate":
        assert run(["enumerate", "--k", "3", "--emit", "svg", "-o", str(tmp_path / "svg")]) == 0
        assert len(list((tmp_path / "svg").glob("*.svg"))) == 20
    else:
        assert run(["render", str(one), "-o", str(tmp_path / "picture.svg")]) == 0
        assert len(list(tmp_path.glob("picture*.svg"))) == 6
    assert calls == [wheelgeom.build_bumpy_wheel(3, 3)]
    assert palettes == [5]


def test_render_into_a_missing_directory_rejected(tmp_path, capsys):
    parts = tmp_path / "parts.json"
    run(["enumerate", "--k", "3", "--emit", "json", "-o", str(parts)])
    one = tmp_path / "one.json"
    one.write_text(json.dumps(json.loads(parts.read_text())[0]))
    assert run(["render", str(one), "-o", str(tmp_path / "missing" / "picture.svg")]) == 2
    _one_line_error(capsys, "cannot write")
