import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from klcells import cells, cli, kl, pipeline, reps, weights
from klcells.laurent import MonomialOrder

from conftest import REFUSED_TYPES, system


def tree_digest(root):
    """Stable digest of a directory tree's bytes."""
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_run_config_validation():
    with pytest.raises(ValueError):
        pipeline.RunConfig(system="A2")
    with pytest.raises(ValueError):
        pipeline.RunConfig(system="A2", weight=(1, 1, 1),
                           order_functionals=((1,),))
    cfg = pipeline.RunConfig(system="A2", weight=(1, 1))
    assert cfg.key() == pipeline.RunConfig(system="A2", weight=[1, 1]).key()
    assert cfg.key() != pipeline.RunConfig(system="A2", weight=(2, 2)).key()


def test_pipeline_reruns_are_byte_identical(tmp_path, b3):
    cfg = pipeline.RunConfig(system="B3", weight=(2, 1, 1),
                             checks=("lemmas", "bounds", "bar", "L"))
    digests = []
    for sub in ("one", "two"):
        res = pipeline.run_pipeline(cfg, sys=b3)
        assert res.ok
        out = pipeline.write_archive(res, tmp_path / sub)
        digests.append(tree_digest(out))
    assert digests[0] == digests[1]


def test_scan_outputs_are_byte_identical(tmp_path, i24):
    digests = []
    for sub in ("one", "two"):
        report = weights.scan_equivalence_classes(
            i24, chart=pipeline.chart_for(i24))
        out = pipeline.write_scan(report, tmp_path / sub, i24)
        digests.append(tree_digest(out))
    assert digests[0] == digests[1]


def test_order_mode_pipeline(tmp_path):
    cfg = pipeline.RunConfig(system="I2:6", order_functionals=((1, 0), (0, 1)),
                             checks=("lemmas", "bounds", "bar", "oracle"))
    res = pipeline.run_pipeline(cfg)
    assert res.ok
    assert len(res.left) == 6
    out = pipeline.write_archive(res, tmp_path)
    gamma = json.loads((out / "gamma.json").read_text())
    assert gamma["validity"]["hi"] == "1/1"
    assert all(len(e) == 2 for e in gamma["exponents"])


def test_cross_check_flag(b3):
    cfg = pipeline.RunConfig(system="B3", weight=(3, 1, 1), checks=(),
                             cross_check=True)
    res = pipeline.run_pipeline(cfg, sys=b3)
    rep = res.reports["cross_check"]
    assert rep.ok
    assert rep.notes["certified_orders"] >= 1


@pytest.mark.parametrize("name, weight, taken", [
    ("B3", (3, 1, 1), 47), ("B4", (5, 2, 2, 2), 383),
    ("B4", (2, 1, 1, 1), 203)])
def test_cross_check_second_order_equals_a_run_without_a_base(
        monkeypatch, name, weight, taken):
    # the tie-1 order run takes rows from the tie-0 run and equals a run
    # without a base: rows, M-table and the order of the M-table; inside
    # a region it takes every row (of 47 and 383), at the breakpoint
    # b/a = 1/2 it recomputes 180
    group = system(name)
    compute_kl, half_row = kl.compute_kl, kl._half_row
    built, runs = set(), []

    def building(sys, rows, s, u, *args):
        built.add(u)
        return half_row(sys, rows, s, u, *args)

    def compared(sys, params, order, base=None):
        built.clear()
        data = compute_kl(sys, params, order, base=base)
        runs.append((base is not None, sys.size - 1 - len(built)))
        if base is not None:    # an equal row is the base's row object
            assert all((r is b) == (r == b)
                       for r, b in zip(data.rows[1:], base.rows[1:]))
        plain = compute_kl(sys, params,
                           MonomialOrder(order.space, order.functionals))
        assert data.rows == plain.rows
        assert list(data.mu.items()) == list(plain.mu.items())
        return data

    cfg = pipeline.RunConfig(system=name, weight=weight, checks=(),
                             cross_check=True)
    _, params, order = kl.weight_params(group, weight)
    weight_data = kl.compute_kl(group, params, order)
    monkeypatch.setattr(kl, "_half_row", building)
    monkeypatch.setattr(kl, "compute_kl", compared)
    pipeline._cross_check_weight(group, cfg, weight_data)
    assert runs == [(False, 0), (True, taken)]


def test_cli_compute_and_dump(tmp_path, capsys):
    rc = cli.main(["compute", "--type", "I2:4", "--weight", "2,1",
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "left cells 6" in out
    archive = next(p for p in tmp_path.iterdir() if p.is_dir())
    rc = cli.main(["dump", "--archive", str(archive), "--table", "mu"])
    assert rc == 0
    assert "v + v^-1" in capsys.readouterr().out
    rc = cli.main(["export", "--archive", str(archive), "--dest",
                   str(tmp_path / "exp"), "--format", "dot"])
    assert rc == 0
    assert (tmp_path / "exp" / "two_sided.dot").exists()


def test_export_usage_error_leaves_no_directory(tmp_path, capsys):
    entry = tmp_path / "entry"
    entry.mkdir()
    (entry / "meta.json").write_text("{}\n")
    dest = tmp_path / "D"
    with pytest.raises(SystemExit) as exc:
        cli.main(["export", "--archive", str(entry), "--dest", str(dest),
                  "--format", "dot"])
    assert exc.value.code == 2
    assert "holds none of the requested files" in capsys.readouterr().err
    assert not dest.exists()


def test_cli_compute_order_mode(tmp_path, capsys):
    rc = cli.main(["compute", "--type", "I2:4", "--order", "1,0;0,1",
                   "--checks", "lemmas,oracle", "--out", str(tmp_path)])
    assert rc == 0
    assert "oracle" in capsys.readouterr().out


def test_cli_scan(tmp_path, capsys):
    rc = cli.main(["scan", "--type", "I2:6", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 partition classes" in out
    scan = json.loads((tmp_path / "scan" / "scan.json").read_text())
    assert scan["breakpoints"] == ["1/1"]
    assert len(scan["partition_classes"]) == 3


def test_cli_check_small(capsys):
    rc = cli.main(["check", "--type", "I2:6", "--weight", "2,1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


F4_CHECK_LINES = """\
PASS  F4 equal (1, 1, 1, 1): left preorder trivial on two-sided cells
PASS  F4 equal (1, 1, 1, 1): unique involution minimizers with unit leading coefficient
PASS  F4 equal (1, 1, 1, 1): two-sided order diagram matches reference (11 blocks)
PASS  F4 equal (1, 1, 1, 1): cell characters equal the constructible list
PASS  F4 b2a (1, 1, 2, 2): left preorder trivial on two-sided cells
PASS  F4 b2a (1, 1, 2, 2): unique involution minimizers with unit leading coefficient
PASS  F4 b2a (1, 1, 2, 2): two-sided order diagram matches reference (15 blocks)
PASS  F4 b2a (1, 1, 2, 2): cell characters equal the constructible list
PASS  F4 between (2, 2, 3, 3): left preorder trivial on two-sided cells
PASS  F4 between (2, 2, 3, 3): unique involution minimizers with unit leading coefficient
PASS  F4 between (2, 2, 3, 3): two-sided order diagram matches reference (21 blocks)
PASS  F4 between (2, 2, 3, 3): cell characters equal the constructible list
PASS  F4 beyond (1, 1, 3, 3): left preorder trivial on two-sided cells
PASS  F4 beyond (1, 1, 3, 3): unique involution minimizers with unit leading coefficient
PASS  F4 beyond (1, 1, 3, 3): two-sided order diagram matches reference (21 blocks)
PASS  F4 beyond (1, 1, 3, 3): cell characters equal the constructible list
PASS  F4: cells at a=b are unions of cells at 2a>b>a
PASS  F4: cells at b=2a are unions of cells at b>2a
PASS  F4: cells at b=2a are unions of cells at 2a>b>a
"""


def test_cli_check_f4(capsys):
    # the four published F4 cases, each against its reference diagram
    # and constructible list, then the refinements between them
    assert cli.main(["check", "--type", "F4"]) == 0
    assert capsys.readouterr().out == F4_CHECK_LINES


@pytest.mark.parametrize("spelling", ["F", "F(4)", "F 4"])
def test_cli_check_knows_f4_by_its_coxeter_matrix(capsys, monkeypatch,
                                                  spelling):
    # any spelling of F4 runs the published cases, with their reference
    # diagrams and constructible lists (here only the equal-weight case)
    monkeypatch.setattr(cli, "_F4_CASES", (("equal", (1, 1, 1, 1)),))
    monkeypatch.setattr(cli, "_F4_REFINEMENTS", ())
    assert cli.main(["check", "--type", spelling]) == 0
    assert capsys.readouterr().out.splitlines() == (
        F4_CHECK_LINES.splitlines()[:4])


def test_cli_check_reports_a_failed_line(capsys, monkeypatch):
    # two failed lines still exit 1, not 2, which reads as a usage error
    monkeypatch.setattr(cells, "check_property_L",
                        lambda sys, left, two_sided: [("planted", 0)])
    monkeypatch.setattr(weights, "distinguished_involutions",
                        lambda kl_data, left, coord_weights=None:
                        weights.DistinguishedReport([], [("planted",)]))
    assert cli.main(["check", "--type", "B3", "--weight", "2,1,1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [ln for ln in out if ln.startswith("FAIL")] == [
        "FAIL  B3 (2, 1, 1): left preorder trivial on two-sided cells",
        "FAIL  B3 (2, 1, 1): unique involution minimizers with unit "
        "leading coefficient"]


def test_cli_check_runs_the_compute_path(capsys, monkeypatch):
    # each case is one run_pipeline run whose (L) report gives the line
    configs = []
    run = pipeline.run_pipeline

    def record(config, sys=None):
        configs.append(config)
        return run(config, sys)

    monkeypatch.setattr(pipeline, "run_pipeline", record)
    assert cli.main(["check", "--type", "B3", "--weight", "2,1,1"]) == 0
    assert [c.checks for c in configs] == [("L",)]


def test_cli_check_computes_no_certifying_set_or_right_cells(capsys,
                                                           monkeypatch):
    def fail(*args):
        raise RuntimeError("check computed what it does not print")

    monkeypatch.setattr(weights, "gamma_plus_W", fail)
    monkeypatch.setattr(cells, "right_cells", fail)
    assert cli.main(["check", "--type", "B3", "--weight", "2,1,1"]) == 0
    assert capsys.readouterr().out == """\
PASS  B3 (2, 1, 1): left preorder trivial on two-sided cells
PASS  B3 (2, 1, 1): unique involution minimizers with unit leading coefficient
PASS  B3 (2, 1, 1): cell characters decompose integrally (16 cells)
"""


def test_cli_check_has_no_verbose(capsys):
    # no subcommand takes --verbose or --cap
    for command in ("compute", "scan", "check"):
        for flag in (["--verbose"], ["--cap", "100"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--type", "A2", *flag])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


def test_oracle_is_refused_before_any_table(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("compute_kl ran")

    monkeypatch.setattr(pipeline.kl_mod, "compute_kl", fail)
    assert cli.main(["compute", "--type", "H3", "--weight", "1,1,1",
                     "--checks", "oracle", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: oracle limited to groups of size <= 48"]


@pytest.mark.parametrize("argv", [
    ["compute", "--type", "B3", "--weight", "2,1,1", "--out"],
    ["scan", "--type", "B3", "--out"],
    ["export", "--archive", "entry", "--dest"],
])
def test_output_path_that_is_a_file_is_refused_before_any_table(
        tmp_path, capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise RuntimeError("compute_kl ran")

    monkeypatch.setattr(pipeline.kl_mod, "compute_kl", fail)
    monkeypatch.chdir(tmp_path)
    Path("entry").mkdir()
    Path("entry", "two_sided.dot").write_text("digraph {}\n")
    Path("taken").write_text("")
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "taken"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        "klcells: error: output path taken is not a directory"
    assert Path("taken").read_text() == ""


@pytest.mark.parametrize("argv", [
    ["compute", "--type", "A1xA1", "--weight", "1,1"],
    ["scan", "--type", "A1xA1"],
])
def test_file_at_the_written_directory_is_refused_before_any_table(
        tmp_path, capsys, monkeypatch, argv):
    # the directory a run replaces whole, <out>/<key> or <out>/scan, is a
    # plain file: it is neither moved aside nor replaced
    def fail(*args, **kwargs):
        raise RuntimeError("compute_kl ran")

    monkeypatch.setattr(pipeline.kl_mod, "compute_kl", fail)
    target = tmp_path / ("scan" if argv[0] == "scan" else
                         pipeline.RunConfig("A1xA1", weight=(1, 1)).key())
    target.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"klcells: error: output path {target} is not a directory"
    assert target.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [target]


def test_cli_errors(tmp_path, capsys):
    rc = cli.main(["compute", "--type", "I2:4", "--out", str(tmp_path)])
    assert rc == 2  # neither weight nor order
    rc = cli.main(["compute", "--type", "Q9", "--weight", "1",
                   "--out", str(tmp_path)])
    assert rc == 2
    rc = cli.main(["compute", "--type", "I2:4", "--weight", "1,2",
                   "--order", "1,0;0,1", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("name, exc", [
    ("compute_kl", kl.KLError("leading coefficient of C_1 is not 1")),
    ("verify_bar_identity_full",
     OverflowError("coefficient growth too large for int64 slices")),
])
def test_failed_check_that_raises_exits_1(tmp_path, capsys, monkeypatch,
                                          name, exc):
    # a failed post-condition, or a check that cannot run exactly, is a
    # failed check (exit 1) with one error line, not a usage error or a
    # traceback; no archive entry is written
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(kl, name, fail)
    out = tmp_path / "runs"
    rc = cli.main(["compute", "--type", "I2:4", "--weight", "2,1",
                   "--checks", "bar", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {exc}"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["compute", "--type", "B3", "--weight", "2,1,1"],
    ["scan", "--type", "B3", "--chars"],
])
def test_character_table_that_does_not_fit_exits_1(tmp_path, capsys,
                                                    monkeypatch, argv):
    # a bundled character table that does not fit the system is a failed
    # run: one error line, exit 1, and no entry or scan files
    def fail(*args, **kwargs):
        raise reps.CharacterDataError("table classes do not biject")

    monkeypatch.setattr(reps, "table_for_system", fail)
    out = tmp_path / "runs"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: table classes do not biject"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["compute", "--type", "B3", "--weight", "2,1,1"],
    ["scan", "--type", "B3", "--chars"],
])
def test_character_post_condition_exits_1(tmp_path, capsys, monkeypatch,
                                          argv):
    # cell characters that do not sum to the regular character fail a
    # post-condition: one error line, exit 1, and no entry or scan files
    real = reps.cell_character

    def wrong(*args, **kwargs):
        values = real(*args, **kwargs)
        return values[:1] + [v + 1 for v in values[1:]]

    monkeypatch.setattr(reps, "cell_character", wrong)
    out = tmp_path / "runs"
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: cell characters do not sum to the regular character: ")
    assert not out.exists() or not any(out.iterdir())


def test_cell_character_past_int64_exits_1(tmp_path, capsys, monkeypatch):
    # products that could pass int64 refuse to run: one error line, exit
    # 1, and no entry
    def huge(sys, kl_data, cell, mu_by_sw=None):
        return [np.full((len(cell),) * 2, 1 << 40, dtype=np.int64)
                for _ in range(sys.rank)]

    monkeypatch.setattr(reps, "cell_action_matrices_v1", huge)
    out = tmp_path / "runs"
    assert cli.main(["compute", "--type", "I2:4", "--weight", "2,1",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") \
        and "int64" in err[0]
    assert not out.exists() or not any(out.iterdir())


def test_cli_import_does_not_load_scipy():
    # scipy is imported by the bar-identity check only, so it stays out of
    # the start-up time of every command
    src = str(Path(kl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, klcells.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"weight": "2,1",
                                   "out": str(tmp_path / "runs")}))
    rc = cli.main(["compute", "--type", "I2:4", "--config", str(cfgfile)])
    assert rc == 0
    assert "left cells 6" in capsys.readouterr().out
    assert (tmp_path / "runs").exists()
    # explicit flags win over the config file
    rc = cli.main(["compute", "--type", "I2:4", "--config", str(cfgfile),
                   "--weight", "1,1", "--out", str(tmp_path / "runs2")])
    assert rc == 0
    assert "left cells 4" in capsys.readouterr().out


def test_config_file_can_set_the_type(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"type": "I2:4", "weight": "2,1"}))
    assert cli.main(["compute", "--config", str(cfgfile),
                     "--out", str(tmp_path / "a")]) == 0
    assert "system I2:4: |W| = 8," in capsys.readouterr().out
    # an explicit --type wins over the file's
    assert cli.main(["compute", "--type", "I2:6", "--config", str(cfgfile),
                     "--out", str(tmp_path / "b")]) == 0
    assert "system I2:6: |W| = 12," in capsys.readouterr().out
    # with no type anywhere the run is a usage error
    cfgfile.write_text(json.dumps({"weight": "2,1"}))
    out = ["--out", str(tmp_path / "c")]
    for argv in (["compute", "--config", str(cfgfile), *out],
                 ["compute", "--weight", "2,1", *out], ["scan", *out],
                 ["check"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert ("error: the following arguments are required: --type"
                in capsys.readouterr().err)
    assert not (tmp_path / "c").exists()


def test_config_file_never_overrides_an_explicit_flag(tmp_path, capsys):
    # an explicit flag wins over the file also when it is given by alias
    # (--check), by abbreviation (--cross) or against an underscored key
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"checks": "lemmas", "cross_check": False}))
    rc = cli.main(["compute", "--type", "I2:4", "--weight", "2,1",
                   "--check", "bar", "--cross", "--config", str(cfgfile),
                   "--out", str(tmp_path / "runs")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "check [bar-identity]" in out
    assert "check [weight-vs-order cross-check]" in out
    assert "P-normalization" not in out
    # the file still fills what no flag gives; a key that names no option
    # and a file that is not a JSON object are usage errors
    rc = cli.main(["compute", "--type", "I2:4", "--weight", "2,1",
                   "--config", str(cfgfile), "--out", str(tmp_path / "r2")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P-normalization" in out and "cross-check" not in out
    for text, error in (('{"bogus": 1}', "unknown config key 'bogus'"),
                        ('{"func": 1}', "unknown config key 'func'"),
                        ('["weight"]', "does not hold an object"),
                        ('{"weight"', "cannot read config file")):
        cfgfile.write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--type", "I2:4", "--weight", "2,1",
                      "--config", str(cfgfile)])
        assert exc.value.code == 2
        assert error in capsys.readouterr().err


@pytest.mark.parametrize("argv, blob", [
    (["compute"], {"weight": 5}),
    (["compute", "--weight", "2,1"], {"checks": 5}),
    (["scan"], {"jobs": 2.5}),
    (["compute", "--weight", "2,1"], {"force": "no"}),
    (["compute"], {"weight": [2, 1]}),
    (["compute", "--weight", "2,1"], {"checks": {"bar": True}}),
    (["compute", "--weight", "2,1"], {"weight": None}),
])
def test_config_values_are_command_line_text(tmp_path, capsys, argv, blob):
    # a value is read as the text of its option, so argparse and the run
    # configuration reject it as they would on the command line; a list,
    # an object or null is no command-line text at all
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(blob))
    argv = argv[:1] + ["--type", "I2:4", "--config", str(cfgfile),
                       "--out", str(tmp_path / "runs")] + argv[1:]
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    if not isinstance(next(iter(blob.values())), (str, int, float)):
        assert err.count("usage:") == 1
        assert "must be a string, a number or a boolean" in err
    assert not (tmp_path / "runs").exists()


def test_dump_element_matches_only_y_and_w(tmp_path, capsys):
    assert cli.main(["compute", "--type", "I2:4", "--weight", "2,1",
                     "--out", str(tmp_path)]) == 0
    archive, = tmp_path.iterdir()
    for table, pair in (("mu", slice(1, 3)), ("p", slice(0, 2))):
        capsys.readouterr()
        assert cli.main(["dump", "--archive", str(archive), "--table", table,
                         "--element", "1"]) == 0
        rows = [ln.split("\t") for ln in
                capsys.readouterr().out.splitlines()]
        assert rows and all("1" in r[pair] for r in rows), table


def test_scan_post_condition_exits_1(tmp_path, capsys, monkeypatch):
    # a failed scan post-condition is a failed run (exit 1), with one
    # error line and no scan files; a system the scan cannot take is a
    # usage error (exit 2)
    monkeypatch.setattr(weights, "asymptotic_class_bound", lambda sys: 0)
    out = tmp_path / "runs"
    assert cli.main(["scan", "--type", "I2:6", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: top region starts above the guaranteed threshold"]
    assert not out.exists()
    assert cli.main(["scan", "--type", "A3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: scan requires exactly two generator classes"]
    monkeypatch.undo()

    # each remaining post-condition, planted in the top probe of I2:6,
    # whose region is 1 < b/a < oo
    real_open, real_validity = weights._open_regions, weights.validity_interval

    def edit_top_region(**change):
        def probe(sys, chart, swap, lo_bound, hi_bound, hint):
            regions, hint, cover = real_open(sys, chart, swap, lo_bound,
                                             hi_bound, hint)
            if hi_bound is None:
                regions[0] = replace(regions[0], **change)
            return regions, hint, cover
        return probe

    calls = []

    def bounded_top(space, members, num_coord):
        # the top probe certifies its tables first
        lo, hi, *binding = real_validity(space, members, num_coord)
        calls.append(lo)
        return lo, lo + 1 if len(calls) == 1 else hi, *binding

    for name, fake, error in [
            ("_open_regions", edit_top_region(lo=Fraction(25)),
             "breakpoint 25 outside the theoretical range"),
            ("_open_regions", edit_top_region(validity=(100, None)),
             "region 1 < b/a < oo leaves its certificate [100, None]"),
            ("_open_regions", edit_top_region(weight=(1, 1729)),
             "region 1 < b/a < oo: representative weight (1, 1729) exceeds "
             "1728"),
            ("validity_interval", bounded_top,
             "pure lex region is bounded above; unexpected")]:
        with monkeypatch.context() as m:
            m.setattr(weights, name, fake)
            assert cli.main(["scan", "--type", "I2:6", "--jobs", "1",
                             "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert not out.exists()


def test_scan_prints_failed_distinguished_reports(tmp_path, capsys,
                                                 monkeypatch):
    # a failed distinguished-involution report is a finding: one line per
    # region in stdout and scan.txt, and the scan still exits 0
    real = weights.distinguished_involutions

    def failing(*args, **kwargs):
        report = real(*args, **kwargs)
        report.violations.append(("planted", 0))
        return report

    monkeypatch.setattr(weights, "distinguished_involutions", failing)
    assert cli.main(["scan", "--type", "B3", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    scan = json.loads((tmp_path / "scan" / "scan.json").read_text())
    want = [f"  region {i:02d} ({reg['interval']}): distinguished "
            f"involutions fail at its weight"
            + ("" if reg["exact"] else " and in its order")
            for i, reg in enumerate(scan["regions"])]
    text = (tmp_path / "scan" / "scan.txt").read_text()
    assert text.splitlines()[-len(want):] == want
    assert out.startswith(text)


def test_scan_g2_has_the_characters_of_i2_6(tmp_path, capsys):
    # characters are found by the Coxeter matrix, whatever the type's name
    got = []
    for name in ("G2", "I2:6"):
        out = tmp_path / name.replace(":", "_")
        assert cli.main(["scan", "--type", name, "--chars",
                         "--out", str(out)]) == 0
        scan = json.loads((out / "scan" / "scan.json").read_text())
        got.append([(reg["interval"], reg["partition_digest"],
                     reg["cell_characters"]) for reg in scan["regions"]])
    assert got[0] == got[1]


def test_scan_pool_has_at_most_one_worker_per_cpu(tmp_path, capsys,
                                                  monkeypatch):
    # --jobs below 1 is a usage error; the pool is sized before the number
    # of runs is known, so only the CPU count caps it, and --jobs 1 runs
    # every task in process without a pool
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    for jobs in ("0", "-3"):
        assert cli.main(["scan", "--type", "I2:6", "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: jobs must be at least 1, not {jobs}"]
    assert sizes == []
    for cpus, jobs, expect in ((3, "64", [3]), (3, "2", [2]),
                               (None, "64", [1]), (3, "1", [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert cli.main(["scan", "--type", "B3", "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 0
        assert sizes == expect, (cpus, jobs)


def test_scan_main_process_computes_no_table_with_a_pool(tmp_path, capsys,
                                                         monkeypatch):
    # forked workers record their compute_kl calls in their own copy of
    # the list, so with --jobs 2 the main process's list stays empty
    calls = []
    compute_kl = kl.compute_kl

    def recorded(*args, base=None):
        calls.append(args)
        return compute_kl(*args, base=base)

    monkeypatch.setattr(kl, "compute_kl", recorded)
    runs, digests = {}, {}
    for jobs in ("1", "2"):
        calls.clear()
        assert cli.main(["scan", "--type", "B3", "--chars", "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 0
        runs[jobs] = len(calls)
        digests[jobs] = tree_digest(tmp_path / jobs / "scan")
    scan = json.loads((tmp_path / "1" / "scan" / "scan.json").read_text())
    assert runs == {"1": scan["order_runs"], "2": 0}
    assert digests["1"] == digests["2"]


def test_archive_contents(tmp_path, i26):
    cfg = pipeline.RunConfig(system="I2:6", weight=(3, 1))
    res = pipeline.run_pipeline(cfg, sys=i26)
    out = pipeline.write_archive(res, tmp_path)
    expected = {"meta.json", "ptable.tsv", "mutable.tsv", "ptable.json",
                "mutable.json", "cells.json", "gamma.json", "two_sided.dot",
                "chars.json", "distinguished.json"}
    assert {p.name for p in out.iterdir()} >= expected
    # TSV format: y_word, w_word, polynomial text
    first = (out / "ptable.tsv").read_text().splitlines()[0].split("\t")
    assert len(first) == 3 and first[0] == "e" and first[1] == "e"
    # JSON table round-trips through the polynomial JSON form
    rows = json.loads((out / "ptable.json").read_text())
    assert all(set(r) == {"y", "w", "poly"} for r in rows)


def test_cross_check_without_certified_order_is_inconclusive(tmp_path,
                                                             capsys):
    # at b/a = 1/2 no order is certified: the cross-check compared
    # nothing and must not read as a pass; the exit code stays 0
    assert cli.main(["compute", "--type", "B3", "--weight", "2,1,1",
                     "--cross-check", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "check [weight-vs-order cross-check] inconclusive: " \
           "no order certified" in out
    assert "0 checked, ok" not in out
    entry, = tmp_path.iterdir()
    rep = json.loads((entry / "meta.json").read_text())["reports"][
        "cross_check"]
    assert rep["notes"]["certified_orders"] == "0"
    assert rep["inconclusive"] == "no order certified"
    # a cache hit reports it the same way
    assert cli.main(["compute", "--type", "B3", "--weight", "2,1,1",
                     "--cross-check", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "cached" in out and "inconclusive: no order certified" in out


def test_failed_cross_check_ends_the_compute_and_its_worker(tmp_path, capsys,
                                                            monkeypatch):
    # a KLError in an order run of the cross-check, raised in its worker,
    # ends the compute as any failed post-condition does: exit 1, one
    # error line, no archive entry, no process left
    compute_kl = kl.compute_kl

    def fail_order(sys, params, order, base=None):
        if order.space.rank == 2:
            raise kl.KLError("injected failure")
        return compute_kl(sys, params, order, base=base)

    monkeypatch.setattr(kl, "compute_kl", fail_order)
    assert cli.main(["compute", "--type", "B3", "--weight", "3,1,1",
                     "--cross-check", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: injected failure"]
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_failed_check_beside_the_cross_check_leaves_no_worker(tmp_path,
                                                              capsys,
                                                              monkeypatch):
    # a check of this process fails while the cross-check's worker is
    # still in its (slowed) order runs: exit 1, and the pool is shut down
    compute_kl = kl.compute_kl

    def slow_order(sys, params, order, base=None):
        if order.space.rank == 2:
            time.sleep(0.2)
        return compute_kl(sys, params, order, base=base)

    def fail(*args):
        raise kl.KLError("injected failure")

    monkeypatch.setattr(kl, "compute_kl", slow_order)
    monkeypatch.setattr(kl, "check_bounds", fail)
    assert cli.main(["compute", "--type", "B3", "--weight", "3,1,1",
                     "--cross-check", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: injected failure"]
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_cross_check_violation_exits_1(tmp_path, capsys, monkeypatch):
    # a violation found in the worker reaches the report and the exit code
    def violated(*args):
        return kl.CheckReport("specialization-consistency", checked=1,
                              violations=[("P-row", "injected")])

    monkeypatch.setattr(weights, "specialization_consistency", violated)
    assert cli.main(["compute", "--type", "B3", "--weight", "3,1,1",
                     "--cross-check", "--out", str(tmp_path)]) == 1
    assert "check [weight-vs-order cross-check] 2 checked, " \
           "2 violation(s)" in capsys.readouterr().out
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("text", REFUSED_TYPES)
def test_type_naming_no_finite_group_exits_2_before_any_table(
        tmp_path, capsys, monkeypatch, text):
    # "A3:7" is not W(A3): a part of the string that names nothing is
    # refused, not dropped
    def fail(*args, **kwargs):
        raise RuntimeError("compute_kl ran")

    monkeypatch.setattr(pipeline.kl_mod, "compute_kl", fail)
    out = str(tmp_path / "runs")
    for argv in (["compute", "--weight", "1,1,1", "--out", out],
                 ["scan", "--chars", "--out", out], ["check"]):
        assert cli.main([*argv, "--type", text]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: no finite Coxeter type ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--type", "B3", "--order", "1,0;0,1"],
    ["--type", "A3", "--weight", "1,1,1"],
], ids=["order", "one-class"])
def test_cross_check_needs_a_weight_on_two_classes(tmp_path, capsys, argv):
    assert cli.main(["compute", *argv, "--cross-check",
                     "--out", str(tmp_path)]) == 0
    assert "check [weight-vs-order cross-check] inconclusive: needs a " \
           "weight run on a system with two generator classes" \
           in capsys.readouterr().out
    entry, = tmp_path.iterdir()
    rep = json.loads((entry / "meta.json").read_text())["reports"][
        "cross_check"]
    assert rep["notes"]["certified_orders"] == "0"


def test_export_all_copies_every_present_file(tmp_path, capsys):
    out = tmp_path / "runs"
    assert cli.main(["compute", "--type", "I2:4", "--weight", "2,1",
                     "--out", str(out)]) == 0
    entry, = out.iterdir()
    dest = tmp_path / "exp"
    assert cli.main(["export", "--archive", str(entry),
                     "--dest", str(dest)]) == 0
    assert capsys.readouterr().out.endswith(f" -> {dest}\n")
    assert sorted(p.name for p in dest.iterdir()) == \
        sorted(p.name for p in entry.iterdir())
    for path in dest.iterdir():
        assert path.read_bytes() == (entry / path.name).read_bytes()


def test_export_or_dump_of_a_missing_file_exits_2(tmp_path, capsys):
    entry = tmp_path / "entry"
    entry.mkdir()
    (entry / "ptable.tsv").write_text("e\te\t1\n")
    for argv, message in (
            (["export", "--archive", str(tmp_path / "gone"),
              "--dest", str(tmp_path / "exp")], "does not exist"),
            (["dump", "--archive", str(entry), "--table", "mu"],
             "mutable.tsv does not exist")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry"]


def test_scan_chars_without_a_bundled_table_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--type", "I2:10", "--chars",
                  "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        "klcells: error: no bundled character table for I2:10"
    assert list(tmp_path.iterdir()) == []


def test_oracle_that_differs_in_one_entry_exits_1(tmp_path, capsys,
                                                  monkeypatch):
    oracle_kl = kl.oracle_kl

    def changed(sys, params, order):
        data = oracle_kl(sys, params, order)
        rows = list(data.rows)
        rows[sys.longest] = {**rows[sys.longest], 0: {order.space.one: 7}}
        return replace(data, rows=rows)

    monkeypatch.setattr(kl, "oracle_kl", changed)
    assert cli.main(["compute", "--type", "B3", "--weight", "2,1,1",
                     "--checks", "oracle", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "check [oracle] 48 checked, 1 violation(s)" in out
    entry, = tmp_path.iterdir()
    rep = json.loads((entry / "meta.json").read_text())["reports"]["oracle"]
    assert rep["violations"] == ["'tables differ'"]
