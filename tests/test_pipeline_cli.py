import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from klcells import cells, cli, kl, pipeline, reps, weights

from conftest import system


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


def test_cli_check_reports_a_failed_line(capsys, monkeypatch):
    monkeypatch.setattr(cells, "check_property_L",
                        lambda sys, left, two_sided: [("planted", 0)])
    assert cli.main(["check", "--type", "B3", "--weight", "2,1,1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [ln for ln in out if ln.startswith("FAIL")] == [
        "FAIL  B3 (2, 1, 1): left preorder trivial on two-sided cells"]


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


def test_scan_pool_has_one_worker_per_exact_run(tmp_path, capsys,
                                               monkeypatch):
    # --jobs below 1 is a usage error; the pool never outgrows the exact
    # runs (B3 has two breakpoints, I2:6 one, which runs in process)
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    for jobs in ("0", "-3"):
        assert cli.main(["scan", "--type", "I2:6", "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: jobs must be at least 1, not {jobs}"]
    assert sizes == []
    for name, jobs, expect in (("B3", "64", [2]), ("I2:6", "64", []),
                               ("B3", "1", [])):
        sizes.clear()
        assert cli.main(["scan", "--type", name, "--jobs", jobs,
                         "--out", str(tmp_path / name)]) == 0
        assert sizes == expect, (name, jobs)


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
