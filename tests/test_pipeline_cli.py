import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from klcells import cli, kl, pipeline, reps, weights

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
        report = weights.scan_equivalence_classes(i24, chartable_name="i2_4")
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
