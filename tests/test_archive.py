"""Archive bytes, atomic entry writes and the compute cache contract."""

import hashlib
import json
import subprocess
import sys

import pytest

from klcells import cli, pipeline

from conftest import system

# sha256 of every file of an archive entry, recorded with the tables
# rendered row by row through json.dump: the archive bytes are a contract
GOLDEN = {
    "b3-weight": (
        pipeline.RunConfig(system="B3", weight=(2, 1, 1),
                           checks=("lemmas", "bounds", "bar", "L")),
        "185ab44f65ff886b",
        {
            "cells.json": "9ac16f20a8e2634fddab9e38e24a6d2db4f600c08b4d52d9f273293ad26dc5f1",
            "chars.json": "b219b0f1f628312014ac5a9aaa36788d8d1dccd563898cdfe75941a98fbab634",
            "distinguished.json": "baa47230d108f3370825b67b4fe110a39d1459eb8473640a99fcbfacc02fe6b6",
            "gamma.json": "f3f0d8cf27841002b95a0a4b89a3dab23fd467dec9ef02cff20b476b837417b1",
            "meta.json": "223a8d39f15e33f0c7a612cada94b9944564ee7f35d440e519d0aa15e49f6795",
            "mutable.json": "9c228d81028ad8878e6ec10dd5282908ab927fd5706280e6037d594f122d74b2",
            "mutable.tsv": "56e8870286d4dc818a6a132487f84853c0829d5b402eac85024aa820903291fb",
            "ptable.json": "5e5415700419c4e17bdf26face6834c1f42ee7b8e5dbdc5acfb034bce339eda2",
            "ptable.tsv": "a0c1dae6d23d0a3680de15de57f581c094686120565b9284e39ecdc45af826cd",
            "two_sided.dot": "cff072a1e5f5dadcc3018d41309d5b99d4fb29663a35914145e3ef97c8c02457",
        },
    ),
    "b3-order": (
        pipeline.RunConfig(system="B3", order_functionals=((1, 2), (1, 0))),
        "7bcb375ab355d8c8",
        {
            "cells.json": "6e6f3dcc506440a0efdc4f0165ffd903ab8a0bcc42efc6af9fb93686cccddf3f",
            "chars.json": "49d1b309f5ce38a9d167b34588bcf8a8f554e54a8453c26ca4b7e4cb5675a972",
            "gamma.json": "47a5bca80439352014b1d5e90bb0076f8e64464064864df2c25bdaf5443fe740",
            "meta.json": "c0d3435b1ddd66d40c3c62331d790b913edddd276f684199b5e9390d27267611",
            "mutable.json": "c2309fa4c3acddce49561e3d2e32afe3c799050aa7b6162f18e106a6788c8544",
            "mutable.tsv": "75107e11127f3626c1b005c663f8f5dae4e9eb5c15381cdd16fdf7f56e10a4f4",
            "ptable.json": "bad04eef42519a5dca59efc74b0f32715481b9177e32b59e2fb3a93325be8025",
            "ptable.tsv": "6a0cf9d039a52b1535ae37139cb5f76a431f9cbe316fb9db266ccec25b2285c0",
            "two_sided.dot": "033ce93f50b703c2444ee7a8b6380d6e700eaa3dad9b2bbbcda83008313f9523",
        },
    ),
    # A1 has no M-entries: mutable.json is the empty-list framing
    "a1": (
        pipeline.RunConfig(system="A1", weight=(1,)),
        "e9173ff423bc4a4d",
        {
            "cells.json": "671e32f197b795743e6a67bbce5178e6e81a265da8b64709f6b8ad2f4cff0d4f",
            "chars.json": "a4f94c9e6627ff837b2dd79172460b1fc5066078d5f27a1c70373644424a5b35",
            "distinguished.json": "43f55b32b6867e9963046ce780be739baab3b9af0daec5dabbea1071234cbe2b",
            "gamma.json": "589048f91493675a4d4c59f68bb64479bf5fa4ecc56fe95f925564dc31e8dcd3",
            "meta.json": "5541406a1535fa0e0fe0f03eb3340335bf0ed95e8fd1ab64639ffc5d3104c8e7",
            "mutable.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
            "mutable.tsv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "ptable.json": "1050718e1ca4d4105aca530f7dd09c1ef31c1504bd117d9f4e6849f5e85fe0e5",
            "ptable.tsv": "be5df973327c5fdd475e87563aff967297e1c95798c1a69eaceed8fd35dda12d",
            "two_sided.dot": "c4e8ec25af66cc1b9ee6184b5fda793035b7ae41b040b1e95a886cca457d6593",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_archive_golden_bytes(tmp_path, case):
    cfg, key, digests = GOLDEN[case]
    res = pipeline.run_pipeline(cfg, sys=system(cfg.system))
    out = pipeline.write_archive(res, tmp_path)
    assert out == tmp_path / key
    assert [p.name for p in tmp_path.iterdir()] == [key]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    assert got == digests


# sha256 of every file that `scan --chars` writes; I2:6 covers the
# mirrored regions
SCAN_GOLDEN = {
    "b3": ("B3", {
        "region_00.dot": "42070b5e11fbd3f696a6cf9960701332ccefeb7a261d1e00e3353facaf4be10a",
        "region_00_cells.json": "a9b318baa20622fa014abc881d5cbad4c248622d2302bd2d0a084e08da78c62f",
        "region_01.dot": "e13a61c1e19a1cad909ac673a47e2e95ff6a452a1c5c16e5b982b84e859f7ee0",
        "region_01_cells.json": "dc62143b02d4ca7a1a3a59a3fc2c6f953f9f2b2d68f3fe08f8d6f346ae125969",
        "region_02.dot": "52aab8fe5ff3df68ef1cd8478700ad3af9d4f6d4f20d4c2655f44a39a5872647",
        "region_02_cells.json": "6f01ac64f9a6ddbf00d5e22793bb3279552b30914502600cbdbdc3e4ff3ea6f4",
        "region_03.dot": "0a528d57400aef6691e0dc8907ba32598532ef64c62dd42afe55b62039625329",
        "region_03_cells.json": "33a613916443f8cb92e43046d164074a5ea6125eda797b7d60dc76d523dcae8f",
        "region_04.dot": "1c6a357ba60818cebe5d00e1f6e24cb19c13951469abebf19922fbbeed5cff7a",
        "region_04_cells.json": "c6791145f030126d597cb8ea727bcd7caa957ace7130c997cadc8ac36b2a4374",
        "scan.json": "167b6880be7f443edfaeb0d889e4e2c4f0330bd37fecf3eb97009d8ce126093a",
        "scan.txt": "35fe1c8fb85331216eeb1c462bf380efaeed94b229b421dd4efe3848cb7f8847",
    }),
    "i2_6": ("I2:6", {
        "region_00.dot": "7ee430c2084ce95b288a3a18282aeb36b4c25a5d492dbc27cf2465801715c031",
        "region_00_cells.json": "8e7d02daf9e8ee8a407301f2baf0eec452e8217d01af875ebd1fda6d5c5b1427",
        "region_01.dot": "28fd586bb1495bf4251dcf78a940d1d2733480ff1946090a7e452534882809a5",
        "region_01_cells.json": "48860be21d9bfdd4660d0bcedf838aa5c7936a0c9a9cbd9eb7890a3749b3d36a",
        "region_02.dot": "fbf3f187d60a45c7d26522095be5ee9be995718952b3cac09a4ac93eecd9f278",
        "region_02_cells.json": "f85dc1b34cddea30288a95f76d4946f7c9bb7637fc633f80f5a9169548ffc006",
        "scan.json": "2830b065042290205cf8749a362bc86523e6fd9c7d51a6968026a987164b6ec7",
        "scan.txt": "d99e254f87bdbb34967e9bab20b2ce4abd763443838869d4364c72f2e1312789",
    }),
}


@pytest.mark.parametrize("case", sorted(SCAN_GOLDEN))
def test_scan_golden_bytes(tmp_path, capsys, case):
    name, digests = SCAN_GOLDEN[case]
    assert cli.main(["scan", "--type", name, "--chars",
                     "--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (tmp_path / "scan").iterdir()}
    assert got == digests


def test_c3_archive_equals_b3(tmp_path, capsys):
    # C3 and B3 have one Coxeter matrix, so one character table
    entries = []
    for name in ("C3", "B3"):
        assert cli.main(["compute", "--type", name, "--weight", "2,1,1",
                         "--out", str(tmp_path / name)]) == 0
        entry, = (tmp_path / name).iterdir()
        entries.append({p.name: p.read_bytes() for p in entry.iterdir()
                        if p.name != "meta.json"})
    assert "chars.json" in entries[0]
    assert entries[0] == entries[1]


def _compute(root, *extra):
    return cli.main(["compute", "--type", "I2:4", "--weight", "2,1",
                     "--out", str(root), *extra])


def test_interrupted_write_leaves_no_entry(tmp_path, monkeypatch, capsys):
    calls = []

    def failing_poly_text(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("interrupted")
        return real_poly_text(*args, **kwargs)

    real_poly_text = pipeline.poly_text
    monkeypatch.setattr(pipeline, "poly_text", failing_poly_text)
    with pytest.raises(RuntimeError, match="interrupted"):
        _compute(tmp_path)
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    capsys.readouterr()
    assert _compute(tmp_path) == 0
    out = capsys.readouterr().out
    assert "cached" not in out and "left cells 6" in out
    assert len(list(tmp_path.iterdir())) == 1


def test_force_replaces_the_entry_whole(tmp_path, capsys):
    assert _compute(tmp_path) == 0
    entry = next(tmp_path.iterdir())
    (entry / "stale.txt").write_text("from an older run\n")
    assert _compute(tmp_path) == 0
    assert "cached" in capsys.readouterr().out
    assert (entry / "stale.txt").exists()
    assert _compute(tmp_path, "--force") == 0
    assert not (entry / "stale.txt").exists()
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]


def _digests(entry):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in entry.iterdir()}


def _plant_temp_dirs(root, pid):
    """A ``.tmp`` of this run's key and an ``.old`` of another key."""
    cfg = pipeline.RunConfig(system="I2:4", weight=(2, 1))
    planted = [root / f".{cfg.key()}.{pid}.tmp",
               root / f".{'0' * 16}.{pid}.old"]
    for path in planted:
        path.mkdir(parents=True)
        (path / "ptable.tsv").write_text("partial\n")
    return planted


def test_stale_temp_dirs_of_dead_writers_are_swept(tmp_path, capsys):
    assert _compute(tmp_path / "clean") == 0
    clean = _digests(next((tmp_path / "clean").iterdir()))
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()                        # reaped: its pid runs nothing now
    root = tmp_path / "swept"
    _plant_temp_dirs(root, child.pid)
    assert _compute(root) == 0
    entry, = root.iterdir()
    assert _digests(entry) == clean


def test_temp_dirs_of_live_writers_are_kept(tmp_path, capsys):
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(120)"])
    try:
        planted = _plant_temp_dirs(tmp_path, child.pid)
        assert _compute(tmp_path) == 0
        assert all((p / "ptable.tsv").read_text() == "partial\n"
                   for p in planted)
        assert len(list(tmp_path.iterdir())) == 3
    finally:
        child.kill()
        child.wait()


def test_scan_replaces_its_whole_directory(tmp_path, capsys):
    # a 3-region scan over a 5-region one leaves none of the old region
    # files; the temporary directories of a dead scan writer are swept
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()                        # reaped: its pid runs nothing now
    for suffix in ("tmp", "old"):
        stale = tmp_path / f".scan.{child.pid}.{suffix}"
        stale.mkdir()
        (stale / "scan.json").write_text("partial\n")
    for name in ("B3", "I2:6"):
        assert cli.main(["scan", "--type", name, "--chars",
                         "--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["scan"]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (tmp_path / "scan").iterdir()}
    assert got == SCAN_GOLDEN["i2_6"][1]


def test_cache_hit_reports_stored_violations(tmp_path, capsys):
    assert _compute(tmp_path) == 0
    capsys.readouterr()
    assert _compute(tmp_path) == 0
    out = capsys.readouterr().out
    assert "cached" in out and "check [exponent-bounds]" in out
    meta_path = next(tmp_path.iterdir()) / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["reports"]["bounds"]["violations"] = ["'planted'"]
    meta_path.write_text(json.dumps(meta))
    assert _compute(tmp_path) == 1
    assert "1 violation(s)" in capsys.readouterr().out


def test_repeated_check_names_share_one_entry(tmp_path, capsys):
    assert _compute(tmp_path, "--checks", "lemmas") == 0
    capsys.readouterr()
    assert _compute(tmp_path, "--checks", "lemmas,lemmas") == 0
    assert "cached" in capsys.readouterr().out
    entry, = tmp_path.iterdir()
    assert entry.name == "3cc18bb80865eb68"
    meta = json.loads((entry / "meta.json").read_text())
    assert meta["config"]["checks"] == ["lemmas"]


def test_unknown_check_names_are_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="orcale"):
        pipeline.RunConfig(system="A2", weight=(1, 1),
                           checks=("orcale", "bar"))
    assert _compute(tmp_path, "--checks", "orcale,bar") == 2
    assert "orcale" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # the archive key of a valid configuration is unchanged
    cfg = pipeline.RunConfig(system="B3", weight=(2, 1, 1),
                             checks=("lemmas", "bounds", "bar", "L",
                                     "oracle"))
    assert cfg.canonical()["checks"] == ["L", "bar", "bounds", "lemmas",
                                         "oracle"]
    assert GOLDEN["b3-weight"][0].key() == GOLDEN["b3-weight"][1]


def _compute_b3(root, *extra):
    return cli.main(["compute", "--type", "B3", "--weight", "2,1,1",
                     "--out", str(root), *extra])


def test_cross_check_is_not_served_from_an_entry_without_it(tmp_path,
                                                            capsys):
    # the archive key leaves out cross_check: an entry written without
    # the cross-check must not answer a run that asks for it
    assert _compute_b3(tmp_path) == 0
    out = capsys.readouterr().out
    assert "cached" not in out and "cross-check" not in out
    assert _compute_b3(tmp_path, "--cross-check") == 0
    out = capsys.readouterr().out
    assert "cached" not in out and "[weight-vs-order cross-check]" in out
    assert _compute_b3(tmp_path, "--cross-check") == 0
    out = capsys.readouterr().out
    assert "cached" in out and "[weight-vs-order cross-check]" in out
    entry, = tmp_path.iterdir()
    assert "cross_check" in json.loads((entry / "meta.json").read_text())[
        "reports"]
