import json

import numpy as np
import pytest

from ergospectra.cli import ConfigError, config_hash, load_config, main
from ergospectra.hyperbolicity import uh_test
from ergospectra.model import free_model

from conftest import GOLDEN

FREE_CFG = {
    "m": 1,
    "potential": {"type": "free"},
    "base": {"type": "torus", "alpha": [GOLDEN]},
    "scan": {"E_min": -3.0, "E_max": 3.0, "points": 5, "N": 500},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(FREE_CFG)
        cfg["frobnicate"] = 1
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, cfg))

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        out = tmp_path / "out"
        assert main(["ids", "--config", str(path), "--out", str(out)]) == 2
        assert not (out / "ids.csv").exists()

    def test_empty_range_exit_2(self, tmp_path):
        cfg = dict(FREE_CFG)
        cfg["scan"] = {"E_min": 1.0, "E_max": 1.0, "points": 5, "N": 100}
        code = main(["gaps", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_tol_section_exit_2(self, tmp_path):
        cfg = dict(FREE_CFG)
        cfg["tol"] = {"hermitian_asym": 1e-9}
        out = tmp_path / "out"
        code = main(["ids", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)])
        assert code == 2
        assert not (out / "ids.csv").exists()

    def test_hash_stable_under_key_order(self):
        a = {"m": 1, "seed": 2}
        b = {"seed": 2, "m": 1}
        assert config_hash(a) == config_hash(b)


class TestIdsCommand:
    def test_rows_and_monotone(self, tmp_path):
        out = tmp_path / "out"
        code = main(["ids", "--config", write_cfg(tmp_path, FREE_CFG),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "ids.csv").read_text().splitlines()
        assert lines[0].startswith("# ergospectra")
        assert lines[1] == "E,ids"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 5
        vals = [float(r[1]) for r in rows]
        assert vals == sorted(vals)


class TestDeterminism:
    def test_rot_workers_byte_identical(self, tmp_path):
        cfg = dict(FREE_CFG)
        cfg["scan"] = {"E_min": -2.5, "E_max": 2.5, "points": 6, "N": 200}
        path = write_cfg(tmp_path, cfg)
        out1, out8 = tmp_path / "w1", tmp_path / "w8"
        assert main(["rot", "--config", path, "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["rot", "--config", path, "--out", str(out8),
                     "--workers", "8"]) == 0
        assert (out1 / "rot.csv").read_bytes() == (out8 / "rot.csv").read_bytes()


class TestGapsCommand:
    def test_free_no_interior_rows(self, tmp_path):
        cfg = dict(FREE_CFG)
        cfg["scan"] = {"E_min": -4.0, "E_max": 4.0, "points": 60, "N": 500}
        cfg["gaps"] = {"resolution": 60, "n_iter": 300}
        out = tmp_path / "out"
        assert main(["gaps", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
        lines = (out / "gaps.csv").read_text().splitlines()
        data = [line.split(",") for line in lines[2:]]
        assert all(row[2] == "0" for row in data)  # interior flag column
        svg = (out / "ids.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_two_eigensolves_one_tracker_call(self, tmp_path, monkeypatch):
        from ergospectra import model as model_module, rotation
        from ergospectra.gaps import LabelGroup, verify_ids_rot
        solves, tracks = [], []
        solve, track = model_module.eigvals_banded, rotation.track_frames
        monkeypatch.setattr(model_module, "eigvals_banded",
                            lambda *a, **k: solves.append(1) or solve(*a, **k))
        monkeypatch.setattr(rotation, "track_frames",
                            lambda *a, **k: tracks.append(1) or track(*a, **k))
        cfg = dict(FREE_CFG)
        cfg["scan"] = {"E_min": -4.0, "E_max": 4.0, "points": 60, "N": 200}
        cfg["gaps"] = {"resolution": 60, "n_iter": 300}
        out = tmp_path / "out"
        assert main(["gaps", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
        # the gap search and the plotted IDS share one restriction; the
        # IDS/rotation check makes the other, and tracks every record in
        # one call
        assert len(solves) == 2 and len(tracks) == 1
        rows = [line.split(",") for line in
                (out / "gaps.csv").read_text().splitlines()[2:]]
        assert len(rows) >= 2
        group = LabelGroup("torus", (GOLDEN,))
        for row in rows:
            mid = 0.5 * (float(row[0]) + float(row[1]))
            _, rot, _ = verify_ids_rot(free_model(), mid, 200, group)
            assert float(row[-3]) == rot


class TestStarCommand:
    def test_report(self, tmp_path):
        cfg = {"star": {"A": [[-2.0, 2.0]], "B": [[0.0, 0.0], [5.0, 5.0]]}}
        out = tmp_path / "out"
        assert main(["star", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
        report = json.loads((out / "star.json").read_text())
        assert report["result"] == [[-2.0, 2.0], [3.0, 7.0]]
        assert "config" in report["_meta"]


class TestDualityCommand:
    def test_report(self, tmp_path):
        cfg = {
            "dual_of": {"coeffs": [[0.7, 0.0], [0.0, 0.0], [0.7, 0.0]],
                        "alpha": GOLDEN},
            "scan": {"E_min": -4.0, "E_max": 4.0, "points": 9, "N": 300},
            "seed": 5,
        }
        out = tmp_path / "out"
        assert main(["duality", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
        report = json.loads((out / "duality.json").read_text())
        assert report["degree"] == 1
        assert report["max_factorization_residual"] < 1e-12
        assert report["max_ids_difference"] < 5e-2


class TestUhCommand:
    def test_flags(self, tmp_path):
        cfg = dict(FREE_CFG)
        cfg["scan"] = {"E_min": -3.0, "E_max": 3.0, "points": 5, "N": 100}
        cfg["uh"] = {"n_iter": 300}
        out = tmp_path / "out"
        assert main(["uh", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
        lines = (out / "uh.csv").read_text().splitlines()
        flags = [row.split(",")[1] for row in lines[2:]]
        # grid is -3, -1.5, 0, 1.5, 3: outside, inside x3, outside
        assert flags == ["1", "0", "0", "0", "1"]

    def test_rows_equal_per_energy_uh_test(self, tmp_path):
        cfg = dict(FREE_CFG)
        cfg["scan"] = {"E_min": -3.0, "E_max": 3.0, "points": 7, "N": 100}
        cfg["uh"] = {"n_iter": 200, "gap_threshold": 1.02}
        cfg["theta0"] = [0.3]
        out = tmp_path / "out"
        assert main(["uh", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
        lines = (out / "uh.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 7
        model = free_model()
        for row, E in zip(rows, np.linspace(-3.0, 3.0, 7)):
            flag, s = uh_test(model, float(E), n_iter=200,
                              gap_threshold=1.02, theta0=[0.3])
            assert row == [repr(float(E)), str(int(flag)),
                           str(int(s.converged)), repr(s.gap)]
