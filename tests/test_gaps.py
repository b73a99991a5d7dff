import numpy as np
import pytest

from ergospectra import gaps, model as model_module
from ergospectra.duality import TrigPolynomial, build_dual
from ergospectra.errors import InvalidInput
from ergospectra.gaps import (GapRecord, LabelGroup, detect_gaps, _flat_runs,
                              gap_records_csv, label_gap, verify_ids_rot)
from ergospectra.model import (constant_model, free_model, ids,
                               restriction_eigenvalues)

from conftest import GOLDEN


class TestLabelGroup:
    def test_zero(self):
        group = LabelGroup("torus", (GOLDEN,), k_max=5)
        k, j, dist = group.best_label(0.0)
        assert k == (0,) and j == 0 and dist < 1e-12

    def test_integer(self):
        group = LabelGroup("torus", (GOLDEN,), k_max=5)
        k, j, dist = group.best_label(1.0)
        assert k == (0,) and j == 1 and dist < 1e-12

    def test_golden_multiple(self):
        group = LabelGroup("torus", (GOLDEN,), k_max=5)
        k, j, dist = group.best_label(np.mod(3 * GOLDEN, 1.0))
        assert k == (3,) and dist < 1e-12
        assert 3 * GOLDEN + j == pytest.approx(np.mod(3 * GOLDEN, 1.0))

    def test_prefers_small_k(self):
        # alpha = 0.5 makes (2, j) and (0, j') equally good; |k|_1 wins
        group = LabelGroup("torus", (0.5,), k_max=5)
        k, j, _ = group.best_label(1.0)
        assert k == (0,) and j == 1

    def test_integers_kind(self):
        group = LabelGroup("integers")
        k, j, dist = group.best_label(2.003)
        assert k == () and j == 2 and dist == pytest.approx(0.003)
        assert group.distance(0.4) == pytest.approx(0.4)

    def test_distance_mod_group(self):
        group = LabelGroup("torus", (GOLDEN,), k_max=10)
        assert group.distance(7 * GOLDEN - 4.0) < 1e-12

    def test_bad_kind(self):
        with pytest.raises(InvalidInput):
            LabelGroup("weyl")
        with pytest.raises(InvalidInput):
            LabelGroup("torus", ())


class TestFlatRuns:
    def test_single_run(self):
        vals = np.array([0.0, 0.0, 0.001, 0.5, 0.5, 1.0])
        runs = _flat_runs(vals, 2e-3)
        assert (0, 2) in runs and (3, 4) in runs

    def test_no_runs_on_steep_data(self):
        vals = np.linspace(0, 1, 10)
        assert _flat_runs(vals, 2e-3) == []


class TestDetectGaps:
    def test_free_laplacian_no_interior(self):
        records = detect_gaps(free_model(), (-4, 4), 100, 1000, n_iter=400)
        interior = [r for r in records if r.interior]
        outer = [r for r in records if not r.interior]
        assert interior == []
        assert len(outer) == 2
        values = sorted(r.ids_value for r in outer)
        assert values[0] == pytest.approx(0.0, abs=2e-3)
        assert values[1] == pytest.approx(1.0, abs=2e-3)
        # refined edges should sit near the band edges -2 and 2
        assert abs(outer[0].interval[1] + 2.0) < 0.1
        assert abs(outer[1].interval[0] - 2.0) < 0.1

    def test_two_band_constant_model(self):
        model = constant_model(np.diag([0.0, 10.0]))
        records = detect_gaps(model, (-3, 13), 120, 800, n_iter=400)
        interior = [r for r in records if r.interior]
        assert len(interior) == 1
        rec = interior[0]
        assert rec.ids_value == pytest.approx(0.5, abs=2e-3)
        lo, hi = rec.interval
        assert abs(lo - 2.0) < 0.2 and abs(hi - 8.0) < 0.2

    def test_adjacent_gaps_do_not_overlap(self):
        # bands narrower than the grid step separate adjacent flat runs of
        # the degree-2 block dual; the edge bisections must not cross them
        model = build_dual(TrigPolynomial((1.0, 1.0, 0.0, 1.0, 1.0), GOLDEN))
        ev = restriction_eigenvalues(model, [0.0], 300)
        hull = (float(ev[0]) - 0.5, float(ev[-1]) + 0.5)
        records = detect_gaps(model, hull, 200, 800, n_iter=300)
        intervals = sorted(r.interval for r in records)
        assert len(intervals) >= 8
        for (lo, hi), (next_lo, _) in zip(intervals, intervals[1:]):
            assert lo < hi < next_lo

    def test_one_eigensolve(self, monkeypatch):
        calls = []
        original = model_module.restriction_eigenvalues

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gaps, "restriction_eigenvalues", counted)
        monkeypatch.setattr(model_module, "restriction_eigenvalues", counted)
        model = constant_model(np.diag([0.0, 10.0]))
        records = detect_gaps(model, (-3, 13), 120, 800, n_iter=400)
        assert len(calls) == 1
        # the same values ids() gives at each gap midpoint
        for rec in records:
            assert rec.ids_value == ids(model, [0.0], 800, [rec.midpoint])[0]

    def test_resolution_guard(self):
        with pytest.raises(InvalidInput):
            detect_gaps(free_model(), (-4, 4), 10, 100)
        with pytest.raises(InvalidInput):
            detect_gaps(free_model(), (4, -4), 100, 100)


class TestLabelGap:
    def test_trivial_labels(self):
        group = LabelGroup("torus", (GOLDEN,), k_max=5)
        below = GapRecord(interval=(-4.0, -2.0), ids_value=0.0, interior=False)
        above = GapRecord(interval=(2.0, 4.0), ids_value=1.0, interior=False)
        lab0 = label_gap(below, group, m=1)
        lab1 = label_gap(above, group, m=1)
        assert lab0.label == ((0,), 0)
        assert lab1.label == ((0,), 1)

    def test_unmatched_reported(self):
        group = LabelGroup("torus", (GOLDEN,), k_max=1)
        rec = GapRecord(interval=(0.0, 1.0), ids_value=0.217, interior=True)
        out = label_gap(rec, group, m=1, tol=1e-4)
        assert out.label is None
        assert out.label_distance is not None


class TestVerifyIdsRot:
    def test_free_above(self):
        group = LabelGroup("torus", (GOLDEN,), k_max=5)
        lhs, rhs, dist = verify_ids_rot(free_model(), 3.0, 500, group)
        assert lhs == pytest.approx(0.0, abs=1e-2)
        assert dist < 1e-2

    def test_free_below(self):
        group = LabelGroup("torus", (GOLDEN,), k_max=5)
        lhs, rhs, dist = verify_ids_rot(free_model(), -3.0, 500, group)
        assert lhs == pytest.approx(1.0, abs=1e-2)
        assert dist < 1e-2


class TestCsv:
    def test_columns_and_rows(self):
        rec = GapRecord(interval=(1.0, 2.0), ids_value=0.5, interior=True,
                        label=((1,), 0), label_distance=0.001,
                        rot_value=0.5, rot_distance=0.002)
        text = gap_records_csv([rec], m=1, alpha_dim=1)
        lines = text.strip().split("\n")
        assert lines[0] == ("E_lo,E_hi,interior,ids,m_ids,k0,j,rot_turns,"
                            "dist_mod_group,degree0")
        fields = lines[1].split(",")
        assert fields[0] == repr(1.0) and fields[2] == "1"
        assert fields[5] == "1" and fields[6] == "0"
