import numpy as np
import pytest
import scipy.linalg

from endocheck import Dataset, design_matrices, load_csv, run_all_tests, validate, verify_identities
from endocheck.data import EmptyFile, InvalidDataset, MissingColumn, NonNumericCell, RoleConflict
from endocheck.linalg import spd_solve

from conftest import random_admissible_dataset


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


SMALL = "y,x,z\n1,2,3\n4,5,6\n2,1,0\n3,3,1\n"


class TestLoadCsv:
    def test_roles_grouped(self, tmp_path):
        p = write(tmp_path, SMALL)
        ds = load_csv(p, {"y": "outcome", "x": "endogenous", "z": "instrument"}, add_intercept=True)
        assert (ds.n, ds.d_y1, ds.d_z1, ds.d_z2) == (4, 1, 1, 1)
        np.testing.assert_allclose(ds.z1[:, 0], 1.0)
        np.testing.assert_allclose(ds.y2, [1, 4, 2, 3])

    def test_blank_cell(self, tmp_path):
        p = write(tmp_path, "y,x,z\n1,,3\n4,5,6\n2,1,0\n3,3,1\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(p, {"y": "outcome", "x": "endogenous", "z": "instrument"}, add_intercept=True)
        assert err.value.col == "x"
        assert err.value.row == 0

    def test_missing_column(self, tmp_path):
        p = write(tmp_path, SMALL)
        with pytest.raises(MissingColumn):
            load_csv(p, {"y": "outcome", "w": "endogenous", "z": "instrument"})

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(EmptyFile):
            load_csv(p, {"y": "outcome"})

    def test_header_only(self, tmp_path):
        p = write(tmp_path, "y,x,z\n")
        with pytest.raises(EmptyFile):
            load_csv(p, {"y": "outcome", "x": "endogenous", "z": "instrument"})

    def test_two_outcomes_rejected(self, tmp_path):
        p = write(tmp_path, SMALL)
        with pytest.raises(RoleConflict):
            load_csv(p, {"y": "outcome", "x": "outcome", "z": "instrument"})

    def test_f1_shape(self, f1_dataset):
        ds = f1_dataset
        assert (ds.n, ds.d_y1, ds.d_z1, ds.d_z2) == (16, 1, 1, 2)


class TestDatasetInvariants:
    def test_too_few_rows(self):
        with pytest.raises(InvalidDataset):
            Dataset(y2=np.ones(3), y1=np.ones((3, 1)), z1=np.ones((3, 1)), z2=np.ones((3, 1)))

    def test_order_condition(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidDataset):
            Dataset(
                y2=rng.standard_normal(10),
                y1=rng.standard_normal((10, 2)),
                z1=rng.standard_normal((10, 1)),
                z2=rng.standard_normal((10, 1)),
            )

    def test_non_finite_rejected(self):
        y2 = np.ones(10)
        y2[3] = np.nan
        rng = np.random.default_rng(1)
        with pytest.raises(InvalidDataset):
            Dataset(
                y2=y2,
                y1=rng.standard_normal((10, 1)),
                z1=rng.standard_normal((10, 1)),
                z2=rng.standard_normal((10, 1)),
            )


class TestFactor:
    def test_one_n_row_qr_per_dataset(self, monkeypatch):
        # Every fit, gram and rank check reads the one cached factor ds.r.
        rows = []

        def recording(qr):
            def wrapper(a, *args, **kwargs):
                rows.append(np.shape(a)[0])
                return qr(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "qr", recording(np.linalg.qr))
        monkeypatch.setattr(scipy.linalg, "qr", recording(scipy.linalg.qr))
        ds = random_admissible_dataset(np.random.default_rng(13), n=200, d_y1=2, d_z1=2, d_z2=3)
        assert validate(ds).all_ok
        run_all_tests(ds)
        verify_identities(ds)
        assert rows.count(200) == 1

    def test_blocks_are_read_only(self):
        ds = random_admissible_dataset(np.random.default_rng(14), n=50)
        for block in (ds.y2, ds.y1, ds.z1, ds.z2):
            with pytest.raises(ValueError):
                block[0] = 0.0


class TestValidate:
    def test_f1_admissible(self, f1_dataset):
        report = validate(f1_dataset)
        assert report.xtx_ok and report.xpzx_ok and report.xv_ok
        assert all(np.isfinite(c) for c in report.condition_estimates)

    def test_duplicated_instrument_reported(self):
        rng = np.random.default_rng(2)
        ds0 = random_admissible_dataset(rng, n=50, d_y1=1, d_z1=1, d_z2=2)
        ds = Dataset(y2=ds0.y2, y1=ds0.y1, z1=ds0.z1, z2=np.hstack([ds0.z1, ds0.z2[:, :1]]))
        report = validate(ds)
        assert any("Z" in m for m in report.messages)

    def test_no_endogenous_variation_beyond_z(self):
        # y1 lies in the span of Z, so the first-stage residual is zero and
        # the control-function design collapses.
        rng = np.random.default_rng(3)
        n = 40
        z1 = np.column_stack([np.ones(n), rng.standard_normal(n)])
        z2 = rng.standard_normal((n, 1))
        y1 = (z1 @ np.array([1.0, 2.0]))[:, None]
        y2 = rng.standard_normal(n)
        ds = Dataset(y2=y2, y1=y1, z1=z1, z2=z2)
        report = validate(ds)
        assert not report.xv_ok
        assert any("control-function" in m for m in report.messages)

    def test_gram_difference_positive_definite(self):
        # The two endogenous-block Gram differences are PD on admissible data;
        # both SPD solves must succeed.
        from endocheck.linalg import annihilate, project

        rng = np.random.default_rng(4)
        for _ in range(20):
            ds = random_admissible_dataset(rng, n=int(rng.integers(30, 120)))
            dm = design_matrices(ds)
            m1 = annihilate(ds.z1, ds.y1)
            gram_ols = m1.T @ m1
            m2 = annihilate(ds.z1, project(dm.z, ds.y1))
            gram_2sls = m2.T @ m2
            mz = annihilate(dm.z, ds.y1)
            gram_mz = mz.T @ mz
            np.testing.assert_allclose(gram_ols - gram_2sls, gram_mz, rtol=1e-8, atol=1e-10)
            k = ds.d_y1
            inv_diff = np.linalg.inv(gram_2sls) - np.linalg.inv(gram_ols)
            spd_solve(0.5 * (inv_diff + inv_diff.T), np.eye(k))
            spd_solve(gram_mz, np.eye(k))
