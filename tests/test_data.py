import os
import threading
import tracemalloc

import numpy as np
import pytest

from endocheck import (
    Dataset,
    DgpConfig,
    RankDeficient,
    compute_statistics,
    generate_dataset,
    load_csv,
    run_all_tests,
    validate,
    verify_identities,
)
from endocheck import data
from endocheck.data import DataError, EmptyFile, InvalidDataset, MissingColumn, NonNumericCell, RoleConflict

from conftest import (
    F1_ROLES,
    csv_blocks,
    design_matrices,
    random_admissible_blocks,
    random_admissible_dataset,
    read_w,
)


def tall_csv(tmp_path, n, last_y=None):
    """An n-row CSV of F1's columns, written as ``%.17g``: one endogenous x, instruments z1
    and z2; ``last_y``, a string, is written in place of the last row's y."""
    rng = np.random.default_rng(5)
    z, v = rng.standard_normal((n, 2)), rng.standard_normal(n)
    x = z.sum(axis=1) + v
    w = np.column_stack([x + 0.5 * v + rng.standard_normal(n), x, z])
    path = tmp_path / f"tall_{n}.csv"
    with open(path, "w") as fh:
        np.savetxt(fh, w[:-1] if last_y else w, fmt="%.17g", delimiter=",", header="y,x,z1,z2", comments="")
        if last_y:
            fh.write(",".join([last_y, *(f"{c:.17g}" for c in w[-1, 1:])]) + "\n")
    return path


def assert_memory_is_flat(tmp_path, last_y=None):
    """tracemalloc's peak through ``load_csv`` and ``compute_statistics`` of ``tall_csv``
    does not grow from n = 100k to 400k and stays under half of W at 400k; the Dataset
    holds under 1% of W."""
    def traced(n):
        path = tall_csv(tmp_path, n, last_y)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ds = load_csv(path, F1_ROLES, add_intercept=True)
            held = tracemalloc.get_traced_memory()[0] - base
            compute_statistics(ds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return held, peak

    (held_small, peak_small), (held, peak) = traced(100_000), traced(400_000)
    w_bytes = 400_000 * 5 * 8
    assert max(held_small, held) < 0.01 * w_bytes
    assert peak <= 1.05 * peak_small
    assert peak <= 0.5 * w_bytes


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


SMALL = "y,x,z\n1,2,3\n4,5,6\n2,1,0\n3,3,1\n"


class TestLoadCsv:
    def test_roles_grouped(self, tmp_path):
        p = write(tmp_path, SMALL)
        roles = {"y": "outcome", "x": "endogenous", "z": "instrument"}
        ds = load_csv(p, roles, add_intercept=True)
        assert (ds.n, ds.d_y1, ds.d_z1, ds.d_z2) == (4, 1, 1, 1)
        b = csv_blocks(p, roles, add_intercept=True)
        np.testing.assert_allclose(b.z1[:, 0], 1.0)
        np.testing.assert_allclose(b.y2, [1, 4, 2, 3])

    @pytest.mark.parametrize("add_intercept", [False, True])
    def test_each_role_column_is_parsed_once(self, monkeypatch, f1_path, add_intercept):
        # An intercept's ones are put before the columns the C reader parses: the
        # reader no longer parses the first role column a second time for them.
        usecols = []
        loadtxt = np.loadtxt

        def recording(*args, **kwargs):
            usecols.append(list(kwargs["usecols"]))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(data.np, "loadtxt", recording)
        ds = load_csv(f1_path, F1_ROLES, add_intercept=add_intercept)
        assert ds.d_z1 == add_intercept and usecols
        for cols in usecols:
            assert len(cols) == len(set(cols)) == len(F1_ROLES)

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

    def test_directory_raises_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read") as err:
            load_csv(tmp_path, {"y": "outcome"})
        assert str(tmp_path) in str(err.value)

    def test_two_outcomes_rejected(self, tmp_path):
        p = write(tmp_path, SMALL)
        with pytest.raises(RoleConflict):
            load_csv(p, {"y": "outcome", "x": "outcome", "z": "instrument"})

    def test_unknown_role_rejected(self, tmp_path):
        p = write(tmp_path, SMALL)
        with pytest.raises(RoleConflict) as err:
            load_csv(p, {"y": "outcome", "x": "treatment"})
        assert str(err.value) == "unknown role 'treatment' for column 'x'"

    def test_role_column_named_twice_rejected(self, tmp_path):
        # The first of the two 'z' columns was read and the second ignored.
        roles = {"y": "outcome", "x": "endogenous", "z": "instrument"}
        p = write(tmp_path, "y,x,z,z\n1,2,3,0\n4,5,6,1\n2,1,0,2\n3,3,1,5\n")
        with pytest.raises(DataError, match="column 'z' appears 2 times"):
            load_csv(p, roles, add_intercept=True)
        # A column without a role may repeat: it is not read.
        p = write(tmp_path, "y,x,z,e,e\n1,2,3,7,8\n4,5,6,7,8\n2,1,0,7,8\n3,3,1,7,8\n", "extra.csv")
        expected = load_csv(write(tmp_path, SMALL, "small.csv"), roles, add_intercept=True)
        np.testing.assert_array_equal(load_csv(p, roles, add_intercept=True).r, expected.r)

    def test_blank_lines_are_skipped(self, tmp_path):
        roles = {"y": "outcome", "x": "endogenous", "z": "instrument"}
        lines = SMALL.splitlines(keepends=True)
        padded = "".join([lines[0], "\n", lines[1], "   \n", lines[2], "\t\n", *lines[3:], "\n"])
        expected = csv_blocks(write(tmp_path, SMALL), roles, add_intercept=True)
        b = csv_blocks(write(tmp_path, padded, "padded.csv"), roles, add_intercept=True)
        for name in ("y2", "y1", "z1", "z2"):
            np.testing.assert_array_equal(getattr(b, name), getattr(expected, name))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_pipe_is_read_once(self, monkeypatch, tmp_path):
        # Opening a pipe again reads on where the first reader's buffer stopped, losing
        # rows. A clean pipe is read as a file is, by the C reader alone.
        rows = np.random.default_rng(3).standard_normal((20_000, 4)).tolist()
        text = "y,x,z1,z2\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
        fifo = tmp_path / "data.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w") as fh:
                fh.write(text)

        def per_row_parse(*args):
            raise AssertionError("a clean pipe reached the per-row parse")

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            with monkeypatch.context() as mp:
                mp.setattr(data, "_parse_rows", per_row_parse)
                ds = load_csv(fifo, F1_ROLES, add_intercept=True)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        expected = load_csv(write(tmp_path, text), F1_ROLES, add_intercept=True)
        np.testing.assert_array_equal(ds.r, expected.r)

    def test_f1_shape(self, f1_dataset):
        ds = f1_dataset
        assert (ds.n, ds.d_y1, ds.d_z1, ds.d_z2) == (16, 1, 1, 2)


class TestDatasetInvariants:
    def test_one_dimensional_endogenous_block(self):
        rng = np.random.default_rng(2)
        y1 = rng.standard_normal(10)
        y2, z2 = rng.standard_normal(10), rng.standard_normal((10, 2))
        ds = Dataset(y2=y2, y1=y1, z1=np.ones(10), z2=z2)
        assert ds.d_y1 == 1
        np.testing.assert_array_equal(ds.r, Dataset(y2=y2, y1=y1[:, None], z1=np.ones((10, 1)), z2=z2).r)

    @pytest.mark.parametrize("block", ["y1", "z1", "z2"])
    def test_mismatched_row_counts(self, block):
        rng = np.random.default_rng(3)
        blocks = {"y1": rng.standard_normal((10, 1)), "z1": np.ones((10, 1)), "z2": rng.standard_normal((10, 2))}
        blocks[block] = blocks[block][:9]
        with pytest.raises(InvalidDataset, match=f"'{block}' has 9 rows, expected 10"):
            Dataset(y2=rng.standard_normal(10), **blocks)

    def test_an_outcome_of_two_columns_is_rejected(self):
        # y2 was reshaped to 2n rows, and the error blamed 'y1'.
        rng = np.random.default_rng(4)
        with pytest.raises(InvalidDataset, match="'y2' has 2 columns, expected 1"):
            Dataset(y2=rng.standard_normal((10, 2)), y1=rng.standard_normal(10), z1=np.ones(10),
                    z2=rng.standard_normal((10, 2)))

    @pytest.mark.parametrize("block", ["y2", "y1", "z1", "z2"])
    @pytest.mark.parametrize("ndim", [0, 3])
    def test_a_block_that_is_not_1d_or_2d_is_rejected(self, block, ndim):
        # numpy raised a bare ValueError from hstack, or IndexError for a 0-d y1, z1 or z2.
        rng = np.random.default_rng(5)
        blocks = {"y2": rng.standard_normal(10), "y1": rng.standard_normal(10), "z1": np.ones(10),
                  "z2": rng.standard_normal((10, 2))}
        blocks[block] = np.float64(1.0) if ndim == 0 else blocks[block].reshape(10, -1, 1)
        with pytest.raises(InvalidDataset, match=f"'{block}' has {ndim} dimensions, expected 1 or 2"):
            Dataset(**blocks)

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

    def test_equality_is_identity_and_a_dataset_hashes(self):
        # A frozen dataclass compared and hashed its array field: == raised ValueError, hash TypeError.
        ds, other = generate_dataset(DgpConfig(n=30), 0, 0), generate_dataset(DgpConfig(n=30), 0, 0)
        assert ds == ds and ds != other
        assert hash(ds) == hash(ds)
        assert {ds, other, ds} == {ds, other}


class TestFactor:
    def test_one_n_row_qr_per_dataset(self, monkeypatch):
        # Every fit, gram and rank check reads the one cached factor ds.r.
        rows = []

        def recording(factorize):
            def wrapper(a, *args, **kwargs):
                rows.append(np.shape(a)[-2])
                return factorize(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "qr", recording(np.linalg.qr))
        monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
        ds = random_admissible_dataset(np.random.default_rng(13), n=200, d_y1=2, d_z1=2, d_z2=3)
        assert validate(ds).all_ok
        run_all_tests(ds)
        verify_identities(ds)
        assert rows.count(200) == 1

    def test_fewer_rows_than_columns_raise_rank_deficient(self):
        # W = [Q | 0] [R; 0]: R is padded to p x p, so the instruments show
        # as collinear instead of making an underdetermined small problem.
        ds = generate_dataset(DgpConfig(n=10, d_z2=12), 0, 0)
        assert ds.r.shape == (15, 15)
        np.testing.assert_array_equal(ds.r[10:], 0.0)
        with pytest.raises(RankDeficient):
            compute_statistics(ds)

    def test_no_n_row_array_is_kept(self, f1_dataset):
        # R and the designs built from it have at most p rows; the data are dropped.
        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
                yield from arrays(value.base)
            elif isinstance(value, (tuple, list)):
                for v in value:
                    yield from arrays(v)

        rng = np.random.default_rng(14)
        for ds in (random_admissible_blocks(rng, n=50).dataset(), random_admissible_dataset(rng, n=50), f1_dataset):
            validate(ds)  # fills the cached designs
            found = [a for value in vars(ds).values() for a in arrays(value)]
            assert len(found) > 1
            assert all(a.ndim == 0 or a.shape[0] <= ds.r.shape[0] for a in found)

    def test_dataset_is_a_snapshot_of_its_inputs(self):
        # The factor was lazy, so a write after construction reached it.
        rng = np.random.default_rng(1)
        n = 50
        z1, z2 = np.ones((n, 1)), rng.standard_normal((n, 2))
        v = rng.standard_normal(n)
        y1 = z2.sum(axis=1) + v
        y2 = y1 + 0.5 * v + rng.standard_normal(n)
        w = np.column_stack([z1, z2, y1, y2])
        expected = vars(compute_statistics(Dataset(y2=y2.copy(), y1=y1, z1=z1, z2=z2)))
        datasets = Dataset(y2=y2, y1=y1, z1=z1, z2=z2), Dataset.from_w(w, 1, 2)
        y2[:5] += 3.0
        w[:5, -1] += 3.0
        for ds in datasets:
            np.testing.assert_equal(vars(compute_statistics(ds)), expected)

    def test_memory_of_a_csv_dataset(self, tmp_path):
        # W = n p 8 bytes. The blocks kept W alive after load_csv, and the
        # factor stacked a second W and copied it again; then the C reader
        # built W whole and the factor copied it once (2.02 W). Read and
        # factored a chunk at a time, the peak no longer grows with n.
        assert_memory_is_flat(tmp_path)

    def test_memory_when_the_last_row_takes_the_per_row_parse(self, tmp_path):
        # Only float() reads the last row's '1_0', so the per-row parse takes over at the
        # last chunk. It folds its rows in blocks after the C reader's, never W whole.
        assert_memory_is_flat(tmp_path, last_y="1_0")

    def test_a_streamed_factor_matches_the_in_memory_one(self, monkeypatch, tmp_path):
        # Over one chunk R is factor(W) bit for bit; over many, R <- R of [R; chunk]
        # moves the statistics in their last bits only.
        path = tall_csv(tmp_path, 1000)
        w, d_z1, d_z2 = read_w(path, F1_ROLES, add_intercept=True)
        in_memory = Dataset.from_w(w, d_z1, d_z2)
        assert load_csv(path, F1_ROLES, add_intercept=True).r.tobytes() == in_memory.r.tobytes()
        expected = vars(compute_statistics(in_memory))
        # Characters per chunk: one line, about 7 and 64 lines, and all lines but the last.
        for chunk in (1, 7 * 85, 64 * 85, path.stat().st_size - 100):
            monkeypatch.setattr(data, "_CHUNK", chunk)
            ds = load_csv(path, F1_ROLES, add_intercept=True)
            assert ds.n == 1000 and ds.r.tobytes() != in_memory.r.tobytes()
            for name, value in vars(compute_statistics(ds)).items():
                np.testing.assert_allclose(value, expected[name], rtol=1e-10, atol=0, err_msg=name)

    def test_cached_factor_and_designs_are_read_only(self):
        # A write into the cache would silently move every later statistic.
        ds = random_admissible_dataset(np.random.default_rng(1), n=50)
        before = compute_statistics(ds)
        with pytest.raises(ValueError):
            ds.r[-1, -1] *= 10
        for a in ds.designs:
            with pytest.raises(ValueError):
                a[...] = 0.0
        after = compute_statistics(ds)
        np.testing.assert_equal(vars(after), vars(before))


class TestValidate:
    def test_f1_admissible(self, f1_dataset):
        report = validate(f1_dataset)
        assert report.xtx_ok and report.xpzx_ok and report.xv_ok
        assert all(np.isfinite(c) for c in report.condition_estimates)

    @pytest.mark.parametrize("which", ["f1", "random"])
    def test_condition_numbers_are_2_norm(self, which, f1_dataset, f1_blocks):
        from conftest import annihilate, project

        b = f1_blocks if which == "f1" else random_admissible_blocks(np.random.default_rng(15), d_y1=2)
        ds = f1_dataset if which == "f1" else b.dataset()
        dm = design_matrices(b)
        designs = (dm.x, project(dm.z, dm.x), np.hstack([dm.x, annihilate(dm.z, b.y1)]))
        expected = [np.linalg.cond(a) for a in designs]
        assert validate(ds).condition_estimates == pytest.approx(expected, rel=1e-8)

    def test_duplicated_instrument_reported(self):
        rng = np.random.default_rng(2)
        b = random_admissible_blocks(rng, n=50, d_y1=1, d_z1=1, d_z2=2)
        ds = Dataset(y2=b.y2, y1=b.y1, z1=b.z1, z2=np.hstack([b.z1, b.z2[:, :1]]))
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
        # The two endogenous-block Gram differences are PD on admissible data:
        # both have a Cholesky factor.
        from conftest import annihilate, project

        rng = np.random.default_rng(4)
        for _ in range(20):
            b = random_admissible_blocks(rng, n=int(rng.integers(30, 120)))
            dm = design_matrices(b)
            m1 = annihilate(b.z1, b.y1)
            gram_ols = m1.T @ m1
            m2 = annihilate(b.z1, project(dm.z, b.y1))
            gram_2sls = m2.T @ m2
            mz = annihilate(dm.z, b.y1)
            gram_mz = mz.T @ mz
            np.testing.assert_allclose(gram_ols - gram_2sls, gram_mz, rtol=1e-8, atol=1e-10)
            inv_diff = np.linalg.inv(gram_2sls) - np.linalg.inv(gram_ols)
            np.linalg.cholesky(0.5 * (inv_diff + inv_diff.T))
            np.linalg.cholesky(gram_mz)
