"""The block Monte Carlo against the per-replication path it replaces.

``run_monte_carlo`` draws replications in blocks and evaluates the statistics
of a block from its stacked R factors (``endogeneity.block_statistics``);
``reference_monte_carlo`` in conftest is the loop of ``generate_dataset`` +
``compute_statistics`` one replication at a time. The tallies must be equal.
"""

import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from endocheck import (
    DegenerateVariance,
    DgpConfig,
    EndocheckError,
    RankDeficient,
    SimConfig,
    TEST_NAMES,
    compute_statistics,
    generate_dataset,
    run_monte_carlo,
    validate,
)
from endocheck import endogeneity, simulation
from endocheck.data import Dataset, InvalidDataset, factor, rank_checks
from endocheck.endogeneity import StatisticValues, block_statistics

from conftest import STRONG_FIRST_STAGE, random_dgp_config, reference_blocks, reference_monte_carlo

# Every replication's sum of squares comes within 1e-4 of overflow, and every
# replication completes.
NEAR_OVERFLOW = DgpConfig(n=40, rho=(0.0,), sigma_u=5e151)

CRITERION_5 = DgpConfig(n=2000, rho=(0.0,), pi2_strength=1.0, sigma_u=1.0, sigma_v=1.0)


def tallies(res) -> dict:
    return {
        "rejection_count": res.rejection_count,
        "completed": res.completed,
        "degenerate_count": res.degenerate_count,
        "ordering_violations": res.ordering_violations,
    }


def stacked(b) -> np.ndarray:
    return np.column_stack([b.z1, b.z2, b.y1, b.y2])


def block_of(cfg: DgpConfig, seed: int, reps: range):
    """The block statistics and flags of replications ``reps``."""
    return block_statistics(factor(simulation._draw_block(cfg, seed, reps)), cfg.n, cfg.d_z1, cfg.d_z2)


class TestBlockDraws:
    @pytest.mark.parametrize(
        "cfg",
        [
            DgpConfig(n=50),
            DgpConfig(n=50, intercept=False),
            DgpConfig(n=40, d_y1=3, d_z2=4, beta=(1.0, 2.0, 3.0), rho=(0.1, 0.2, 0.3)),
            DgpConfig(n=10, d_z2=12),  # n < p
        ],
        ids=["intercept", "no_intercept", "d_y1_3", "n_below_p"],
    )
    def test_slices_are_the_single_draws(self, cfg):
        w = simulation._draw_block(cfg, 17, range(3, 9))
        for i, rep in enumerate(range(3, 9)):
            assert np.array_equal(factor(w[i]), generate_dataset(cfg, rep, 17).r)
            assert np.array_equal(w[i], stacked(reference_blocks(cfg, rep, 17)))


@st.composite
def small_configs(draw):
    d_y1 = draw(st.integers(1, 3))
    d_z1 = draw(st.integers(1, 2))
    d_z2 = d_y1 + draw(st.integers(0, 3) | st.integers(4, 12))
    # Some draws put n at or below p = d_z1 + d_z2 + d_y1 + 1.
    n = draw(st.integers(2 * d_y1 + d_z1 + 1, 60))
    return DgpConfig(
        n=n,
        d_y1=d_y1,
        d_z1=d_z1,
        d_z2=d_z2,
        beta=(1.0,) * d_y1,
        gamma=(1.0,) * d_z1,
        # Strong first stages and near-exact fits are where the batched and
        # the per-replication statistics disagree most.
        pi2_strength=draw(st.sampled_from([0.0, 1000.0, 1e5]) | st.floats(0.0, 2.0)),
        rho=tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=d_y1, max_size=d_y1))),
        sigma_u=draw(st.sampled_from([1.0, 1e-8, 1e-300]) | st.floats(0.1, 2.0)),
        intercept=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(dgp=small_configs(), replications=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_random_configs_match_reference_loop(dgp, replications, seed):
    sim = SimConfig(replications=replications, seed=seed)
    assert tallies(run_monte_carlo(dgp, sim)) == reference_monte_carlo(dgp, sim)


@settings(max_examples=60, deadline=None)
@given(dgp=small_configs(), seed=st.integers(0, 2**32), start=st.integers(0, 1000))
def test_draws_are_the_integer_route_bit_for_bit(dgp, seed, start):
    """The block's uniforms ``random() + 2^-54`` are the reference's
    ``(integers(0, 2^53) + 0.5) * 2^-53``, and the block's products and sums
    those of the reference, bit for bit."""
    reps = range(start, start + 4)
    w = simulation._draw_block(dgp, seed, reps)
    for wi, rep in zip(w, reps):
        assert wi.tobytes() == stacked(reference_blocks(dgp, rep, seed)).tobytes()


@settings(max_examples=30, deadline=None)
@given(dgp=small_configs(), replications=st.integers(1, 40), seed=st.integers(0, 2**32),
       budget=st.integers(1 << 6, 1 << 13))
def test_tallies_do_not_depend_on_the_worker_count(dgp, replications, seed, budget):
    """One, two or three workers over many small blocks give the reference
    loop's tallies. A short switch interval makes the workers interleave
    often, so a block taken twice or lost would show. The budget also sizes
    the batches of R factors that each ``block_statistics`` call tallies, so
    the tallies do not depend on how the blocks are grouped either."""
    sim = SimConfig(replications=replications, seed=seed)
    expected = reference_monte_carlo(dgp, sim)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulation, "_usable_cpus", lambda: workers)
                mp.setattr(simulation, "_BLOCK_ELEMENTS", budget)
                assert tallies(run_monte_carlo(dgp, sim)) == expected, workers
    finally:
        sys.setswitchinterval(interval)


def test_cpu_count_without_an_affinity_mask(monkeypatch):
    """Where the platform has no ``os.sched_getaffinity`` (macOS, Windows), the
    workers come from ``os.cpu_count()``."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert simulation._usable_cpus() == (os.cpu_count() or 1)
    dgp = DgpConfig(n=30, d_y1=2, d_z2=3, beta=(1.0, 1.0), rho=(0.4, 0.2))
    sim = SimConfig(replications=25, seed=3)
    assert tallies(run_monte_carlo(dgp, sim)) == reference_monte_carlo(dgp, sim)


def test_the_first_failing_block_in_order_is_raised(monkeypatch):
    """Block 1 fails while block 0 is still running; block 0 then fails too,
    and its error is the one raised, as one worker would raise it."""
    dgp = DgpConfig(n=40, rho=(0.0,))
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", 2 * 3 * dgp.n * 5)  # two workers, 3 replications a block
    later_block_failed = threading.Event()

    def failing(cfg, seed, reps):
        if reps.start == 0:
            assert later_block_failed.wait(timeout=60)
            time.sleep(0.05)  # until the other worker has recorded its failure
            raise InvalidDataset("block 0")
        later_block_failed.set()
        raise InvalidDataset(f"the block from {reps.start}")

    monkeypatch.setattr(simulation, "_draw_block", failing)
    with pytest.raises(InvalidDataset, match="^block 0$"):
        run_monte_carlo(dgp, SimConfig(replications=12, seed=0))


def test_a_failing_run_stops_early(monkeypatch):
    """Every block fails, and the run has 10^5 one-replication blocks: block
    0's error is raised once at most the queue bound, 32 blocks a worker,
    has been drawn, not after every block."""
    dgp = DgpConfig(n=40, rho=(0.0,))
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", 2 * dgp.n * 5)  # two workers, 1 replication a block
    drawn = []

    def failing(cfg, seed, reps):
        drawn.append(reps.start)
        raise InvalidDataset(f"block {reps.start}")

    monkeypatch.setattr(simulation, "_draw_block", failing)
    with pytest.raises(InvalidDataset, match="^block 0$"):
        run_monte_carlo(dgp, SimConfig(replications=100_000, seed=0))
    assert 1 <= len(drawn) <= 32 * 2 + 1


def test_the_queue_of_blocks_stays_bounded(monkeypatch):
    """Over 2000 one-replication blocks, no more than the queue bound of
    futures, 32 blocks a worker, are ever submitted and not yet done, and
    the tallies are the reference loop's."""
    dgp = DgpConfig(n=40, rho=(0.3,))
    sim = SimConfig(replications=2000, seed=3)
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", 2 * dgp.n * 5)  # two workers, 1 replication a block
    lock = threading.Lock()
    submitted = outstanding = peak = 0

    def done(_):
        nonlocal outstanding
        with lock:
            outstanding -= 1

    class Counting(simulation.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            nonlocal submitted, outstanding, peak
            future = super().submit(*args, **kwargs)
            with lock:
                submitted += 1
                outstanding += 1
                peak = max(peak, outstanding)
            future.add_done_callback(done)  # at once, if the block is already done
            return future

    monkeypatch.setattr(simulation, "ThreadPoolExecutor", Counting)
    assert tallies(run_monte_carlo(dgp, sim)) == reference_monte_carlo(dgp, sim)
    assert submitted == sim.replications and outstanding == 0
    assert 1 <= peak <= 32 * 2 + 1


@seed(20261018)
@settings(max_examples=80, deadline=None)
@given(
    d_y1=st.integers(1, 2),
    d_z1=st.integers(0, 2),
    extra=st.integers(0, 2),
    n=st.integers(12, 60),
    column=st.integers(0, 8),
    data_seed=st.integers(0, 2**32 - 1),
    log_deltas=st.lists(st.floats(-13.0, -7.0), min_size=4, max_size=4),
)
def test_rank_boundary_has_one_decision(d_y1, d_z1, extra, n, column, data_seed, log_deltas):
    """Near the rank tolerance, validate, compute_statistics and
    block_statistics apply one rule: one design column is a combination of
    the others plus delta * noise, delta log-uniform over 1e-13..1e-7."""
    d_z2 = d_y1 + extra
    dz, p = d_z1 + d_z2, d_z1 + d_z2 + d_y1 + 1
    rng = np.random.default_rng(data_seed)
    w = rng.standard_normal((len(log_deltas), n, p))
    w[:, :, dz:-1] += w[:, :, d_z1:dz] @ rng.standard_normal((d_z2, d_y1))
    j = column % (p - 1)
    others = [i for i in range(p - 1) if i != j]
    for wi, log_delta in zip(w, log_deltas):
        wi[:, j] = wi[:, others] @ rng.standard_normal(len(others)) + 10.0**log_delta * rng.standard_normal(n)
    _, flagged = block_statistics(np.linalg.qr(w, mode="r"), n, d_z1, d_z2)
    for wi, flag in zip(w, flagged):
        ds = Dataset(y2=wi[:, -1], y1=wi[:, dz:-1], z1=wi[:, :d_z1], z2=wi[:, d_z1:dz])
        try:
            compute_statistics(ds)
            error = None
        except EndocheckError as exc:
            error = exc
        assert validate(ds).all_ok == (not isinstance(error, RankDeficient))
        assert flag == (error is not None)


@pytest.mark.parametrize(
    "dgp",
    [
        DgpConfig(n=50, rho=(0.0,), sigma_u=1e-300),
        DgpConfig(n=10, d_z2=12, rho=(0.0,)),
        DgpConfig(n=8, d_z2=5, rho=(0.0,)),
        DgpConfig(n=5, d_z1=1, d_z2=3, rho=(0.0,)),
        DgpConfig(n=40, d_y1=2, d_z2=2, beta=(1.0, 1.0), rho=(0.3, 0.3), pi2_strength=0.05),
        DgpConfig(n=60, pi2_strength=1000.0),
        NEAR_OVERFLOW,
    ],
    ids=["tiny_sigma_u", "n_below_p", "n_equals_p", "n_one_below_p", "weak_d_y1_2", "strong_pi2",
         "near_overflow"],
)
def test_edge_configs_match_reference_loop(dgp):
    sim = SimConfig(replications=40, seed=5)
    assert tallies(run_monte_carlo(dgp, sim)) == reference_monte_carlo(dgp, sim)


def test_screened_replications_stay_in_the_block(monkeypatch):
    """Replications whose sums of squares come near overflow are decided by
    the block statistics, as all others are: no per-replication draw or
    decision runs."""
    sim = SimConfig(replications=40, seed=5)
    w = simulation._draw_block(NEAR_OVERFLOW, sim.seed, range(sim.replications))
    assert (np.einsum("bij,bij->b", w, w) >= 1e-4 * np.finfo(float).max).all()
    expected = reference_monte_carlo(NEAR_OVERFLOW, sim)
    assert expected["completed"] == sim.replications

    def per_replication(*args):
        raise AssertionError("the Monte Carlo left the block for one replication")

    monkeypatch.setattr(simulation, "generate_dataset", per_replication)
    monkeypatch.setattr(endogeneity, "compute_statistics", per_replication)
    assert tallies(run_monte_carlo(NEAR_OVERFLOW, sim)) == expected


@pytest.mark.parametrize("case", sorted(STRONG_FIRST_STAGE))
def test_rounding_sensitive_configs_match_reference_loop(case):
    dgp, seed = STRONG_FIRST_STAGE[case]
    sim = SimConfig(replications=47, seed=seed)
    assert tallies(run_monte_carlo(dgp, sim)) == reference_monte_carlo(dgp, sim)


def test_strong_first_stage_k_completes():
    """K = sigma2 * R33'R33 is positive definite by construction: formed as a
    difference of grams, it rounded to non-positive on 73 of these 200
    replications, where a Cholesky factor of K failed."""
    dgp, seed = STRONG_FIRST_STAGE["strong_first_stage_k_rounds_to_zero"]
    for rep in range(200):
        compute_statistics(generate_dataset(dgp, rep, seed))


@pytest.mark.parametrize(
    "dials",
    [{"sigma_u": 1e300}, {"sigma_u": 1e308}, {"sigma_v": 1e308}],
    ids=["sum_of_squares_overflows", "outcome_overflows", "endogenous_overflows"],
)
def test_overflowing_block_raises_like_one_replication(dials):
    dgp = DgpConfig(n=40, rho=(0.0,), **dials)
    with pytest.raises(InvalidDataset) as block_error:
        run_monte_carlo(dgp, SimConfig(replications=30))
    with pytest.raises(InvalidDataset) as single_error:
        generate_dataset(dgp, 0, 0)
    assert str(block_error.value) == str(single_error.value)


class TestBatchedCore:
    """The block statistics pinned to compute_statistics and to the paper's identities."""

    def assert_matches_single(self, cfg, seed, reps):
        stats, flagged = block_of(cfg, seed, reps)
        assert not flagged.any()
        for i, rep in enumerate(reps):
            single = compute_statistics(generate_dataset(cfg, rep, seed))
            for name in TEST_NAMES:
                assert getattr(stats, name)[i] == getattr(single, name), (name, rep)

    def test_criterion_5_design(self):
        self.assert_matches_single(CRITERION_5, 20240103, range(26))

    def test_criterion_1_design(self):
        rng = np.random.default_rng(20240102)
        for _ in range(60):
            cfg = random_dgp_config(rng)
            self.assert_matches_single(cfg, int(rng.integers(0, 2**31)), range(4))

    def test_direct_t_cf_against_hausman_t_h1(self):
        """t_cf - t_h1 = t_cf * t_h1 / n, with t_cf from the residuals and t_h1 from K."""
        n = CRITERION_5.n
        stats, flagged = block_of(CRITERION_5, 11, range(60))
        assert not flagged.any()
        np.testing.assert_allclose(stats.t_h1, n * stats.t_cf / (n + stats.t_cf), rtol=1e-9, atol=0.0)

    def test_exact_count_check(self):
        """t_h1 > c exactly when t_cf > c n / (n - c): the counts agree at every level."""
        n = CRITERION_5.n
        t_h1, t_cf = [], []
        for start in range(0, 390, 13):
            stats, flagged = block_of(CRITERION_5, 21, range(start, start + 13))
            assert not flagged.any()
            t_h1.append(stats.t_h1)
            t_cf.append(stats.t_cf)
        t_h1, t_cf = np.concatenate(t_h1), np.concatenate(t_cf)
        for alpha in (0.01, 0.05, 0.10, 0.5):
            c = endogeneity.chi2_critical(1, alpha)
            assert np.count_nonzero(t_h1 > c) == np.count_nonzero(t_cf > c * n / (n - c))

    def test_whole_chain_holds_with_no_slack(self):
        """t_cf >= t_h1 >= t_h2 >= t_h3 with zero slack on every decided replication of
        random R stacks: column scales 10^+-8, Y1 rows shrunk by up to 1e-9."""
        rng = np.random.default_rng(20261020)
        decided = 0
        for _ in range(60):
            d_y1, d_z1 = int(rng.integers(1, 4)), int(rng.integers(0, 3))
            d_z2 = d_y1 + int(rng.integers(0, 3))
            dz, p = d_z1 + d_z2, d_z1 + d_z2 + d_y1 + 1
            r = np.triu(rng.standard_normal((64, p, p)))
            r[:, dz:p - 1] *= 10.0 ** -rng.uniform(0, 9, size=(64, 1, 1))
            r *= 10.0 ** rng.uniform(-8, 8, size=(64, 1, p))
            stats, flagged = block_statistics(r, int(rng.integers(p + 1, 500)), d_z1, d_z2)
            ok = ~flagged
            decided += np.count_nonzero(ok)
            chain = stats.t_cf[ok], stats.t_h1[ok], stats.t_h2[ok], stats.t_h3[ok]
            assert all((hi >= lo).all() for hi, lo in zip(chain, chain[1:]))
        assert decided >= 500

    def test_rank_loss_is_flagged(self):
        # Z1 and Z2 collinear in the second replication of the block.
        cfg = DgpConfig(n=30)
        w = simulation._draw_block(cfg, 0, range(3))
        w[1, :, 2] = 2.0 * w[1, :, 1]
        stats, flagged = block_statistics(np.linalg.qr(w, mode="r"), cfg.n, cfg.d_z1, cfg.d_z2)
        assert flagged.tolist() == [False, True, False]
        assert np.isnan(stats.t_cf[1]) and np.isfinite(stats.t_cf[[0, 2]]).all()

    def test_ill_conditioned_k_is_not_flagged(self):
        # Nearly collinear endogenous columns: cond(K) ~ cond(R33)^2 passes
        # 1e8 while every rank check still has room. The statistics core
        # forms no K, so the replication needs no second route.
        cfg = DgpConfig(n=30, d_y1=2, d_z2=3, beta=(1.0, 1.0), rho=(0.5, 0.5))
        w = simulation._draw_block(cfg, 0, range(3))
        w[1, :, 5] = w[1, :, 4] + 1e-4 * np.random.default_rng(0).standard_normal(cfg.n)
        r = np.linalg.qr(w, mode="r")
        stats, flagged = block_statistics(r, cfg.n, cfg.d_z1, cfg.d_z2)
        assert not flagged.any()
        single = compute_statistics(Dataset(y2=w[1, :, 6], y1=w[1, :, 4:6], z1=w[1, :, :1], z2=w[1, :, 1:4]))
        for name in TEST_NAMES:
            assert getattr(stats, name)[1] == getattr(single, name), name
        x = np.concatenate([r[1, :, 4:6], r[1, :, :1]], axis=1)
        v = np.zeros((7, 2))
        v[4:6] = r[1, 4:6, 4:6]
        assert rank_checks((x, r[1, :4, :4], x[:4], np.hstack([x, v])))[0].all()

    def test_ordered_on_floats_and_arrays(self):
        assert StatisticValues(2.0, 1.0, 1.0, 3.0).ordered() is True
        assert StatisticValues(2.0, 1.0, 1.0, 3.0).ordered(strict=True) is False
        chain = StatisticValues(np.array([2.0, 2.0]), np.array([1.0, 3.0]), np.array([1.0, 1.0]),
                                np.array([3.0, 3.0]))
        assert chain.ordered().tolist() == [True, False]
        # A nan anywhere in a strictly ordered chain reads False, strict or not.
        ordered = [2.0, 1.0, 0.5, 3.0]
        for i in range(4):
            values = ordered.copy()
            values[i] = np.nan
            for strict in (False, True):
                assert StatisticValues(*values).ordered(strict=strict) is False
                columns = StatisticValues(*(np.array([v, o]) for v, o in zip(values, ordered)))
                assert columns.ordered(strict=strict).tolist() == [False, True]

    def test_one_block_holds_a_failure_of_each_check(self):
        """Passing replications in one stack with one failing each check of the
        decision, in order: rank, the OLS and the CF variance floor, non-finite
        results. Each slice equals compute_statistics of its replication bit for
        bit, or that replication raises the check's error and its slice is
        flagged and nan; masking one column leaves the others as they were."""
        cfg = DgpConfig(n=30, d_y1=2, d_z2=3, beta=(1.0, 1.0), rho=(0.5, 0.3))
        d_z1, d_z2 = cfg.d_z1, cfg.d_z2
        dz = d_z1 + d_z2
        w = simulation._draw_block(cfg, 0, range(8))
        z, y1 = w[..., :dz], w[..., dz:-1]
        w[1, :, dz - 1] = 2.0 * w[1, :, dz - 2]  # two instruments collinear
        w[3, :, -1] = y1[3] @ np.array([1.0, -2.0]) + z[3, :, :d_z1] @ np.full(d_z1, 0.5)  # y2 in span(X)
        w[5, :, -1] = y1[5, :, 0] - z[5] @ np.linalg.lstsq(z[5], y1[5, :, 0], rcond=None)[0]  # y2 = V_hat
        w[6, :, :-1] *= 1e-300  # the beta gap overflows
        w[6, :, -1] *= 1e50
        failures = {
            1: (RankDeficient, "Z = \\[Z1 \\| Z2\\] is rank deficient"),
            3: (DegenerateVariance, "^ols residual variance"),
            5: (DegenerateVariance, "^cf residual variance"),
            6: (InvalidDataset, "^the test statistics are not finite"),
        }
        stats, flagged = block_statistics(factor(w), cfg.n, d_z1, d_z2)
        assert flagged.tolist() == [i in failures for i in range(len(w))]
        for i, wi in enumerate(w):
            ds = Dataset.from_w(wi, d_z1, d_z2)
            block = np.array([getattr(stats, name)[i] for name in TEST_NAMES])
            if i in failures:
                with pytest.raises(failures[i][0], match=failures[i][1]):
                    compute_statistics(ds)
                assert np.isnan(block).all()
            else:
                single = compute_statistics(ds)
                assert block.tobytes() == np.array([getattr(single, name) for name in TEST_NAMES]).tobytes(), i


def test_blocks_stay_within_the_element_budget(monkeypatch):
    """Each block fits the budget, and so do the blocks in flight at once: a
    block's doubles count from its draw until its W is freed."""
    shapes = []
    draw = simulation._draw_block
    lock = threading.Lock()
    in_flight = peak = 0

    def release(size):
        nonlocal in_flight
        with lock:
            in_flight -= size

    def recording(cfg, seed, reps):
        nonlocal in_flight, peak
        size = len(reps) * cfg.n * (cfg.d_z1 + cfg.d_z2 + cfg.d_y1 + 1)
        with lock:
            in_flight += size
            peak = max(peak, in_flight)
        w = draw(cfg, seed, reps)
        weakref.finalize(w, release, size)
        with lock:
            shapes.append(w.shape)
        return w

    monkeypatch.setattr(simulation, "_draw_block", recording)
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 3)
    run_monte_carlo(DgpConfig(n=2000, rho=(0.0,)), SimConfig(replications=100, seed=1))
    assert sum(b for b, _, _ in shapes) == 100 and len(shapes) > 1
    assert all(np.prod(shape) <= simulation._BLOCK_ELEMENTS for shape in shapes)
    assert in_flight == 0 and 0 < peak <= simulation._BLOCK_ELEMENTS

    shapes.clear()
    run_monte_carlo(DgpConfig(n=100_000, rho=(0.0,)), SimConfig(replications=2, seed=1))
    assert [b for b, _, _ in shapes] == [1, 1]


def spy_on_statistics(monkeypatch) -> list:
    """The (replications, doubles, thread) of each ``block_statistics`` call of the Monte Carlo."""
    calls = []

    def recording(r, *args):
        calls.append((len(r), r.size, threading.current_thread()))
        return block_statistics(r, *args)

    monkeypatch.setattr(simulation, "block_statistics", recording)
    return calls


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_statistics_run_once_on_the_calling_thread(monkeypatch, workers):
    """The workers only draw and factor. At criterion 5 with R=100, every
    block's R factors (13, 6 or 4 replications a block) go to one
    ``block_statistics`` call on the thread that runs the Monte Carlo."""
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: workers)
    calls = spy_on_statistics(monkeypatch)
    run_monte_carlo(CRITERION_5, SimConfig(replications=100, seed=1))
    assert calls == [(100, 100 * 5 * 5, threading.main_thread())]


@pytest.mark.parametrize(
    "dgp, budget",
    [
        (DgpConfig(n=40, rho=(0.3,)), 2 * 40 * 5),  # two workers, 1 replication a block, 16 a call
        (DgpConfig(n=40, rho=(0.3,)), 2 * 3 * 40 * 5 + 7),  # 3 replications a block, 48 a call
        (DgpConfig(n=10, d_z2=12, rho=(0.0,)), 10 * 15),  # one replication's R (225 doubles) passes the budget
    ],
    ids=["one_a_block", "three_a_block", "r_past_the_budget"],
)
def test_statistics_calls_stay_within_the_element_budget(monkeypatch, dgp, budget):
    """The R factors held for one ``block_statistics`` call fill at most the
    budget, or one block where a block's R alone passes it, and the tallies
    are the reference loop's."""
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", budget)
    calls = spy_on_statistics(monkeypatch)
    sim = SimConfig(replications=200, seed=3)
    assert tallies(run_monte_carlo(dgp, sim)) == reference_monte_carlo(dgp, sim)
    p = dgp.d_z1 + dgp.d_z2 + dgp.d_y1 + 1
    bound = max(budget, simulation._layout(dgp)[1] * p * p)
    assert sum(b for b, _, _ in calls) == sim.replications and len(calls) > 1
    assert all(doubles <= bound and thread is threading.main_thread() for _, doubles, thread in calls)
