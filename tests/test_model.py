import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from blindcal import model
from blindcal.errors import DimensionError, ParameterError
from blindcal.experiments import draw_instance
from blindcal.model import (GroundTruth, SensingEnsemble, adjoint, forward,
                            generate_ensemble, sense)
from blindcal.objective import gradients
from blindcal.solver import FIXED, LINE_SEARCH, SolverConfig, solve


def test_generate_is_deterministic():
    a = generate_ensemble(4, 3, 2, "gaussian", seed=7)
    b = generate_ensemble(4, 3, 2, "gaussian", seed=7)
    for l in range(2):
        np.testing.assert_array_equal(a.matrix(l), b.matrix(l))
    np.testing.assert_array_equal(a.stacked(), b.stacked())


def test_snapshots_differ_and_lazy_matches_stacked():
    e = generate_ensemble(5, 4, 3, "gaussian", seed=1)
    stacked = e.stacked()
    fresh = generate_ensemble(5, 4, 3, "gaussian", seed=1)
    for l in range(3):
        np.testing.assert_array_equal(stacked[l], fresh.matrix(l))
    assert not np.array_equal(stacked[0], stacked[1])


def test_rademacher_stack_matches_lazy_twin():
    stacked = generate_ensemble(7, 5, 4, "rademacher", seed=11).stacked()
    fresh = generate_ensemble(7, 5, 4, "rademacher", seed=11)
    for l in range(4):
        np.testing.assert_array_equal(stacked[l], fresh.matrix(l))


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
def test_cached_ensemble_costs_one_operator(distribution):
    # the stack is filled in place: its peak is the operator plus one snapshot
    n, m, p = 256, 16, 64
    generate_ensemble(2, 2, 2, distribution).stacked()  # first-use imports, untraced
    e = generate_ensemble(n, m, p, distribution, seed=3)
    tracemalloc.start()
    try:
        e.stacked()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * p * m * n


def test_rows_have_zero_mean():
    # Monte-Carlo check of the centred row model
    e = generate_ensemble(50, 20, 100, "gaussian", seed=1)
    rows = e.stacked().reshape(-1, 50)
    assert np.linalg.norm(rows.mean(axis=0)) <= 0.1 * np.sqrt(50)


def test_rademacher_rows_have_identity_covariance():
    e = generate_ensemble(10, 10, 500, "rademacher", seed=3)
    rows = e.stacked().reshape(-1, 10)
    cov = rows.T @ rows / rows.shape[0]
    assert np.linalg.norm(cov - np.eye(10), ord=2) <= 0.15
    assert set(np.unique(rows)) == {-1.0, 1.0}


def test_invalid_dimensions_rejected():
    with pytest.raises(DimensionError):
        generate_ensemble(0, 3, 2, "gaussian", 0)
    with pytest.raises(DimensionError):
        generate_ensemble(4, 3, 0, "gaussian", 0)
    with pytest.raises(ParameterError):
        generate_ensemble(4, 3, 2, "uniform", 0)


def test_sense_identity_gains():
    e = generate_ensemble(6, 4, 3, "gaussian", seed=5)
    x = np.arange(1.0, 7.0)
    y = sense(e, x, np.ones(4))
    for l in range(3):
        np.testing.assert_allclose(y[l], e.matrix(l) @ x, rtol=1e-14)


def test_sense_zero_signal():
    e = generate_ensemble(6, 4, 3, "gaussian", seed=5)
    y = sense(e, np.zeros(6), np.full(4, 1.2))
    np.testing.assert_array_equal(y, np.zeros((3, 4)))


def test_sense_hand_computed():
    matrices = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # p=1, m=2, n=2
    y = sense(SensingEnsemble.from_matrices(matrices), np.array([1.0, 1.0]),
              np.array([2.0, 0.5]))
    np.testing.assert_allclose(y, [[6.0, 3.5]], rtol=1e-15)


def test_sense_dimension_mismatch():
    e = generate_ensemble(6, 4, 3, "gaussian", seed=5)
    with pytest.raises(DimensionError):
        sense(e, np.zeros(5), np.ones(4))
    with pytest.raises(DimensionError):
        sense(e, np.zeros(6), np.ones(3))


@given(st.integers(min_value=0, max_value=1000),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=25)
def test_sense_linear_in_x(seed, alpha, beta):
    e = generate_ensemble(5, 3, 2, "gaussian", seed=seed)
    rng = np.random.default_rng(seed + 1)
    x1, x2 = rng.standard_normal(5), rng.standard_normal(5)
    d = rng.uniform(0.5, 1.5, 3)
    lhs = sense(e, alpha * x1 + beta * x2, d)
    rhs = alpha * sense(e, x1, d) + beta * sense(e, x2, d)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@given(st.integers(min_value=0, max_value=1000),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=25)
def test_sense_linear_in_d(seed, alpha, beta):
    e = generate_ensemble(5, 3, 2, "gaussian", seed=seed)
    rng = np.random.default_rng(seed + 2)
    x = rng.standard_normal(5)
    d1, d2 = rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 3)
    lhs = sense(e, x, alpha * d1 + beta * d2)
    rhs = alpha * sense(e, x, d1) + beta * sense(e, x, d2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@given(st.integers(min_value=0, max_value=1000),
       st.floats(min_value=1e-6, max_value=1e6).filter(lambda a: abs(a) > 0))
@settings(max_examples=25)
def test_sense_scaling_ambiguity(seed, alpha):
    e = generate_ensemble(5, 3, 2, "gaussian", seed=seed)
    rng = np.random.default_rng(seed + 3)
    x = rng.standard_normal(5)
    d = rng.uniform(0.5, 1.5, 3)
    np.testing.assert_allclose(sense(e, x / alpha, alpha * d), sense(e, x, d),
                               rtol=1e-12, atol=1e-12)


def test_from_matrices_rejects_non_stacked_input():
    with pytest.raises(DimensionError):
        SensingEnsemble.from_matrices(np.eye(2))


def test_explicit_matrices_enter_only_through_from_matrices():
    with pytest.raises(TypeError):
        SensingEnsemble(4, 2, 3, _cache=np.zeros((1, 1, 1)))


def test_operator_shared_with_objective():
    import blindcal.model as model
    import blindcal.objective as objective
    assert objective.forward is model.forward
    assert objective.adjoint is model.adjoint


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "lazy"])
def test_snapshot_index_checked(monkeypatch, cached):
    if not cached:
        monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 1)
    e = generate_ensemble(4, 3, 5, "gaussian", seed=2)
    assert (e.stacked() is not None) == cached
    for l in (-1, 5):
        with pytest.raises(DimensionError):
            e.matrix(l)


def test_lazy_path_matches_stacked(monkeypatch):
    # force the snapshot-by-snapshot path and compare against cached matrices
    rng = np.random.default_rng(8)
    x = rng.standard_normal(6)
    d = rng.uniform(0.5, 1.5, 4)
    cached = generate_ensemble(6, 4, 3, "gaussian", seed=9)
    y_cached = sense(cached, x, d)
    monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 1)
    lazy = generate_ensemble(6, 4, 3, "gaussian", seed=9)
    assert lazy.stacked() is None
    np.testing.assert_allclose(sense(lazy, x, d), y_cached, rtol=1e-13)


@pytest.mark.parametrize("gain", [0.0, -0.5])
def test_ground_truth_rejects_a_gain_not_positive(gain):
    d = np.array([2.0 - gain, gain, 1.0, 1.0])  # sums to m
    with pytest.raises(ParameterError, match="strictly positive"):
        GroundTruth(x=np.ones(4), d=d, rho=0.99)


def test_ground_truth_validation():
    x = np.ones(4)
    d = np.array([1.1, 0.9, 1.05, 0.95])
    truth = GroundTruth(x=x, d=d, rho=0.2)
    np.testing.assert_allclose(truth.x_star, x, rtol=1e-12)
    np.testing.assert_allclose(np.sum(truth.d_star), 4.0, rtol=1e-15)
    with pytest.raises(ParameterError):
        GroundTruth(x=x, d=np.array([1.5, 0.5, 1.0, 1.0]), rho=0.2)  # deviation > rho
    with pytest.raises(ParameterError):
        GroundTruth(x=x, d=np.array([1.2, 1.2, 1.2, 1.2]), rho=0.5)  # sum != m
    with pytest.raises(ParameterError):
        GroundTruth(x=x, d=d, rho=1.0)
    with pytest.raises(ParameterError):
        GroundTruth(x=np.zeros(4), d=d, rho=0.2)  # gains not identifiable


def test_canonical_truth_computed_once_and_read_only():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(5)
    d = np.array([1.1, 0.9, 1.05, 0.95 + 1e-12])  # sum(d) = m up to 1e-12
    truth = GroundTruth(x=x, d=d, rho=0.2)
    total = float(np.sum(d))
    np.testing.assert_array_equal(truth.x_star, (total / 4) * x)
    np.testing.assert_array_equal(truth.d_star, (4 / total) * d)
    assert truth.x_star is truth.x_star and truth.d_star is truth.d_star
    for value in (truth.x_star, truth.d_star):
        with pytest.raises(ValueError):
            value[0] = 0.0
    np.testing.assert_array_equal(truth.x_star, (total / 4) * x)


def test_cached_ensemble_is_one_block():
    e = generate_ensemble(5, 4, 3, "gaussian", seed=3)
    blocks = list(e.blocks())
    assert len(blocks) == 1
    sl, rows = blocks[0]
    assert sl == slice(0, 3) and rows.shape == (12, 5)
    assert np.shares_memory(rows, e.stacked())


def test_cached_block_is_built_once_and_passes_are_counted():
    e = generate_ensemble(5, 4, 3, "gaussian", seed=3)
    first = e.blocks()
    assert e.blocks() is first
    forward(e, np.ones(5))
    adjoint(e, np.ones((3, 4)))
    assert e.operator_passes == 4


@pytest.mark.parametrize("dims", [(8.5, 4, 2), (8, 4.5, 2), (8, 4, 2.5), (8.0, 4, 2)])
def test_non_integer_dimensions_rejected(dims):
    with pytest.raises(DimensionError):
        generate_ensemble(*dims, "gaussian", 0)
    n, m, p = dims
    with pytest.raises(DimensionError):
        SensingEnsemble(n=n, m=m, p=p)


def test_fractional_seed_rejected():
    from blindcal.experiments import draw_instance
    with pytest.raises(ParameterError):
        generate_ensemble(8, 4, 2, seed=1.5)
    with pytest.raises(ParameterError):
        draw_instance(8, 4, 2, 0.3, seed=2.7)
    # numpy and negative integers keep working; seeds wrap mod 2^64
    np.testing.assert_array_equal(generate_ensemble(8, 4, 2, seed=np.int64(3)).stacked(),
                                  generate_ensemble(8, 4, 2, seed=3).stacked())
    np.testing.assert_array_equal(generate_ensemble(8, 4, 2, seed=-1).stacked(),
                                  generate_ensemble(8, 4, 2, seed=2**64 - 1).stacked())


def test_numpy_integer_dimensions_become_int():
    e = SensingEnsemble(n=np.int64(5), m=np.int32(4), p=np.uint8(3))
    assert (type(e.n), type(e.m), type(e.p)) == (int, int, int)
    assert forward(e, np.ones(5)).shape == (3, 4)

def test_lazy_ensemble_is_one_block_per_snapshot(monkeypatch):
    monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 1)
    e = generate_ensemble(5, 4, 3, "gaussian", seed=3)
    draws = []
    original = SensingEnsemble._draw
    monkeypatch.setattr(SensingEnsemble, "_draw",
                        lambda self, l: draws.append(l) or original(self, l))
    blocks = list(e.blocks())
    assert draws == [0, 1, 2]
    assert [sl for sl, _ in blocks] == [slice(l, l + 1) for l in range(3)]
    for l, (_, rows) in enumerate(blocks):
        np.testing.assert_array_equal(rows, e.matrix(l))


def test_lazy_operator_matches_cached(monkeypatch):
    rng = np.random.default_rng(13)
    v, w = rng.standard_normal(6), rng.standard_normal((5, 4))
    cached = generate_ensemble(6, 4, 5, "gaussian", seed=14)
    expected = forward(cached, v), adjoint(cached, w)
    monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 1)
    lazy = generate_ensemble(6, 4, 5, "gaussian", seed=14)
    assert lazy.stacked() is None
    np.testing.assert_allclose(forward(lazy, v), expected[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(adjoint(lazy, w), expected[1], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3), (2, 3, 0)])
def test_from_matrices_rejects_empty_dimension(shape):
    with pytest.raises(DimensionError):
        SensingEnsemble.from_matrices(np.zeros(shape))


def test_ensemble_rejects_unknown_distribution():
    with pytest.raises(ParameterError):
        SensingEnsemble(n=2, m=2, p=2, distribution="cauchy")


# ---------------------------------------------------------------------------
# lazy sweeps drawn ahead on the pool
# ---------------------------------------------------------------------------

def lazy_draw_ahead_ensemble(monkeypatch, distribution="gaussian"):
    """A lazy ensemble drawn ahead one snapshot per task, p past the window."""
    monkeypatch.setattr("blindcal.model.CACHE_LIMIT_CELLS", 1)
    window = 2 * model._pool(os.getpid())[1]  # two snapshots per pool thread
    return generate_ensemble(6, 4, 2 * window + 3, distribution, seed=21)


def serial_blocks(ensemble):
    """The lazy blocks as one loop over ``matrix(l)``, nothing drawn ahead."""
    ensemble.operator_passes += 1
    return ((slice(l, l + 1), ensemble.matrix(l)) for l in range(ensemble.p))


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
def test_lazy_sweep_drawn_ahead_keeps_the_serial_bits(monkeypatch, distribution):
    e = lazy_draw_ahead_ensemble(monkeypatch, distribution)
    rng = np.random.default_rng(4)
    v, w, y = (rng.standard_normal(shape) for shape in (e.n, (e.p, e.m), (e.p, e.m)))
    point = rng.standard_normal(e.n), 1.0 + 0.1 * rng.standard_normal(e.m)

    def operators():
        return (forward(e, v), adjoint(e, w), *astuple(gradients(e, y, point)))

    ahead = operators()
    monkeypatch.setattr(SensingEnsemble, "blocks", serial_blocks)
    for got, want in zip(ahead, operators(), strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("leave", ["break", "raise", "draw-raises"])
def test_abandoned_lazy_sweep_leaves_nothing_in_flight(monkeypatch, leave):
    e = lazy_draw_ahead_ensemble(monkeypatch)
    expected = [e.matrix(l) for l in range(e.p)]
    pool, submitted = model._pool(os.getpid())[0], []
    submit = pool.submit
    monkeypatch.setattr(pool, "submit", lambda *a: submitted.append(submit(*a)) or submitted[-1])
    if leave == "break":
        for _ in e.blocks():
            break
    elif leave == "raise":
        with pytest.raises(RuntimeError):
            for l, _ in enumerate(e.blocks()):
                if l == 1:
                    raise RuntimeError("consumer fails mid-sweep")
    else:
        draw = SensingEnsemble._draw

        def failing_draw(self, l):
            if l == 1:
                raise RuntimeError("draw fails mid-sweep")
            return draw(self, l)

        with monkeypatch.context() as patch:
            patch.setattr(SensingEnsemble, "_draw", failing_draw)
            with pytest.raises(RuntimeError):
                forward(e, np.ones(e.n))
    assert submitted and all(task.done() for task in submitted)
    assert e._ahead == {}
    blocks = list(e.blocks())
    assert [sl for sl, _ in blocks] == [slice(l, l + 1) for l in range(e.p)]
    for (_, rows), want in zip(blocks, expected, strict=True):
        np.testing.assert_array_equal(rows, want)


def test_lazy_sweep_seeds_and_yields_in_order_on_the_calling_thread(monkeypatch):
    # the benchmark's span recorder wraps matrix and derive_seed and keeps
    # one stack: both stay on the caller's thread, once per snapshot, in order
    e = lazy_draw_ahead_ensemble(monkeypatch)
    caller, calls, fills = threading.get_ident(), [], []
    matrix, derive_seed, fill = SensingEnsemble.matrix, model.derive_seed, SensingEnsemble._fill

    def recorded(name, function):
        def call(*args):
            calls.append((name, args[1] if name == "matrix" else None, threading.get_ident()))
            return function(*args)
        return call

    monkeypatch.setattr(SensingEnsemble, "matrix", recorded("matrix", matrix))
    monkeypatch.setattr("blindcal.model.derive_seed", recorded("derive_seed", derive_seed))
    monkeypatch.setattr(SensingEnsemble, "_fill",
                        lambda self, rng: fills.append(threading.get_ident()) or fill(self, rng))
    forward(e, np.ones(e.n))
    adjoint(e, np.ones((e.p, e.m)))
    assert {thread for *_, thread in calls} == {caller}
    assert [l for name, l, _ in calls if name == "matrix"] == 2 * list(range(e.p))
    assert sum(name == "derive_seed" for name, *_ in calls) == 2 * e.p
    # each sweep fills its first snapshot here, the rest on the pool
    assert len(fills) == 2 * e.p and fills.count(caller) == 2


# ---------------------------------------------------------------------------
# large cached stacks applied in two halves, one on the pool
# ---------------------------------------------------------------------------

def split_ensemble(monkeypatch):
    """A cached (104, 16) stack, split in halves of 48 and 56 rows."""
    monkeypatch.setattr("blindcal.model.SPLIT_CELLS", 16 * 16)
    return generate_ensemble(16, 8, 13, "gaussian", seed=31)


def pool_of(monkeypatch, pool, threads):
    monkeypatch.setattr("blindcal.model._pool", lambda pid: (pool, threads))


@pytest.mark.parametrize("p, chunks", [(1, 1), (2, 2), (3, 2), (7, 2)])
def test_split_starts_at_twice_the_split_size(monkeypatch, p, chunks):
    monkeypatch.setattr("blindcal.model.SPLIT_CELLS", 16 * 16)
    e = generate_ensemble(16, 16, p, "gaussian", seed=3)  # 16 rows, 256 cells a snapshot
    (sl, rows), = e.blocks()
    assert sl == slice(0, p) and sum(1 for _ in e.blocks()) == 1
    if chunks == 1:
        assert isinstance(rows, np.ndarray) and np.shares_memory(rows, e.stacked())
        return
    with ThreadPoolExecutor(1) as pool:  # the caller applies one half, the pool the other
        submitted, submit = [], pool.submit
        monkeypatch.setattr(pool, "submit", lambda *a: submitted.append(a) or submit(*a))
        pool_of(monkeypatch, pool, 1)
        forward(e, np.ones(e.n))
        adjoint(e, np.ones((e.p, e.m)))
    assert len(submitted) == 2 * (chunks - 1) and e.operator_passes == 4


def test_split_forward_keeps_the_bits_and_adjoint_adds_chunks_in_order(monkeypatch):
    e = split_ensemble(monkeypatch)
    stack = e.stacked().reshape(-1, e.n)
    rng = np.random.default_rng(5)
    v, w = rng.standard_normal(e.n), rng.standard_normal((e.p, e.m))
    np.testing.assert_array_equal(forward(e, v).reshape(-1), stack.dot(v))
    edges, flat = (0, 48, 104), w.reshape(-1)
    in_order = np.zeros(e.n)
    for a, b in zip(edges, edges[1:]):
        in_order += flat[a:b].dot(stack[a:b])
    split, unsplit = adjoint(e, w), flat.dot(stack)
    np.testing.assert_array_equal(split, in_order)
    assert np.linalg.norm(split - unsplit) <= 1e-13 * np.linalg.norm(unsplit)


def test_split_results_do_not_depend_on_the_pool_threads(monkeypatch):
    e = split_ensemble(monkeypatch)
    rng = np.random.default_rng(6)
    v, w, y = (rng.standard_normal(shape) for shape in (e.n, (e.p, e.m), (e.p, e.m)))
    point = rng.standard_normal(e.n), 1.0 + 0.1 * rng.standard_normal(e.m)
    results = []
    for threads in (1, 2):
        with ThreadPoolExecutor(threads) as pool:
            pool_of(monkeypatch, pool, threads)
            results.append((forward(e, v), adjoint(e, w), *astuple(gradients(e, y, point))))
    for one, two in zip(*results, strict=True):
        np.testing.assert_array_equal(one, two)


@pytest.mark.parametrize("mode", [LINE_SEARCH, FIXED])
def test_split_solve_keeps_the_unsplit_stop_and_iterations(monkeypatch, mode):
    config = SolverConfig(step_mode=mode, mu=0.2, rho=0.3, max_iterations=5000)
    inst = draw_instance(16, 8, 13, 0.3, seed=2)
    plain = solve(inst.ensemble, inst.y, config)
    monkeypatch.setattr("blindcal.model.SPLIT_CELLS", 16 * 16)
    split = draw_instance(16, 8, 13, 0.3, seed=2)
    assert not isinstance(next(iter(split.ensemble.blocks()))[1], np.ndarray)
    result = solve(split.ensemble, split.y, config)
    assert (result.stop_reason, result.iterations) == (plain.stop_reason, plain.iterations)
    assert result.stop_reason == "converged" and result.iterations > 0
    assert result.operator_passes == result.iterations + 2
    np.testing.assert_allclose(result.x_hat, plain.x_hat, rtol=1e-9, atol=0)
    np.testing.assert_allclose(result.d_hat, plain.d_hat, rtol=1e-9, atol=0)


@pytest.mark.parametrize("threads", [1, 2])
def test_lazy_solve_above_the_split_size_matches_split_off(monkeypatch, threads):
    # snapshot blocks are never split, and a split applied while a lazy window
    # is in flight queues behind its draws, which wait on no other task
    with ThreadPoolExecutor(threads) as pool:
        pool_of(monkeypatch, pool, threads)
        e = lazy_draw_ahead_ensemble(monkeypatch)
        rng = np.random.default_rng(8)
        y = sense(e, rng.standard_normal(e.n), 1.0 + 0.1 * rng.uniform(-1, 1, e.m))
        config = SolverConfig(rho=0.3, max_iterations=8)
        monkeypatch.setattr("blindcal.model.SPLIT_CELLS", 1 << 60)
        off = solve(e, y, config)
        monkeypatch.setattr("blindcal.model.SPLIT_CELLS", 1)  # each snapshot far above it
        on = solve(e, y, config)
        cached = SensingEnsemble.from_matrices(rng.standard_normal((13, 8, 16)))
        v = rng.standard_normal(16)
        want = cached.stacked().reshape(-1, 16).dot(v)
        for _ in e.blocks():  # each cached forward runs behind the window's draws
            np.testing.assert_array_equal(forward(cached, v).reshape(-1), want)
    assert (on.stop_reason, on.iterations, on.operator_passes) == \
        (off.stop_reason, off.iterations, off.operator_passes)
    np.testing.assert_array_equal(on.x_hat, off.x_hat)
    np.testing.assert_array_equal(on.d_hat, off.d_hat)
    assert not isinstance(next(iter(cached.blocks()))[1], np.ndarray) and e._ahead == {}
