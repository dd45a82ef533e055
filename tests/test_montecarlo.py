import collections
import itertools
import json
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from curvepath import montecarlo
from curvepath.cli import main
from curvepath.ecp import sphere_geometry
from curvepath.geometry import point_geometry
from curvepath.metrics import builtin
from curvepath.montecarlo import (_Moments, _draw_modes, _grid_size, _modes, _substreams,
                                  _terms, _to_grid, _vertex_action, mc_boltzmann, mc_two_point,
                                  mc_vertex_expectation)
from curvepath.propagator import PeriodicPropagator
from curvepath.wick import expect_first_order_truncated, vertex_catalog

SPHERE0 = point_geometry(builtin("sphere", 2), [0.0, 0.0])


def first_sample(M, D, seed):
    """The normals, shape (2, 1, D, M), of the first sample the stream of seed draws."""
    [(rng, _)] = _substreams(D, M, 1, seed)
    return _draw_modes(rng, 1, D, M)


def grid_fields(normals, beta, K):
    """The half spectra (2, n, D, K//2+1) and grid fields (2, n, D, K) of q and
    qd, from the (2, n, D, M) normals of the modes."""
    spectrum = np.zeros((2, *normals.shape[1:3], K // 2 + 1), dtype=complex)
    return spectrum, _to_grid(normals, PeriodicPropagator(beta, normals.shape[-1]), K,
                              spectrum=spectrum)


def vertex_action(v, geom, beta, M, spectrum, fields):
    """Per-sample action of the one vertex v, as its own term."""
    [(slots, coeff)] = _terms([v], geom, beta, M)
    return _vertex_action(slots, coeff, spectrum, fields, beta, M)


def test_sample_is_reproducible():
    a = first_sample(8, 2, seed=123)
    b = first_sample(8, 2, seed=123)
    assert np.array_equal(a, b)
    c = first_sample(8, 2, seed=124)
    assert not np.array_equal(a, c)


def test_path_periodicity_and_zero_mean():
    beta, M = 0.9, 6
    p = PeriodicPropagator(beta, M)
    normals = first_sample(M, 2, seed=5)
    modes = _modes(normals, p)[0]
    grid = _to_grid(normals, p, _grid_size(M))[0, 0]
    # uniform grid of a trigonometric polynomial with no constant term
    assert abs(grid.sum(axis=1)).max() < 1e-12
    # tau = 0 equals tau = beta by periodic reconstruction
    direct0 = 2 * np.sum(modes.real, axis=1)
    assert np.allclose(grid[:, 0], direct0, atol=1e-13)


def test_grid_values_match_direct_sum():
    beta, M = 0.7, 5
    p = PeriodicPropagator(beta, M)
    normals = first_sample(M, 1, seed=9)
    modes = _modes(normals, p)[0, 0]
    K = 8 * M
    grid, deriv = _to_grid(normals, p, K)[:, 0, 0]
    omega = 2 * math.pi * np.arange(1, M + 1) / beta
    tgrid = beta * np.arange(K) / K
    direct = sum(2 * (modes[m].real * np.cos(omega[m] * tgrid)
                      + modes[m].imag * np.sin(omega[m] * tgrid))
                 for m in range(M))
    assert np.allclose(grid, direct, atol=1e-12)
    direct_d = sum(2 * omega[m] * (-modes[m].real * np.sin(omega[m] * tgrid)
                                   + modes[m].imag * np.cos(omega[m] * tgrid))
                   for m in range(M))
    assert np.allclose(deriv, direct_d, atol=1e-10)


def test_mode_variances():
    beta, M, n = 0.5, 4, 100000
    rng = np.random.Generator(np.random.Philox(77))
    modes = _modes(_draw_modes(rng, n, 1, M), PeriodicPropagator(beta, M))
    omega = 2 * math.pi * np.arange(1, M + 1) / beta
    for m in range(M):
        emp = np.mean(np.abs(modes[:, 0, m])**2)
        target = 1.0 / (beta * omega[m]**2)
        stderr = target / math.sqrt(n)
        assert abs(emp - target) <= 3 * stderr


def test_two_point_function():
    beta, M = 0.5, 16
    rng = np.random.default_rng(3)
    pairs = [(float(a), float(b)) for a, b in
             rng.uniform(0, beta, size=(5, 2))]
    checks = mc_two_point(beta, M, 2, 60000, seed=21, pairs=pairs)
    for c in checks:
        assert abs(c["mean"] - c["expected"]) <= 3 * c["stderr"]


def test_vertex_estimates_match_engine():
    """All catalog vertices against the cutoff-matched analytic values,
    sharing one sample stream for speed."""
    beta, M, n = 0.2, 64, 100000
    geom = SPHERE0
    p = PeriodicPropagator(beta, M)
    vertices = (vertex_catalog(geom, beta, "covariant")
                + vertex_catalog(geom, beta, "sphere"))
    K = _grid_size(M)
    sums = np.zeros(len(vertices))
    sums2 = np.zeros(len(vertices))
    rng = np.random.Generator(np.random.Philox(31))
    done = 0
    while done < n:
        take = min(4096, n - done)
        fields = grid_fields(_draw_modes(rng, take, geom.dim, M), beta, K)
        for k, v in enumerate(vertices):
            vals = vertex_action(v, geom, beta, M, *fields)
            sums[k] += vals.sum()
            sums2[k] += (vals**2).sum()
        done += take
    for k, v in enumerate(vertices):
        mean = sums[k] / n
        stderr = math.sqrt(max(sums2[k] / n - mean**2, 0.0) / n)
        target = expect_first_order_truncated(v, p, geom)
        assert abs(mean - target) <= 3 * stderr + 1e-12, (v.label, mean, target, stderr)


def test_off_origin_vertex_exercises_frame_conversion():
    # displacement-route quartic at a point with a nontrivial metric: the
    # sampled orthonormal fields must be rotated into the coordinate frame
    beta, M, n = 0.2, 32, 60000
    geom = point_geometry(builtin("sphere", 2), [0.3, 0.0])
    p = PeriodicPropagator(beta, M)
    quartic = next(v for v in vertex_catalog(geom, beta, "eta")
                   if v.label == "quartic-kinetic")
    est = mc_vertex_expectation(quartic, geom, beta, M, n, seed=83)
    target = expect_first_order_truncated(quartic, p, geom)
    assert abs(est.mean - target) <= 3 * est.stderr


def test_cubic_vertex_estimates_zero():
    beta, M = 0.2, 16
    geom = point_geometry(builtin("sphere", 2), [0.3, 0.1])
    cubic = next(v for v in vertex_catalog(geom, beta, "eta")
                 if v.label == "cubic-kinetic")
    est = mc_vertex_expectation(cubic, geom, beta, M, 40000, seed=41)
    assert abs(est.mean) <= 3 * est.stderr


def test_boltzmann_estimates_and_guard(monkeypatch):
    est = mc_boltzmann("sphere", SPHERE0, 0.1, 16, 40000, seed=52)
    assert abs(est.mean - (1 - 0.1 / 12)) <= max(3 * est.stderr, 0.003)
    assert est.extras["action_variance"] < 1.0
    monkeypatch.setattr(montecarlo, "_VARIANCE_GUARD", 1e-9)
    with pytest.raises(ValueError, match="variance"):
        mc_boltzmann("sphere", SPHERE0, 0.1, 16, 2000, seed=52)


@pytest.mark.parametrize("beta,M", [(1e-300, 1), (1e-155, 1), (1e300, 1), (1.7e308, 4),
                                    (1e-310, 1)])
@pytest.mark.parametrize("route", ["sphere", "covariant", "eta"])
def test_extreme_beta_ends_as_an_estimate_or_a_value_error(route, beta, M):
    """At beta 1e-300 and 1e-155, 1 / omega_1^2 underflows and the draw
    keeps its spread in the scaled form; at 1e300 the action variance, and
    at 1.7e308 the action itself, leaves the float64 range; at 1e-310 the
    propagator rejects omega_M. No warning is raised, on the pool (1024
    samples make four chunks) or without it."""
    geom = SPHERE0 if route == "sphere" else point_geometry(builtin("sphere", 2), [0.1, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if beta > 1 or beta < 1e-308:
            match = "action variance leaves" if beta > 1 else "omega_M = 2 pi M / beta"
            with pytest.raises(ValueError, match=match):
                mc_boltzmann(route, geom, beta, M, 1024, seed=3)
            return
        est = mc_boltzmann(route, geom, beta, M, 1024, seed=3)
    # the paths are not all zero, as they were when the spread underflowed
    assert est.extras["action_mean"] != 0.0 and math.isfinite(est.stderr)


def test_estimators_without_a_guard_merge_extreme_batches_without_a_warning():
    """Each batch merge ignores overflow itself, so the vertex and two-point
    estimates at extreme beta end as estimates, non-finite where the samples
    leave the float64 range, and raise no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimates = [mc_vertex_expectation(v, sphere_geometry(2), 1.7e308, 4, 64, 1)
                     for v in vertex_catalog(sphere_geometry(2), 1.7e308, "sphere")]
        [row] = mc_two_point(1e300, 2, 2, 64, 1, [(0.1, 0.2)])
    assert [est.n_samples for est in estimates] == [64] * 3
    assert not any(math.isfinite(est.mean) for est in estimates)
    assert math.isfinite(row["mean"]) and row["mean"] > 0 and math.isnan(row["stderr"])


def test_boltzmann_consistent_with_vertex_sums():
    # first-order dominance: 1 - sum of vertex means reproduces the
    # Boltzmann estimate within combined errors (independent streams)
    beta, M, n = 0.05, 16, 30000
    geom = SPHERE0
    est_b = mc_boltzmann("sphere", geom, beta, M, n, seed=61)
    total = 0.0
    err2 = 0.0
    for v in vertex_catalog(geom, beta, "sphere"):
        est = mc_vertex_expectation(v, geom, beta, M, n, seed=62 + hash(v.label) % 100)
        total += est.mean
        err2 += est.stderr**2
    combined = math.sqrt(err2 + est_b.stderr**2)
    assert abs((1 - total) - est_b.mean) <= 3 * combined


def test_split_seeds_combine():
    beta, M, n = 0.1, 16, 30000
    a = mc_boltzmann("sphere", SPHERE0, beta, M, n, seed=70)
    b = mc_boltzmann("sphere", SPHERE0, beta, M, n, seed=71)
    single = mc_boltzmann("sphere", SPHERE0, beta, M, 2 * n, seed=72)
    pooled = 0.5 * (a.mean + b.mean)
    combined = math.sqrt(0.25 * (a.stderr**2 + b.stderr**2) + single.stderr**2)
    assert abs(pooled - single.mean) <= 3 * combined


def test_statistical_error_scales_as_root_n():
    beta, M = 0.4, 8
    pair = [(0.1 * beta, 0.6 * beta)]
    sizes = [1000, 10000, 100000]
    errors = []
    for n in sizes:
        errs = []
        for seed in range(8):
            c = mc_two_point(beta, M, 2, n, seed=seed, pairs=pair)[0]
            errs.append(abs(c["mean"] - c["expected"]))
        errors.append(np.mean(errs))
    slope, _ = np.polyfit(np.log(sizes), np.log(errors), 1)
    assert -slope == pytest.approx(0.5, abs=0.15)


def _ks_statistic(a, b):
    a = np.sort(a)
    b = np.sort(b)
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / len(a)
    cdf_b = np.searchsorted(b, allv, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def test_estimates_invariant_under_relabeling_and_grid_refinement():
    """Batch means under mode-order relabeling are distributed like the
    standard sampler's (two-sample KS below the 1% critical value), and a
    finer time grid changes nothing at all (the quadrature is exact)."""
    beta, M, nb, bs = 0.3, 8, 40, 500
    geom = SPHERE0
    v = next(x for x in vertex_catalog(geom, beta, "sphere") if x.label == "(q.qdot)^2")

    def batch_means(seed, relabel=False, K=_grid_size(M)):
        rng = np.random.Generator(np.random.Philox(seed))
        out = []
        for _ in range(nb):
            if relabel:  # the stream's normals given to the modes in reverse order
                normals = rng.standard_normal(size=(2, bs, 2, M))[..., ::-1]
            else:
                normals = _draw_modes(rng, bs, 2, M)
            out.append(vertex_action(v, geom, beta, M, *grid_fields(normals, beta, K)).mean())
        return np.array(out)

    base = batch_means(900)
    relabeled = batch_means(900, relabel=True)
    ks = _ks_statistic(base, relabeled)
    critical_1pct = 1.63 * math.sqrt(2 / nb)
    assert ks < critical_1pct
    refined = batch_means(900, K=16 * M)
    assert np.allclose(base, refined, rtol=1e-12)


def test_exact_grid_is_the_smallest_2_3_smooth_size_above_4M():
    assert [_grid_size(M) for M in (16, 32, 64)] == [72, 144, 288]

    def smooth(k):
        for p in (2, 3):
            while k % p == 0:
                k //= p
        return k == 1

    for M in range(1, 200):
        K = _grid_size(M)
        assert K > 4 * M and smooth(K)
        assert not any(smooth(k) for k in range(4 * M + 1, K))


def _grid_size_by_steps(M):
    """The former search: step K up from 4M + 1 to the first 2-3-smooth size."""
    K = 4 * M + 1
    while True:
        rest = K
        for p in (2, 3):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return K
        K += 1


def test_grid_size_enumerates_the_smooth_sizes_it_used_to_step_through():
    assert all(_grid_size(M) == _grid_size_by_steps(M) for M in range(1, 5001))
    # the stepping search needs 76863487 steps here, the enumeration a few dozen
    assert _grid_size(10**9) == 4076863488 == 2**24 * 3**5


def test_moments_keep_their_digits_at_a_large_mean():
    rng = np.random.default_rng(4)
    x = 1e8 + rng.normal(size=10000)
    acc = _Moments()
    for chunk in np.array_split(x, 7):
        acc.add(chunk)
    assert acc.count == len(x)
    assert acc.mean == pytest.approx(np.mean(x), rel=1e-15)
    assert acc.variance() == pytest.approx(np.var(x), rel=1e-8)
    # the one-pass E[x^2] - E[x]^2 loses every digit at this mean
    naive = np.sum(x**2) / len(x) - np.mean(x)**2
    assert abs(naive - np.var(x)) > 1e-3 * np.var(x)
    # several independent columns at once
    cols = _Moments()
    xy = np.stack([x, -2.0 * x], axis=1)
    for chunk in np.array_split(xy, 3):
        cols.add(chunk)
    np.testing.assert_allclose(cols.variance(), np.var(xy, axis=0), rtol=1e-8)


def _catalog_cases():
    hyper = point_geometry(builtin("hyperbolic-ball", 3), [0.2, -0.1, 0.15])
    sphere = point_geometry(builtin("sphere", 2), [0.3, 0.1])
    return [(hyper, "covariant"), (hyper, "eta"), (sphere, "covariant"),
            (sphere, "eta"), (SPHERE0, "sphere")]


@pytest.mark.parametrize("geom,route", _catalog_cases())
def test_exact_grid_and_parseval_match_the_8M_grid(geom, route):
    """Every vertex of the covariant, eta (cubic and quartic) and sphere
    catalogs: the exact grid reproduces the 8M grid per sample, and a
    quadratic vertex by Parseval equals its grid integral."""
    beta, M, n = 0.1, 16, 300
    normals = _draw_modes(np.random.Generator(np.random.Philox(5)), n, geom.dim, M)
    fields = {K: grid_fields(normals, beta, K) for K in (_grid_size(M), 8 * M)}
    vertices = vertex_catalog(geom, beta, route)
    assert {len(v.slots) for v in vertices} >= {2, 4}
    for v in vertices:
        ref = vertex_action(v, geom, beta, M, *fields[8 * M])
        new = vertex_action(v, geom, beta, M, *fields[_grid_size(M)])
        scale = np.abs(ref).max()
        np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12 * scale, err_msg=v.label)
        if len(v.slots) == 2:
            [(slots, coeff)] = _terms([v], geom, beta, M)
            f, g = (fields[8 * M][1][s] for s in slots)
            grid = np.einsum("nak,ab,nbk->n", f, coeff, g) * (beta / (8 * M))
            np.testing.assert_allclose(new, grid, rtol=1e-12, atol=1e-12 * scale, err_msg=v.label)


@pytest.mark.parametrize("geom,route", _catalog_cases())
def test_one_term_per_slot_signature_sums_the_vertex_actions(geom, route):
    beta, M, n = 0.1, 16, 300
    normals = _draw_modes(np.random.Generator(np.random.Philox(6)), n, geom.dim, M)
    fields = grid_fields(normals, beta, _grid_size(M))
    vertices = vertex_catalog(geom, beta, route)
    terms = _terms(vertices, geom, beta, M)
    assert [len(slots) for slots, _ in terms].count(2) == 1
    assert sorted(slots for slots, _ in terms) == sorted({v.slots for v in vertices})
    each = np.array([vertex_action(v, geom, beta, M, *fields) for v in vertices])
    folded = sum(_vertex_action(slots, coeff, *fields, beta, M) for slots, coeff in terms)
    np.testing.assert_allclose(folded, each.sum(axis=0), rtol=0,
                               atol=1e-13 * np.abs(each).sum(axis=0).max())


@pytest.mark.parametrize("M", [16, 32, 64])
def test_padded_transform_is_the_irfft_of_the_modes(M):
    """One transform of a chunk's normals, scaled into the zero-padded spectra
    of q and qd in a workspace reused at two chunk sizes, gives the bits of
    irfft on the M + 1 conjugate modes and on their i omega multiple."""
    beta, K = 0.3, _grid_size(M)
    p = PeriodicPropagator(beta, M)
    rng = np.random.Generator(np.random.Philox(M))
    for D in (1, 2, 3, 4):
        workspace = montecarlo._Workspace(40, D, M, K)
        for n in (40, 17):
            normals = _draw_modes(rng, n, D, M)
            spectrum = np.concatenate([np.zeros((n, D, 1)), np.conjugate(_modes(normals, p))],
                                      axis=2)
            ref = [np.fft.irfft(spectrum, n=K, axis=2, norm="forward"),
                   np.fft.irfft(spectrum * (1j * 2 * math.pi * np.arange(M + 1) / beta),
                                n=K, axis=2, norm="forward")]
            got = _to_grid(normals, p, K, workspace.fields[:, :n], workspace.spectrum[:, :n])
            assert K in (72, 144, 288) and np.array_equal(got, ref)
            assert np.array_equal(_to_grid(normals, p, K), ref)


@pytest.mark.parametrize("route,geom,terms", [("sphere", SPHERE0, 2),
                                              ("covariant", _catalog_cases()[0][0], 2),
                                              ("eta", _catalog_cases()[3][0], 3)])
def test_each_chunk_makes_one_transform_and_one_action_per_term(monkeypatch, route, geom, terms):
    counts = collections.Counter()

    def counting(name, f):
        def call(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(np.fft, "irfft", counting("irfft", np.fft.irfft))
    for name in ("_chunk_action", "_vertex_action"):
        monkeypatch.setattr(montecarlo, name, counting(name, getattr(montecarlo, name)))
    mc_boltzmann(route, geom, 0.02, 16, 3000, seed=1)
    assert counts["irfft"] == counts["_chunk_action"] > 1
    assert counts["_vertex_action"] == terms * counts["_chunk_action"]


@pytest.mark.parametrize("workers,counts", [(1, [3, 2, 1, 19]), (2, [4, 4, 1, 19]),
                                            (4, [8, 4, 1, 19])])
def test_substreams_are_cut_into_equal_chunks_two_per_worker(monkeypatch, workers, counts):
    """A chunk holds at most 910 samples at D = 2, M = 16, 606 at D = 3,
    M = 16 and 227 at D = 2, M = 64; more chunks are cut for the workers
    only while each keeps 256 samples. Each worker's workspace holds the
    largest chunk, not the 2 MB bound."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
    sizes, rows = [], []
    real = montecarlo._chunk_action
    monkeypatch.setattr(montecarlo, "_chunk_action",
                        lambda *args: sizes.append(args[2].shape[1]) or real(*args))
    real_workspace = montecarlo._Workspace
    monkeypatch.setattr(montecarlo, "_Workspace",
                        lambda n, *args: rows.append(n) or real_workspace(n, *args))
    hyper = _catalog_cases()[0][0]
    runs = [("sphere", SPHERE0, 16, 2048), ("covariant", hyper, 16, 1024),
            ("sphere", SPHERE0, 16, 300), ("sphere", SPHERE0, 64, 4096)]
    for (route, geom, M, n), count in zip(runs, counts):
        sizes.clear()
        rows.clear()
        mc_boltzmann(route, geom, 0.02, M, n, seed=1)
        assert len(sizes) == count and sum(sizes) == n and max(sizes) - min(sizes) <= 1
        assert rows == [max(sizes)] * min(workers, count)


def test_each_substream_is_drawn_once_and_each_chunk_transformed_once(monkeypatch):
    """Three substreams of 8192, 8192 and 3616 samples at D = 2, M = 16: one
    draw of float normals each, and one transform to a grid array per chunk."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    results = collections.defaultdict(list)

    def recording(name):
        real = getattr(montecarlo, name)

        def call(*args):
            result = real(*args)
            results[name].append(result)
            return result
        return call

    for name in ("_draw_modes", "_to_grid", "_chunk_action"):
        monkeypatch.setattr(montecarlo, name, recording(name))
    mc_boltzmann("sphere", SPHERE0, 0.02, 16, 20000, seed=1)
    assert [block.shape for block in results["_draw_modes"]] == [
        (2, 8192, 2, 16), (2, 8192, 2, 16), (2, 3616, 2, 16)]
    assert all(block.dtype == float for block in results["_draw_modes"])
    grids = results["_to_grid"]
    assert len(grids) == len(results["_chunk_action"]) > 3
    assert all(type(g) is np.ndarray and (g.shape[0], *g.shape[2:]) == (2, 2, 72) for g in grids)
    assert sum(g.shape[1] for g in grids) == 20000


def test_working_set_holds_float_slots_of_normals(monkeypatch):
    """Two float slots of a substream's 4096 samples' normals (16.8 MB) and two
    workspaces of 216-sample chunks (9.7 MB) peaked at 26.4 MB; complex mode
    slots beside a normals temporary peaked at 31.0 MB."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    geom = sphere_geometry(2)
    mc_boltzmann("sphere", geom, 0.02, 16, 300, 1)  # imports and caches, outside the trace
    tracemalloc.start()
    try:
        mc_boltzmann("sphere", geom, 0.04, 64, 8192, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 27.5 * 2**20


@pytest.mark.parametrize("geom,route", _catalog_cases())
def test_terms_build_the_frame_once_and_keep_their_bits(monkeypatch, geom, route):
    """One Cholesky factor per call, and the bits of a frame built per vertex."""
    beta, M = 0.1, 16
    vertices = vertex_catalog(geom, beta, route)
    expected = {}
    for v in vertices:
        coeff = v.coeff
        for _ in range(coeff.ndim):
            coeff = np.tensordot(coeff, np.linalg.inv(np.linalg.cholesky(geom.g).T), axes=(0, 0))
        coeff = v.prefactor_truncated(beta, M) * coeff
        expected[v.slots] = expected[v.slots] + coeff if v.slots in expected else coeff
    calls = []
    real = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or real(a))
    terms = _terms(vertices, geom, beta, M)
    assert len(calls) == 1 < len(vertices)
    assert [slots for slots, _ in terms] == list(expected)
    assert all(np.array_equal(coeff, expected[slots]) for slots, coeff in terms)


def test_coarse_grid_is_rejected_for_a_quartic_vertex():
    beta, M = 0.1, 8
    v = next(x for x in vertex_catalog(SPHERE0, beta, "sphere") if len(x.slots) == 4)
    fields = grid_fields(_draw_modes(np.random.Generator(np.random.Philox(1)), 4, 2, M),
                         beta, 4 * M)
    with pytest.raises(ValueError, match="too coarse"):
        vertex_action(v, SPHERE0, beta, M, *fields)


# Outputs of the earlier core (an 8M grid and a per-entry coefficient loop)
# on the same seeded stream: the exact grid must reproduce them to rounding.
GOLDEN_MC = [
    (["--route", "sphere", "--D", "2"],
     (0.9983895461822679, 0.00038182098995731236, 0.00029857232562581916)),
    (["--route", "covariant", "--builtin", "hyperbolic-ball:3", "--point=0.1,-0.2,0.15"],
     (1.0050182308023388, 0.00024227657554981363, 0.00012021337919517603)),
    (["--route", "eta", "--builtin", "sphere:2", "--point=0.3,0.1"],
     (0.9898487414267005, 0.0027141201941380737, 0.015086486381011135)),
]


@pytest.mark.parametrize("route_args,golden", GOLDEN_MC)
def test_fixed_seed_reproduces_the_earlier_core(route_args, golden, capsys):
    argv = ["mc", *route_args, "--M", "16", "--beta", "0.02", "--samples", "2048", "--seed", "9"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    got = (doc["mean"], doc["stderr"], doc["action_variance"])
    assert got == pytest.approx(golden, rel=1e-12, abs=0)


def test_two_point_reproduces_the_earlier_core():
    pairs = [(0.1, 0.3), (0.2, 0.2), (0.013, 0.47)]
    golden = [(-0.01859805059110169, 0.0004499068041101555, -0.01827568538909779),
              (0.03897365580510222, 0.0005408658263948417, 0.0401319665170702),
              (0.02145299226899685, 0.00044966515089296156, 0.022138647913245917)]
    for c, (mean, stderr, expected) in zip(mc_two_point(0.5, 16, 2, 5000, seed=21, pairs=pairs),
                                           golden):
        assert c["mean"] == pytest.approx(mean, rel=1e-12, abs=0)
        assert c["stderr"] == pytest.approx(stderr, rel=1e-12, abs=0)
        assert c["expected"] == expected


def _mc_results():
    """Every estimator on streams of several substreams and chunks, with the
    running partials of mc_boltzmann."""
    out = []
    hyper = point_geometry(builtin("hyperbolic-ball", 3), [0.1, -0.2, 0.15])
    sphere = point_geometry(builtin("sphere", 2), [0.3, 0.1])
    for route, geom, n in (("sphere", SPHERE0, 20000), ("covariant", hyper, 10000),
                           ("eta", sphere, 10000)):
        partials = []
        est = mc_boltzmann(route, geom, 0.02, 16, n, seed=9,
                           on_batch=lambda *p: partials.append(p))
        out.append((est.as_dict(), partials))
    quartic = next(v for v in vertex_catalog(sphere, 0.1, "eta") if v.label == "quartic-kinetic")
    out.append(mc_vertex_expectation(quartic, sphere, 0.1, 16, 10000, seed=5).as_dict())
    out.append(mc_two_point(0.5, 16, 2, 20000, seed=21, pairs=[(0.1, 0.3), (0.2, 0.2)]))
    return repr(out)


def test_results_do_not_depend_on_the_worker_count(monkeypatch):
    # frequent thread switches, so that a merge out of order would show
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
            results[workers] = _mc_results()
    finally:
        sys.setswitchinterval(interval)
    assert results[1] == results[2] == results[3]


class _CountedThread(threading.Thread):
    started = []

    def start(self):
        type(self).started.append(self)
        super().start()


def _helpers_started(monkeypatch, call):
    """Threads started while call() runs."""
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    monkeypatch.setattr(_CountedThread, "started", [])
    call()
    return len(_CountedThread.started)


def test_each_call_starts_one_helper_fewer_than_its_computing_threads(monkeypatch):
    """The calling thread computes beside min(workers, chunks) - 1 helpers,
    for either estimator."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: 4)
    # below twice the 256-sample floor a substream is one chunk
    calls = [lambda: mc_boltzmann("sphere", SPHERE0, 0.02, 16, 511, seed=1),
             lambda: mc_two_point(0.5, 16, 2, 511, seed=1, pairs=[(0.1, 0.3)]),
             lambda: mc_boltzmann("sphere", SPHERE0, 0.02, 16, 512, seed=1),
             lambda: mc_two_point(0.5, 16, 2, 512, seed=1, pairs=[(0.1, 0.3)]),
             lambda: mc_boltzmann("sphere", SPHERE0, 0.02, 16, 20000, seed=1),
             lambda: mc_two_point(0.5, 16, 2, 20000, seed=1, pairs=[(0.1, 0.3)])]
    assert [_helpers_started(monkeypatch, call) for call in calls] == [0, 0, 1, 1, 3, 3]
    monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
    assert [_helpers_started(monkeypatch, call) for call in calls] == [0] * 6


def test_one_chunk_calls_start_no_thread_and_keep_their_bits(monkeypatch):
    """A call of one chunk, of either estimator, runs on the calling thread
    alone at any worker count, and gives the same bits at each."""
    results = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_workers", lambda: workers)

        def call():
            results[workers] = repr((
                mc_boltzmann("sphere", SPHERE0, 0.02, 16, 511, seed=3).as_dict(),
                mc_two_point(0.5, 16, 2, 511, seed=3, pairs=[(0.1, 0.3), (0.2, 0.2)])))

        assert _helpers_started(monkeypatch, call) == 0
    assert results[1] == results[2] == results[3]


def test_at_most_workers_threads_compute_and_the_caller_is_one(monkeypatch):
    """At two workers, the draw of the next substream and the chunks of the
    last one run on at most two threads, the calling thread among them; a
    pool of two threads beside a drawing main thread reached three."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    lock = threading.Lock()
    inside, peak, chunk_threads = [0], [0], set()

    def busy(name, wait):
        real = getattr(montecarlo, name)

        def call(*args):
            with lock:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
                if name == "_chunk_action":
                    chunk_threads.add(threading.get_ident())
            try:
                time.sleep(wait)  # widen the overlaps a third thread would make
                return real(*args)
            finally:
                with lock:
                    inside[0] -= 1
        return call

    monkeypatch.setattr(montecarlo, "_draw_modes", busy("_draw_modes", 0.02))
    monkeypatch.setattr(montecarlo, "_chunk_action", busy("_chunk_action", 0.005))
    mc_boltzmann("sphere", SPHERE0, 0.02, 16, 20000, seed=1)
    assert peak[0] == 2
    assert threading.get_ident() in chunk_threads


def _hook_draws(monkeypatch, hook):
    """Run hook(k) before the k-th standard_normal call (k from 0) on the
    substreams of the calls that follow."""
    real = montecarlo._substreams
    calls = itertools.count()

    class Hooked:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *args, **kwargs):
            hook(next(calls))
            return self.rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_substreams",
                        lambda *args: ((Hooked(rng), size) for rng, size in real(*args)))


def test_a_helper_computes_a_chunk_while_its_substream_is_drawn(monkeypatch):
    """At two workers, each of the four chunks of one 2048-sample substream is
    published once its imaginary parts are drawn, so a helper enters the
    first chunk before the draw returns: the last chunk's draw waits for it.
    Publishing the chunks after the whole draw fails here, without the wait."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    caller = threading.get_ident()
    entered = threading.Event()
    order = []

    def before(k):
        if k == 4:  # the real parts, then the imaginary parts of chunks 0 to 3
            entered.wait(timeout=10)

    real_chunk, real_draw = montecarlo._chunk_action, montecarlo._draw_modes

    def chunk(*args):
        if threading.get_ident() != caller and not entered.is_set():
            order.append("helper chunk")
            entered.set()
        return real_chunk(*args)

    def draw(*args):
        result = real_draw(*args)
        order.append("draw returned")
        return result

    _hook_draws(monkeypatch, before)
    monkeypatch.setattr(montecarlo, "_chunk_action", chunk)
    monkeypatch.setattr(montecarlo, "_draw_modes", draw)
    mc_boltzmann("sphere", SPHERE0, 0.02, 16, 2048, seed=1)
    assert order == ["helper chunk", "draw returned"]


def test_two_point_draws_on_the_calling_thread_while_a_helper_computes(monkeypatch):
    """At two workers, mc_two_point draws both substreams of 10000 samples on
    the calling thread, and a helper enters the first chunk before the first
    draw returns. When each substream, draw included, was one task, a helper
    drew the first substream."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    caller = threading.get_ident()
    entered = threading.Event()
    draws, order = [], []

    def before(k):
        if k == 4:  # the real parts, then the imaginary parts of chunks 0 to 2
            entered.wait(timeout=10)

    real_modes, real_draw = montecarlo._modes, montecarlo._draw_modes

    def modes(*args):
        if threading.get_ident() != caller and not entered.is_set():
            order.append("helper chunk")
            entered.set()
        return real_modes(*args)

    def draw(*args):
        draws.append(threading.get_ident())
        result = real_draw(*args)
        order.append("draw returned")
        return result

    _hook_draws(monkeypatch, before)
    monkeypatch.setattr(montecarlo, "_modes", modes)
    monkeypatch.setattr(montecarlo, "_draw_modes", draw)
    mc_two_point(0.5, 16, 2, 10000, seed=1, pairs=[(0.1, 0.3)])
    assert draws == [caller, caller]
    assert order == ["helper chunk", "draw returned", "draw returned"]


def test_a_chunk_that_raises_stops_the_draw_at_its_next_chunk(monkeypatch):
    """At two workers, the first chunk raises on the helper while the calling
    thread draws the first substream: the draw stops at its next chunk, so
    the second substream (draw 11 on) is never drawn. Before the error was
    recorded for the producer, both substreams were drawn first."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    caller = threading.get_ident()
    failed = threading.Event()
    draws = []

    def before(k):
        draws.append(k)
        if k == 2:  # the second chunk's imaginary parts: the helper has the first
            failed.wait(timeout=10)

    def chunk(*args):
        assert threading.get_ident() != caller
        failed.set()
        raise RuntimeError("helper chunk")

    _hook_draws(monkeypatch, before)
    monkeypatch.setattr(montecarlo, "_chunk_action", chunk)
    with pytest.raises(RuntimeError, match="helper chunk"):
        mc_boltzmann("sphere", SPHERE0, 0.02, 16, 40000, seed=1)
    assert failed.is_set() and max(draws) < 11


def test_a_helper_chunk_that_fails_while_the_caller_waits_for_it_ends_the_call(monkeypatch):
    """At two workers, a 512-sample call is two chunks: the calling thread
    computes one and waits for the helper's, which raises only then. The
    call ends with that error; when a failed chunk's future was cancelled,
    which does not wake a wait, the call hung here."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    threads = threading.active_count()
    entered = threading.Event()
    caller, outcome = [], []
    real = montecarlo._chunk_action

    def chunk(*args):
        if threading.get_ident() != caller[0]:
            entered.set()
            time.sleep(0.2)  # the calling thread has finished its chunk by now
            raise RuntimeError("late helper chunk")
        entered.wait(timeout=10)  # so the helper takes the other chunk
        return real(*args)

    def call():
        caller.append(threading.get_ident())
        try:
            mc_boltzmann("sphere", SPHERE0, 0.02, 16, 512, seed=1)
        except RuntimeError as exc:
            outcome.append(str(exc))

    monkeypatch.setattr(montecarlo, "_chunk_action", chunk)
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout=20)
    assert outcome == ["late helper chunk"]
    assert threading.active_count() == threads


@pytest.mark.parametrize("failure,error", [
    ("helper chunk", RuntimeError), ("calling-thread chunk", RuntimeError),
    ("on_batch", RuntimeError), ("draw", RuntimeError), ("two-point chunk", RuntimeError),
    ("helper chunk", KeyboardInterrupt), ("on_batch", KeyboardInterrupt),
], ids=["helper chunk", "calling-thread chunk", "on_batch", "draw", "two-point chunk",
        "helper chunk-KeyboardInterrupt", "on_batch-KeyboardInterrupt"])
def test_no_chunk_starts_after_an_error_reaches_the_caller(monkeypatch, failure, error):
    """Whichever thread a failing chunk runs on, or when on_batch or a draw
    raises, the exception reaches the caller, no chunk starts afterwards, and
    every helper thread has ended; a two-point chunk failing on a helper too,
    and a KeyboardInterrupt, which is no Exception, as well."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    threads = threading.active_count()
    caller = threading.get_ident()
    starts = []

    def counted(real):
        def chunk(*args):
            starts.append(threading.get_ident())
            on_caller = threading.get_ident() == caller
            if (len(starts) >= 5 and failure.endswith("chunk")
                    and on_caller == (failure == "calling-thread chunk")):
                raise error(failure)
            return real(*args)
        return chunk

    def on_batch(count, mean, stderr):
        if failure == "on_batch":
            raise error(failure)

    def before(k):
        # the third chunk's draw in the second substream: the ten chunks of
        # the first and two of the second are published by then
        if failure == "draw" and k == 14:
            raise error(failure)

    _hook_draws(monkeypatch, before)
    monkeypatch.setattr(montecarlo, "_chunk_action", counted(montecarlo._chunk_action))
    monkeypatch.setattr(montecarlo, "_modes", counted(montecarlo._modes))  # a two-point chunk
    with pytest.raises(error, match=failure):
        if failure == "two-point chunk":
            mc_two_point(0.5, 16, 2, 40000, seed=1, pairs=[(0.1, 0.3)])
        else:
            mc_boltzmann("sphere", SPHERE0, 0.02, 16, 40000, seed=1, on_batch=on_batch)
    seen = len(starts)
    time.sleep(0.05)
    # either call has 48 chunks, 10 in each of the first two substreams
    assert len(starts) == seen <= 20
    assert threading.active_count() == threads


@pytest.mark.parametrize("D", [0, -1])
def test_two_point_rejects_a_dimension_below_one(monkeypatch, D):
    """D = 0 ended as a ZeroDivisionError in the chunk rule and D = -1 as
    NumPy's "negative dimensions are not allowed"; both end as a ValueError
    that names D, before anything is drawn."""
    monkeypatch.setattr(montecarlo, "_substreams", lambda *args: pytest.fail("drawn"))
    with pytest.raises(ValueError, match=f"^dimension D must be >= 1, got {D}$"):
        mc_two_point(0.5, 16, D, 100, 1, [(0.1, 0.2)])


def test_substreams_are_spawned_children_made_as_they_are_reached():
    """Substream j is the j-th child of SeedSequence(seed).spawn, bit for bit."""
    lazy = _substreams(2, 16, 7 * 8192, 11)
    eager = np.random.SeedSequence(11).spawn(7)
    for (rng, size), child in zip(lazy, eager, strict=True):
        assert size == 8192
        assert np.array_equal(rng.standard_normal(1000),
                              np.random.Generator(np.random.Philox(child)).standard_normal(1000))


def test_a_stopped_call_makes_only_the_substreams_it_reached(monkeypatch):
    """10^8 samples at D = 2, M = 16 are 12208 substreams; a call that stops
    at its first batch makes at most three generators, where an eager spawn
    made all 12208 before the first draw."""
    made = []
    real = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *args: made.append(1) or real(*args))

    def stop(count, mean, stderr):
        raise KeyError(f"stopped at {count}")

    with pytest.raises(KeyError, match="stopped at 8192"):
        mc_boltzmann("sphere", SPHERE0, 0.02, 16, 10**8, seed=1, on_batch=stop)
    assert 1 <= len(made) <= 3


@pytest.mark.parametrize("workers", [1, 3])
def test_fields_are_held_one_chunk_at_a_time(monkeypatch, workers):
    """Holding the fields of a whole 4096-sample substream at once instead
    peaked at about 56 MB here."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
    geom = sphere_geometry(2)
    tracemalloc.start()
    try:
        mc_boltzmann("sphere", geom, 0.04, 64, 20480, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_chunks_reuse_one_workspace_per_worker(monkeypatch):
    """The arrays of fields are allocated once per call, so the memory held
    does not depend on thread timing: all 95 chunks of five substreams are
    computed in the two workers' workspaces."""
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    real = montecarlo._vertex_action
    seen = set()

    def spy(*args):
        seen.add(id(args[-1]))
        return real(*args)

    monkeypatch.setattr(montecarlo, "_vertex_action", spy)
    mc_boltzmann("sphere", sphere_geometry(2), 0.04, 64, 20480, 1)
    assert len(seen) == 2


def test_errors_reach_the_caller_and_stop_the_pool(monkeypatch):
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    threads = threading.active_count()
    calls = []
    real = montecarlo._vertex_action

    def failing(*args):
        calls.append(1)
        if len(calls) >= 5:  # workers append concurrently
            raise RuntimeError("vertex failed in a worker")
        return real(*args)

    monkeypatch.setattr(montecarlo, "_vertex_action", failing)
    with pytest.raises(RuntimeError, match="vertex failed in a worker"):
        mc_boltzmann("sphere", SPHERE0, 0.02, 16, 20000, seed=1)
    assert threading.active_count() == threads
    monkeypatch.setattr(montecarlo, "_vertex_action", real)

    def stop(count, mean, stderr):
        raise KeyError(f"stopped at {count}")

    with pytest.raises(KeyError, match="stopped at 8192"):
        mc_boltzmann("sphere", SPHERE0, 0.02, 16, 20000, seed=1, on_batch=stop)
    assert threading.active_count() == threads
