"""Stochastic cross-check of the analytic engine.

Zero-mode-free periodic Gaussian paths are sampled directly in Fourier
space: the real and imaginary parts of each positive-frequency coefficient
are independent normals with variance 1/(2 beta omega_m^2), which
reproduces the two-point kernel of the free action exactly. Each call checks
beta and M by building one PeriodicPropagator first, which gives the
frequencies and the spread of the draw (mode_sd). A block of samples is drawn
as unscaled standard normals into one float array, the real parts of every
mode first and the imaginary parts second; the spread is applied where the
half spectra are built (_to_grid), or where complex modes are formed (_modes).

Vertex integrals are exact, so the only error is statistical. Vertices with
the same slots are summed into one term first, each coefficient times its
prefactor, so every catalog has one quadratic term. A cubic or quartic term
is a product of at most four trigonometric polynomials of degree M, with
frequencies up to 4M, so a uniform grid of any K > 4M points integrates it
exactly; the grid is the smallest such K whose only prime factors are 2 and
3 (72, 144, 288 points at M = 16, 32, 64), a fast FFT length. q and qd come
from one inverse FFT of their zero-padded half spectra, written from the
normals by four real products (sd re and -sd im for q, omega sd im and
omega sd re for qd), each rounded once, as conj(xi) and conj(-i omega xi)
would be. The coefficient is applied as a D^2 x D^2 (or D^2 x D) matrix to
pair products of the fields.
A quadratic term needs no grid at all: by Parseval,
int q^a q^b = 2 beta sum_m Re xi^a_m conj(xi^b_m), one real sum over the
(Re, Im) float view of the modes.

Estimates are reproducible: streams derive from a counter-based Philox
generator keyed by the user seed, and batch substreams are spawned
deterministically, each made only when the pipeline reaches it, so a fixed
seed gives bit-identical results regardless of batch size. Means and
variances are merged batch by batch (Chan et al.), which keeps the variance
accurate when the mean is large against the spread.

Every estimator runs one pipeline (_stream) on every CPU of the process's
affinity mask. Its output is bit-identical at any worker count, no thread it
starts outlives the call, and an error anywhere in it stops the draw and is
raised on the calling thread.
"""
from __future__ import annotations

import functools
import math
import os
import queue
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .geometry import PointGeometry
from .propagator import PeriodicPropagator
from .wick import Vertex, vertex_catalog

__all__ = ["McEstimate", "mc_vertex_expectation", "mc_boltzmann", "mc_two_point"]


def _grid_size(M: int) -> int:
    """Points of the integration grid at cutoff M: the smallest K > 4M whose
    only prime factors are 2 and 3, exact for products of four fields."""
    best, power3 = None, 1
    while best is None or power3 < best:     # K = 2^a 3^b, smallest over b
        K = power3
        while K <= 4 * M:
            K *= 2
        best = K if best is None else min(best, K)
        power3 *= 3
    return best


@dataclass
class McEstimate:
    mean: float
    stderr: float
    n_samples: int
    seed: int
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"mean": self.mean, "stderr": self.stderr,
               "n_samples": self.n_samples, "seed": self.seed}
        out.update(self.extras)
        return out


class _Moments:
    """Count, mean and summed squared deviations of a stream of samples,
    merged one batch at a time by the pairwise update of Chan, Golub and
    LeVeque. Trailing axes of a batch are independent quantities."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x: np.ndarray) -> None:
        """Merge a batch; samples beyond the float64 range at extreme beta
        give a non-finite mean or m2, which callers reject or report."""
        n = x.shape[0]
        total = self.count + n
        with np.errstate(over="ignore", invalid="ignore"):
            mean = x.mean(axis=0)
            m2 = np.square(x - mean).sum(axis=0)
            delta = mean - self.mean
            self.mean = self.mean + delta * (n / total)
            self.m2 = self.m2 + m2 + delta**2 * (self.count * n / total)
        self.count = total

    def variance(self):
        return self.m2 / self.count

    def stderr(self):
        return np.sqrt(self.variance() / self.count)


def _block_size(D: int, M: int) -> int:
    """Samples per PRNG stream; a function of the run shape only, so that a
    fixed seed reproduces results bit for bit at any memory budget. The 8M
    is fixed, not the integration grid: the block size decides which
    substream draws each sample, so changing it would change the stream."""
    return max(128, min(8192, (1 << 22) // max(1, D * 8 * M)))


def _draw_modes(rng: np.random.Generator, nbatch: int, D: int, M: int,
                out=None, edges=None, ready=None) -> np.ndarray:
    """(2, nbatch, D, M) standard normals, in out when given: the real parts of
    the modes of nbatch samples, then their imaginary parts. Mode m is
    mode_sd()[m] times re + i im (_modes); _to_grid applies the spread itself.

    With edges, the imaginary parts are drawn rows edges[i]:edges[i + 1] at
    a time, and ready(lo, hi), when given, is called as soon as rows lo:hi
    of both halves are drawn. Each draw continues the Philox stream of the
    last, so the normals keep their bits whatever the edges."""
    block = np.empty((2, nbatch, D, M)) if out is None else out
    rng.standard_normal(out=block[0])
    edges = (0, nbatch) if edges is None else edges
    for lo, hi in zip(edges, edges[1:]):
        rng.standard_normal(out=block[1, lo:hi])
        if ready is not None:
            ready(lo, hi)
    return block


def _modes(normals: np.ndarray, p: PeriodicPropagator) -> np.ndarray:
    """The (nbatch, D, M) complex modes of a _draw_modes block: each normal
    times its mode's spread, as rng.normal(0.0, sd) would scale it."""
    sd = p.mode_sd()
    modes = np.empty(normals.shape[1:], dtype=complex)
    for part, half in zip((modes.real, modes.imag), normals):
        np.multiply(half, sd, out=part)
    return modes


def _to_grid(normals: np.ndarray, p: PeriodicPropagator, K: int, out=None,
             spectrum=None) -> np.ndarray:
    """The field q and its derivative qd on the uniform grid tau_j = j beta / K,
    as one (2, nbatch, D, K) array (in out, when given), from the (2, nbatch,
    D, M) normals of _draw_modes.

    xi(tau) = sum_{m>0} [xi_m e^{-i omega_m tau} + conj], realized by one
    half-spectrum inverse FFT of both fields; the derivative multiplies modes
    by -i omega_m. spectrum, when given, is a (2, nbatch, D, K//2+1) array
    zero outside m = 1..M, so only the modes are written to it.
    """
    _, nbatch, D, M = normals.shape
    if K < 2 * M + 2:
        raise ValueError("grid too coarse for the mode content")
    X = np.zeros((2, nbatch, D, K // 2 + 1), dtype=complex) if spectrum is None else spectrum
    sd = p.mode_sd()
    omega = p.omega(np.arange(1, M + 1))
    field, derivative = X[..., 1:M + 1]
    # conj(xi) = sd re - i sd im and conj(-i omega xi) = omega sd im + i omega sd re,
    # each part one rounded product, as the complex conjugate and product give
    np.multiply(normals[0], sd, out=field.real)
    np.multiply(normals[1], -sd, out=field.imag)
    np.multiply(field.imag, -omega, out=derivative.real)
    np.multiply(field.real, omega, out=derivative.imag)
    return np.fft.irfft(X, n=K, axis=-1, norm="forward", out=out)


# Bytes of field, q and qd together, per chunk of samples (2 MB). A chunk is
# one task of _stream: its modes are transformed and every vertex is
# contracted on them at once (mc_two_point cuts by the same rule), so the
# fields of a whole substream are never held. A substream is cut into chunks
# of equal size, at least two per worker where each still holds _MIN_CHUNK
# samples, so that the last chunks keep every worker busy.
_CHUNK_BYTES = 1 << 21
_MIN_CHUNK = 256
_VARIANCE_GUARD = 1.0  # mc_boltzmann rejects a run whose action variance reaches it


def _workers() -> int:
    """Threads that compute the sample stream, the calling thread included:
    the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _substreams(D: int, M: int, n: int, seed: int) -> Iterator[tuple[np.random.Generator, int]]:
    """The sample stream as (Philox substream of the seed, sample count)
    pairs, _block_size(D, M) samples each and the rest in the last, each
    made only when it is reached: substream j is keyed by the j-th child
    that SeedSequence(seed).spawn gives."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    batch = _block_size(D, M)
    return ((np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(j,)))),
             min(batch, n - lo)) for j, lo in enumerate(range(0, n, batch)))


def _frame_coeff(coeff: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Convert a coordinate-frame coefficient tensor to the orthonormal frame.

    Sampled fields carry unit two-point kernel; coordinate fields are
    xi^mu = E^mu_a xi^a with E = L^-T and L the Cholesky factor of the metric.
    """
    out = coeff
    for axis in range(coeff.ndim):
        out = np.tensordot(out, E, axes=(0, 0))
    return out


# Elements of one pair-product block (256 kB): small sub-blocks of samples
# keep the contraction's temporaries in cache, and far smaller than q.
_CONTRACT_ELEMENTS = 1 << 15


class _Workspace:
    """The arrays one chunk of up to rows samples is written to: the half
    spectra of q and qd, zero-padded once here, their grid fields, a quadratic
    term's coefficient times the modes, and the pair products of one
    contraction block."""

    def __init__(self, rows: int, D: int, M: int, K: int):
        self.spectrum = np.zeros((2, rows, D, K // 2 + 1), dtype=complex)
        self.fields = np.empty((2, rows, D, K))
        self.quadratic = np.empty((rows, D, 2 * M))
        self.pairs = np.empty((3, max(1, _CONTRACT_ELEMENTS // (D * D * K)), D * D, K))


def _pair(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pair products a^i b^j of two (n, D, K) fields in the (n, D^2, K) out."""
    n, D, K = a.shape
    np.multiply(a[:, :, np.newaxis], b[:, np.newaxis], out=out.reshape(n, D, D, K))
    return out


def _terms(vertices, geom: PointGeometry, beta: float, M: int) -> list:
    """The vertices as one (slots, coefficient) term per slot signature: each
    vertex's orthonormal-frame coefficient (_frame_coeff) times its truncated
    prefactor, summed over the vertices with those slots."""
    E = np.linalg.inv(np.linalg.cholesky(geom.g).T)  # E[mu, a], once per call
    terms = {}
    for v in vertices:
        coeff = v.prefactor_truncated(beta, M) * _frame_coeff(v.coeff, E)
        terms[v.slots] = terms[v.slots] + coeff if v.slots in terms else coeff
    return list(terms.items())


def _vertex_action(slots: tuple, coeff: np.ndarray, spectrum: np.ndarray, fields: np.ndarray,
                   beta: float, M: int, ws=None) -> np.ndarray:
    """Per-sample action of one term of _terms: a quadratic one by Parseval
    from the half spectra (2, n, D, K//2+1) of q and qd, a cubic or quartic one
    from their grid fields (2, n, D, K) as a factored contraction, with
    temporaries in ws."""
    _, n, D, K = fields.shape
    ws = ws or _Workspace(n, D, M, K)
    if len(slots) == 2:
        # int f g = 2 beta sum_m Re f_m conj(g_m): the spectra hold conjugate
        # modes, and the sum runs on their float view of (Re, Im) pairs
        f, g = (spectrum[s, :, :, 1:M + 1].view(float) for s in slots)
        return 2.0 * beta * np.einsum("nak,nak->n", f, np.matmul(coeff, g, out=ws.quadratic[:n]))
    if K <= len(slots) * M:
        raise ValueError("grid too coarse for an exact vertex integral")
    matrix = coeff.reshape(D * D, -1)
    integral = np.empty(n)
    step = len(ws.pairs[0])
    for lo in range(0, n, step):
        f = [fields[s, lo:lo + step] for s in slots]
        rows = len(f[0])
        left = _pair(f[0], f[1], ws.pairs[0, :rows])
        if len(f) == 3:
            right = f[2]
        else:  # a repeated pair, as in (q.qdot)^2, is formed once
            right = left if slots[2:] == slots[:2] else _pair(f[2], f[3], ws.pairs[1, :rows])
        product = np.matmul(matrix, right, out=ws.pairs[2, :rows])
        integral[lo:lo + rows] = np.einsum("ij,ij->i", left.reshape(rows, -1),
                                           product.reshape(rows, -1))
    return integral * (beta / K)


def _chunk_action(terms, p: PeriodicPropagator, normals: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Summed per-sample action of the _terms on one chunk, the (2, n, D, M)
    normals of its modes, from fields on the exact grid written to ws."""
    n = normals.shape[1]
    # an overflow at extreme beta ends as a non-finite variance, which the guard rejects
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = ws.spectrum[:, :n]
        fields = _to_grid(normals, p, ws.fields.shape[-1], ws.fields[:, :n], spectrum)
        a = np.zeros(n)
        for slots, coeff in terms:
            a += _vertex_action(slots, coeff, spectrum, fields, p.beta, p.M, ws)
    return a


def _stream(D: int, p: PeriodicPropagator, n: int, seed: int, work, consume,
            workspace=None) -> None:
    """Pass consume work's per-sample results on each substream of the sample
    stream, in order: the one pipeline of every estimator.

    The calling thread draws each substream's normals into one of two float
    slots, used in turn, and cuts them into equal chunks (see _CHUNK_BYTES):
    the real parts whole, then the imaginary parts one chunk's rows at a
    time, putting each chunk with its Future on a FIFO once its rows are
    drawn. threads - 1 helper threads, one fewer than the CPUs or chunks and
    all started at once, take chunks from the FIFO, oldest first, while the
    draw goes on (NumPy releases the GIL in the draw, FFT, matmul and
    einsum). After drawing substream j, the calling thread takes chunks
    beside them until substream j - 1 is done, then merges its results in
    order; a slot is redrawn only after its substream was consumed. So at
    most one thread per CPU computes, and a call of one chunk, or on one
    CPU, starts no thread. work(normals, ws) computes a chunk from its
    (2, rows, D, M) normals, each sample by the same operations on any
    thread, so the output keeps its bits at any worker count. The calling
    thread allocates the arrays once: the slots and, given workspace, one
    workspace(rows) per computing thread sized to the largest chunk, passed
    as ws to each chunk that thread computes (else ws is None); so the
    memory held does not depend on thread timing. Once a chunk, the draw or
    consume raises, no chunk starts and nothing more is drawn, and every
    helper has returned before the error leaves."""
    from concurrent.futures import Future, wait  # not at import time
    M = p.M
    streams = _substreams(D, M, n, seed)
    rows = max(1, _CHUNK_BYTES // (2 * D * _grid_size(M) * 8))
    available = _workers()

    def cut(size):
        """Chunks of a substream of size samples."""
        return max(-(-size // rows), min(2 * available, size // _MIN_CHUNK))

    batch = _block_size(D, M)
    full, rest = divmod(n, batch)
    sizes = [batch] * (full > 0) + [rest] * (rest > 0)  # every substream has one of these
    largest = max(-(-size // cut(size)) for size in sizes)
    threads = min(available, full * cut(batch) + (rest > 0) * cut(rest))
    slots = np.empty((min(2, full + (rest > 0)), 2, sizes[0], D, M))
    spaces = [None if workspace is None else workspace(largest) for _ in range(threads)]
    unclaimed = queue.SimpleQueue()  # (future, normals) of chunks not yet taken; None ends a helper
    stop = []  # what a chunk raised, then None once the call ends: no chunk starts after either

    def run(future, normals, ws):
        try:
            future.set_result(None if stop else work(normals, ws))
        except BaseException as exc:  # raised again on the calling thread
            stop.append(exc)
            future.set_exception(exc)  # done, which wakes wait (a cancel would not)

    def helper(ws):
        for claimed in iter(unclaimed.get, None):
            run(*claimed, ws)
        unclaimed.put(None)  # for the next helper

    def publish(futures, normals):
        if stop:
            raise stop[0]
        futures.append(Future())
        unclaimed.put((futures[-1], normals))

    def complete(futures):
        while not (stop or all(future.done() for future in futures)):
            try:
                run(*unclaimed.get_nowait(), spaces[0])
            except queue.Empty:  # the helpers run the rest of the substream
                wait(futures)
        if stop:
            raise stop[0]
        consume(np.concatenate([future.result() for future in futures]))

    helpers, pending = [], []  # pending: the futures of substream j - 1, then of j
    try:
        for ws in spaces[1:]:  # a helper takes chunks from the FIFO until the call ends
            thread = threading.Thread(target=helper, args=(ws,))
            thread.start()
            helpers.append(thread)  # once started: the finally joins every listed helper
        for j, (rng, size) in enumerate(streams):
            normals, chunks = slots[j % len(slots), :, :size], cut(size)
            pending.append([])
            _draw_modes(rng, size, D, M, normals, [size * i // chunks for i in range(chunks + 1)],
                        lambda lo, hi: publish(pending[-1], normals[:, lo:hi]))
            if len(pending) == 2:
                complete(pending.pop(0))
        complete(pending.pop())
    finally:  # every helper returns before an error leaves
        stop.append(None)
        unclaimed.put(None)
        for thread in helpers:
            thread.join()


def _actions(vertices, geom: PointGeometry, p: PeriodicPropagator, n: int, seed: int,
             consume) -> None:
    """Pass consume the summed per-sample action of the vertices on each
    substream of the sample stream, in order: _stream with _chunk_action on
    a _Workspace per computing thread."""
    D, K = geom.dim, _grid_size(p.M)
    terms = _terms(vertices, geom, p.beta, p.M)
    _stream(D, p, n, seed, functools.partial(_chunk_action, terms, p), consume,
            lambda rows: _Workspace(rows, D, p.M, K))


def mc_vertex_expectation(v: Vertex, geom: PointGeometry, beta: float, M: int,
                          n: int, seed: int) -> McEstimate:
    """Unbiased estimate of the first-order expectation of one vertex.

    Converges to the cutoff-M value (expect_first_order_truncated), which
    differs from the counter-table limit by the O(1/M) coincidence tail.
    """
    acc = _Moments()
    _actions([v], geom, PeriodicPropagator(beta, M), n, seed, acc.add)
    return McEstimate(mean=float(acc.mean), stderr=float(acc.stderr()),
                      n_samples=acc.count, seed=seed)


def mc_boltzmann(route: str, geom: PointGeometry, beta: float, M: int, n: int,
                 seed: int, on_batch=None) -> McEstimate:
    """Monte Carlo Boltzmann factor for one route's truncated vertex set.

    The primary estimate is the catalog-order-consistent 1 - <A>; the raw
    reweighting average <exp(-A)> is reported alongside, but at finite
    cutoff it picks up variance terms of order beta^2 M^2 that lie beyond
    the catalog truncation, so it is a diagnostic, not the headline number.
    The guard rejects runs whose action variance makes reweighting useless.
    on_batch(count, mean, stderr), when given, streams running partials.
    """
    p = PeriodicPropagator(beta, M)
    action = _Moments()
    weight = _Moments()

    def merge(a):
        action.add(a)
        with np.errstate(over="ignore"):  # exp(-a) of a large negative action
            weight.add(np.exp(-a))
        if on_batch is not None:
            on_batch(action.count, 1.0 - float(action.mean), float(action.stderr()))

    _actions(vertex_catalog(geom, beta, route), geom, p, n, seed, merge)
    var_a = float(action.variance())
    if not var_a < _VARIANCE_GUARD:
        size = (f"{var_a:.3f} >= {_VARIANCE_GUARD}" if math.isfinite(var_a)
                else "leaves the float64 range")
        raise ValueError(f"action variance {size}: reweighting unreliable; "
                         "use a smaller beta or a larger cutoff")
    est = McEstimate(mean=1.0 - float(action.mean), stderr=float(action.stderr()),
                     n_samples=action.count, seed=seed)
    est.extras = {
        "action_mean": float(action.mean),
        "action_variance": var_a,
        "exp_reweighted_mean": float(weight.mean),
        "exp_reweighted_stderr": float(weight.stderr()),
    }
    return est


def mc_two_point(beta: float, M: int, D: int, n: int, seed: int,
                 pairs: list[tuple[float, float]]) -> list[dict]:
    """Empirical <xi(tau) . xi(tau')>/D at probe pairs against the kernel.

    Probe times are rounded to the lattice tau_j = j beta / 8M, and the
    fields there are summed directly from the modes: the two-point case of
    _stream, whose chunks need no workspace."""
    p = PeriodicPropagator(beta, M)
    if D < 1:
        raise ValueError(f"dimension D must be >= 1, got {D}")
    K = 8 * M
    idx = np.array([(int(round(t1 / beta * K)) % K, int(round(t2 / beta * K)) % K)
                    for t1, t2 in pairs]).reshape(-1, 2)
    # e^{-i omega_m tau_j} at each probe; the phase m j is reduced mod K first
    phase = np.outer(np.arange(1, M + 1), idx.ravel()) % K
    basis = np.exp(-2j * math.pi * phase / K)

    def products(normals, ws):
        """The probe products of one chunk of samples."""
        q = 2.0 * np.matmul(_modes(normals, p), basis).real.reshape(
            normals.shape[1], D, len(idx), 2)
        return (q[..., 0] * q[..., 1]).sum(axis=1) / D

    acc = _Moments()
    _stream(D, p, n, seed, products, acc.add)
    means, stderrs = acc.mean, acc.stderr()
    return [{"tau": t1, "taup": t2, "mean": float(means[k]), "stderr": float(stderrs[k]),
             "expected": p.green_modes((i1 - i2) * beta / K)}
            for k, ((t1, t2), (i1, i2)) in enumerate(zip(pairs, idx.tolist()))]
