"""Fixed-design regression theory and the synthetic experiments validating it.

Covers the exact expected risk gap between a compressed and an uncompressed
design matrix, the Lipschitz-loss upper bound on that gap, the quantization
overlap bound with its per-sample perturbation form, plus the matrix
generators and Monte-Carlo harnesses used to check all of the above.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .compress import QuantizationGrid, compressor, decompress, quantize_codes
from .linalg import (
    LinalgError,
    _row_blocks,
    _run_row_blocks,
    _usable_cores,
    as_matrix,
    det_sum,
    max_abs,
    sq_fro_diff,
    sq_fro_norm,
)
from .measures import (
    PreparedBase,
    RankDeficiencyWarning,
    _Candidate,
    _pip_from_blocks,
    quality_report,
)
from .rng import CounterRng


@dataclass(frozen=True)
class LabelModel:
    """Distribution of the true-label coefficient vector and the noise level.

    ``covariance`` is None for the identity case or an explicit symmetric PSD
    matrix.  The noise variance is derived, never stored:
    sigma^2 = noise_ratio^2 * trace(covariance) / n.
    """

    covariance: np.ndarray | None = None
    noise_ratio: float = 0.0

    def __post_init__(self):
        if self.noise_ratio < 0:
            raise ValueError(f"noise_ratio must be >= 0, got {self.noise_ratio}")
        if self.covariance is not None:
            cov = as_matrix(self.covariance, "covariance")
            if cov.shape[0] != cov.shape[1]:
                raise ValueError(f"covariance must be square, got {cov.shape}")
            scale = max(1.0, float(np.max(np.abs(cov))))
            if float(np.max(np.abs(cov - cov.T))) > 1e-10 * scale:
                raise ValueError("covariance is not symmetric within 1e-10")
            if float(np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T)))) < -1e-10 * scale:
                raise ValueError("covariance is not positive semidefinite")
            object.__setattr__(self, "covariance", cov)

    def check_dim(self, d: int) -> None:
        if self.covariance is not None and self.covariance.shape[0] != d:
            raise ValueError(
                f"covariance is {self.covariance.shape[0]}x{self.covariance.shape[0]}, "
                f"but the design has {d} retained directions"
            )

    def trace(self, d: int) -> float:
        if self.covariance is None:
            return float(d)
        return float(np.trace(self.covariance))

    def lambda_min(self) -> float:
        if self.covariance is None:
            return 1.0
        return float(np.min(np.linalg.eigvalsh(self.covariance)))

    def sqrt_factor(self) -> np.ndarray | None:
        """Symmetric PSD square root for sampling z = S g, or None for
        identity covariance."""
        if self.covariance is None:
            return None
        vals, vecs = np.linalg.eigh(self.covariance)
        vals = np.clip(vals, 0.0, None)
        return (vecs * np.sqrt(vals)) @ vecs.T

    def sigma2(self, n: int, d: int) -> float:
        return self.noise_ratio**2 * self.trace(d) / n


@dataclass(frozen=True)
class ExperimentResult:
    """A Monte-Carlo estimate next to its theoretical counterpart."""

    estimate: float
    std_error: float
    theory_value: float
    theory_kind: str  # "exact_identity" or "upper_bound"
    trials: int
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def _check_full_rank(rank: int, cols: int, name: str) -> None:
    if rank < cols:
        raise LinalgError(f"{name} is rank-deficient (numerical rank {rank} < {cols} columns)")


def _full_rank_base(X) -> PreparedBase:
    """X factored once; a rank-deficient X is refused, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        base = PreparedBase(X)
    _check_full_rank(base.rank, base.X.shape[1], "X")
    return base


def exact_expected_gap(X, Xt, model: LabelModel) -> float:
    """Exact expectation of risk(Xt) - risk(X) over random true labels drawn
    in the column span of X.

    Identity covariance gives (1/n)(d - ||Ut^T U||_F^2) - (d-k) sigma^2 / n;
    a general covariance replaces the cross term with ||Ut^T U S||_F^2 for
    S the PSD square root.
    """
    return _exact_gap(*_full_rank_pair(X, Xt, model), model)


def _full_rank_pair(X, Xt, model: LabelModel) -> tuple[PreparedBase, _Candidate]:
    """(base, candidate): each design factored once, both of full column
    rank, with the label model sized to X; the labels, the projections, the
    exact gap and the bounds all read these factors."""
    base = _full_rank_base(X)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)  # refused just below
        c = base._candidate(Xt)
    _check_full_rank(c.rank, c.Xt.shape[1], "Xt")
    model.check_dim(base.X.shape[1])
    return base, c


def _exact_gap(base: PreparedBase, c: _Candidate, model: LabelModel) -> float:
    n, d = base.X.shape
    k = c.Xt.shape[1]
    M = base._bases_product(c)  # Ut^T U
    S = model.sqrt_factor()
    if S is not None:  # ||Ut^T U S||_F
        M = M @ S
    return (model.trace(d) - sq_fro_norm(M)) / n - (d - k) * model.sigma2(n, d) / n


def expected_gap_upper_bound(X, Xt, model: LabelModel) -> float:
    """Upper bound on the exact gap in terms of the overlap score:
    (trace(Sigma) - d lambda_min(Sigma) overlap)/n - c^2 trace(Sigma)(d-k)/n^2.
    ``X`` may be a :class:`PreparedBase`."""
    base = _prepared(X)
    c = base._candidate(Xt)
    n, d = base.X.shape
    tr, shortfall = _overlap_terms(base, c, model)
    return shortfall / n - model.noise_ratio**2 * tr * (d - c.Xt.shape[1]) / n**2


def _prepared(X) -> PreparedBase:
    return X if isinstance(X, PreparedBase) else PreparedBase(X)


def _overlap_terms(base: PreparedBase, c: _Candidate, model: LabelModel) -> tuple[float, float]:
    """trace(Sigma) and trace(Sigma) - d lambda_min(Sigma) overlap(X, Xt), the
    terms of both overlap bounds, with the model checked against X's width."""
    d = base.X.shape[1]
    model.check_dim(d)
    tr = model.trace(d)
    return tr, tr - d * model.lambda_min() * base._overlap(c)


def lipschitz_gap_bound(X, Xt, L: float, model: LabelModel) -> float:
    """Upper bound on the expected risk gap for an L-Lipschitz convex loss:
    (L/sqrt(n)) (sqrt(trace(Sigma) - d lambda_min(Sigma) overlap)
    + 2 c sqrt(trace(Sigma))).  ``X`` may be a :class:`PreparedBase`."""
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    base = _prepared(X)
    return _lipschitz_bound(base, base._candidate(Xt), L, model)


def _lipschitz_bound(base: PreparedBase, c: _Candidate, L: float, model: LabelModel) -> float:
    tr, shortfall = _overlap_terms(base, c, model)
    return (L / math.sqrt(base.X.shape[0])) * (
        math.sqrt(max(shortfall, 0.0)) + 2.0 * model.noise_ratio * math.sqrt(tr)
    )


def uniform_overlap_bound(bits: int, a: float) -> float:
    """Bound on the expected overlap shortfall of a stochastic b-bit
    quantization of a matrix with entries in [-1/sqrt(d), 1/sqrt(d)] and
    smallest singular value a*sqrt(n/d): 20 / ((2^b - 1)^2 a^4).

    Values above 1 are vacuous; the raw value is returned so callers can see
    by how much.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if not 0 < a <= 1:
        raise ValueError(f"a must be in (0, 1], got {a}")
    return 20.0 / (((1 << bits) - 1) ** 2 * a**4)


def conditioning_scalar(X) -> float:
    """The scalar a with s_min(X) = a * sqrt(n/d).  ``X`` may be a
    :class:`PreparedBase`."""
    base = _prepared(X)
    return float(base.s[-1] / math.sqrt(base.X.shape[0] / base.X.shape[1]))


def davis_kahan_sample_bound(X, Xt) -> float:
    """Per-sample perturbation bound on the overlap shortfall:
    ||Xt Xt^T - X X^T||_F^2 / (d * s_min(X)^4), valid under the eigenvalue
    separation conditions of the sin-theta inequality.  ``X`` may be a
    :class:`PreparedBase`, whose ||X^T X||_F^2 is then formed once for all
    candidates."""
    base = _prepared(X)
    X, Xt = base.X, as_matrix(Xt, "Xt")
    if X.shape != Xt.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Xt.shape}")
    _check_full_rank(base.rank, X.shape[1], "X")
    return _davis_kahan(base, Xt.T @ Xt, X.T @ Xt)


def _davis_kahan(base: PreparedBase, G: np.ndarray, C: np.ndarray) -> float:
    """The Davis-Kahan bound from G = Xt^T Xt and C = X^T Xt."""
    pip = _pip_from_blocks(base.sq_gram_norm, G, C)
    return pip**2 / (base.X.shape[1] * float(base.s[-1]) ** 4)


# ---------------------------------------------------------------------------
# matrix generators


def _by_row_blocks(n: int, d: int, fill, threads: int = 1) -> np.ndarray:
    """An n x d matrix written in the row blocks of
    :func:`~embcompress.linalg._row_blocks`, up to ``threads`` at a time:
    ``fill(i0, i1, out)`` writes rows i0:i1 into ``out``.  The generators key
    their counters by row, so the bytes depend on neither the blocking nor
    ``threads``, and no temporary outgrows one block.  Only the Student-t
    draw runs on threads: the other generators are memory-bound."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    X = np.empty((n, d))
    _run_row_blocks(n, d, lambda i0, i1: fill(i0, i1, X[i0:i1]), threads)
    return X


def gen_uniform_matrix(n: int, d: int, seed: int) -> np.ndarray:
    """n x d matrix with i.i.d. entries uniform on [-1/sqrt(d), 1/sqrt(d)],
    reproducible from the seed alone."""
    rng = CounterRng(seed)
    root_d = math.sqrt(d)

    def fill(i0, i1, out):
        np.multiply(rng.uniform_block(i1 - i0, d, row0=i0), 2.0, out=out)
        out -= 1.0
        out /= root_d

    return _by_row_blocks(n, d, fill)


def gen_scaled_matrix(n: int, d: int, decay_min: float, seed: int) -> np.ndarray:
    """Uniform matrix with columns rescaled by log-spaced factors from 1 down
    to ``decay_min``, producing progressively worse-conditioned designs."""
    if not 0 < decay_min <= 1:
        raise ValueError(f"decay_min must be in (0, 1], got {decay_min}")
    X = gen_uniform_matrix(n, d, seed)
    X *= np.logspace(0.0, math.log10(decay_min), d)
    return X


def gen_student_t_matrix(n: int, d: int, df: float, scale: float, seed: int) -> np.ndarray:
    """Heavy-tailed n x d matrix with i.i.d. scaled Student-t entries,
    generated by inverse-CDF transform of counter-based uniforms."""
    if df <= 0 or scale <= 0:
        raise ValueError("df and scale must be positive")
    import scipy.special

    rng = CounterRng(seed)

    def fill(i0, i1, out):
        scipy.special.stdtrit(df, rng.uniform_block(i1 - i0, d, row0=i0), out=out)
        out *= scale

    return _by_row_blocks(n, d, fill, _usable_cores())


def stochastic_quantize_full_range(X, bits: int, seed: int) -> np.ndarray:
    """Stochastic b-bit quantization over the fixed interval
    [-1/sqrt(d), 1/sqrt(d)], with no clipping or threshold search.

    This is the exact setting of the overlap bound: entries already live in
    the interval, and the rounding variance obeys the (spacing/2)^2 cap.
    It is the decompressed ``compressor(bits=bits)`` candidate of X.
    """
    return decompress(compressor(bits=bits)(X, seed))


# ---------------------------------------------------------------------------
# Monte-Carlo harnesses


# simulate_regression_gap forms the labels of about this many scalars at a time
_LABEL_BLOCK = 1 << 20


def _trial_block(n: int, trials: int) -> int:
    """Trials per label block of :func:`simulate_regression_gap`: about
    ``_LABEL_BLOCK / n``, rounded down to a multiple of 64 and at least 64,
    or all of them.  A multiple of 64 starts each block where the GEMM
    kernels of the whole n x trials product start a column tile, so every
    gap keeps the sums of that product bit for bit; blocks of 7 or 500
    trials moved gaps in their last digits (2e-14 relative at n = 2000,
    d = 50; OpenBLAS, 1 and 2 threads)."""
    return min(trials, max(64, _LABEL_BLOCK // n // 64 * 64))


def _check_trials(trials: int) -> None:
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")


def _label_coefficients(rng: CounterRng, S: np.ndarray | None, rows: int, d: int,
                        row0: int = 0) -> np.ndarray:
    """(rows, d) coefficient draws z of trials row0..row0+rows-1, keyed by
    trial: S g for standard normal g, or g when S (the model's
    :meth:`~LabelModel.sqrt_factor`) is None."""
    Z = rng.normal_block(rows, d, row0=row0)
    return Z if S is None else Z @ S  # S symmetric, so rows become S g


def simulate_regression_gap(
    X, Xt, model: LabelModel, trials: int, seed: int
) -> ExperimentResult:
    """Monte-Carlo check of the exact squared-loss gap identity.

    Each trial draws a coefficient vector z, forms the true labels in the
    span of X, and evaluates the closed-form risks of both designs; the noise
    average is already integrated into the closed form, so no noise draws are
    needed.  Trials are keyed by (seed, trial) counters, so the estimate does
    not depend on scheduling.  The labels are formed one block of trials at
    a time (:func:`_trial_block`), so memory grows with n times the block,
    not with n times ``trials``.
    """
    _check_trials(trials)
    rng = CounterRng(seed).substream(0)
    base, c = _full_rank_pair(X, Xt, model)
    n, d = base.X.shape
    k = c.Xt.shape[1]
    S = model.sqrt_factor()
    gaps = np.empty(trials)
    block = _trial_block(n, trials)
    for j0 in range(0, trials, block):
        j1 = min(j0 + block, trials)
        Ybar = base.basis.B @ base.basis.lift(_label_coefficients(rng, S, j1 - j0, d, j0).T)
        proj_x = base.basis.project(Ybar)
        proj_t = c.basis.project(Ybar)
        np.subtract(np.sum(proj_x * proj_x, axis=0), np.sum(proj_t * proj_t, axis=0),
                    out=gaps[j0:j1])
    gaps += (k - d) * model.sigma2(n, d)
    gaps /= n
    return _experiment_result(
        gaps, _exact_gap(base, c, model), "exact_identity", base.X, c.Xt, model, seed
    )


def _experiment_result(gaps, theory_value: float, theory_kind: str, X, Xt, model: LabelModel,
                       seed: int, **config) -> ExperimentResult:
    return ExperimentResult(
        estimate=float(np.mean(gaps)),
        std_error=float(np.std(gaps, ddof=1) / math.sqrt(gaps.size)),
        theory_value=theory_value,
        theory_kind=theory_kind,
        trials=gaps.size,
        config={
            "n": X.shape[0],
            "d": X.shape[1],
            "k": Xt.shape[1],
            "noise_ratio": model.noise_ratio,
            **config,
            "covariance": "identity" if model.covariance is None else "explicit",
            "seed": seed,
        },
    )


@dataclass(frozen=True)
class GdConfig:
    """Full-batch gradient descent settings for the logistic fit.

    The fit minimizes the logistic loss summed over the n rows, whose
    gradient is L-smooth with L = sigma_max(X)^2 / 4.  ``step`` is the
    initial step and defaults to 1/L = 4 / sigma_max(X)^2.  A trial step is
    accepted only when it lowers the loss by at least half the step times the
    squared gradient norm (Armijo backtracking) and is halved otherwise;
    after each accepted step the step doubles, so it follows the local
    curvature.  ``tol`` is the per-column gradient-norm stopping threshold
    and defaults to 1e-6 * n; ``max_steps`` caps the gradient steps.
    """

    step: float | None = None
    tol: float | None = None
    max_steps: int = 100_000

    def __post_init__(self):
        for name in ("step", "tol"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, Real)
                                      or not (math.isfinite(value) and value > 0)):
                raise ValueError(f"GdConfig.{name} must be a finite number > 0, got {value!r}")
        if isinstance(self.max_steps, bool) or not isinstance(self.max_steps, Integral) \
                or self.max_steps < 1:
            raise ValueError(f"GdConfig.max_steps must be an int >= 1, got {self.max_steps!r}")


def _sigmoid(z):
    import scipy.special

    return scipy.special.expit(z)


def _cross_entropy(Z: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Elementwise cross-entropy of Bernoulli(sigmoid(Z)) against targets of
    probability P, in logits form: log(1 + e^Z) - P Z."""
    loss = np.logaddexp(0.0, Z)
    loss -= P * Z
    return loss


def _fit_logistic_gd(X: np.ndarray, Y: np.ndarray, gd: GdConfig, smax: float) -> np.ndarray:
    """Minimize the summed logistic loss for each column of Y; returns the
    (d, T) weight block.  Shared adaptive step, per-column convergence.
    ``smax`` is sigma_max(X), from the factors the caller already holds."""
    n, d = X.shape
    Y2 = Y if Y.ndim == 2 else Y[:, None]
    tol = gd.tol if gd.tol is not None else 1e-6 * n
    step = gd.step if gd.step is not None else 4.0 / smax**2

    P = _sigmoid(Y2)
    W = np.zeros((d, Y2.shape[1]))
    Z = np.zeros(Y2.shape)  # X @ W
    total = det_sum(_cross_entropy(Z, P))
    increases = 0
    for _ in range(gd.max_steps):
        G = X.T @ (_sigmoid(Z) - P)
        G2 = G * G
        if float(np.max(np.sqrt(np.sum(G2, axis=0)))) <= tol:
            break
        g2 = det_sum(G2)
        while True:
            W_new = W - step * G
            Z_new = X @ W_new
            new_total = det_sum(_cross_entropy(Z_new, P))
            # a NaN loss fails the test and halves the step like a rise
            if new_total <= total - 0.5 * step * g2 or step < 1e-20:
                break
            step *= 0.5
        if new_total > total:
            increases += 1
            if increases >= 20:
                raise LinalgError(
                    "gradient descent diverged: loss increased on 20 consecutive steps"
                )
        else:
            increases = 0
        W, Z, total = W_new, Z_new, new_total
        step = min(2.0 * step, sys.float_info.max)  # kept finite, so halving always ends
    else:
        warnings.warn(
            f"gradient descent stopped at max_steps={gd.max_steps} before "
            f"reaching the gradient tolerance {tol:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return W


def simulate_lipschitz_gap(
    X,
    Xt,
    model: LabelModel,
    trials: int,
    seed: int,
    gd: GdConfig | None = None,
    L: float = 1.0,
) -> ExperimentResult:
    """Monte-Carlo estimate of the logistic-loss risk gap against its upper
    bound.

    Each trial draws (z, noise), fits logistic models on both designs against
    the noisy logits, and scores the mean test loss against the true logits.
    """
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    _check_trials(trials)
    rng = CounterRng(seed)
    base, c = _full_rank_pair(X, Xt, model)
    X, Xt = base.X, c.Xt
    n, d = X.shape
    gd = gd or GdConfig()
    Z = _label_coefficients(rng.substream(0), model.sqrt_factor(), trials, d).T
    Ybar = base.basis.B @ base.basis.lift(Z)
    Y = Ybar + math.sqrt(model.sigma2(n, d)) * rng.substream(1).normal_block(trials, n).T

    # sigma_max of Xt is the root of the largest eigenvalue of the G = Xt^T Xt it holds
    W = _fit_logistic_gd(X, Y, gd, float(base.s[0]))
    Wt = _fit_logistic_gd(Xt, Y, gd, math.sqrt(float(np.linalg.eigvalsh(c.G)[-1])))
    P = _sigmoid(Ybar)
    test_x = np.mean(_cross_entropy(X @ W, P), axis=0)
    test_t = np.mean(_cross_entropy(Xt @ Wt, P), axis=0)
    bound = _lipschitz_bound(base, c, L, model)
    return _experiment_result(test_t - test_x, bound, "upper_bound", X, Xt, model, seed, L=L)


# ---------------------------------------------------------------------------
# sweep experiments


# the base setting each sweep axis varies, and the kind of number its levels are
SCALING_KEYS = {"bits": ("bits", Integral), "scalar": ("decay_min", Real),
                "vocab": ("n", Integral), "dim": ("d", Integral)}
SCALING_AXES = tuple(SCALING_KEYS)


def scaling_base(n: int = 10_000, d: int = 10, bits: int = 2, decay_min: float = 1.0) -> dict:
    """The settings a scaling sweep holds fixed: an n x d uniform matrix, its
    columns decayed from 1 down to ``decay_min`` when that is below 1,
    quantized to ``bits`` bits.  Each sweep axis varies one of them."""
    return {"n": n, "d": d, "bits": bits, "decay_min": decay_min}


def scaling_experiment(axis: str, levels, base_config: dict, seeds) -> list[dict]:
    """Overlap-shortfall sweep along one axis (bits, column-decay scalar,
    vocabulary size, or dimension), from the :func:`scaling_base` settings
    that ``base_config`` leaves out.

    For each (level, seed): generate the matrix, stochastically quantize over
    the fixed full interval [-1/sqrt(d), 1/sqrt(d)] (the bound's setting, no
    clip search), and record 1 - overlap next to the bound evaluated at the
    measured conditioning scalar.
    """
    if axis not in SCALING_AXES:
        raise ValueError(f"axis must be one of {SCALING_AXES}, got {axis!r}")
    key, kind = SCALING_KEYS[axis]
    levels = list(levels)
    if not levels:
        raise ValueError("levels must be non-empty")
    for level in levels:
        if isinstance(level, bool) or not isinstance(level, kind):
            raise ValueError(f"{axis} levels must be {kind.__name__.lower()} numbers, got {level!r}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be non-empty")
    base = scaling_base(**(base_config or {}))

    rows = []
    for level in levels:
        for seed in seeds:
            cfg = {**base, key: level}
            n, d, bits = cfg["n"], cfg["d"], cfg["bits"]
            if cfg["decay_min"] < 1.0:
                X = gen_scaled_matrix(n, d, cfg["decay_min"], seed)
            else:
                X = gen_uniform_matrix(n, d, seed)
            Xt = stochastic_quantize_full_range(X, bits, CounterRng(seed).substream(1).seed)
            prepared = PreparedBase(X)
            a = min(conditioning_scalar(prepared), 1.0)
            bound = uniform_overlap_bound(bits, a) if a > 0 else math.inf
            rows.append({"axis": axis, "level": level, "seed": seed,
                         "one_minus_overlap": 1.0 - prepared.overlap(Xt), "bound": bound})
            del X, Xt, prepared  # so that the next draw does not overlap them
    return rows


def overlap_bound_experiment(X, bits: int, seeds, a: float | None = None) -> dict:
    """Quantization overlap bound check on one bounded, full-rank matrix.

    Per seed: 1 - overlap of a stochastic full-range quantization of X, next
    to the per-sample Davis-Kahan bound.  The overlap bound uses ``a``, or
    the measured conditioning scalar capped at 1.  X is factored once.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be non-empty")
    prepared = _full_rank_base(X)
    X = prepared.X
    a = min(conditioning_scalar(prepared), 1.0) if a is None else a
    bound = uniform_overlap_bound(bits, a)
    per_seed = []
    for s in seeds:
        c = prepared._candidate(stochastic_quantize_full_range(X, bits, int(s)))
        per_seed.append({"seed": int(s), "one_minus_overlap": 1.0 - prepared._overlap(c),
                         "davis_kahan_bound": _davis_kahan(prepared, c.G, c.C)})
    mean_gap = float(np.mean([row["one_minus_overlap"] for row in per_seed]))
    return {"a": a, "bound": bound, "bound_capped": min(bound, 1.0), "vacuous": bound > 1.0,
            "mean_one_minus_overlap": mean_gap, "per_seed": per_seed}


def clipping_curve(X, bits: int, rounding: str, r_grid, seed: int = 0) -> list[dict]:
    """Overlap and reconstruction error as functions of the clip threshold.

    Each grid point clips, quantizes at that threshold with the requested
    rounding, and records the overlap with the original plus ||Xt - X||_F.
    ``X`` may be a :class:`PreparedBase`, so that several curves on one
    matrix factor it once.
    """
    prepared = _prepared(X)
    X = prepared.X
    r_grid = np.asarray(r_grid, dtype=np.float64).ravel()
    xmax = max_abs(X)
    if r_grid.size == 0 or np.any(r_grid <= 0) or np.any(r_grid > xmax):
        raise ValueError("r_grid must lie in (0, max|X|]")
    rng = CounterRng(seed)
    Xt = np.empty(X.shape)  # each grid point's candidate, written over the last
    rows = []
    for i, r in enumerate(r_grid):
        grid, coins = QuantizationGrid(bits, float(r)), rng.substream(i)
        for i0, i1 in _row_blocks(*X.shape):  # coins keyed by row: the whole matrix's bytes
            Xt[i0:i1] = grid.values_for(quantize_codes(X[i0:i1], grid, rounding, coins, row0=i0))
        rows.append({"r": float(r), "overlap": prepared.overlap(Xt),
                     "recon_error": math.sqrt(sq_fro_diff(X, Xt))})
    return rows


def _random_orthonormal(n: int, d: int, rng: CounterRng) -> np.ndarray:
    G = rng.normal_block(n, d)
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.where(np.diag(R) == 0, 1.0, np.diag(R)))


def table4_perturbation(spectrum, n: int, seed: int) -> dict:
    """Zero out the top singular value of a synthetic matrix and compare the
    measured quality report against the closed forms that perturbation
    implies.

    Returns {"report", "measured", "predicted"}; the measured dict carries
    the same keys as the predicted one (relative errors, deltas, overlap
    shortfall) so they can be compared directly.
    """
    s = np.asarray(spectrum, dtype=np.float64).ravel()
    d = s.size
    if d < 2:
        raise ValueError("spectrum must have at least 2 entries")
    if np.any(s <= 0) or np.any(np.diff(s) > 0):
        raise ValueError("spectrum must be positive and non-increasing")
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    rng = CounterRng(seed)
    U = _random_orthonormal(n, d, rng.substream(0))
    V = _random_orthonormal(d, d, rng.substream(1))
    X = (U * s) @ V.T
    s_dropped = s.copy()
    s_dropped[0] = 0.0
    Xt = (U * s_dropped) @ V.T

    lam = float(s[-1] ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Xt is rank d-1 by construction
        report = quality_report(X, Xt, lam)
    fro_x = math.sqrt(float(np.sum(s**2)))
    fro_gram_x = math.sqrt(float(np.sum(s**4)))
    measured = {
        "rel_reconstruction": report.reconstruction_error / fro_x,
        "rel_pip": report.pip_loss / fro_gram_x,
        "delta1": report.delta1,
        "delta2": report.delta2,
        "delta_max": report.delta_max,
        "one_minus_overlap": 1.0 - report.eigenspace_overlap,
    }
    s1 = float(s[0])
    predicted = {
        "rel_reconstruction": s1 / fro_x,
        "rel_pip": s1**2 / fro_gram_x,
        "delta1": s1**2 / (s1**2 + lam),
        "delta2": 0.0,
        "delta_max": (s1**2 + lam) / lam,
        "one_minus_overlap": 1.0 / d,
    }
    return {"report": report, "measured": measured, "predicted": predicted}
