"""Factor definitions and the nonlinear least-squares solver.

Variables are object poses ``o_t`` and end-effector poses ``e_t``, keyed by
graph key id, their row of the estimate and column block of ``J^T J``, in
time order: ``eff_key(t) = 2t - 2``, ``obj_key(t) = 2t - 1``.  Every
factor's residual is ``log E`` of one template over four key slots A to D
and a measurement M (`_template`), whitened by per-axis sigmas:

    E = M^-1 G,   G = (A^-1 B)^-1 (C^-1 D).

A factor (`Factor`) names the slots its keys fill, in key order; an empty
slot holds the identity pose, which composes exactly, as M does for a
factor that measures nothing.  A new kind of factor is one more pattern,
made by one more constructor:

    constructor      A      B      C          D      M
    eff_prior        .      .      .          e_t    the pose of e_t
    vis_prior        .      .      .          o_t    the pose of o_t
    motion_prior     .      .      o_{t-1}    o_t    identity
    im2patch         .      .      o_t        e_t    object-from-sensor
    im2im            o_k    e_k    o_t        e_t    sensor t in sensor k

In the tangent space of a right perturbation ``X * exp(d)``, a variable
appearing in G as ``P X Q`` has the Jacobian ``Jr^-1(log E) Ad(Q^-1)`` and
one appearing as ``P X^-1 Q`` has ``-Jr^-1(log E) Ad(Q^-1 X)`` (Sola, Deray
& Atchuthan, "A micro Lie theory for state estimation in robotics",
arXiv:1812.01537).  So the tangent maps of the slots A to D are
``Ad((C^-1 D)^-1)``, ``-Ad(G^-1)``, ``-Ad((C^-1 D)^-1)`` and the identity
for every factor; the tests check them against central differences.
`cost` and `linearize` evaluate the template once over all factors, in
insertion order.  The solver is Levenberg-Marquardt with
right-multiplicative retraction of each pose block.  Its banded solve
uses scipy.linalg's BLAS and LAPACK wrappers, imported where they are
called, so code that never solves never pays their memory.

Frame convention: with world-from-body poses, the object-from-sensor
transform is ``o_t^-1 * e_t`` and the step-to-step relative transform is
``(o_{t-1}^-1 e_{t-1})^-1 (o_t^-1 e_t)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .config import require
from .geometry import Pose


class DivergenceError(RuntimeError):
    """The optimizer produced a non-finite cost."""


def obj_key(t: int) -> int:
    return 2 * t - 1


def eff_key(t: int) -> int:
    return 2 * t - 2


@dataclass
class NoiseModel:
    """Per-axis sigmas, rotation (rad) first then translation (mm)."""

    sigmas: np.ndarray

    def __post_init__(self):
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        if self.sigmas.shape != (6,) or not (self.sigmas > 0).all():
            raise ValueError("noise model needs 6 strictly positive sigmas")

    @staticmethod
    def isotropic(sigma_rot: float, sigma_trans: float) -> "NoiseModel":
        return NoiseModel(np.array([sigma_rot] * 3 + [sigma_trans] * 3))


# The key slots of the residual template, in the order a factor lists keys.
SLOTS = "ABCD"
# The pose of a slot no key fills, and the measurement of a factor without
# one; composing with it changes no value.
_IDENTITY = Pose.identity()
_IDENTITY.rotation.setflags(write=False)
_IDENTITY.translation.setflags(write=False)


def _template(a: Pose, b: Pose, c: Pose, d: Pose, measured: Pose,
              jacobians=False):
    """The error pose E of factors whose slots A to D hold the poses `a` to
    `d` and whose measurement M is `measured`, each one pose or a batch,
    and with `jacobians` the tangent maps T of the slots A to D (module
    docstring): a key's Jacobian block is ``Jr^-1(log E) @ T`` for its
    slot's T, and ``Jr^-1(log E)`` itself for D, whose T is None."""
    right = geometry.compose(geometry.inverse(c), d)
    graph_rel = geometry.compose(
        geometry.inverse(geometry.compose(geometry.inverse(a), b)), right)
    error = geometry.compose(geometry.inverse(measured), graph_rel)
    if not jacobians:
        return error, None
    ad_right = geometry.adjoint(geometry.inverse(right))
    return error, (ad_right, -geometry.adjoint(geometry.inverse(graph_rel)),
                   -ad_right, None)


@dataclass
class Factor:
    """A factor with residual ``log E`` of the template: its `keys` fill the
    slots `slots`, in that order, and `measured` is M.  `name` is its kind,
    the constructor that made it.  The graph knows it only by its store row
    (`row`), and `residual` evaluates that row as `cost` and `linearize`
    evaluate the graph's."""

    name: str
    slots: str
    keys: tuple
    measured: Pose
    noise: NoiseModel

    def row(self) -> dict:
        """The factor's row of a graph store, each array with a leading
        axis of one: its key id in each template slot (-1 where no key
        is), its sigmas and its measured rotation and translation."""
        ids = dict(zip(self.slots, self.keys))
        return {"ids": np.array([[ids.get(s, -1) for s in SLOTS]]),
                "sigmas": self.noise.sigmas[None],
                "rotation": self.measured.rotation[None],
                "translation": self.measured.translation[None]}

    def residual(self, values: Pose) -> np.ndarray:
        """The whitened residual at the estimate `values` (row k: key k)."""
        return _evaluate(self.row(), values)[0][0]


def eff_prior(t: int, measured: Pose, noise: NoiseModel) -> Factor:
    return Factor("eff_prior", "D", (eff_key(t),), measured, noise)


def vis_prior(t: int, measured: Pose, noise: NoiseModel) -> Factor:
    return Factor("vis_prior", "D", (obj_key(t),), measured, noise)


def motion_prior(t: int, noise: NoiseModel) -> Factor:
    """The object's motion model: a zero-motion random walk, penalizing
    the motion ``o_{t-1}^-1 o_t`` between consecutive object poses, so the
    object is held still unless the measurements move it."""
    return Factor("motion_prior", "CD", (obj_key(t - 1), obj_key(t)),
                  _IDENTITY, noise)


def im2im(t: int, measured: Pose, noise: NoiseModel, k: int = None) -> Factor:
    """The factor on the (object, end-effector) pairs at `k` and `t` from
    image-to-image ICP registration of frame t against frame k, by default
    the previous one: `measured` maps the sensor frame at t into the one
    at k."""
    k = t - 1 if k is None else k
    return Factor("im2im", "ABCD",
                  (obj_key(k), eff_key(k), obj_key(t), eff_key(t)),
                  measured, noise)


def im2patch(t: int, measured: Pose, noise: NoiseModel) -> Factor:
    """The factor tying the object-from-sensor transform `measured` to ICP
    registration against the known object model: gtpatch's registration
    against surface samples of the true shape."""
    return Factor("im2patch", "CD", (obj_key(t), eff_key(t)), measured, noise)


class FactorGraph:
    """Factors in insertion order.  `add` numbers no key: it appends the
    factor's row (`Factor.row`) to the store, all that `cost` and
    `linearize` read of the factors.  It raises ValueError for a negative
    key id or one that leaves an id below it unused, which no factor would
    constrain, so ids 0 to `key_count` - 1 are in use.  `cost` and
    `linearize` sum the factors in insertion order, at one stacked Pose
    whose row i is the pose of key id i."""

    def __init__(self, factors=()):
        self.factors = []
        self.key_count = 0
        self.store = {}     # name -> stacked rows, one per factor
        self._plan = None   # the _Plan of the last `linearize`
        for factor in factors:
            self.add(factor)

    def add(self, factor: Factor) -> None:
        count = self.key_count
        for key in sorted(factor.keys):
            if key < 0:
                raise ValueError(f"key id {key} is negative")
            if key > count:
                raise ValueError(f"key id {key} leaves key id {count} unused")
            count = max(count, key + 1)
        for name, value in factor.row().items():
            self.store[name] = (np.concatenate([self.store[name], value])
                                if self.factors else value)
        self.factors.append(factor)
        self.key_count = count

    def __len__(self):
        return len(self.factors)

    def cost(self, poses: Pose) -> float:
        """Half the squared norm of the whitened residuals at the estimate
        `poses`, in key-id order.  The sum runs as `linearize`'s does, so
        the two agree to the bit."""
        if not self.factors:
            return 0.0
        return _half_squared_norm(_evaluate(self.store, poses)[0])


def _half_squared_norm(residuals: np.ndarray) -> float:
    return 0.5 * float((residuals * residuals).sum())


@dataclass
class LinearSystem:
    """Gauss-Newton normal equations of the whitened graph, six rows and
    columns per variable, column block i being graph key id i.  Key ids
    run in time order, so each factor's columns lie close together and
    ``J^T J`` is banded: its half-bandwidth is ``w = 6 s + 5``, ``s`` the
    widest span of key ids in one factor (at most ``6 n - 1``, as for a
    graph whose ids are out of time order).  `ab` holds the lower
    band in LAPACK storage, ``ab[i - j, j] = (J^T J)[i, j]`` for
    ``0 <= i - j <= w``, zero where ``i`` would pass the last row; the upper
    triangle is its mirror image and is not stored.  `cost` is half the
    squared norm of the whitened residuals at the linearization point."""

    ab: np.ndarray                # (w + 1, 6 n), lower band of J^T J
    jtr: np.ndarray               # (6 n,)
    cost: float


class _Plan(NamedTuple):
    """How `linearize` lays out a graph's first `factors` factors, in
    insertion order, which is the order they are summed in.  `band_at` and
    `jtr_at` place the band and J^T r entries of each factor's terms, and
    `blocks` and `pairs` index the flat (factor, slot) blocks that
    `_evaluate` gives; all four run factor by factor, and no entry depends
    on the number of keys, so factors that leave the band width as it is
    only append entries."""

    factors: int          # the graph's factor count when laid out
    span: int             # widest span of key ids in one factor
    width: int            # half-bandwidth w of J^T J
    band_at: np.ndarray
    jtr_at: np.ndarray
    blocks: np.ndarray    # (blocks,) flat index 4 factor + slot
    pairs: np.ndarray     # (2, products) flat indices of J_k and J_l


_TRASH = np.iinfo(np.intp).min // 2
# The slot pairs (k, l), k <= l, of the products J_k^T J_l.
_SLOT_PAIRS = np.array(np.triu_indices(len(SLOTS)))


@functools.lru_cache
def _band_pattern(width: int) -> np.ndarray:
    """The flat band offset of entry (c, e) of a product block (see
    `_layout`), indexed by the sign of the second key's block less the
    first's: 1 mirrored, -1 as is, and 0 a diagonal block, as is with its
    upper triangle at `_TRASH`."""
    c, e = np.indices((6, 6))
    pattern = np.stack([np.where(c < e, _TRASH, c + width * e),
                        e + width * c, c + width * e])
    pattern.setflags(write=False)
    return pattern


def _layout(graph: FactorGraph) -> _Plan:
    """The layout of a graph with factors, column block i being key id i:
    the last one if no factor arrived since, that one with the new
    factors' entries appended if they leave the band width as it is, else
    laid out afresh."""
    plan = graph._plan
    if plan is not None and plan.factors == len(graph):
        return plan
    start = plan.factors if plan is not None else 0
    ids = graph.store["ids"][start:]
    # The key pairs (k, l) of the new factors' products J_k^T J_l, factor
    # by factor, in slot order, which is key order: their slot pairs with a
    # key in both slots.
    used = ids >= 0
    row, pair = np.nonzero(used[:, _SLOT_PAIRS[0]] & used[:, _SLOT_PAIRS[1]])
    first, second = ids[row, _SLOT_PAIRS[:, pair]]
    apart = second - first
    gap = np.abs(apart)
    # The widest span of blocks in one factor bounds the distance of a
    # nonzero entry of J^T J from the diagonal.
    span = max(int(gap.max()), plan.span if plan is not None else 0)
    width = min(6 * span + 5, 6 * graph.key_count - 1)
    if plan is not None and width != plan.width:
        graph._plan = None   # the band widens: lay every factor out again
        return _layout(graph)
    # Entry (a, b) of the product J_k^T J_l is entry (6 bk + a, 6 bl + b) of
    # J^T J, bk and bl being the keys' blocks, and its mirror (6 bl + b,
    # 6 bk + a).  The one on or below the diagonal, (i, j) = (6 hi + c,
    # 6 lo + e) with hi and lo the larger and the smaller block, lands at
    # ab[i - j, j]: flat j (w + 1) + i - j = 6 (w lo + hi) + w e + c, since
    # the storage is column-major, as LAPACK reads it, plus one for a trash
    # slot in front; w lo + hi = (w + 1) lo + gap.  The upper triangles of
    # diagonal blocks (bk = bl) go to the trash slot, which is cut off.
    # J_k^T r lands at 6 bk + a of J^T r.
    lo = np.minimum(first, second)
    band = (6 * ((width + 1) * lo + gap) + 1)[:, None, None] \
        + _band_pattern(width)[np.sign(apart)]
    entries = (np.maximum(band, 0).ravel(),
               (6 * ids[used][:, None] + np.arange(6)).ravel(),
               len(SLOTS) * start + np.flatnonzero(used),
               len(SLOTS) * (start + row) + _SLOT_PAIRS[:, pair])
    if plan is not None:   # the new factors' entries follow the earlier ones
        entries = [np.concatenate([old, new], axis=-1) for old, new in zip(
            (plan.band_at, plan.jtr_at, plan.blocks, plan.pairs), entries)]
    graph._plan = _Plan(len(graph), span, width, *entries)
    return graph._plan


def _evaluate(store: dict, poses: Pose, jacobians=False):
    """The template on every factor of a store (`FactorGraph.store`, or
    one `Factor.row`) at once, on the rows of the estimate `poses` that
    its slot key ids pick (row i: the pose of graph key id i), with one
    log and one inverse right Jacobian; no other code evaluates a factor.
    Returns the whitened residuals (m, 6) and, with `jacobians`, the
    whitened Jacobian blocks of every slot, (4 m, 6, 6) in flat (factor,
    slot) order, of which `_Plan.blocks` are the keys'; else None."""
    rows = Pose(np.concatenate([poses.rotation, _IDENTITY.rotation[None]]),
                np.concatenate([poses.translation,
                                _IDENTITY.translation[None]]))[store["ids"].T]
    error, maps = _template(*(rows[i] for i in range(len(SLOTS))),
                            Pose(store["rotation"], store["translation"]),
                            jacobians)
    raw = geometry.log(error)
    residuals = raw / store["sigmas"]
    if not jacobians:
        return residuals, None
    jr_inv = geometry.right_jacobian_inv(raw) / store["sigmas"][:, :, None]
    return residuals, np.stack([jr_inv if m is None else jr_inv @ m
                                for m in maps], axis=1).reshape(-1, 6, 6)


def linearize(graph: FactorGraph, poses: Pose) -> LinearSystem:
    """Normal equations assembled from each factor's closed-form Jacobian
    blocks in tangent space, all factors evaluated at once by the template,
    and the cost at the estimate `poses`, in key-id order.

    Key ids are the column blocks, so ``J^T J`` is banded when the ids run
    in time order, and only its lower band is assembled: per
    factor, the products ``J_k^T J_l`` of each unordered key pair,
    scattered into LAPACK lower band storage (`LinearSystem`).  Keys arrive
    only with factors, so the layout (`_layout`) changes only with the
    factor count, and the graph keeps the last one: every linearization
    within one `optimize` call reuses it, and a step that only appends
    factors lays out only those and appends their entries, unless they
    widen the band; `FactorGraph.cost` needs no layout.  Every sum runs
    over the factors in insertion order, the cost's as `FactorGraph.cost`
    runs it, so the two agree to the bit.
    """
    if not graph.factors:
        return LinearSystem(ab=np.zeros((1, 0)), jtr=np.zeros(0), cost=0.0)
    plan = _layout(graph)
    width, size = plan.width, 6 * graph.key_count
    residuals, blocks = _evaluate(graph.store, poses, True)
    products = blocks[plan.pairs[0]].swapaxes(-1, -2) @ blocks[plan.pairs[1]]
    grads = (blocks[plan.blocks].swapaxes(-1, -2)
             @ residuals[plan.blocks // len(SLOTS)][:, :, None])
    # One scatter-add over the trash slot and the band of J^T J, and one
    # over J^T r.  np.bincount adds in input order, so the sums are
    # deterministic.
    band = (width + 1) * size
    flat = np.bincount(plan.band_at, products.ravel(), minlength=band + 1)
    return LinearSystem(ab=flat[1:band + 1].reshape(size, width + 1).T,
                        jtr=np.bincount(plan.jtr_at, grads.ravel(),
                                        minlength=size),
                        cost=_half_squared_norm(residuals))


# Levenberg-Marquardt damping schedule.  The ceiling is only a safety net:
# the damping search ends once the model predicts no damped step can pay.
LAMBDA_INIT = 1e-4
LAMBDA_SCALE = 10.0
LAMBDA_MAX = 1e10


@dataclass
class OptimizerParams:
    """`cost_tolerance` (finite, >= 0) is the decrease of the cost (half
    chi^2) below which a step does not matter: one predicted to remove less
    is shorter than sqrt(2 cost_tolerance) posterior standard deviations
    (see `_negligible`).  `max_iterations` is an int >= 0."""

    max_iterations: int = 50
    cost_tolerance: float = 1e-3

    def __post_init__(self):
        require(self.max_iterations, "optimizer max_iterations", 0,
                integer=True)
        require(self.cost_tolerance, "optimizer cost_tolerance", 0)


@dataclass
class OptimizeStats:
    iterations: int
    initial_cost: float
    final_cost: float
    linearizations: int
    predicted_decrease: float | None   # of the last trial step, if any


def _negligible(decrease: float, cost: float, tolerance: float) -> bool:
    """Whether a cost decrease is too small to matter: below `tolerance`, or
    below 1% of `cost` when the cost itself is that small.  The 1% clause
    keeps noise-free problems converging, since each Gauss-Newton step there
    removes nearly all of the remaining cost; they stop at the floor of
    1e-6 `tolerance`."""
    return decrease < max(1e-6 * tolerance, min(tolerance, 0.01 * cost))


def _solve_damped(ab: np.ndarray, jtr: np.ndarray,
                  damping: np.ndarray) -> np.ndarray:
    """The step ``delta`` solving ``(J^T J + diag(damping)) delta = -J^T r``,
    with ``J^T J`` in lower band storage `ab`, by a banded Cholesky
    factorization (LAPACK ``dpbsv``).  Raises ``np.linalg.LinAlgError`` if
    the damped matrix is not positive definite."""
    damped = ab.copy(order="F")
    damped[0] += damping
    from scipy.linalg import lapack
    _, delta, info = lapack.dpbsv(damped, -jtr, lower=1, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"banded Cholesky failed (LAPACK dpbsv info {info})")
    return delta


def optimize(graph: FactorGraph, init: Pose, params: OptimizerParams = None):
    """Levenberg-Marquardt on the manifold, from the estimate `init`: one
    stacked Pose whose row i is the pose of graph key id i.  Every id below
    the key count is a factor's (`FactorGraph.add`), so every row is a free
    variable; an estimate with another row count is a ValueError.

    Solves (J^T J + lambda diag(J^T J)) delta = -J^T r by a banded Cholesky
    factorization (`_solve_damped`), retracts every row via oplus, and
    accepts or rejects by cost; a factorization that fails counts as a
    rejection.  Each rejection raises lambda.  Terminates on an accepted
    step whose decrease is negligible (`_negligible`), on the iteration
    cap, or on a rejected step whose decrease predicted by the quadratic
    model is negligible: more damping only shrinks it, so no damped step
    can pay (Madsen, Nielsen & Tingleff, "Methods for Non-Linear Least
    Squares Problems", 2004, sec. 3.2).  A trial predicted to be negligible
    is still taken if it lowers the cost.  Accepted costs are monotonically
    non-increasing.  A point whose gradient J^T r is exactly zero ends the
    loop before its solve (the same reference's gradient test, with
    epsilon = 0): a start at an exact optimum, such as priors initialized
    at their own measurements, costs one linearization and no trial.

    Each point is evaluated once.  `linearize` gives the cost with the
    system, so a trial is linearized, and an accepted one drives the next
    iteration; only a trial that must be the last, by the model or the
    cap, gets a cost-only pass (`FactorGraph.cost`), and its point is
    linearized after all if it is accepted with a real improvement.  With
    ``max_iterations=0`` no Jacobian is computed.  Returns the estimate,
    stacked as `init` is, and the stats: iterations, costs, linearizations
    and the last trial's predicted decrease.
    """
    params = params or OptimizerParams()
    rows, keys = init.translation.shape[:-1], graph.key_count
    if rows != (keys,):
        raise ValueError(f"the estimate must stack one pose per graph key "
                         f"({keys}), got batch shape {rows}")

    poses = init
    linearizations = 0
    tolerance = params.cost_tolerance

    def evaluate(point, final):
        """The cost at `point` and, unless `final`, its linear system."""
        nonlocal linearizations
        if final:
            return graph.cost(point), None
        linearizations += 1
        system = linearize(graph, point)
        return system.cost, system

    cost, system = evaluate(poses, params.max_iterations == 0)
    initial_cost = cost
    if not np.isfinite(cost):
        raise DivergenceError(f"non-finite initial cost {cost}")

    lam = LAMBDA_INIT
    iterations = 0
    predicted = None
    while system is not None:
        ab, jtr = system.ab, system.jtr
        if not jtr.any():   # a stationary point or no keys: no step to take
            break
        width = len(ab) - 1
        diag = ab[0].copy()
        diag[diag < 1e-12] = 1e-12
        last = iterations + 1 == params.max_iterations

        accepted = False
        while lam <= LAMBDA_MAX:
            try:
                delta = _solve_damped(ab, jtr, lam * diag)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_SCALE
                continue
            from scipy.linalg import blas
            predicted = -(delta @ jtr) - 0.5 * delta @ blas.dsbmv(
                width, 1.0, ab, delta, lower=1)
            stalled = _negligible(predicted, cost, tolerance)
            candidate = geometry.oplus(poses, delta.reshape(-1, 6))
            new_cost, new_system = evaluate(candidate, stalled or last)
            if not np.isfinite(new_cost):
                raise DivergenceError(f"non-finite cost {new_cost}")
            if new_cost < cost:
                accepted = True
                break
            if stalled:
                break
            lam *= LAMBDA_SCALE
        if not accepted:
            break
        iterations += 1
        improvement = cost - new_cost
        poses, cost = candidate, new_cost
        lam = max(lam / LAMBDA_SCALE, 1e-12)
        if last or _negligible(improvement, cost, tolerance):
            break
        if new_system is None:   # stalled, but paid more than predicted
            _, new_system = evaluate(poses, False)
        system = new_system
    return poses, OptimizeStats(
        iterations=iterations, initial_cost=initial_cost, final_cost=cost,
        linearizations=linearizations,
        predicted_decrease=None if predicted is None else float(predicted))
