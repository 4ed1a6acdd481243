"""Factor definitions and the nonlinear least-squares solver.

Variables are object poses ``o_t`` and end-effector poses ``e_t``; factors
whiten their twist residuals by per-axis sigmas.  Every residual is
``log(M^-1 * G)`` of a composition ``G`` of poses, so each factor supplies
closed-form Jacobians in the tangent space of a right perturbation
``X * exp(d)``: a variable appearing in ``G`` as ``P * X * Q`` gets
``Jr^-1(r) Ad(Q^-1)``, one appearing as ``P * X^-1 * Q`` gets
``-Jr^-1(r) Ad(Q^-1 X)`` (Sola, Deray & Atchuthan, "A micro Lie theory for
state estimation in robotics", arXiv:1812.01537), and the tests check them
against central differences.  The solver is Levenberg-Marquardt with
right-multiplicative retraction of each pose block.

Frame convention: with world-from-body poses, the object-from-sensor
transform is ``o_t^-1 * e_t`` and the step-to-step relative transform is
``(o_{t-1}^-1 e_{t-1})^-1 (o_t^-1 e_t)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry
from .geometry import Pose


class GaugeError(RuntimeError):
    """A variable is not constrained by any factor."""


class DivergenceError(RuntimeError):
    """The optimizer produced a non-finite cost."""


class VariableKey(NamedTuple):
    kind: str  # "object" | "endeffector"
    t: int

    def label(self) -> str:
        return ("o" if self.kind == "object" else "e") + str(self.t)


def obj_key(t: int) -> VariableKey:
    return VariableKey("object", t)


def eff_key(t: int) -> VariableKey:
    return VariableKey("endeffector", t)


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

    def whiten(self, residual: np.ndarray) -> np.ndarray:
        """Scale each row of a residual (6,) or a Jacobian (6, k)."""
        return (residual.T / self.sigmas).T


class Factor:
    """A factor over the poses at `keys` with residual ``log(E)``.

    Each subclass's static ``evaluate`` works on a whole batch of factors of
    that class at once; the per-instance methods below are the same code on
    a batch of one, with no batch dimension.
    """

    keys: tuple
    noise: NoiseModel
    name = "factor"

    @staticmethod
    def evaluate(poses, measured, jacobians=False):
        """The error pose ``E`` of a batch of factors of this class, whose
        log is the raw residual, and with `jacobians` the tangent maps
        ``T_k``, one (..., 6, 6) array per key in `keys` order, such that
        the key's Jacobian block is ``Jr^-1(log E) @ T_k``.  `poses` holds
        one Pose per key and `measured` the measurements (None for factors
        without one), each stacked over the batch."""
        raise NotImplementedError

    def _evaluate(self, values, jacobians):
        return self.evaluate([values[k] for k in self.keys],
                             getattr(self, "measured", None), jacobians)

    def residual_raw(self, values: dict) -> np.ndarray:
        return geometry.log(self._evaluate(values, False)[0])

    def residual(self, values: dict) -> np.ndarray:
        return self.noise.whiten(self.residual_raw(values))

    def jacobians(self, values: dict) -> list:
        """Unwhitened 6x6 Jacobians of `residual_raw` at `values`, one per
        key in `keys`."""
        error, maps = self._evaluate(values, True)
        jr_inv = geometry.right_jacobian_inv(geometry.log(error))
        return [jr_inv @ m for m in maps]


_I6 = np.eye(6)
_I6.setflags(write=False)


def _identity_maps(pose: Pose) -> np.ndarray:
    return np.broadcast_to(_I6, pose.translation.shape[:-1] + (6, 6))


def _ad_inv(a: Pose) -> np.ndarray:
    return geometry.adjoint(geometry.inverse(a))


@dataclass
class PriorFactor(Factor):
    """Unary pose prior; used for both end-effector and vision priors."""

    key: VariableKey
    measured: Pose
    noise: NoiseModel
    name: str = "prior"

    def __post_init__(self):
        self.keys = (self.key,)

    @staticmethod
    def evaluate(poses, measured, jacobians=False):
        error = geometry.compose(geometry.inverse(measured), poses[0])
        if not jacobians:
            return error, None
        return error, [_identity_maps(error)]


def eff_prior(t: int, measured: Pose, noise: NoiseModel) -> PriorFactor:
    return PriorFactor(eff_key(t), measured, noise, name="eff_prior")


def vis_prior(t: int, measured: Pose, noise: NoiseModel) -> PriorFactor:
    return PriorFactor(obj_key(t), measured, noise, name="vis_prior")


@dataclass
class ConstVelFactor(Factor):
    """Ternary smoothness prior over consecutive object pose triplets."""

    t: int
    noise: NoiseModel
    name = "const_vel"

    def __post_init__(self):
        self.keys = (obj_key(self.t - 2), obj_key(self.t - 1), obj_key(self.t))

    @staticmethod
    def evaluate(poses, measured, jacobians=False):
        a, b, c = poses
        step_prev = geometry.compose(geometry.inverse(a), b)
        step_curr = geometry.compose(geometry.inverse(b), c)
        error = geometry.compose(geometry.inverse(step_prev), step_curr)
        if not jacobians:
            return error, None
        # E = b^-1 a b^-1 c: b appears twice, and its two terms add.
        ad_prev = _ad_inv(step_curr)
        return error, [ad_prev,
                       -ad_prev @ (geometry.adjoint(step_prev) + _I6),
                       _identity_maps(error)]


@dataclass
class MotionPriorFactor(Factor):
    """Binary zero-motion prior between consecutive object poses.

    The smoothness chain penalizes velocity changes only, so a steady drift
    costs nothing; anchoring the first step at zero motion removes that
    free direction.
    """

    t: int
    noise: NoiseModel
    name = "motion_prior"

    def __post_init__(self):
        self.keys = (obj_key(self.t - 1), obj_key(self.t))

    @staticmethod
    def evaluate(poses, measured, jacobians=False):
        a, b = poses
        error = geometry.compose(geometry.inverse(a), b)
        if not jacobians:
            return error, None
        return error, [-_ad_inv(error), _identity_maps(error)]


@dataclass
class Im2ImFactor(Factor):
    """Binary factor on consecutive (object, end-effector) pairs from
    image-to-image ICP registration."""

    t: int
    measured: Pose  # maps sensor frame at t into sensor frame at t-1
    noise: NoiseModel
    name = "im2im"

    def __post_init__(self):
        self.keys = (obj_key(self.t - 1), eff_key(self.t - 1),
                     obj_key(self.t), eff_key(self.t))

    @staticmethod
    def evaluate(poses, measured, jacobians=False):
        # G = e_prev^-1 o_prev o_curr^-1 e_curr.
        o_prev, e_prev, o_curr, e_curr = poses
        rel_prev = geometry.compose(geometry.inverse(o_prev), e_prev)
        rel_curr = geometry.compose(geometry.inverse(o_curr), e_curr)
        graph_rel = geometry.compose(geometry.inverse(rel_prev), rel_curr)
        error = geometry.compose(geometry.inverse(measured), graph_rel)
        if not jacobians:
            return error, None
        ad_obj = _ad_inv(rel_curr)
        return error, [ad_obj, -_ad_inv(graph_rel), -ad_obj,
                       _identity_maps(error)]


@dataclass
class Im2PatchFactor(Factor):
    """Factor tying the object-from-sensor transform to ICP registration
    against the local patch map (or a known object model)."""

    t: int
    measured: Pose  # object-from-sensor
    noise: NoiseModel
    name = "im2patch"

    def __post_init__(self):
        self.keys = (obj_key(self.t), eff_key(self.t))

    @staticmethod
    def evaluate(poses, measured, jacobians=False):
        o, e = poses
        graph_rel = geometry.compose(geometry.inverse(o), e)
        error = geometry.compose(geometry.inverse(measured), graph_rel)
        if not jacobians:
            return error, None
        return error, [-_ad_inv(graph_rel), _identity_maps(error)]


def _evaluate_by_class(factors, values, order, jacobians=False):
    """Evaluate `factors` one class at a time on stacked poses, with one log
    (and one inverse right Jacobian) over all of them.

    Returns one ``(rows, residuals, blocks)`` triple per factor class: the
    (m, k) indices into `order` of each factor's keys, the whitened
    residuals (m, 6) and, with `jacobians`, the whitened Jacobian blocks
    (m, k, 6, 6), else None.  `order` lists the keys of `values` to stack.
    """
    if not factors:
        return []
    index = {key: i for i, key in enumerate(order)}
    stacked = Pose.stack([values[key] for key in order])
    groups = {}
    for factor in factors:
        groups.setdefault(type(factor), []).append(factor)
    all_rows, errors, maps = [], [], []
    for cls, group in groups.items():
        rows = np.array([[index[key] for key in f.keys] for f in group])
        poses = [Pose(stacked.rotation[i], stacked.translation[i])
                 for i in rows.T]
        measured = (Pose.stack([f.measured for f in group])
                    if hasattr(group[0], "measured") else None)
        error, tangent = cls.evaluate(poses, measured, jacobians)
        all_rows.append(rows)
        errors.append(error)
        maps.append(tangent)
    sigmas = np.array([f.noise.sigmas for g in groups.values() for f in g])
    raw = geometry.log(Pose(np.concatenate([e.rotation for e in errors]),
                            np.concatenate([e.translation for e in errors])))
    bounds = np.cumsum([len(rows) for rows in all_rows])[:-1]
    residuals = np.split(raw / sigmas, bounds)
    if not jacobians:
        return [(rows, r, None) for rows, r in zip(all_rows, residuals)]
    jr_inv = np.split(geometry.right_jacobian_inv(raw) / sigmas[:, :, None],
                      bounds)
    return [(rows, r, j[:, None] @ np.stack(tangent, axis=1))
            for rows, r, j, tangent in zip(all_rows, residuals, jr_inv, maps)]


@dataclass
class FactorGraph:
    factors: list = field(default_factory=list)

    def add(self, factor: Factor) -> None:
        self.factors.append(factor)

    def __len__(self):
        return len(self.factors)

    def cost(self, values: dict) -> float:
        groups = _evaluate_by_class(self.factors, values, list(values))
        return 0.5 * sum(float(np.sum(r * r)) for _, r, _ in groups)


@dataclass
class LinearSystem:
    """Gauss-Newton normal equations ``J^T J`` and ``J^T r`` of the whitened
    graph, six rows and columns per free variable in `keys` order."""

    keys: list                    # free variables, in column-block order
    jtj: np.ndarray               # (6 n, 6 n)
    jtr: np.ndarray               # (6 n,)


def linearize(graph: FactorGraph, values: dict,
              fixed=frozenset()) -> LinearSystem:
    """Normal equations assembled from each factor's closed-form Jacobian
    blocks in tangent space, evaluated one factor class at a time.

    Keys in `fixed` are treated as constants: they contribute to residuals
    but receive no Jacobian block or column, and a factor whose keys are all
    fixed is not evaluated.
    """
    keys = sorted(k for k in values.keys() if k not in fixed)
    order = keys + [k for k in values if k in fixed]
    active = [f for f in graph.factors if any(k not in fixed for k in f.keys)]
    n = len(keys)
    if not active:
        return LinearSystem(keys=keys, jtj=np.zeros((6 * n, 6 * n)),
                            jtr=np.zeros(6 * n))
    # Per factor, the 6x6 products J_k^T J_l of its blocks for every pair of
    # keys (k, l), and J_k^T r for every key k, with the flat index of the
    # first entry each lands on.  All fixed keys share block n, a sink cut
    # off at the end.
    size = 6 * (n + 1)
    pair_at, products, grad_at, grads = [], [], [], []
    for rows, r, blocks in _evaluate_by_class(active, values, order, True):
        first = 6 * np.minimum(rows, n)
        blocks_t = np.swapaxes(blocks, -1, -2)
        pair_at.append(first[:, :, None] * size + first[:, None, :])
        products.append(blocks_t[:, :, None] @ blocks[:, None])
        grad_at.append(size * size + first)
        grads.append(blocks_t @ r[:, None, :, None])
    # One scatter-add over the entries of J^T J, then those of J^T r.
    # np.bincount adds in input order, so the sums are deterministic.
    offsets = np.arange(6)
    where = np.concatenate([
        (_flat(pair_at)[:, None, None] + offsets[:, None] * size
         + offsets).ravel(),
        (_flat(grad_at)[:, None] + offsets).ravel()])
    flat = np.bincount(where, np.concatenate([_flat(products), _flat(grads)]),
                       minlength=size * size + size)
    return LinearSystem(
        keys=keys, jtj=flat[:size * size].reshape(size, size)[:6 * n, :6 * n],
        jtr=flat[size * size:size * size + 6 * n])


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


# Levenberg-Marquardt damping schedule.  The ceiling is only a safety net:
# the damping search ends once the model predicts no damped step can pay.
LAMBDA_INIT = 1e-4
LAMBDA_SCALE = 10.0
LAMBDA_MAX = 1e10


@dataclass
class OptimizerParams:
    max_iterations: int = 50
    cost_tolerance: float = 1e-9

    def __post_init__(self):
        if self.max_iterations < 0 or not self.cost_tolerance >= 0:
            raise ValueError("optimizer max_iterations and cost_tolerance "
                             "must be >= 0")


@dataclass
class OptimizeStats:
    iterations: int
    initial_cost: float
    final_cost: float


def _retract_all(values: dict, keys, delta: np.ndarray) -> dict:
    moved = geometry.oplus(Pose.stack([values[k] for k in keys]),
                           delta.reshape(-1, 6))
    out = dict(values)
    for i, key in enumerate(keys):
        out[key] = Pose(moved.rotation[i], moved.translation[i])
    return out


def optimize(graph: FactorGraph, init: dict,
             params: OptimizerParams = None, fixed=frozenset()):
    """Levenberg-Marquardt on the manifold.

    Solves (J^T J + lambda diag(J^T J)) delta = -J^T r, retracts each pose
    block via oplus, and accepts or rejects by cost.  Each rejection raises
    lambda, and the search ends once the decrease the quadratic model
    predicts for the rejected step is below the tolerance: more damping only
    shrinks it (Madsen, Nielsen & Tingleff, "Methods for Non-Linear Least
    Squares Problems", 2004, sec. 3.2).  Terminates then, on relative cost
    change below the tolerance or on the iteration cap; accepted costs are
    monotonically non-increasing.
    """
    params = params or OptimizerParams()
    touched = {k for f in graph.factors for k in f.keys}
    for key in init:
        if key not in touched and key not in fixed:
            raise GaugeError(f"variable {key.label()} has no factor attached")
    for key in touched:
        if key not in init:
            raise KeyError(f"factor references missing variable {key.label()}")

    values = dict(init)
    cost = graph.cost(values)
    initial_cost = cost
    if not np.isfinite(cost):
        raise DivergenceError(f"non-finite initial cost {cost}")

    lam = LAMBDA_INIT
    iterations = 0
    for _ in range(params.max_iterations):
        system = linearize(graph, values, fixed=fixed)
        jtj, jtr = system.jtj, system.jtr
        diag = np.diag(jtj).copy()
        diag[diag < 1e-12] = 1e-12
        damped = jtj.copy()
        on_diag = np.diag_indices_from(damped)

        accepted = False
        while lam <= LAMBDA_MAX:
            damped[on_diag] = jtj[on_diag] + lam * diag
            try:
                delta = np.linalg.solve(damped, -jtr)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_SCALE
                continue
            candidate = _retract_all(values, system.keys, delta)
            new_cost = graph.cost(candidate)
            if not np.isfinite(new_cost):
                raise DivergenceError(f"non-finite cost {new_cost}")
            if new_cost < cost:
                accepted = True
                break
            predicted = -(delta @ jtr) - 0.5 * delta @ (jtj @ delta)
            if predicted < params.cost_tolerance * max(cost, 1.0):
                break
            lam *= LAMBDA_SCALE
        if not accepted:
            break
        iterations += 1
        improvement = cost - new_cost
        values, cost = candidate, new_cost
        lam = max(lam / LAMBDA_SCALE, 1e-12)
        if improvement < params.cost_tolerance * max(cost, 1.0):
            break
    return values, OptimizeStats(iterations=iterations,
                                 initial_cost=initial_cost, final_cost=cost)
