"""Factor residuals, linearization, and the Levenberg-Marquardt solver."""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from scipy.linalg import blas

from tactrack import factors, geometry
from tactrack.episodes import NoiseSpec, TrajectorySpec, generate_episode
from tactrack.factors import (SLOTS, DivergenceError, Factor, FactorGraph,
                              NoiseModel, OptimizeStats, OptimizerParams,
                              eff_key, eff_prior, im2im, im2patch, linearize,
                              motion_prior, obj_key, optimize, vis_prior)
from tactrack.geometry import DomainError, Pose
from tactrack.render import GelConfig
from tactrack.shapes import Pyramid
from tactrack.tracker import Tracker, TrackerConfig, TrackerMode

from .conftest import matrix, numerical_jacobian, random_pose, rot_z

UNIT = NoiseModel.isotropic(1.0, 1.0)
IDENTITY = Pose.identity()


def _prior(key: int, measured: Pose, noise: NoiseModel) -> Factor:
    """A unary prior on any key, the pattern of eff_prior and vis_prior."""
    return Factor("prior", "D", (key,), measured, noise)


def _time(key: int) -> int:
    """The time step t of graph key id `key`, e_t's or o_t's."""
    return key // 2 + 1


def _replaced(poses: Pose, key: int, pose: Pose) -> Pose:
    """The estimate `poses` with row `key` set to `pose`."""
    rotation, translation = poses.rotation.copy(), poses.translation.copy()
    rotation[key], translation[key] = pose.rotation, pose.translation
    return Pose(rotation, translation)


def _relabeled(factors):
    """Copies of `factors` whose key ids are renumbered 0, 1, ... in order
    of first appearance, so that one graph may hold them, and the old id of
    each new one."""
    ids = {}
    copies = []
    for factor in factors:
        factor = copy.copy(factor)
        factor.keys = tuple(ids.setdefault(k, len(ids)) for k in factor.keys)
        copies.append(factor)
    return copies, np.array(list(ids))


def _per_factor(factor, values):
    """The test-side reference for one factor at the estimate `values`
    (row k: key id k), by the template alone: its raw residual and its
    whitened 6x6 Jacobian blocks, one per key in `keys`."""
    poses = dict(zip(factor.slots, (values[k] for k in factor.keys)))
    error, maps = factors._template(*(poses.get(s, IDENTITY) for s in SLOTS),
                                    factor.measured, True)
    raw = geometry.log(error)
    jr_inv = geometry.right_jacobian_inv(raw)
    return raw, [(jr_inv if m is None else jr_inv @ m)
                 / factor.noise.sigmas[:, None]
                 for m in (maps[SLOTS.index(s)] for s in factor.slots)]


def _jittered(poses: Pose, rng) -> Pose:
    """Each row of `poses` moved by a small random twist."""
    return geometry.oplus(poses, rng.normal(
        scale=[0.01] * 3 + [0.1] * 3, size=(len(poses.translation), 6)))


class TestResiduals:
    def test_prior_zero_at_measurement(self):
        rng = np.random.default_rng(0)
        p = random_pose(rng)
        factor = eff_prior(1, p, UNIT)
        np.testing.assert_allclose(factor.residual(Pose.stack([p])),
                                   np.zeros(6), atol=1e-12)

    def test_motion_prior_zero_when_static(self):
        rng = np.random.default_rng(2)
        o = random_pose(rng)
        factor = motion_prior(2, UNIT)
        values = Pose.stack([IDENTITY, o, IDENTITY, o])
        np.testing.assert_allclose(factor.residual(values), np.zeros(6),
                                   atol=1e-12)

    def test_im2patch_residual_equals_offset_twist(self):
        rng = np.random.default_rng(3)
        o, e = random_pose(rng), random_pose(rng)
        measured = geometry.compose(geometry.inverse(o), e)
        xi = rng.uniform(-1e-4, 1e-4, 6)
        factor = im2patch(1, measured, UNIT)
        values = Pose.stack([geometry.oplus(e, xi), o])
        np.testing.assert_allclose(factor.residual(values), xi, atol=1e-9)

    def test_im2im_zero_on_consistent_motion(self):
        rng = np.random.default_rng(4)
        o = random_pose(rng)
        e1, e2 = random_pose(rng), random_pose(rng)
        rel1 = geometry.compose(geometry.inverse(o), e1)
        rel2 = geometry.compose(geometry.inverse(o), e2)
        measured = geometry.compose(geometry.inverse(rel1), rel2)
        factor = im2im(2, measured, UNIT)
        values = Pose.stack([e1, o, e2, o])
        np.testing.assert_allclose(factor.residual(values), np.zeros(6),
                                   atol=1e-9)

    def test_whitening_scales_inverse(self):
        rng = np.random.default_rng(5)
        p, q = random_pose(rng), random_pose(rng)
        base = _prior(0, p, UNIT)
        scaled = _prior(0, p, NoiseModel.isotropic(4.0, 4.0))
        values = Pose.stack([q])
        np.testing.assert_allclose(scaled.residual(values),
                                   base.residual(values) / 4.0, atol=1e-12)

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(np.zeros(6))
        with pytest.raises(ValueError):
            NoiseModel(np.ones(5))


class TestKeyIds:
    """A key is its graph key id, and `add` takes the ids as they are."""

    def test_time_order(self):
        assert [key(t) for t in (1, 2, 3) for key in (eff_key, obj_key)] \
            == list(range(6))

    def test_negative_id_rejected(self):
        graph = FactorGraph()
        with pytest.raises(ValueError, match="key id -1 is negative"):
            graph.add(_prior(-1, IDENTITY, UNIT))
        assert len(graph) == 0 and graph.key_count == 0 and not graph.store

    def test_gap_rejected(self):
        # A first factor on key 1 would leave id 0 a column no factor
        # constrains; so would the random walk to o_2 before e_2.  A
        # rejected factor leaves the graph as it was.
        graph = FactorGraph()
        with pytest.raises(ValueError, match="id 1 leaves key id 0 unused"):
            graph.add(vis_prior(1, IDENTITY, UNIT))
        assert len(graph) == 0 and graph.key_count == 0
        graph.add(eff_prior(1, IDENTITY, UNIT))
        graph.add(vis_prior(1, IDENTITY, UNIT))
        with pytest.raises(ValueError, match="id 3 leaves key id 2 unused"):
            graph.add(motion_prior(2, UNIT))
        assert len(graph) == 2 and graph.key_count == 2
        assert len(graph.store["ids"]) == 2
        graph.add(im2im(2, IDENTITY, UNIT))
        assert graph.key_count == 4
        np.testing.assert_array_equal(graph.store["ids"],
                                      [[-1, -1, -1, 0], [-1, -1, -1, 1],
                                       [1, 0, 3, 2]])

    @pytest.mark.parametrize("make, factor, ids", [
        (eff_prior, eff_prior(4, IDENTITY, UNIT), [-1, -1, -1, eff_key(4)]),
        (vis_prior, vis_prior(4, IDENTITY, UNIT), [-1, -1, -1, obj_key(4)]),
        (motion_prior, motion_prior(4, UNIT),
         [-1, -1, obj_key(3), obj_key(4)]),
        (im2patch, im2patch(4, IDENTITY, UNIT),
         [-1, -1, obj_key(4), eff_key(4)]),
        (im2im, im2im(5, IDENTITY, UNIT),
         [obj_key(4), eff_key(4), obj_key(5), eff_key(5)]),
        (im2im, im2im(5, IDENTITY, UNIT, k=3),
         [obj_key(3), eff_key(3), obj_key(5), eff_key(5)]),
    ], ids=["eff_prior", "vis_prior", "motion_prior", "im2patch", "im2im",
            "im2im_keyframe"])
    def test_constructor_fills_its_slots(self, make, factor, ids):
        # Each key lands in the template slot the module docstring's table
        # names, -1 in an empty one, and a factor's kind is the name of the
        # constructor that made it.
        assert factor.name == make.__name__
        np.testing.assert_array_equal(factor.row()["ids"], [ids])


class TestLinearize:
    def test_single_prior_block(self):
        rng = np.random.default_rng(6)
        p = random_pose(rng)
        graph = FactorGraph()
        graph.add(_prior(0, p, UNIT))
        system = linearize(graph, Pose.stack([p]))
        np.testing.assert_allclose(_dense(system.ab), np.eye(6), atol=1e-6)
        np.testing.assert_allclose(system.jtr, np.zeros(6), atol=1e-9)

    def test_empty_graph(self):
        graph = FactorGraph()
        system = linearize(graph, Pose.stack([]))
        assert graph.key_count == 0
        assert system.ab.shape == (1, 0)
        assert system.jtr.shape == (0,)


# Anisotropic sigmas, so that whitening rows instead of columns shows.
ANISO = NoiseModel(np.array([0.01, 0.02, 0.05, 0.5, 1.0, 2.0]))


def _twist(max_angle, max_trans):
    """A twist with rotation angle up to `max_angle` rad and translation
    components up to `max_trans` mm."""
    axis = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda a: np.linalg.norm(a) > 0.1)
    return st.builds(
        lambda a, angle, v: np.concatenate(
            [np.array(a) / np.linalg.norm(a) * angle, v]),
        axis, st.floats(0.0, max_angle),
        st.tuples(*[st.floats(-max_trans, max_trans)] * 3).map(np.array))


POSES = _twist(2.5, 40.0).map(geometry.exp)
# Residual rotation angles: exactly zero, inside the series branch of
# right_jacobian_inv, and up to 2.5 rad.
RESIDUALS = {"zero": st.just(np.zeros(6)), "small": _twist(5e-3, 1e-3),
             "large": _twist(2.5, 30.0)}


def _factor_at(kind, poses, offset, t0=0, n=0):
    """A factor of `kind` on the poses at times t0 + 1 .. t0 + 3, and the
    six poses e and o at those times, in key-id order (ids 2 t0 to
    2 t0 + 5), at which its raw residual is `offset`: the measurement (or
    the last pose) is solved for from the others, and e at t0 + 3 is e at
    t0 + 2.  A keyframe factor is an im2im factor from t0 + 1 to t0 + 3
    (k = t - 2).  A one_slot factor, the `n`-th of its draw, puts o at
    t0 + 1 in slot A, B or C by n, so that G is that pose, or its inverse
    in B and C: a kind of factor declared by its slot pattern alone, as a
    new kind would be."""
    o1, e1, o2, e2, o3 = poses
    off_inv = geometry.exp(-offset)
    if kind == "motion_prior":
        o3 = geometry.compose(o2, geometry.exp(offset))
    rows = [e1, o1, e2, o2, e2, o3]
    if kind == "one_slot":
        slot = SLOTS[n % 3]
        graph_rel = o1 if slot == "A" else geometry.inverse(o1)
        return Factor("one_slot", slot, (obj_key(t0 + 1),),
                      geometry.compose(graph_rel, off_inv), ANISO), rows
    if kind == "prior":
        return _prior(obj_key(t0 + 3), geometry.compose(o3, off_inv),
                      ANISO), rows
    if kind == "motion_prior":
        return motion_prior(t0 + 3, ANISO), rows
    rel1 = geometry.compose(geometry.inverse(o1), e1)
    rel2 = geometry.compose(geometry.inverse(o2), e2)
    if kind == "im2im":
        graph_rel = geometry.compose(geometry.inverse(rel1), rel2)
        return im2im(t0 + 2, geometry.compose(graph_rel, off_inv),
                     ANISO), rows
    if kind == "keyframe":
        rel3 = geometry.compose(geometry.inverse(o3), e2)
        graph_rel = geometry.compose(geometry.inverse(rel1), rel3)
        return im2im(t0 + 3, geometry.compose(graph_rel, off_inv),
                     ANISO, k=t0 + 1), rows
    return im2patch(t0 + 2, geometry.compose(rel2, off_inv), ANISO), rows


def _band(dense, width):
    """The lower band of `dense` in LAPACK storage, ab[i - j, j] =
    dense[i, j], zero past the last row."""
    size = len(dense)
    ab = np.zeros((width + 1, size))
    for d in range(width + 1):
        ab[d, :size - d] = np.diagonal(dense, -d)
    return ab


def _dense(ab):
    """The symmetric matrix whose lower band `ab` holds."""
    size = ab.shape[1]
    dense = np.zeros((size, size))
    for d in range(len(ab)):
        i = np.arange(d, size)
        dense[i, i - d] = dense[i - d, i] = ab[d, :size - d]
    return dense


def _assert_matches_per_factor(system, graph, values, rel):
    """Compare the normal equations of `system` with a reference built from
    a dense Jacobian filled one factor at a time (`_per_factor`), column
    block i for the graph's key id i, with the factors evaluated at the
    estimate `values`.  The band of J^T J is compared with the reference's,
    and the reference must be exactly zero outside it, so a band too narrow
    fails.  The tolerance is `rel` times the largest sum of absolute terms,
    since J^T r nearly cancels at an optimum."""
    size = 6 * graph.key_count
    jac = np.zeros((6 * len(graph), size))
    res = np.zeros(6 * len(graph))
    for row, factor in zip(range(0, 6 * len(graph), 6), graph.factors):
        raw, blocks = _per_factor(factor, values)
        res[row:row + 6] = raw / factor.noise.sigmas
        for key, block in zip(factor.keys, blocks):
            jac[row:row + 6, 6 * key:6 * key + 6] = block
    assert system.jtr.shape == (size,)
    width = len(system.ab) - 1
    jtj = jac.T @ jac
    i, j = np.indices(jtj.shape)
    assert not jtj[np.abs(i - j) > width].any()
    for actual, expected, terms in (
            (system.ab, _band(jtj, width), np.abs(jac).T @ np.abs(jac)),
            (system.jtr, jac.T @ res, np.abs(jac).T @ np.abs(res))):
        np.testing.assert_allclose(actual, expected, rtol=0,
                                   atol=rel * terms.max(initial=0.0))


def _two_pass_optimize(graph, init, params=OptimizerParams()):
    """Levenberg-Marquardt as `optimize` ran it when it evaluated every
    point twice: the cost of all factors at each trial, and the normal
    equations of each accepted point again.  It stops where `optimize`
    does, on a negligible decrease (`factors._negligible`).  Returns the
    estimate, the iterations, the initial and final cost and, for each
    trial evaluated, whether it was accepted, whether the decrease the model
    predicted for it was negligible, and that predicted decrease."""
    poses = init
    cost = graph.cost(poses)
    initial_cost = cost
    trials = []
    lam = factors.LAMBDA_INIT
    iterations = 0
    for _ in range(params.max_iterations):
        system = linearize(graph, poses)
        if not graph.key_count:
            break
        ab, jtr = system.ab, system.jtr
        diag = ab[0].copy()
        diag[diag < 1e-12] = 1e-12
        accepted = False
        while lam <= factors.LAMBDA_MAX:
            try:
                delta = factors._solve_damped(ab, jtr, lam * diag)
            except np.linalg.LinAlgError:
                lam *= factors.LAMBDA_SCALE
                continue
            candidate = geometry.oplus(poses, delta.reshape(-1, 6))
            new_cost = graph.cost(candidate)
            predicted = -(delta @ jtr) - 0.5 * delta @ blas.dsbmv(
                len(ab) - 1, 1.0, ab, delta, lower=1)
            stalled = factors._negligible(predicted, cost,
                                          params.cost_tolerance)
            trials.append((bool(new_cost < cost), bool(stalled), predicted))
            if new_cost < cost:
                accepted = True
                break
            if stalled:
                break
            lam *= factors.LAMBDA_SCALE
        if not accepted:
            break
        iterations += 1
        improvement = cost - new_cost
        poses, cost = candidate, new_cost
        lam = max(lam / factors.LAMBDA_SCALE, 1e-12)
        if factors._negligible(improvement, cost, params.cost_tolerance):
            break
    return poses, (iterations, initial_cost, cost), trials


class TestJacobianOracle:
    """Closed-form blocks against central differences, and the batched
    normal equations of linearize against the same blocks assembled one
    factor at a time."""

    @pytest.mark.parametrize("residual", sorted(RESIDUALS))
    @pytest.mark.parametrize("kind", ["prior", "motion_prior", "im2im",
                                      "keyframe", "im2patch", "one_slot"])
    def test_blocks_match_numerical_jacobian(self, kind, residual):
        # Derandomized, and without shrinking: a wrong block fails on almost
        # every draw, and shrinking 15 cases of ~40 floats takes minutes.
        # Each draw holds two or three factors of the kind, so a batched
        # evaluation that mixes rows of the batch fails too; one_slot's
        # factors fill the slots A, B and C in turn.  The graph holds them
        # relabeled, as it holds no unused key id.
        @settings(max_examples=40, deadline=None, derandomize=True,
                  database=None, phases=[Phase.explicit, Phase.generate],
                  suppress_health_check=[HealthCheck.filter_too_much])
        @given(draws=st.lists(
            st.tuples(st.tuples(*[POSES] * 5), RESIDUALS[residual]),
            min_size=2, max_size=3))
        def check(draws):
            made, rows = [], []
            for n, (poses, offset) in enumerate(draws):
                factor, own = _factor_at(kind, poses, offset, t0=3 * n, n=n)
                made.append(factor)
                rows += own
            values = Pose.stack(rows)
            for factor, (_, offset) in zip(made, draws):
                raw, blocks = _per_factor(factor, values)
                np.testing.assert_allclose(raw, offset, atol=1e-7)
                assert len(blocks) == len(factor.keys)
                for key, block in zip(factor.keys, blocks):
                    def perturbed(pose, key=key, factor=factor):
                        return factor.residual(_replaced(values, key, pose))

                    oracle = numerical_jacobian(perturbed, values[key])
                    err = np.linalg.norm(block - oracle)
                    assert err <= 1e-6 * np.linalg.norm(oracle), (key, err)
            relabeled, old = _relabeled(made)
            graph, values = FactorGraph(relabeled), values[old]
            system = linearize(graph, values)
            _assert_matches_per_factor(system, graph, values, 1e-12)

        check()


# The error poses and tangent maps of each kind of factor as each computed
# them before the residual template, kept as the template's reference: a
# batch of factors of the kind, `poses` one Pose per key in key order.
def _ad_inv(a):
    return geometry.adjoint(geometry.inverse(a))


def _prior_reference(poses, measured):
    return geometry.compose(geometry.inverse(measured), poses[0]), [None]


def _motion_prior_reference(poses, measured):
    a, b = poses
    error = geometry.compose(geometry.inverse(a), b)
    return error, [-_ad_inv(error), None]


def _im2im_reference(poses, measured):
    o_prev, e_prev, o_curr, e_curr = poses
    rel_prev = geometry.compose(geometry.inverse(o_prev), e_prev)
    rel_curr = geometry.compose(geometry.inverse(o_curr), e_curr)
    graph_rel = geometry.compose(geometry.inverse(rel_prev), rel_curr)
    error = geometry.compose(geometry.inverse(measured), graph_rel)
    ad_obj = _ad_inv(rel_curr)
    return error, [ad_obj, -_ad_inv(graph_rel), -ad_obj, None]


def _im2patch_reference(poses, measured):
    o, e = poses
    graph_rel = geometry.compose(geometry.inverse(o), e)
    error = geometry.compose(geometry.inverse(measured), graph_rel)
    return error, [-_ad_inv(graph_rel), None]


REFERENCES = {"eff_prior": _prior_reference,
              "vis_prior": _prior_reference,
              "motion_prior": _motion_prior_reference,
              "im2im": _im2im_reference,
              "im2patch": _im2patch_reference}
# A factor of each kind on the keys of times 1 and 2, measuring `m`.
MAKERS = {"eff_prior": lambda m: eff_prior(1, m, UNIT),
          "vis_prior": lambda m: vis_prior(1, m, UNIT),
          "motion_prior": lambda m: motion_prior(2, UNIT),
          "im2im": lambda m: im2im(2, m, UNIT),
          "im2patch": lambda m: im2patch(1, m, UNIT)}


def _mixed_twists(rng, n, max_trans=30.0):
    """`n` twists whose rotation angles alternate between below and above
    geometry._SERIES_ANGLE, up to 2.5 rad."""
    axis = rng.normal(size=(n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    switch = geometry._SERIES_ANGLE
    angle = np.where(np.arange(n) % 2 == 0, rng.uniform(0.0, switch, n),
                     rng.uniform(switch, 2.5, n))
    return np.concatenate([axis * angle[:, None],
                           rng.uniform(-max_trans, max_trans, (n, 3))], axis=1)


def _reference_evaluate(graph, poses):
    """The whitened residuals and Jacobian blocks (one per key, factor by
    factor) of `graph` at the estimate `poses`, as the solver evaluated
    them before the template: one kind at a time by the reference, then
    one log and one inverse right Jacobian over all kinds, and the rows
    put back in insertion order."""
    errors, maps, sigmas, ends, order = [], [], [], [0], []
    for name in dict.fromkeys(f.name for f in graph.factors):
        members = [i for i, f in enumerate(graph.factors) if f.name == name]
        group = [graph.factors[i] for i in members]
        rows = [poses[np.array([f.keys[i] for f in group])]
                for i in range(len(group[0].slots))]
        error, tangent = REFERENCES[name](
            rows, Pose.stack([f.measured for f in group]))
        errors.append(error)
        maps.append(tangent)
        sigmas.append(np.array([f.noise.sigmas for f in group]))
        ends.append(ends[-1] + len(group))
        order += members
    sigmas = np.concatenate(sigmas)
    raw = geometry.log(Pose(np.concatenate([e.rotation for e in errors]),
                            np.concatenate([e.translation for e in errors])))
    jr_inv = geometry.right_jacobian_inv(raw) / sigmas[:, :, None]
    blocks = [None] * len(order)   # per factor, (keys, 6, 6)
    for a, b, tangent in zip(ends, ends[1:], maps):
        for i, factor_blocks in zip(order[a:b], np.stack(
                [jr_inv[a:b] if m is None else jr_inv[a:b] @ m
                 for m in tangent], axis=1)):
            blocks[i] = factor_blocks
    return (raw / sigmas)[np.argsort(order)], np.concatenate(blocks)


def _assert_same_maps(error, maps, expected, expected_maps):
    """Equal error poses and, key by key, equal tangent maps (None for the
    identity), to the bit."""
    np.testing.assert_array_equal(error.rotation, expected.rotation)
    np.testing.assert_array_equal(error.translation, expected.translation)
    assert len(maps) == len(expected_maps)
    for got, want in zip(maps, expected_maps):
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_array_equal(got, want)


class TestTemplateReference:
    """The residual template against each kind's own error and tangent
    maps, to the bit."""

    @pytest.mark.parametrize("name", list(REFERENCES))
    def test_template_equals_class_reference(self, name):
        # A batch as the solver evaluates it, empty slots holding identity
        # rows, and the residual of one factor alone, its row evaluated as
        # the graph's rows are.  The last key's pose is solved for so that
        # the error's rotation angles alternate around the series switch.
        rng = np.random.default_rng(31)
        n = 16
        slots = MAKERS[name](IDENTITY).slots
        identity = Pose(np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 3)))
        poses = {s: geometry.exp(_mixed_twists(rng, n)) if s in slots
                 else identity for s in SLOTS[:3]}
        measured = (identity if name == "motion_prior"
                    else geometry.exp(_mixed_twists(rng, n)))
        poses["D"] = geometry.compose(
            geometry.compose(poses["C"], geometry.compose(
                geometry.inverse(poses["A"]), poses["B"])),
            geometry.compose(measured, geometry.exp(_mixed_twists(rng, n))))
        expected, expected_maps = REFERENCES[name](
            [poses[s] for s in slots], measured)
        angles = np.linalg.norm(geometry.log(expected)[:, :3], axis=1)
        assert (angles < geometry._SERIES_ANGLE).any()
        assert (angles >= geometry._SERIES_ANGLE).any()

        error, maps = factors._template(*(poses[s] for s in SLOTS), measured,
                                        True)
        _assert_same_maps(error, [maps[SLOTS.index(s)] for s in slots],
                          expected, expected_maps)

        factor = MAKERS[name](measured[0])
        one = [poses[s][0] for s in slots]
        values = Pose.stack([IDENTITY] * 4)
        for key, pose in zip(factor.keys, one):
            values = _replaced(values, key, pose)
        np.testing.assert_array_equal(factor.residual(values), geometry.log(
            REFERENCES[name](one, measured[0])[0]) / factor.noise.sigmas)

    def test_graph_evaluation_equals_class_reference(self, episode_graph):
        # Every kind of a real tracking graph in one template evaluation,
        # against the kinds evaluated one at a time.  Half the keys are
        # moved far enough that the residual angles lie on both sides of
        # the series switch.
        graph, poses = episode_graph
        rng = np.random.default_rng(32)
        far = np.arange(len(poses.translation)) % 2 == 1
        poses = geometry.oplus(poses, np.where(
            far[:, None], rng.normal(scale=[0.05] * 3 + [0.5] * 3,
                                     size=(len(far), 6)), 0.0))
        plan = factors._layout(graph)
        residuals, blocks = factors._evaluate(graph.store, poses, True)
        expected, expected_blocks = _reference_evaluate(graph, poses)
        angles = np.linalg.norm((expected * graph.store["sigmas"])[:, :3],
                                axis=1)
        assert (angles < geometry._SERIES_ANGLE).any()
        assert (angles >= geometry._SERIES_ANGLE).any()
        np.testing.assert_array_equal(residuals, expected)
        np.testing.assert_array_equal(blocks[plan.blocks], expected_blocks)


@pytest.fixture(scope="module")
def pyramid_episode():
    """A 24-step pyramid episode on the default gel."""
    return generate_episode(Pyramid(),
                            TrajectorySpec(steps=24, indent=1.25, length=2.0),
                            GelConfig(), NoiseSpec(), seed=1)


@pytest.fixture(scope="module")
def episode_graph(pyramid_episode):
    """The graph and estimate at the end of a 24-step
    patchgraph episode, with the im2patch factors that gtpatch adds on the
    same episode, so that one real graph holds every factor kind:
    patchgraph's keyframe factors (k = t - 2) and gtpatch's unary factors
    against the true shape."""
    ep = pyramid_episode
    gel = ep.gel

    def run(mode, shape=None):
        tracker = Tracker(mode, TrackerConfig(), ep.vision_prior, gel,
                          shape=shape)
        for frame in ep.frames:
            tracker.step(frame.normals, frame.eff_measured)
        return tracker

    patchgraph = run(TrackerMode.PATCH_GRAPH)
    gtpatch = run(TrackerMode.GROUNDTRUTH_PATCH, ep.shape)
    return FactorGraph(patchgraph.graph.factors + [
        f for f in gtpatch.graph.factors if f.name == "im2patch"]), \
        patchgraph.poses


class TestEpisodeGraph:
    """Batched evaluation on a real tracking graph against the per-factor
    reference."""

    def test_graph_has_every_factor_kind(self, episode_graph):
        graph, _ = episode_graph
        assert {f.name for f in graph.factors} == {
            "vis_prior", "eff_prior", "motion_prior", "im2im", "im2patch"}
        spans = {_time(f.keys[-1]) - _time(f.keys[0]) for f in graph.factors
                 if f.name == "im2im"}
        assert spans == {1, 2}

    def test_normal_equations_match_per_factor_reference(self, episode_graph):
        graph, values = episode_graph
        _assert_matches_per_factor(linearize(graph, values), graph, values,
                                   1e-10)

    def test_cost_is_sum_of_factor_costs(self, episode_graph):
        graph, values = episode_graph
        residuals = [_per_factor(f, values)[0] / f.noise.sigmas
                     for f in graph.factors]
        expected = sum(0.5 * float(r @ r) for r in residuals)
        assert graph.cost(values) == pytest.approx(expected, rel=1e-12)
        assert linearize(graph, values).cost == graph.cost(values)

    def test_factor_is_its_store_row(self, episode_graph, monkeypatch):
        # The graph stores its factors' rows and nothing else, and a
        # factor's residual is its row of the graph's evaluation, to the
        # bit, at residual angles on both sides of the series switch, got
        # by evaluating the factor's own row the same way.
        graph, values = episode_graph
        assert set(graph.store) == set(graph.factors[0].row())
        for name, column in graph.store.items():
            np.testing.assert_array_equal(column, np.concatenate(
                [f.row()[name] for f in graph.factors]))
        poses = _jittered(values, np.random.default_rng(33))
        residuals, _ = factors._evaluate(graph.store, poses)
        angles = np.linalg.norm((residuals * graph.store["sigmas"])[:, :3],
                                axis=1)
        assert (angles < geometry._SERIES_ANGLE).any()
        assert (angles >= geometry._SERIES_ANGLE).any()
        evaluate, rows = factors._evaluate, []

        def counted(store, poses, jacobians=False):
            rows.append(len(store["ids"]))
            return evaluate(store, poses, jacobians)

        monkeypatch.setattr(factors, "_evaluate", counted)
        for factor, residual in zip(graph.factors, residuals):
            np.testing.assert_array_equal(factor.residual(poses), residual)
        assert rows == [1] * len(graph)

    def test_residual_at_pi_in_batch_raises(self, episode_graph):
        graph, values = episode_graph
        last = max((f for f in graph.factors if f.name == "im2patch"),
                   key=lambda f: f.keys)
        t = _time(last.keys[0])
        graph_rel = geometry.compose(geometry.inverse(values[obj_key(t)]),
                                     values[eff_key(t)])
        flipped = im2patch(t, geometry.compose(
            graph_rel, Pose(rot_z(np.pi), np.zeros(3))), last.noise)
        broken = FactorGraph([flipped if f is last else f
                              for f in graph.factors])
        with pytest.raises(DomainError):
            broken.cost(values)
        with pytest.raises(DomainError):
            linearize(broken, values)

    def test_interleaved_adds_match_fresh_graph(self, episode_graph):
        # The store grows and the cached linearize layout is rebuilt
        # as factors arrive between evaluations; neither may change a bit
        # of what a graph built in one go gives.  Each prefix of the graph
        # uses the first key ids of the whole graph, so it reads the first
        # rows of the whole estimate.
        graph, poses = episode_graph
        grown = FactorGraph()
        for factor in graph.factors:
            grown.add(factor)
            grown.cost(poses)
            linearize(grown, poses)
        fresh = FactorGraph(graph.factors)
        assert grown.key_count == fresh.key_count == graph.key_count
        assert grown.cost(poses) == fresh.cost(poses)
        for a, b in ((linearize(grown, poses), linearize(fresh, poses)),
                     (linearize(grown, poses), linearize(graph, poses))):
            np.testing.assert_array_equal(a.ab, b.ab)
            np.testing.assert_array_equal(a.jtr, b.jtr)
            assert a.cost == b.cost

    def test_cost_reads_the_store_without_a_layout(self, episode_graph):
        # On a graph that grew since its last linearize, cost leaves that
        # layout as it is and still agrees, to the bit, with a fresh
        # linearize of the whole graph.
        graph, values = episode_graph
        poses = _jittered(values, np.random.default_rng(34))
        half = len(graph) // 2
        grown = FactorGraph(graph.factors[:half])
        linearize(grown, poses)
        plan = grown._plan
        for factor in graph.factors[half:]:
            grown.add(factor)
        cost = grown.cost(poses)
        assert grown._plan is plan and plan.factors == half
        assert cost == linearize(FactorGraph(graph.factors), poses).cost

    def test_extended_layout_matches_fresh_layout(self, pyramid_episode,
                                                  monkeypatch):
        # A tracker step only appends keys and factors, so linearize extends
        # the graph's cached layout, except at a step whose factors widen
        # the band: at every step of a 24-step patchgraph episode, the
        # system from the extended layout equals, to the bit, that of a
        # graph laid out in one go.
        ep = pyramid_episode
        tracker = Tracker(TrackerMode.PATCH_GRAPH, TrackerConfig(),
                          ep.vision_prior, ep.gel)
        afresh = []   # per _layout call: the graph, and if it starts afresh
        layout = factors._layout
        monkeypatch.setattr(factors, "_layout", lambda graph: (
            afresh.append((graph, graph._plan is None)), layout(graph))[1])
        steps = []
        for frame in ep.frames:
            afresh.clear()
            estimate = tracker.step(frame.normals, frame.eff_measured)
            graph = tracker.graph
            grown = linearize(graph, tracker.poses)
            fresh = linearize(FactorGraph(graph.factors), tracker.poses)
            assert grown.ab.tobytes() == fresh.ab.tobytes()
            assert grown.jtr.tobytes() == fresh.jtr.tobytes()
            assert grown.cost == fresh.cost
            steps.append((graph._plan.width,
                          any(new for g, new in afresh if g is graph),
                          estimate.diagnostics["keyframe_target"]))
        # Steps 1 and 2 widen the band as keys arrive; the first keyframe
        # factor, k = t - 2 at step 3, widens it again; every later step
        # extends the layout.
        assert steps[:3] == [(5, True, None), (23, True, None), (35, True, 1)]
        assert {(w, new) for w, new, _ in steps[3:]} == {(35, False)}

    def test_layout_grows_as_a_prefix(self, pyramid_episode):
        # At a step whose factors leave the band width as it is, the layout
        # keeps every earlier entry where it was and appends the new
        # factors' entries: the plan's band and J^T r entries, blocks and
        # pairs begin with the previous step's, element for element.  Steps
        # 2 and 3 widen the band (see above); the 21 later steps do not.
        ep = pyramid_episode
        tracker = Tracker(TrackerMode.PATCH_GRAPH, TrackerConfig(),
                          ep.vision_prior, ep.gel)
        plans = []
        for frame in ep.frames:
            tracker.step(frame.normals, frame.eff_measured)
            plans.append(tracker.graph._plan)
        kept = 0
        for old, new in zip(plans, plans[1:]):
            assert new.factors > old.factors
            if new.width != old.width:
                continue
            kept += 1
            for name in ("band_at", "jtr_at", "blocks", "pairs"):
                before, after = getattr(old, name), getattr(new, name)
                assert after.shape[-1] > before.shape[-1]
                np.testing.assert_array_equal(
                    after[..., :before.shape[-1]], before)
        assert kept == 21

    def test_optimize_matches_two_pass_reference(self, episode_graph,
                                                 monkeypatch):
        # Evaluating each point once takes the same steps, to the bit, as
        # evaluating the cost of every trial and linearizing every accepted
        # point again.
        graph, values = episode_graph
        init = _jittered(values, np.random.default_rng(21))
        expected, expected_stats, trials = _two_pass_optimize(graph, init)
        assert expected_stats[0] >= 2

        passes = {"cost": 0, "linearize": 0}
        cost = FactorGraph.cost

        def counted_cost(self, point):
            passes["cost"] += 1
            return cost(self, point)

        def counted_linearize(graph, point):
            passes["linearize"] += 1
            return linearize(graph, point)

        monkeypatch.setattr(FactorGraph, "cost", counted_cost)
        monkeypatch.setattr(factors, "linearize", counted_linearize)
        actual, stats = optimize(graph, init)

        assert (stats.iterations, stats.initial_cost,
                stats.final_cost) == expected_stats
        assert stats.predicted_decrease == trials[-1][2]
        assert stats.linearizations == passes["linearize"]
        np.testing.assert_array_equal(actual.rotation, expected.rotation)
        np.testing.assert_array_equal(actual.translation, expected.translation)
        # A trial the model calls final takes a cost-only pass, and is
        # linearized too if it is accepted and the search goes on; every
        # other trial is linearized once.
        stalled = sum(s for _, s, _ in trials)
        assert passes["cost"] == stalled
        assert passes["linearize"] == 1 + len(trials) - stalled + sum(
            a and s for a, s, _ in trials[:-1])
        # No trial is rejected here and the last one is stalled: one
        # linearization at the start and one per accepted non-final step,
        # and a cost-only pass only for the final step.
        assert passes["linearize"] == 1 + sum(a for a, _, _ in trials[:-1])
        assert passes["cost"] <= 1 + sum(not a for a, _, _ in trials)

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_key_order_does_not_change_estimate(self, episode_graph, order):
        # Key ids are the column blocks, so a graph whose ids run out of time
        # order has the same optimum: relabeling the keys by first
        # appearance in the factors taken backwards numbers them in reverse
        # time order, and in a shuffle scatters them, which widens the band
        # of J^T J (here from 35 to 209).
        graph, values = episode_graph
        rng = np.random.default_rng(23)
        noisy = _jittered(values, rng)
        others = list(reversed(graph.factors))
        if order == "shuffled":
            others = [others[i] for i in rng.permutation(len(others))]
        relabeled, old = _relabeled(others)
        other = FactorGraph(relabeled)
        assert (old != np.arange(graph.key_count)).any()
        if order == "shuffled":
            assert len(linearize(other, values[old]).ab) > 36
        forward, _ = optimize(graph, noisy)
        moved, _ = optimize(other, noisy[old])
        for new, key in enumerate(old):
            np.testing.assert_allclose(matrix(moved[new]),
                                       matrix(forward[key]), rtol=0,
                                       atol=1e-9)

    def test_noisy_graph_stops_on_sigma_scale(self, episode_graph,
                                              monkeypatch):
        # The factors carry real noise, so the optimum costs far more than
        # the tolerance, and the solve ends once a step is predicted to
        # remove less than it: well under a posterior standard deviation.
        # The relative 1e-9 stop it replaces took 4 linearizations here.
        graph, values = episode_graph
        init = _jittered(values, np.random.default_rng(22))
        tight, _ = optimize(graph, init, OptimizerParams(cost_tolerance=1e-14))
        calls = []

        def counted_linearize(graph, point):
            calls.append(point)
            return linearize(graph, point)

        monkeypatch.setattr(factors, "linearize", counted_linearize)
        actual, stats = optimize(graph, init)
        tolerance = OptimizerParams().cost_tolerance
        assert stats.predicted_decrease < tolerance < 0.01 * stats.final_cost
        assert stats.linearizations == len(calls) == 3
        assert np.linalg.norm(actual.translation - tight.translation,
                              axis=1).max() < 5e-3
        assert np.abs(geometry.ominus(actual, tight)[:, :3]).max() < 1e-4

    def test_banded_damped_solve_matches_dense(self, episode_graph):
        # Time order makes J^T J banded (a keyframe factor, the widest, spans
        # the six key blocks e_{t-2}, o_{t-2} ... e_t, o_t, so
        # w = 6 * 5 + 5 = 35 columns below the diagonal), and the banded
        # Cholesky solve agrees with a dense solve of the same damped system.
        graph, values = episode_graph
        system = linearize(graph, values)
        assert system.ab.shape == (36, 6 * graph.key_count)
        jtj = _dense(system.ab)
        diag = np.diag(jtj)
        for lam in (factors.LAMBDA_INIT, 1.0):
            delta = factors._solve_damped(system.ab, system.jtr, lam * diag)
            expected = np.linalg.solve(jtj + np.diag(lam * diag), -system.jtr)
            assert (np.linalg.norm(delta - expected)
                    <= 1e-9 * np.linalg.norm(expected))

class TestOptimizerParams:
    # Explicit ids: the negative cases keep the ids they had when five
    # damping-schedule cases came first.
    @pytest.mark.parametrize("overrides", [
        pytest.param({"cost_tolerance": float("nan")}, id="overrides0"),
        pytest.param({"cost_tolerance": float("-inf")}, id="overrides1"),
        pytest.param({"max_iterations": -1}, id="overrides5"),
        pytest.param({"cost_tolerance": -1e-9}, id="overrides6"),
        pytest.param({"cost_tolerance": float("inf")}, id="inf"),
        pytest.param({"cost_tolerance": True}, id="bool"),
        pytest.param({"max_iterations": 2.5}, id="float_iterations"),
        pytest.param({"max_iterations": True}, id="bool_iterations"),
        pytest.param({"max_iterations": None}, id="none_iterations"),
    ])
    def test_invalid_rejected(self, overrides):
        with pytest.raises(ValueError):
            OptimizerParams(**overrides)

    def test_boundary_values_accepted(self):
        OptimizerParams()
        OptimizerParams(max_iterations=0, cost_tolerance=0.0)


class TestOptimize:
    def test_single_prior_quadratic_bowl(self):
        rng = np.random.default_rng(9)
        mean = random_pose(rng)
        graph = FactorGraph()
        graph.add(_prior(0, mean, UNIT))
        init = Pose.stack([geometry.oplus(mean, rng.uniform(-0.05, 0.05, 6))])
        poses, stats = optimize(graph, init)
        assert np.linalg.norm(geometry.ominus(poses[0], mean)) < 1e-8
        assert 1 <= stats.iterations <= 3

    def test_at_optimum_ends_damping_search_on_model(self, monkeypatch):
        # No damped step can lower the cost, and the quadratic model says
        # so: the search ends on the first rejected step instead of raising
        # lambda to its ceiling.  Every evaluation pass counts, cost-only or
        # linearization.
        rng = np.random.default_rng(13)
        mean = random_pose(rng)
        graph = FactorGraph()
        graph.add(_prior(0, mean, UNIT))
        calls = []
        cost = FactorGraph.cost

        def counted_cost(self, values):
            calls.append("cost")
            return cost(self, values)

        def counted_linearize(graph, values):
            calls.append("linearize")
            return linearize(graph, values)

        monkeypatch.setattr(FactorGraph, "cost", counted_cost)
        monkeypatch.setattr(factors, "linearize", counted_linearize)
        _, stats = optimize(graph, Pose.stack([mean]))
        assert stats.iterations == 0
        assert len(calls) <= 2

    def test_two_prior_gaussian_fusion(self):
        mu1 = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        mu2 = Pose(np.eye(3), np.array([3.0, 0.0, 0.0]))
        s1, s2 = 1.0, 2.0
        graph = FactorGraph()
        graph.add(_prior(0, mu1, NoiseModel.isotropic(s1, s1)))
        graph.add(_prior(0, mu2, NoiseModel.isotropic(s2, s2)))
        expected = (1.0 / s1**2 + 3.0 / s2**2) / (1.0 / s1**2 + 1.0 / s2**2)
        poses, _ = optimize(graph, Pose.stack([Pose.identity()]))
        np.testing.assert_allclose(poses[0].translation,
                                   [expected, 0.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(poses[0].rotation, np.eye(3), atol=1e-6)

    def test_exact_odometry_chain_recovery(self):
        rng = np.random.default_rng(10)
        truth = [random_pose(rng, max_angle=0.3, max_trans=2.0)]
        for _ in range(9):
            step = geometry.exp(rng.uniform(-0.2, 0.2, 6))
            truth.append(geometry.compose(truth[-1], step))

        graph = FactorGraph()
        graph.add(eff_prior(1, truth[0], UNIT))
        # The object is held at the identity by a prior and the random walk,
        # whose residuals are exactly zero there.
        graph.add(vis_prior(1, Pose.identity(), UNIT))
        for t in range(2, 11):
            measured = geometry.compose(geometry.inverse(truth[t - 2]),
                                        truth[t - 1])
            # Odometry between consecutive end-effector poses expressed as a
            # relative-motion measurement of the still object.
            graph.add(im2im(t, measured, UNIT))
            graph.add(motion_prior(t, UNIT))
        # Rows e_1, o_1, e_2, o_2, ...: the object starts at the identity.
        init = Pose.stack([pose for t in range(10) for pose in (
            geometry.oplus(truth[t], rng.uniform(-0.05, 0.05, 6)), IDENTITY)])
        poses, _ = optimize(graph, init)
        for t in range(10):
            err = geometry.ominus(poses[eff_key(t + 1)], truth[t])
            assert np.linalg.norm(err) < 1e-6

    def test_indefinite_damped_system_raises(self):
        ab = np.array([[1.0, -1.0], [2.0, 0.0]])   # [[1, 2], [2, -1]]
        with pytest.raises(np.linalg.LinAlgError):
            factors._solve_damped(ab, np.ones(2), np.zeros(2))

    def test_non_finite_initial_cost_raises(self):
        graph = FactorGraph()
        graph.add(_prior(0, Pose(np.eye(3), np.array([np.nan, 0.0, 0.0])),
                         UNIT))
        with pytest.raises(DivergenceError):
            optimize(graph, Pose.stack([Pose.identity()]))

    @pytest.mark.parametrize("offset", [1e-9, 0.05],
                             ids=["final_trial", "linearized_trial"])
    def test_non_finite_trial_cost_raises(self, monkeypatch, offset):
        # Next to the optimum the gradient is not zero, but the model calls
        # the first trial final, which gets a cost-only pass; away from it
        # the trial is linearized.
        rng = np.random.default_rng(15)
        mean = random_pose(rng)
        graph = FactorGraph()
        graph.add(_prior(0, mean, UNIT))
        init = Pose.stack([geometry.oplus(mean, np.full(6, offset))])
        retract, cost = geometry.oplus, FactorGraph.cost
        cost_only = []

        def poisoned(poses, step):
            moved = retract(poses, step)
            moved.translation[:] = np.nan
            return moved

        def counted_cost(self, poses):
            cost_only.append(poses)
            return cost(self, poses)

        monkeypatch.setattr(geometry, "oplus", poisoned)
        monkeypatch.setattr(FactorGraph, "cost", counted_cost)
        with pytest.raises(DivergenceError):
            optimize(graph, init)
        assert len(cost_only) == (1 if offset < 1e-6 else 0)

    def test_exact_optimum_stops_before_solving(self, monkeypatch):
        # A start whose gradient J^T r is exactly zero ends the loop after
        # its one linearization, with no solve, no retraction and no trial.
        rng = np.random.default_rng(15)
        mean = random_pose(rng)
        graph = FactorGraph()
        graph.add(_prior(0, mean, UNIT))
        init = Pose.stack([geometry.oplus(mean, np.zeros(6))])
        assert not linearize(graph, init).jtr.any()

        def refused(*args, **kwargs):
            raise AssertionError("trial step taken")

        monkeypatch.setattr(factors, "_solve_damped", refused)
        monkeypatch.setattr(geometry, "oplus", refused)
        monkeypatch.setattr(FactorGraph, "cost", refused)
        poses, stats = optimize(graph, init)
        assert stats == OptimizeStats(
            iterations=0, initial_cost=stats.initial_cost,
            final_cost=stats.initial_cost, linearizations=1,
            predicted_decrease=None)
        np.testing.assert_array_equal(poses.rotation, init.rotation)
        np.testing.assert_array_equal(poses.translation, init.translation)

    def test_no_iterations_computes_no_jacobian(self, monkeypatch):
        rng = np.random.default_rng(16)
        graph = FactorGraph()
        graph.add(_prior(0, random_pose(rng), UNIT))
        init = Pose.stack([random_pose(rng)])

        def refused(*args, **kwargs):
            raise AssertionError("linearize called")

        monkeypatch.setattr(factors, "linearize", refused)
        _, stats = optimize(graph, init, OptimizerParams(max_iterations=0))
        assert stats.iterations == 0
        assert stats.initial_cost == stats.final_cost == graph.cost(init)

    def test_empty_graph_returns_empty(self):
        # With no variable there is nothing to solve, and BLAS dsbmv rejects
        # a 0x0 band.
        poses, stats = optimize(FactorGraph(), Pose.stack([]))
        assert len(poses.translation) == 0
        assert stats == OptimizeStats(iterations=0, initial_cost=0.0,
                                      final_cost=0.0, linearizations=1,
                                      predicted_decrease=None)

    @pytest.mark.parametrize("rows", [1, 3], ids=["too_few", "too_many"])
    def test_estimate_rows_must_match_graph_keys(self, rows):
        # Row i is the pose of key id i, so an estimate with another row
        # count holds a pose no factor constrains or misses one.
        graph = FactorGraph()
        graph.add(eff_prior(1, Pose.identity(), UNIT))
        graph.add(vis_prior(1, Pose.identity(), UNIT))
        init = Pose.stack([Pose.identity()] * rows)
        with pytest.raises(ValueError, match=rf"\(2\), got .*\({rows},\)"):
            optimize(graph, init)

    def test_cost_monotone_and_final_not_above_initial(self):
        rng = np.random.default_rng(11)
        graph = FactorGraph()
        mean = random_pose(rng)
        graph.add(_prior(0, mean, UNIT))
        graph.add(_prior(0, random_pose(rng), UNIT))
        init = Pose.stack([random_pose(rng)])
        _, stats = optimize(graph, init)
        assert stats.final_cost <= stats.initial_cost

    def test_stationary_point(self):
        rng = np.random.default_rng(12)
        graph = FactorGraph()
        graph.add(_prior(0, random_pose(rng), UNIT))
        graph.add(_prior(0, random_pose(rng), UNIT))
        init = Pose.stack([Pose.identity()])
        poses, stats = optimize(graph, init,
                                OptimizerParams(max_iterations=100,
                                                cost_tolerance=1e-14))
        grad = linearize(graph, poses).jtr
        assert np.abs(grad).max() < 1e-6 * (1.0 + stats.initial_cost)
