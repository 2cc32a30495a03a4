"""Tests for the operator registry and the operator implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dimensions, ExecutionContext, OperandType, OpKind, get_op, list_ops
from repro.core.ops import CLIP_VALUE, OP_REGISTRY, sample_params, sanitize
from repro.errors import OperatorError


def make_context(num_tasks=6, num_features=4, window=4, seed=0):
    sectors = np.array([0, 0, 0, 1, 1, 1])[:num_tasks]
    industries = np.array([0, 0, 1, 2, 2, 3])[:num_tasks]
    return ExecutionContext(
        num_tasks=num_tasks,
        num_features=num_features,
        window=window,
        sector_index=sectors,
        industry_index=industries,
        rng=np.random.default_rng(seed),
    )


#: Every operator and its parameter names, in registry order.
PINNED_REGISTRY = (
    ("s_add", ()), ("s_sub", ()), ("s_mul", ()), ("s_div", ()),
    ("s_min", ()), ("s_max", ()), ("s_abs", ()), ("s_sign", ()),
    ("s_sin", ()), ("s_cos", ()), ("s_tan", ()), ("s_arcsin", ()),
    ("s_arccos", ()), ("s_arctan", ()), ("s_exp", ()), ("s_log", ()),
    ("s_heaviside", ()), ("s_const", ("constant",)),
    ("v_add", ()), ("v_sub", ()), ("v_mul", ()), ("v_div", ()),
    ("v_min", ()), ("v_max", ()), ("v_abs", ()), ("v_heaviside", ()),
    ("v_scale", ()), ("v_dot", ()), ("v_outer", ()), ("v_norm", ()),
    ("v_mean", ()), ("v_std", ()), ("v_sum", ()), ("ts_rank", ()),
    ("v_broadcast", ()), ("vector_uniform", ("low", "high")),
    ("m_add", ()), ("m_sub", ()), ("m_mul", ()), ("m_div", ()),
    ("m_min", ()), ("m_max", ()), ("m_abs", ()), ("m_heaviside", ()),
    ("m_scale", ()), ("matmul", ()), ("matvec", ()), ("transpose", ()),
    ("m_norm", ()), ("m_norm_axis", ("axis",)), ("m_mean", ()), ("m_std", ()),
    ("m_mean_axis", ("axis",)), ("m_std_axis", ("axis",)),
    ("m_broadcast", ("axis",)), ("matrix_uniform", ("low", "high")),
    ("get_scalar", ("row", "col")), ("get_row", ("row",)),
    ("get_column", ("col",)),
    ("rank", ()), ("relation_rank", ("level",)), ("relation_demean", ("level",)),
    ("relation_mean", ("level",)),
)


class TestRegistry:
    def test_registry_order_is_pinned(self):
        assert tuple(
            (name, spec.param_names) for name, spec in OP_REGISTRY.items()
        ) == PINNED_REGISTRY, (
            "OP_REGISTRY order or an operator's param_names changed.  The "
            "mutator samples an operator by its position in the registry and "
            "draws parameters in param_names order, so this changes every "
            "mined result; keep the order, or re-baseline the mined digests "
            "on purpose and update this pin."
        )

    def test_known_operators_present(self):
        for name in ("s_add", "s_div", "v_dot", "matmul", "transpose", "get_scalar",
                     "rank", "relation_rank", "relation_demean", "relation_mean",
                     "vector_uniform", "ts_rank"):
            assert name in OP_REGISTRY

    def test_get_unknown_raises(self):
        with pytest.raises(OperatorError):
            get_op("does_not_exist")

    def test_list_by_kind(self):
        relations = list_ops(kind=OpKind.RELATION)
        assert {spec.name for spec in relations} >= {"rank", "relation_rank",
                                                     "relation_demean"}

    def test_list_by_output_type(self):
        scalar_ops = list_ops(output_type=OperandType.SCALAR)
        assert all(spec.output_type is OperandType.SCALAR for spec in scalar_ops)

    def test_relation_ops_not_allowed_in_setup(self):
        setup_ops = {spec.name for spec in list_ops(component="setup")}
        assert "rank" not in setup_ops
        assert "relation_demean" not in setup_ops

    def test_arity_matches_input_types(self):
        for spec in OP_REGISTRY.values():
            assert spec.arity == len(spec.input_types)

    def test_wrong_arity_call_rejected(self):
        ctx = make_context()
        with pytest.raises(OperatorError):
            get_op("s_add")(ctx, (np.zeros(6),), {})


class TestSanitize:
    def test_replaces_non_finite(self):
        values = np.array([np.nan, np.inf, -np.inf, 1.0])
        cleaned = sanitize(values)
        assert np.isfinite(cleaned).all()
        assert cleaned[0] == 0.0
        assert cleaned[1] == CLIP_VALUE
        assert cleaned[2] == -CLIP_VALUE

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=50, deadline=None)
    def test_always_bounded(self, value):
        cleaned = sanitize(np.array([value]))
        assert np.abs(cleaned).max() <= CLIP_VALUE


class TestScalarOps:
    def test_arithmetic(self):
        ctx = make_context()
        a, b = np.full(6, 6.0), np.full(6, 3.0)
        assert (get_op("s_add")(ctx, (a, b), {}) == 9).all()
        assert (get_op("s_sub")(ctx, (a, b), {}) == 3).all()
        assert (get_op("s_mul")(ctx, (a, b), {}) == 18).all()
        assert (get_op("s_div")(ctx, (a, b), {}) == 2).all()

    def test_protected_division_by_zero(self):
        ctx = make_context()
        result = get_op("s_div")(ctx, (np.ones(6), np.zeros(6)), {})
        assert np.isfinite(result).all()

    def test_protected_log_and_arcsin(self):
        ctx = make_context()
        assert np.isfinite(get_op("s_log")(ctx, (np.zeros(6),), {})).all()
        assert np.isfinite(get_op("s_arcsin")(ctx, (np.full(6, 5.0),), {})).all()

    def test_exp_is_clipped(self):
        ctx = make_context()
        result = get_op("s_exp")(ctx, (np.full(6, 1e4),), {})
        assert np.abs(result).max() <= CLIP_VALUE

    def test_heaviside(self):
        ctx = make_context()
        result = get_op("s_heaviside")(ctx, (np.array([-1.0, 0.0, 2.0, 3.0, -5.0, 0.1]),), {})
        np.testing.assert_allclose(result, [0, 1, 1, 1, 0, 1])

    def test_const(self):
        ctx = make_context()
        result = get_op("s_const")(ctx, (), {"constant": 2.5})
        np.testing.assert_allclose(result, 2.5)


class TestVectorOps:
    def test_dot_and_norm(self, rng):
        ctx = make_context()
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        np.testing.assert_allclose(
            get_op("v_dot")(ctx, (a, b), {}), np.sum(a * b, axis=1), rtol=1e-9
        )
        np.testing.assert_allclose(
            get_op("v_norm")(ctx, (a,), {}), np.linalg.norm(a, axis=1), rtol=1e-9
        )

    def test_scale_and_broadcast(self, rng):
        ctx = make_context()
        scalar = rng.normal(size=6)
        vector = rng.normal(size=(6, 4))
        np.testing.assert_allclose(
            get_op("v_scale")(ctx, (scalar, vector), {}), scalar[:, None] * vector
        )
        broadcast = get_op("v_broadcast")(ctx, (scalar,), {})
        assert broadcast.shape == (6, 4)
        np.testing.assert_allclose(broadcast[:, 0], scalar)

    def test_outer_shape(self, rng):
        ctx = make_context()
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        outer = get_op("v_outer")(ctx, (a, b), {})
        assert outer.shape == (6, 4, 4)
        np.testing.assert_allclose(outer[2], np.outer(a[2], b[2]))

    def test_ts_rank_extremes(self):
        ctx = make_context()
        ascending = np.tile(np.arange(4.0), (6, 1))
        result = get_op("ts_rank")(ctx, (ascending,), {})
        np.testing.assert_allclose(result, 1.0)
        descending = ascending[:, ::-1].copy()
        np.testing.assert_allclose(get_op("ts_rank")(ctx, (descending,), {}), 0.0)

    def test_vector_uniform_bounds_and_determinism(self):
        params = {"low": -0.5, "high": 0.5}
        a = get_op("vector_uniform")(make_context(seed=1), (), params)
        b = get_op("vector_uniform")(make_context(seed=1), (), params)
        assert a.shape == (6, 4)
        assert np.abs(a).max() <= 0.5 + 1e-6
        np.testing.assert_allclose(a, b)

    def test_statistics(self, rng):
        ctx = make_context()
        v = rng.normal(size=(6, 4))
        np.testing.assert_allclose(get_op("v_mean")(ctx, (v,), {}), v.mean(axis=1))
        np.testing.assert_allclose(get_op("v_std")(ctx, (v,), {}), v.std(axis=1))
        np.testing.assert_allclose(get_op("v_sum")(ctx, (v,), {}), v.sum(axis=1))


class TestMatrixOps:
    def test_matmul_and_transpose(self, rng):
        ctx = make_context()
        a = rng.normal(size=(6, 4, 4))
        b = rng.normal(size=(6, 4, 4))
        np.testing.assert_allclose(get_op("matmul")(ctx, (a, b), {}), a @ b, rtol=1e-9)
        np.testing.assert_allclose(
            get_op("transpose")(ctx, (a,), {}), np.swapaxes(a, 1, 2)
        )

    def test_matvec(self, rng):
        ctx = make_context()
        m = rng.normal(size=(6, 4, 4))
        v = rng.normal(size=(6, 4))
        expected = np.einsum("kfw,kw->kf", m, v)
        np.testing.assert_allclose(get_op("matvec")(ctx, (m, v), {}), expected, rtol=1e-9)

    def test_norm_reductions(self, rng):
        ctx = make_context()
        m = rng.normal(size=(6, 4, 4))
        np.testing.assert_allclose(
            get_op("m_norm")(ctx, (m,), {}), np.linalg.norm(m, axis=(1, 2)), rtol=1e-9
        )
        by_axis0 = get_op("m_norm_axis")(ctx, (m,), {"axis": 0})
        assert by_axis0.shape == (6, 4)

    def test_mean_std_axis(self, rng):
        ctx = make_context()
        m = rng.normal(size=(6, 4, 4))
        np.testing.assert_allclose(
            get_op("m_mean_axis")(ctx, (m,), {"axis": 0}), m.mean(axis=1)
        )
        np.testing.assert_allclose(
            get_op("m_std_axis")(ctx, (m,), {"axis": 1}), m.std(axis=2)
        )

    def test_broadcast_vector(self, rng):
        ctx = make_context()
        v = rng.normal(size=(6, 4))
        rows = get_op("m_broadcast")(ctx, (v,), {"axis": 0})
        cols = get_op("m_broadcast")(ctx, (v,), {"axis": 1})
        assert rows.shape == (6, 4, 4)
        np.testing.assert_allclose(rows[:, 0, :], v)
        np.testing.assert_allclose(cols[:, :, 0], v)

    def test_matrix_uniform(self):
        result = get_op("matrix_uniform")(make_context(), (), {"low": 0.0, "high": 1.0})
        assert result.shape == (6, 4, 4)
        assert result.min() >= 0.0


class TestExtractionOps:
    def test_get_scalar(self, rng):
        ctx = make_context()
        m = rng.normal(size=(6, 4, 4))
        result = get_op("get_scalar")(ctx, (m,), {"row": 2, "col": 3})
        np.testing.assert_allclose(result, m[:, 2, 3])

    def test_get_row_and_column(self, rng):
        ctx = make_context()
        m = rng.normal(size=(6, 4, 4))
        np.testing.assert_allclose(get_op("get_row")(ctx, (m,), {"row": 1}), m[:, 1, :])
        np.testing.assert_allclose(get_op("get_column")(ctx, (m,), {"col": 2}), m[:, :, 2])

    def test_indices_wrap_around(self, rng):
        ctx = make_context()
        m = rng.normal(size=(6, 4, 4))
        wrapped = get_op("get_scalar")(ctx, (m,), {"row": 6, "col": 7})
        np.testing.assert_allclose(wrapped, m[:, 2, 3])


class TestRelationOps:
    def test_rank_is_normalised(self, rng):
        ctx = make_context()
        values = rng.normal(size=6)
        ranks = get_op("rank")(ctx, (values,), {})
        assert ranks.min() == 0.0 and ranks.max() == 1.0
        assert ranks[np.argmax(values)] == 1.0

    def test_rank_handles_ties(self):
        ctx = make_context()
        ranks = get_op("rank")(ctx, (np.array([1.0, 1.0, 2.0, 2.0, 3.0, 0.0]),), {})
        assert ranks[0] == ranks[1]
        assert ranks[2] == ranks[3]

    def test_relation_rank_within_groups(self):
        ctx = make_context()
        values = np.array([1.0, 2.0, 3.0, 1.0, 5.0, 9.0])
        ranks = get_op("relation_rank")(ctx, (values,), {"level": "sector"})
        # sector 0 = stocks 0..2, sector 1 = stocks 3..5
        assert ranks[2] == 1.0 and ranks[0] == 0.0
        assert ranks[5] == 1.0 and ranks[3] == 0.0

    def test_relation_demean_zero_mean_per_group(self, rng):
        ctx = make_context()
        values = rng.normal(size=6)
        demeaned = get_op("relation_demean")(ctx, (values,), {"level": "industry"})
        for group in np.unique(ctx.industry_index):
            members = ctx.industry_index == group
            np.testing.assert_allclose(demeaned[members].mean(), 0.0, atol=1e-12)

    def test_relation_mean_constant_within_group(self, rng):
        ctx = make_context()
        values = rng.normal(size=6)
        means = get_op("relation_mean")(ctx, (values,), {"level": "sector"})
        for group in np.unique(ctx.sector_index):
            members = ctx.sector_index == group
            assert np.ptp(means[members]) < 1e-12
            np.testing.assert_allclose(means[members][0], values[members].mean())

    def test_demean_plus_mean_identity(self, rng):
        ctx = make_context()
        values = rng.normal(size=6)
        demeaned = get_op("relation_demean")(ctx, (values,), {"level": "industry"})
        means = get_op("relation_mean")(ctx, (values,), {"level": "industry"})
        np.testing.assert_allclose(demeaned + means, values, rtol=1e-9)

    def test_unknown_level_rejected(self):
        ctx = make_context()
        with pytest.raises(OperatorError):
            get_op("relation_rank")(ctx, (np.zeros(6),), {"level": "country"})


class TestParamSampling:
    def test_all_registered_params_samplable(self, rng):
        dims = Dimensions(num_features=13, window=13)
        for spec in OP_REGISTRY.values():
            params = sample_params(spec, dims, rng)
            assert set(params) == set(spec.param_names)

    def test_row_col_within_dims(self, rng):
        dims = Dimensions(num_features=5, window=7)
        spec = get_op("get_scalar")
        for _ in range(50):
            params = sample_params(spec, dims, rng)
            assert 0 <= params["row"] < 5
            assert 0 <= params["col"] < 7

    def test_unknown_param_name_rejected(self, rng):
        from repro.core.ops import _sample_param

        with pytest.raises(OperatorError):
            _sample_param("unknown", Dimensions(3, 3), rng)
