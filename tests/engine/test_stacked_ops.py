"""The operator registry's tape capabilities and the stacked kernels.

Contracts of every :data:`~repro.core.ops.OP_REGISTRY` entry that declares
a capability (:class:`~repro.core.ops.OpSpec`), in the style of an
operator-registry test suite:

* registry metadata — the capabilities an entry declares are consistent
  with each other, every kernel consumes exactly its operator's arity, and
  :data:`repro.compile.executor.KERNELS` is the registry's kernels with the
  transcendental probe applied;
* per-entry behaviour — each leading-axis kernel equals the per-slice
  registry call bit for bit on 2-D and 3-D fixtures (sanitized, tie-heavy
  and raw), each ``out=`` form equals its registry function, each sanitize
  contract holds on sanitized inputs, each folding operator's folded
  constant equals the registry call on a K-vector of the constants, and
  each gather equals the per-lane calls;
* the transcendental operators admitted by the import-time probe run
  **stacked** — one ``(P, …)`` kernel call — and stay bitwise identical to
  per-program execution in *every* run order of the group;
* the fused inference path split into several day chunks equals one pass
  and each lane's own tape.
"""

import itertools

import numpy as np
import pytest

from repro.compile import (
    StackedAlpha,
    compile_program,
    fold_constants,
    lower_program,
    stack_signature,
)
from repro.compile.executor import (
    KERNELS,
    _probe_fixture,
    _probe_transcendentals,
    _sanitize_steps,
)
from repro.config import make_rng
from repro.core import (
    AlphaProgram,
    INPUT_MATRIX,
    Operand,
    Operation,
    PREDICTION,
)
from repro.core.memory import OperandType
from repro.core.ops import (
    CLIP_VALUE,
    FINITE_CLOSED,
    OP_REGISTRY,
    RANGE_CLOSED,
    Dimensions,
    ExecutionContext,
    OpKind,
    get_op,
    sample_params,
    sanitize,
)
from repro.engine import FleetEngine

SPLITS = ("valid", "test")

S3, S4, S5, S6, S7, S8, S9 = (Operand.scalar(i) for i in range(3, 10))
M1, M2 = Operand.matrix(1), Operand.matrix(2)


def transcendental_alpha(dims, rng, name):
    """A static alpha routing one input through every probed operator."""
    return AlphaProgram(
        setup=[],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), S3,
                           sample_params(get_op("get_scalar"), dims, rng)),
            Operation.make("s_sin", (S3,), S4),
            Operation.make("s_cos", (S3,), S5),
            Operation.make("s_tan", (S4,), S6),
            Operation.make("s_arcsin", (S5,), S7),
            Operation.make("s_arccos", (S5,), S8),
            Operation.make("s_arctan", (S6,), S9),
            Operation.make("s_add", (S7, S8), S7),
            Operation.make("s_exp", (S5,), S5),
            Operation.make("s_log", (S3,), S3),
            Operation.make("s_add", (S4, S5), S4),
            Operation.make("s_add", (S7, S9), S7),
            Operation.make("s_add", (S4, S7), S4),
            Operation.make("s_add", (S4, S3), PREDICTION),
        ],
        update=[],
        name=name,
    )


def matmul_alpha(dims, rng, name):
    """A static alpha whose prediction flows through a ``matmul`` lane."""
    return AlphaProgram(
        setup=[],
        predict=[
            Operation.make("transpose", (INPUT_MATRIX,), M1),
            Operation.make("matmul", (INPUT_MATRIX, M1), M2),
            Operation.make("m_mean", (M2,), S3),
            Operation.make("s_const", (), S4,
                           sample_params(get_op("s_const"), dims, rng)),
            Operation.make("s_mul", (S3, S4), PREDICTION),
        ],
        update=[],
        name=name,
    )


def family(maker, dims, count=3, seed=5):
    rng = make_rng(seed)
    programs = [maker(dims, rng, f"{maker.__name__}_{i}")
                for i in range(count)]
    signatures = {stack_signature(compile_program(p)) for p in programs}
    assert len(signatures) == 1  # one stack group, params free
    return programs


def build_fleet(evaluator, programs):
    fleet = FleetEngine(evaluator)
    for program in programs:
        fleet.add(program)
    return fleet


def solo_runs(evaluator, programs):
    return {p.name: evaluator.run(p, splits=SPLITS) for p in programs}


def assert_matches_solo(fleet_runs, solo, programs):
    for program in programs:
        for split in SPLITS:
            assert (fleet_runs[program.name][split].tobytes()
                    == solo[program.name][split].tobytes()), (
                f"{program.name} diverged on the {split} split"
            )


class TestTranscendentalStacking:
    def test_probe_admits_every_probed_operator_here(self):
        # The probe is deterministic per platform; on the supported NumPy
        # builds every probed operator stacks bit-exactly.
        probed = {name for name, spec in OP_REGISTRY.items() if spec.probe}
        assert probed == {"s_sin", "s_cos", "s_tan", "s_arcsin", "s_arccos",
                          "s_arctan", "s_exp", "s_log"}
        assert probed <= set(KERNELS)

    def test_probe_admits_only_from_its_candidates(self):
        # The probe is a filter, never an extender: its verdict is always a
        # subset of what it was asked about, and it is deterministic.
        subset = ("s_sin", "s_exp")
        admitted = _probe_transcendentals(subset)
        assert admitted <= set(subset)
        assert admitted == _probe_transcendentals(subset)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_stacked_matches_solo_bitwise_per_run_order(
        self, evaluator, dims, reverse
    ):
        programs = family(transcendental_alpha, dims)
        solo = solo_runs(evaluator, programs)
        order = programs[::-1] if reverse else programs
        fleet = build_fleet(evaluator, order)
        assert fleet.stack_groups >= 1
        assert_matches_solo(fleet.run(splits=SPLITS), solo, programs)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_stacked_serving_matches_solo_per_run_order(
        self, small_taskset, evaluator, dims, reverse
    ):
        programs = family(transcendental_alpha, dims)
        order = programs[::-1] if reverse else programs
        fleet = build_fleet(evaluator, order)
        fleet.warm_start()
        features = small_taskset.split_features("valid")[:10]
        labels = small_taskset.split_labels("valid")[:10]
        streamed = {key: [] for key in fleet.executors}
        for day in range(features.shape[0]):
            for key, prediction in fleet.step_bar(features[day]).items():
                streamed[key].append(prediction)
            fleet.reveal(labels[day])
        for program in programs:
            batch = evaluator.run(program, splits=("valid",))["valid"][:10]
            key = fleet.key_of(program.name)
            assert np.asarray(streamed[key]).tobytes() == batch.tobytes()


class TestDayChunking:
    def test_day_chunks_match_one_pass_and_solo_lanes(
        self, evaluator, dims, monkeypatch
    ):
        # A day-chunk budget of four days forces the fused path through
        # several day chunks of stacked matmul lanes.
        import repro.compile.stacked as stacked

        group = [compile_program(p) for p in family(matmul_alpha, dims)]
        features = evaluator.taskset.split_features("valid")

        def fused(members):
            executor = StackedAlpha(members, evaluator.make_context())
            assert executor.supports_fused_inference
            executor.run_setup()
            return executor.run_inference_batch(features)

        one_pass = fused(group)
        solo = [fused([compiled]) for compiled in group]
        per_day = len(group) * int(np.prod(features.shape[1:]))
        monkeypatch.setattr(stacked, "_MAX_CHUNK_ELEMENTS", 4 * per_day)
        assert features.shape[0] > 4
        chunked = fused(group)
        assert chunked.tobytes() == one_pass.tobytes()
        for lane, expected in enumerate(solo):
            assert chunked[:, lane].tobytes() == expected[:, 0].tobytes()


# ---------------------------------------------------------------------------
# Registry contracts
# ---------------------------------------------------------------------------

#: A small binding: f == w (matmul and transpose need it), a singleton
#: sector and uneven industries for the grouped rank.
K, F, W = 9, 5, 5
REGISTRY_CTX = ExecutionContext(
    num_tasks=K, num_features=F, window=W,
    sector_index=np.array([0, 0, 1, 1, 1, 2, 0, 3, 2]),
    industry_index=np.arange(K) % 4,
)
BASE_SHAPES = {
    OperandType.SCALAR: (K,),
    OperandType.VECTOR: (K, W),
    OperandType.MATRIX: (K, F, W),
}
#: One leading axis (the program or the day axis) and two (both).
LEADS = ((4,), (3, 2))
RAW_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, CLIP_VALUE])
#: Constants the fold check combines: ±0, the clip bounds, the protected
#: divide's threshold and just under it, denormals and ordinary values.
FOLD_VALUES = (
    0.0, -0.0, CLIP_VALUE, -CLIP_VALUE, 1e-9, -1e-9, 1e-10, -1e-10,
    5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0, 0.5, -3.75, 123456.789,
)


def declaring(capability):
    """Names of the registry entries for which ``capability(spec)`` holds."""
    return sorted(name for name, spec in OP_REGISTRY.items()
                  if capability(spec))


KERNEL_OPS = declaring(lambda spec: spec.kernel is not None)
OUT_OPS = declaring(lambda spec: spec.out is not None)
RANGE_CLOSED_OPS = declaring(lambda spec: spec.contract == RANGE_CLOSED)
FINITE_CLOSED_OPS = declaring(lambda spec: spec.contract == FINITE_CLOSED)
FOLD_OPS = declaring(lambda spec: spec.fold)
GATHER_OPS = declaring(lambda spec: spec.gather is not None)


def fixture(shape, kind, rng):
    """Probe values (``sanitized``), small integers (``ties``) or those
    salted with NaN / ±inf (``raw``, what m0 and s0 may hold; the first
    row holds tied NaNs)."""
    if kind == "ties":
        return rng.integers(-2, 3, shape).astype(float)
    values = _probe_fixture(shape, rng)
    if kind == "raw":
        flat = values.reshape(-1)
        picks = rng.choice(flat.size, size=min(flat.size, 12), replace=False)
        flat[picks] = RAW_SPECIALS[np.arange(picks.size) % RAW_SPECIALS.size]
        flat[:2] = np.nan
    return values


def param_sets(name):
    spec = get_op(name)
    rng = make_rng(sum(map(ord, name)))
    sets = [sample_params(spec, Dimensions(F, W), rng) for _ in range(3)]
    if "axis" in spec.param_names:
        sets += [{"axis": 0}, {"axis": 1}]
    if "level" in spec.param_names:
        sets += [{"level": "sector"}, {"level": "industry"}]
    return sets


def registry_inputs(name, lead, kind, rng, unled=None):
    """Inputs for ``name`` with ``lead`` axes (input ``unled`` without)."""
    return tuple(
        fixture(BASE_SHAPES[t] if i == unled else lead + BASE_SHAPES[t],
                kind, rng)
        for i, t in enumerate(get_op(name).input_types)
    )


def per_slice(name, inputs, params, lead, unled=None):
    """The registry call on every leading-axis slice, stacked back."""
    func = get_op(name).func
    out = np.empty(lead + BASE_SHAPES[get_op(name).output_type])
    for index in np.ndindex(*lead):
        out[index] = func(REGISTRY_CTX, tuple(
            array if i == unled else array[index]
            for i, array in enumerate(inputs)
        ), params)
    return out


class TestRegistryCapabilities:
    @pytest.mark.parametrize("name", sorted(OP_REGISTRY))
    def test_declared_capabilities_are_consistent(self, name):
        spec = OP_REGISTRY[name]
        assert spec.contract in (None, FINITE_CLOSED, RANGE_CLOSED)
        if spec.out is not None:
            # an out= form writes the kernel's result: an unprobed kernel
            # with a proven contract
            assert spec.kernel is not None and not spec.probe
            assert spec.contract is not None
        if spec.probe:
            assert spec.kernel is spec.func
            assert spec.contract is None and not spec.fold
        if spec.fold:
            # constants are scalars, and folding needs length-independence
            assert spec.output_type is OperandType.SCALAR
            assert all(t is OperandType.SCALAR for t in spec.input_types)
            assert spec.out is not None and not spec.param_names
        if spec.gather is not None:
            assert spec.kind is OpKind.EXTRACTION
            assert spec.kernel is not None

    def test_kernel_is_the_operators_own_function_but_for_the_ranks(self):
        assert declaring(lambda spec: spec.kernel is None) == [
            "matrix_uniform", "relation_demean", "relation_mean", "s_const",
            "vector_uniform",
        ]
        assert declaring(
            lambda spec: spec.kernel is not None and spec.kernel is not spec.func
        ) == ["rank", "relation_rank"]
        assert GATHER_OPS == ["get_column", "get_row", "get_scalar"]
        assert FOLD_OPS == ["s_abs", "s_add", "s_div", "s_heaviside", "s_max",
                            "s_min", "s_mul", "s_sign", "s_sub"]

    def test_kernels_view_is_the_registry_with_the_probe_applied(self):
        for name in KERNEL_OPS:
            spec = OP_REGISTRY[name]
            if not spec.probe:
                assert KERNELS[name] is spec.kernel
        for name, kernel in KERNELS.items():
            assert kernel is OP_REGISTRY[name].kernel

    def test_registry_covers_every_kernel_family(self):
        # elementwise, broadcasting products, selections, reductions,
        # contractions and ranks all batch over leading axes
        for name in ("s_add", "m_scale", "get_row", "ts_rank", "v_sum",
                     "m_std_axis", "matmul", "v_dot", "matvec", "rank"):
            assert name in KERNELS

    @pytest.mark.parametrize("name", KERNEL_OPS)
    def test_kernel_consumes_the_operator_arity(self, name):
        spec = get_op(name)
        rng = make_rng(1)
        inputs = registry_inputs(name, (2,), "sanitized", rng)
        params = param_sets(name)[0]
        assert len(inputs) == spec.arity
        result = spec.kernel(REGISTRY_CTX, inputs, params)
        assert result.shape == (2,) + BASE_SHAPES[spec.output_type]
        with pytest.raises((IndexError, TypeError)):
            spec.kernel(REGISTRY_CTX, inputs[:-1], params)

    def test_sanitize_steps_follow_the_contract(self):
        raw, clean = np.zeros(K), np.zeros(K)
        assert _sanitize_steps("s_add", (clean, clean), (raw,)) == (True, False)
        assert _sanitize_steps("s_max", (clean, clean), (raw,)) == (False, False)
        assert _sanitize_steps("s_max", (clean, raw), (raw,)) == (True, True)
        assert _sanitize_steps("s_sin", (clean,), (raw,)) == (True, True)
        assert _sanitize_steps("relation_mean", (clean,), (raw,)) == (True, True)


class TestRegistryBehaviour:
    @pytest.mark.parametrize("kind", ["sanitized", "ties", "raw"])
    @pytest.mark.parametrize("name", KERNEL_OPS)
    def test_kernel_equals_per_slice_registry_call(self, name, kind):
        rng = make_rng(2)
        kernel = get_op(name).kernel
        arity = get_op(name).arity
        with np.errstate(all="ignore"):
            for lead in LEADS:
                for unled in (None,) + tuple(range(arity) if arity > 1 else ()):
                    inputs = registry_inputs(name, lead, kind, rng, unled)
                    for params in param_sets(name):
                        got = kernel(REGISTRY_CTX, inputs, params)
                        want = per_slice(name, inputs, params, lead, unled)
                        assert np.asarray(got, float).tobytes() == want.tobytes(), (
                            f"{name} {lead} unled={unled} {params}"
                        )

    @pytest.mark.parametrize("kind", ["sanitized", "raw"])
    @pytest.mark.parametrize("name", OUT_OPS)
    def test_out_form_equals_registry_function(self, name, kind):
        rng = make_rng(3)
        spec = get_op(name)
        with np.errstate(all="ignore"):
            for lead in ((),) + LEADS:
                inputs = registry_inputs(name, lead, kind, rng)
                want = (spec.func if not lead else spec.kernel)(
                    REGISTRY_CTX, inputs, {}
                )
                out = np.full(lead + BASE_SHAPES[spec.output_type], 7.0)
                spec.out(inputs, out)
                assert out.tobytes() == np.asarray(want, float).tobytes()

    @pytest.mark.parametrize("kind", ["sanitized", "ties"])
    @pytest.mark.parametrize("name", RANGE_CLOSED_OPS)
    def test_range_closed_stays_within_the_clip(self, name, kind):
        rng = make_rng(4)
        for lead in LEADS:
            inputs = registry_inputs(name, lead, kind, rng)
            for params in param_sets(name):
                result = np.asarray(
                    get_op(name).kernel(REGISTRY_CTX, inputs, params), float
                )
                assert not np.isnan(result).any()
                assert (np.abs(result) <= CLIP_VALUE).all()
                # so sanitize is the identity, bit for bit
                assert sanitize(result).tobytes() == result.tobytes()

    @pytest.mark.parametrize("kind", ["sanitized", "ties"])
    @pytest.mark.parametrize("name", FINITE_CLOSED_OPS)
    def test_finite_closed_produces_no_nan(self, name, kind):
        rng = make_rng(5)
        for lead in LEADS:
            inputs = registry_inputs(name, lead, kind, rng)
            # near-zero divisors hit the guarded quotient's largest values
            if name.endswith("_div"):
                inputs[1].reshape(-1)[:4] = (1e-9, -1e-9, 5e-324, -0.0)
            with np.errstate(over="raise", invalid="raise"):
                result = get_op(name).kernel(REGISTRY_CTX, inputs, {})
            assert np.isfinite(result).all()

    @pytest.mark.parametrize("name", FOLD_OPS)
    def test_folded_constant_equals_registry_call_on_a_k_vector(self, name):
        spec = get_op(name)
        operands = (S3, S4)[:spec.arity]
        for values in itertools.product(FOLD_VALUES, repeat=spec.arity):
            program = AlphaProgram(setup=[], predict=[
                *(Operation.make("s_const", (), operand, {"constant": value})
                  for operand, value in zip(operands, values)),
                Operation.make(name, operands, S5),
                Operation.make("s_add", (S5, S5), PREDICTION),
            ], update=[])
            ir, _ = fold_constants(lower_program(program))
            folded = ir.component("predict").instructions[spec.arity]
            assert folded.op == "s_const"
            with np.errstate(all="ignore"):
                want = spec(REGISTRY_CTX, tuple(np.full(K, value)
                                                for value in values), {})
            got = np.full(K, folded.param_dict["constant"])
            assert got.tobytes() == want.tobytes(), f"{name}{values}"

    @pytest.mark.parametrize("kind", ["sanitized", "raw"])
    @pytest.mark.parametrize("name", GATHER_OPS)
    def test_gather_equals_per_lane_calls(self, name, kind):
        spec = get_op(name)
        # sampled indices plus ones that wrap around from either end
        wrapping = {key: value for key, value in (("row", -1), ("col", W + 2))
                    if key in spec.param_names}
        lanes = tuple(param_sets(name)) + (wrapping,)
        inputs = (fixture((len(lanes), K, F, W), kind, make_rng(6)),)
        got = spec.gather(REGISTRY_CTX, lanes)(REGISTRY_CTX, inputs, None)
        want = np.stack([
            spec.func(REGISTRY_CTX, (inputs[0][lane],), params)
            for lane, params in enumerate(lanes)
        ])
        assert got.tobytes() == want.tobytes()
