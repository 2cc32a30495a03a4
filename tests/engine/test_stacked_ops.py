"""The leading-axis kernel registry and the stacked kernels built on it.

Contracts of :data:`repro.compile.executor.KERNELS`, the one kernel table
of the compiled tape, in the style of an operator-registry test suite:

* registry metadata — every entry names an ``OP_REGISTRY`` operator and
  consumes exactly its arity;
* per-entry behaviour — each leading-axis kernel equals the per-slice
  registry call bit for bit on 2-D and 3-D fixtures (sanitized, tie-heavy
  and raw), each ``out=`` form equals its registry function, and each
  sanitize contract holds on sanitized inputs;
* the transcendental operators admitted by the import-time probe run
  **stacked** — one ``(P, …)`` kernel call — and stay bitwise identical to
  per-program execution in *every* run order of the group;
* program-axis chunking of the matrix-heavy contractions (``matmul`` /
  ``matvec`` / ``v_dot``) is a pure scheduling change: forced, disabled
  and auto-derived chunk sizes all produce byte-identical results on both
  the day-loop and the fused inference paths.
"""

import numpy as np
import pytest

from repro.compile import StackedAlpha, compile_program, stack_signature
from repro.compile.executor import (
    FINITE_CLOSED,
    KERNELS,
    RANGE_CLOSED,
    _TRANSCENDENTAL_CANDIDATES,
    _probe_fixture,
    _probe_transcendentals,
    _sanitize_steps,
)
from repro.compile.stacked import _PROGRAM_CHUNK_OPS
from repro.config import make_rng
from repro.core import (
    AlphaProgram,
    INPUT_MATRIX,
    Operand,
    Operation,
    PREDICTION,
    get_initialization,
)
from repro.core.memory import OperandType
from repro.core.ops import (
    CLIP_VALUE,
    OP_REGISTRY,
    Dimensions,
    ExecutionContext,
    get_op,
    sample_params,
    sanitize,
)
from repro.engine import FleetEngine

SPLITS = ("valid", "test")

S3, S4, S5, S6, S7, S8, S9 = (Operand.scalar(i) for i in range(3, 10))
M1, M2 = Operand.matrix(1), Operand.matrix(2)


def transcendental_alpha(dims, rng, name):
    """A static alpha routing one input through every probe candidate."""
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


def build_fleet(evaluator, programs, **kwargs):
    fleet = FleetEngine(evaluator, **kwargs)
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
    def test_probe_admits_every_candidate_here(self):
        # The probe is deterministic per platform; on the supported NumPy
        # builds every transcendental candidate stacks bit-exactly.
        assert set(_TRANSCENDENTAL_CANDIDATES) <= set(KERNELS)

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


class TestProgramChunking:
    def chunk_family(self, dims, mutator=None):
        """matmul lanes on the fused path + matvec/v_dot on the day loop."""
        nn = get_initialization("NN", dims, seed=3)
        rng = make_rng(11)
        jitter = []
        for index in range(2):
            child = nn.copy(name=f"nn_{index}")
            for operations in (child.setup, child.predict, child.update):
                for i, operation in enumerate(operations):
                    if operation.spec.param_names:
                        operations[i] = Operation.make(
                            operation.spec.name, operation.inputs,
                            operation.output,
                            sample_params(operation.spec, dims, rng),
                        )
            jitter.append(child)
        return family(matmul_alpha, dims) + [nn.copy(name="nn_base")] + jitter

    def test_chunk_ops_cover_the_matrix_contractions(self):
        assert _PROGRAM_CHUNK_OPS == {"matmul", "matvec", "v_dot"}

    def test_auto_chunk_derivation(self, evaluator, dims):
        group = [compile_program(p) for p in family(matmul_alpha, dims)]
        auto = StackedAlpha(group, evaluator.make_context())
        assert auto.program_chunk >= 1
        disabled = StackedAlpha(group, evaluator.make_context(),
                                program_chunk=0)
        assert disabled.program_chunk == 0
        forced = StackedAlpha(group, evaluator.make_context(),
                              program_chunk=2)
        assert forced.program_chunk == 2

    def test_forced_chunk_matches_unchunked_bitwise(self, evaluator, dims):
        programs = self.chunk_family(dims)
        solo = solo_runs(evaluator, programs)
        chunked = build_fleet(evaluator, programs, program_chunk=2)
        monolithic = build_fleet(evaluator, programs, program_chunk=0)
        assert chunked.stack_groups >= 2
        left = chunked.run(splits=SPLITS)
        right = monolithic.run(splits=SPLITS)
        assert_matches_solo(left, solo, programs)
        assert_matches_solo(right, solo, programs)

    def test_program_chunks_inside_day_chunks(
        self, evaluator, dims, monkeypatch
    ):
        # A day-chunk budget of a few days forces the fused path through
        # several day chunks, each running program-chunked matmul lanes.
        import repro.compile.stacked as stacked

        group = [compile_program(p) for p in family(matmul_alpha, dims)]
        features = evaluator.taskset.split_features("valid")
        per_day = len(group) * int(np.prod(features.shape[1:]))
        monkeypatch.setattr(stacked, "_MAX_CHUNK_ELEMENTS", 4 * per_day)
        runs = []
        for chunk in (1, 0):
            executor = StackedAlpha(group, evaluator.make_context(),
                                    program_chunk=chunk)
            executor.run_setup()
            runs.append(executor.run_inference_batch(features))
        assert runs[0].tobytes() == runs[1].tobytes()
        for lane, compiled in enumerate(group):
            solo = StackedAlpha([compiled], evaluator.make_context())
            solo.run_setup()
            expected = solo.run_inference_batch(features)
            assert runs[0][:, lane].tobytes() == expected[:, 0].tobytes()

    def test_chunked_serving_matches_unchunked_bitwise(
        self, small_taskset, evaluator, dims
    ):
        programs = self.chunk_family(dims)
        features = small_taskset.split_features("valid")[:8]
        labels = small_taskset.split_labels("valid")[:8]
        streams = []
        for chunk in (2, 0):
            fleet = build_fleet(evaluator, programs, program_chunk=chunk)
            fleet.warm_start()
            streamed = {}
            for day in range(features.shape[0]):
                for key, prediction in fleet.step_bar(features[day]).items():
                    streamed.setdefault(key, []).append(prediction)
                fleet.reveal(labels[day])
            streams.append({
                key: np.asarray(days) for key, days in streamed.items()
            })
        chunked, monolithic = streams
        assert chunked.keys() == monolithic.keys()
        for key in chunked:
            assert chunked[key].tobytes() == monolithic[key].tobytes()


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


class TestKernelRegistryMetadata:
    def test_every_entry_names_a_registered_operator(self):
        for name, kernel in KERNELS.items():
            assert name in OP_REGISTRY
            assert kernel.op == name

    def test_contracts_are_known(self):
        for kernel in KERNELS.values():
            assert kernel.contract in (None, FINITE_CLOSED, RANGE_CLOSED)
            if kernel.out is not None:
                # every out= form is one of the finite-closed ufuncs
                assert kernel.contract is not None

    def test_registry_covers_every_kernel_family(self):
        # elementwise, broadcasting products, selections, reductions,
        # contractions and ranks all batch over leading axes
        for name in ("s_add", "m_scale", "get_row", "ts_rank", "v_sum",
                     "m_std_axis", "matmul", "v_dot", "matvec", "rank"):
            assert name in KERNELS

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_consumes_the_operator_arity(self, name):
        spec = get_op(name)
        rng = make_rng(1)
        inputs = registry_inputs(name, (2,), "sanitized", rng)
        params = param_sets(name)[0]
        assert len(inputs) == spec.arity
        result = KERNELS[name].func(REGISTRY_CTX, inputs, params)
        assert result.shape == (2,) + BASE_SHAPES[spec.output_type]
        with pytest.raises(IndexError):
            KERNELS[name].func(REGISTRY_CTX, inputs[:-1], params)

    def test_sanitize_steps_follow_the_contract(self):
        raw, clean = np.zeros(K), np.zeros(K)
        assert _sanitize_steps("s_add", (clean, clean), (raw,)) == (True, False)
        assert _sanitize_steps("s_max", (clean, clean), (raw,)) == (False, False)
        assert _sanitize_steps("s_max", (clean, raw), (raw,)) == (True, True)
        assert _sanitize_steps("s_sin", (clean,), (raw,)) == (True, True)
        assert _sanitize_steps("relation_mean", (clean,), (raw,)) == (True, True)


class TestKernelRegistryBehaviour:
    @pytest.mark.parametrize("kind", ["sanitized", "ties", "raw"])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_equals_per_slice_registry_call(self, name, kind):
        rng = make_rng(2)
        arity = get_op(name).arity
        with np.errstate(all="ignore"):
            for lead in LEADS:
                for unled in (None,) + tuple(range(arity) if arity > 1 else ()):
                    inputs = registry_inputs(name, lead, kind, rng, unled)
                    for params in param_sets(name):
                        got = KERNELS[name].func(REGISTRY_CTX, inputs, params)
                        want = per_slice(name, inputs, params, lead, unled)
                        assert np.asarray(got, float).tobytes() == want.tobytes(), (
                            f"{name} {lead} unled={unled} {params}"
                        )

    @pytest.mark.parametrize("kind", ["sanitized", "raw"])
    @pytest.mark.parametrize(
        "name", sorted(n for n, k in KERNELS.items() if k.out is not None)
    )
    def test_out_form_equals_registry_function(self, name, kind):
        rng = make_rng(3)
        spec = get_op(name)
        kernel = KERNELS[name]
        with np.errstate(all="ignore"):
            for lead in ((),) + LEADS:
                inputs = registry_inputs(name, lead, kind, rng)
                want = (spec.func if not lead else kernel.func)(
                    REGISTRY_CTX, inputs, {}
                )
                out = np.full(lead + BASE_SHAPES[spec.output_type], 7.0)
                kernel.out(inputs, out)
                assert out.tobytes() == np.asarray(want, float).tobytes()

    @pytest.mark.parametrize("kind", ["sanitized", "ties"])
    @pytest.mark.parametrize(
        "name",
        sorted(n for n, k in KERNELS.items() if k.contract == RANGE_CLOSED),
    )
    def test_range_closed_stays_within_the_clip(self, name, kind):
        rng = make_rng(4)
        for lead in LEADS:
            inputs = registry_inputs(name, lead, kind, rng)
            for params in param_sets(name):
                result = np.asarray(
                    KERNELS[name].func(REGISTRY_CTX, inputs, params), float
                )
                assert not np.isnan(result).any()
                assert (np.abs(result) <= CLIP_VALUE).all()
                # so sanitize is the identity, bit for bit
                assert sanitize(result).tobytes() == result.tobytes()

    @pytest.mark.parametrize("kind", ["sanitized", "ties"])
    @pytest.mark.parametrize(
        "name",
        sorted(n for n, k in KERNELS.items() if k.contract == FINITE_CLOSED),
    )
    def test_finite_closed_produces_no_nan(self, name, kind):
        rng = make_rng(5)
        for lead in LEADS:
            inputs = registry_inputs(name, lead, kind, rng)
            # near-zero divisors hit the guarded quotient's largest values
            if name.endswith("_div"):
                inputs[1].reshape(-1)[:4] = (1e-9, -1e-9, 5e-324, -0.0)
            with np.errstate(over="raise", invalid="raise"):
                result = KERNELS[name].func(REGISTRY_CTX, inputs, {})
            assert np.isfinite(result).all()
