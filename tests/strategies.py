"""Hypothesis strategies shared by the property tests.

Programs are drawn the way a search makes them: an initialisation (D, NOOP,
R or NN) and a chain of :class:`~repro.core.mutation.Mutator` mutations of
it, with the seed and the chain length drawn.  Over the default address
space the mutator can place every registry operator, the two uniform
initialisers (``vector_uniform``, ``matrix_uniform``) included, and the
chains' near-duplicates — children that change dead code, or arithmetic on
zero-initialised memory — are the programs a fingerprint must tell apart or
merge.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.config import DEFAULT_ADDRESS_SPACE
from repro.core import Dimensions, Mutator, get_initialization
from repro.core.initializations import INITIALIZATION_NAMES

#: The dimensions of the shared test task sets (``f == w == 13``).
DIMS = Dimensions(13, 13)


@st.composite
def mutation_chains(draw, dims: Dimensions = DIMS, max_length: int = 12,
                    address_space=DEFAULT_ADDRESS_SPACE) -> list:
    """An initialisation followed by each successive mutant of a chain."""
    code = draw(st.sampled_from(INITIALIZATION_NAMES))
    seed = draw(st.integers(0, 2**31 - 1))
    length = draw(st.integers(1, max_length))
    mutator = Mutator(dims, address_space=address_space, seed=seed)
    program = get_initialization(code, dims, seed=seed,
                                 address_space=address_space)
    chain = [program]
    for _ in range(length):
        program = mutator.mutate(program)
        chain.append(program)
    return chain


def programs(dims: Dimensions = DIMS, max_length: int = 12):
    """The last program of a drawn mutation chain."""
    return mutation_chains(dims, max_length).map(lambda chain: chain[-1])
