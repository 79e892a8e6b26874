"""Rateless network error correction against Byzantine adversaries.

Two schemes share a finite-field linear algebra core and an adversarial
random-linear-network-coding channel simulator:

* secret-channel: hashes travel on a reliable side conduit;
* random-secret: source and sink pre-share random symbols and all
  redundancy rides the public network as long and short packets.

The harness module and the ``ratelessnc`` CLI run seeded Monte Carlo
sessions and check the achieved rates against the theoretical bound.
"""

from .channel import (
    AdversaryStrategy,
    Hypergraph,
    HypergraphChannel,
    MatrixChannel,
    StageOutcome,
    StageParams,
    hypergraph_transfer,
    make_errors,
    sample_transfer,
)
from .field import Field, FieldSpec, GF2Field, PrimeField, get_field
from .harness import (
    ConfigError,
    ExperimentConfig,
    Summary,
    build_config,
    emit_outputs,
    load_config,
    run_experiment,
)
from .linalg import (
    IncrementalReducer,
    RrefResult,
    SolveOutcome,
    SolveStatus,
    devectorize,
    independent_row_indices,
    mat_mul,
    rank,
    rref_with_transform,
    solve_exact,
    solve_in_row_space,
    vandermonde,
    vectorize,
)
from .records import Decode, DecodeResult, TrialRecord
from .scheme_rs import (
    KeyEquation,
    RsEncoder,
    RsParams,
    RsSinkState,
    SharedSecret,
    SuffixBlock,
    assemble_staircase,
    dense_key_equation,
    l_entry_map,
    rs_make_suffix,
    rs_run_session,
    truth_vector,
)
from .scheme_sc import (
    SecretStagePayload,
    SinkStateSC,
    SourceMessage,
    sc_encode_stage,
    sc_run_session,
)

__all__ = [name for name in dir() if not name.startswith("_")]
