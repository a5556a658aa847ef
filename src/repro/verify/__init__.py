"""Differential verification: oracle registry, seeded fuzzer, shrinker.

Every fast/reference engine pair in the repo is declared once as an
:class:`~repro.verify.oracle.Oracle`; the fuzzer sweeps seeded random
cases through all of them, the shrinker minimizes any failure into a
committed-ready repro file, and a mutation self-test proves the harness
can actually see a fault. Entry points: ``repro verify`` on the CLI,
:func:`~repro.verify.fuzzer.run_suite` from code.
"""

from repro.verify.fuzzer import (
    BUDGETS,
    VERIFY_SCHEMA_VERSION,
    fuzz_params,
    mutation_self_test,
    run_suite,
)
from repro.verify.machines import (
    build_chip,
    random_machine,
    simplified_machines,
)
from repro.verify.oracle import (
    CaseOutcome,
    Oracle,
    VerifyError,
    all_oracles,
    diff_documents,
    get_oracle,
    numeric_size,
    oracles_for_suite,
    register,
    run_case,
    suites,
)
from repro.verify.shrink import (
    CASE_SCHEMA_VERSION,
    ShrinkResult,
    case_filename,
    load_case,
    replay_case,
    save_case,
    shrink_case,
)

__all__ = [
    "BUDGETS",
    "CASE_SCHEMA_VERSION",
    "CaseOutcome",
    "Oracle",
    "ShrinkResult",
    "VERIFY_SCHEMA_VERSION",
    "VerifyError",
    "all_oracles",
    "build_chip",
    "case_filename",
    "diff_documents",
    "fuzz_params",
    "get_oracle",
    "load_case",
    "mutation_self_test",
    "numeric_size",
    "oracles_for_suite",
    "random_machine",
    "register",
    "replay_case",
    "run_case",
    "run_suite",
    "save_case",
    "shrink_case",
    "simplified_machines",
    "suites",
]
