"""First-order logic toolkit: parse, clausify, prove, find models, shrink cores.

The pieces fit together in one pipeline: TPTP text parses to formulas,
formulas clausify to CNF, a resolution prover searches for checkable
refutations while a SAT-backed model finder searches for finite
counterexamples, and analysis routines combine both into verdicts,
conjecture proofs, and minimal unsatisfiable cores.  A worked corpus,
Smullyan's last asylum puzzle, exercises every stage.
"""

from .syntax import (
    And,
    App,
    Atom,
    Equal,
    Exists,
    Falsity,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    SignatureError,
    Term,
    Truth,
    Var,
    alpha_equal,
    formula_str,
    free_variables,
    is_closed,
    signature_of,
)
from .tptp import (
    ArityError,
    DuplicateLabelError,
    FreeVariableError,
    NamedFormula,
    ParseError,
    Problem,
    parse_fof_formula,
    parse_tptp,
    print_tptp,
)
from .clausal import (
    Clause,
    Literal,
    clause_signature,
    clause_str,
    clausify,
    clausify_formula,
    equality_axioms,
    uses_equality,
)
from .saturation import (
    CheckResult,
    Clash,
    Derivation,
    Factoring,
    Input,
    Limits,
    OccursCheckFailure,
    Prover,
    Refutation,
    Resolution,
    ResourceOut,
    Saturated,
    SaturationResult,
    Step,
    Substitution,
    check_derivation,
    factor,
    format_derivation,
    resolve,
    saturate,
    subsumes,
    unify,
)
from .sat import (
    CdclSolver,
    PropClauseSet,
    PropFormatError,
    Sat,
    SatResult,
    Unsat,
    check_assignment,
    format_dimacs,
    parse_dimacs,
    sat_solve,
)
from .models import (
    GroundTable,
    Interpretation,
    Model,
    ModelSearch,
    ModelSearchResult,
    NoModelUpTo,
    UnknownSymbolError,
    decode,
    evaluate,
    find_model,
    format_interpretation,
    ground,
)
from .analysis import (
    MusReport,
    PreconditionViolated,
    RunStats,
    Verdict,
    check_consistency,
    conjecture_units,
    decide_problem,
    extract_mus,
    format_mus_report,
    format_verdict,
    prove_conjecture,
    verify_verdict,
)
from .asylum import (
    UnknownLabel,
    asylum_hypotheses,
    asylum_signature,
    belief,
    best_friend,
    subset,
)

__version__ = "0.1.0"
