"""Nominal terms with permutation fixed-point constraints: alpha-equivalence
checking, freshness, unification, and unification modulo commutativity."""

from .syntax import (
    Abs,
    App,
    Atom,
    AtomTerm,
    FixpointContext,
    FreshnessContext,
    IllFormedTermError,
    NameGenerator,
    NomfixError,
    Permutation,
    Signature,
    Substitution,
    Susp,
    Swapping,
    Term,
    Theory,
    Tup,
    UndeclaredSymbolError,
    Var,
    act,
    atom,
    atoms_in,
    atoms_of,
    check_well_formed,
    flatten,
    free_atoms,
    free_vars,
    generator_avoiding,
    is_ground,
    pair,
    term_size,
    var,
)
from .freshness import check_alpha_fresh, check_fresh
from .fixpoint import check_alpha_fixp, check_fixp
from .translate import (
    TranslationRecord,
    fixp_to_fresh,
    fresh_judgement_via_fixp,
    fresh_to_fixp,
)
from .unify import (
    Eq,
    Fix,
    SimplStep,
    Solution,
    UnifyResult,
    is_more_general,
    match,
    unify,
)
from .cunify import CUnifyResult, c_unify
from .oracle import (
    TermPool,
    completeness_check,
    enumerate_ground_substs,
    enumerate_terms,
    ground_alpha_oracle,
    verify_solution,
)
from .parser import (
    FreshRequest,
    ParseError,
    ProblemFile,
    parse_constraint,
    parse_perm,
    parse_problem_file,
    parse_signature,
    parse_term,
)
from .printer import (
    print_perm,
    print_subst,
    print_term,
)

__version__ = "0.1.0"
