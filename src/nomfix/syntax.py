"""Core data structures: atoms, permutations, terms, signatures, substitutions."""

from __future__ import annotations

import enum
import functools
import itertools
import weakref
from dataclasses import dataclass, field


class NomfixError(Exception):
    """Base class for errors raised by this package."""


class IllFormedTermError(NomfixError, ValueError):
    """A term or problem outside what a signature or a solver accepts.  It is
    also a ValueError, the error unify and c_unify document for input they
    reject."""


class UndeclaredSymbolError(NomfixError):
    pass


GENERATED_PREFIX = "#c"


# (name, gen_index) -> a weak reference to the live atom of that name; the
# table is swept of dead references whenever it has doubled since the last
# sweep, so it stays within about twice the number of live atoms
_INTERNED: dict[tuple[str, int], weakref.ref] = {}


@functools.total_ordering
class Atom:
    """An object-level name.  Generated atoms come from a NameGenerator and
    carry the reserved prefix in their printed name.

    Atoms are interned: Atom(name, gen_index) returns the one live atom with
    that name and index, so == is identity and the hash is the object's own.
    Atoms are ordered by (name, gen_index).
    """

    __slots__ = ("name", "gen_index", "__weakref__")
    __match_args__ = ("name", "gen_index")
    _sweep_at = 1024

    def __new__(cls, name: str, gen_index: int = -1) -> Atom:
        key = (name, gen_index)
        ref = _INTERNED.get(key)
        self = ref() if ref is not None else None
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            object.__setattr__(self, "gen_index", gen_index)
            _INTERNED[key] = weakref.ref(self)
            if len(_INTERNED) > Atom._sweep_at:
                for k in [k for k, r in _INTERNED.items() if r() is None]:
                    del _INTERNED[k]
                Atom._sweep_at = 2 * len(_INTERNED) + 1024
        return self

    def __setattr__(self, attr, value):
        raise AttributeError(f"atoms are immutable: cannot set {attr}")

    def __delattr__(self, attr):
        raise AttributeError(f"atoms are immutable: cannot delete {attr}")

    def __reduce__(self):
        return Atom, (self.name, self.gen_index)

    def __lt__(self, other: Atom) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return (self.name, self.gen_index) < (other.name, other.gen_index)

    @property
    def generated(self) -> bool:
        return self.gen_index >= 0

    def __repr__(self) -> str:
        return f"Atom(name={self.name!r}, gen_index={self.gen_index!r})"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Var:
    """A meta-level unknown, instantiable by substitution."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Swapping:
    """A transposition of two distinct atoms."""

    left: Atom
    right: Atom

    def __post_init__(self):
        if self.left == self.right:
            raise IllFormedTermError(f"swapping of an atom with itself: ({self.left} {self.right})")

    def apply(self, a: Atom) -> Atom:
        if a == self.left:
            return self.right
        if a == self.right:
            return self.left
        return a

    def __str__(self) -> str:
        return f"({self.left} {self.right})"


@dataclass(frozen=True)
class Permutation:
    """A finite permutation of atoms, stored as a list of swappings.

    The rightmost swapping acts first: (a b)(b c) sends c to a.  The
    constructor takes any list and keeps the canonical one for its action:
    each cycle c0 -> c1 -> ... -> ck, written from its least atom c0, becomes
    (c0 c1)(c1 c2)...(ck-1 ck), and the cycles follow the order of their
    least atoms.  So == and hash compare permutations, and every term,
    constraint and context holding one, by action, and str prints one text
    per permutation: (b a) prints (a b), (a b)(a b) prints Id.
    """

    swappings: tuple[Swapping, ...] = ()

    def __post_init__(self):
        if self.swappings:
            object.__setattr__(self, "swappings", _canonical(self.swappings))

    @staticmethod
    def identity() -> Permutation:
        return Permutation()

    @staticmethod
    def swap(a: Atom, b: Atom) -> Permutation:
        return Permutation((Swapping(a, b),))

    def __call__(self, a: Atom) -> Atom:
        for sw in reversed(self.swappings):
            a = sw.apply(a)
        return a

    def inverse(self) -> Permutation:
        return Permutation(tuple(reversed(self.swappings)))

    def compose(self, other: Permutation) -> Permutation:
        """self after other: (self.compose(other))(a) == self(other(a))."""
        if not self.swappings or not other.swappings:
            return self if not other.swappings else other
        return Permutation(self.swappings + other.swappings)

    def conjugate(self, rho: Permutation) -> Permutation:
        """rho o self o rho^-1."""
        return Permutation(rho.swappings + self.swappings + tuple(reversed(rho.swappings)))

    def support(self) -> frozenset[Atom]:
        """The atoms the permutation moves: those of its canonical list."""
        return frozenset(a for sw in self.swappings for a in (sw.left, sw.right))

    def is_identity(self) -> bool:
        return not self.swappings

    def same_action(self, other: Permutation) -> bool:
        """Alias of ==, kept as a public name: == compares permutations by action."""
        return self == other

    def __str__(self) -> str:
        if not self.swappings:
            return "Id"
        return "".join(str(sw) for sw in self.swappings)


def _canonical(swappings: tuple[Swapping, ...]) -> tuple[Swapping, ...]:
    """The canonical swapping list of the permutation a list denotes."""
    if len(swappings) == 1:
        (sw,) = swappings
        return swappings if sw.left < sw.right else (Swapping(sw.right, sw.left),)
    image: dict[Atom, Atom] = {}
    for sw in swappings:
        # composing with (a b) on the right swaps the images of a and b
        a, b = sw.left, sw.right
        image[a], image[b] = image.get(b, b), image.get(a, a)
    return _cycles({a: b for a, b in image.items() if a != b})


def _cycles(moved: dict[Atom, Atom]) -> tuple[Swapping, ...]:
    """The canonical swapping list of the permutation sending each key of
    moved to its value; moved lists only atoms that move, and is emptied."""
    out: list[Swapping] = []
    for least in sorted(moved):
        a = least
        while a in moved:
            b = moved.pop(a)
            if b != least:
                out.append(Swapping(a, b))
            a = b
    return tuple(out)


class Renaming:
    """A pending permutation rho, kept as its image and preimage maps of the
    atoms it moves, for the checking engines to carry down a term instead of
    applying it: a term argument t then stands for rho.t.

    swap(a, b) composes (a b) on the left in O(1); composing it again
    undoes it, and leaves both maps as they were.
    """

    __slots__ = ("image", "preimage")

    def __init__(self):
        self.image: dict[Atom, Atom] = {}
        self.preimage: dict[Atom, Atom] = {}

    def __call__(self, a: Atom) -> Atom:
        return self.image.get(a, a)

    def inverse(self, a: Atom) -> Atom:
        return self.preimage.get(a, a)

    def swap(self, a: Atom, b: Atom) -> None:
        """rho := (a b) o rho: the atoms rho sent to a now go to b, and back."""
        image, preimage = self.image, self.preimage
        for x, y in ((preimage.get(a, a), b), (preimage.get(b, b), a)):
            if x == y:
                del image[x], preimage[y]
            else:
                image[x], preimage[y] = y, x

    def permutation(self) -> Permutation:
        """rho as a Permutation, its canonical list written from the image
        map directly."""
        p = Permutation()
        object.__setattr__(p, "swappings", _cycles(dict(self.image)))
        return p

    def compose(self, other: Permutation) -> Permutation:
        """rho after other, as a Permutation."""
        return self.permutation().compose(other) if self.image else other


class Theory(enum.Enum):
    """Equational attribute of a function symbol."""

    NONE = "none"
    A = "A"
    C = "C"
    AC = "AC"


@dataclass
class Signature:
    """Maps function symbols to their equational theories.

    A permissive signature treats unknown symbols as plain (Theory.NONE).
    """

    symbols: dict[str, Theory] = field(default_factory=dict)
    permissive: bool = False

    def declare(self, name: str, theory: Theory) -> None:
        self.symbols[name] = theory

    def theory(self, name: str) -> Theory:
        if name in self.symbols:
            return self.symbols[name]
        if self.permissive:
            return Theory.NONE
        raise UndeclaredSymbolError(f"undeclared function symbol: {name}")

    def has_equational_symbols(self) -> bool:
        return any(th is not Theory.NONE for th in self.symbols.values())


class Term:
    """Base class of the term grammar.  Terms are immutable, so a node keeps
    its size and its free variables in two memo slots, filled by term_size
    and free_vars the first time they are asked for, or copied by act."""

    __slots__ = ("_size", "_vars")


@dataclass(frozen=True, slots=True)
class AtomTerm(Term):
    atom: Atom


@dataclass(frozen=True, slots=True)
class Abs(Term):
    binder: Atom
    body: Term


@dataclass(frozen=True, slots=True)
class Tup(Term):
    items: tuple[Term, ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise IllFormedTermError("tuples need at least two components")


@dataclass(frozen=True, slots=True)
class App(Term):
    symbol: str
    arg: Term


@dataclass(frozen=True, slots=True)
class Susp(Term):
    """A moderated variable pi.X."""

    perm: Permutation
    var: Var


def atom(name: str) -> AtomTerm:
    return AtomTerm(Atom(name))


def var(name: str, perm: Permutation | None = None) -> Susp:
    return Susp(perm or Permutation.identity(), Var(name))


def pair(*items: Term) -> Tup:
    return Tup(tuple(items))


def is_pair(t: Term) -> bool:
    """Whether t is a tuple of two terms, the argument a C symbol needs."""
    return isinstance(t, Tup) and len(t.items) == 2


def act(perm: Permutation, t: Term) -> Term:
    """Permutation action on a term; suspends on moderated variables."""
    if not perm.swappings:
        return t
    match t:
        case AtomTerm(a):
            return AtomTerm(perm(a))
        case Abs(b, body):
            out = Abs(perm(b), act(perm, body))
        case Tup(items):
            out = Tup(tuple(act(perm, s) for s in items))
        case App(f, arg):
            out = App(f, act(perm, arg))
        case Susp(p, x):
            out = Susp(perm.compose(p), x)
        case _:
            raise TypeError(f"not a term: {t!r}")
    # the action renames atoms only, so t's size and variables are out's
    for slot in Term.__slots__:
        memo = getattr(t, slot, None)
        if memo is not None:
            object.__setattr__(out, slot, memo)
    return out


_NO_VARS: frozenset[Var] = frozenset()


def free_vars(t: Term) -> frozenset[Var]:
    """The variables of t.  Memoised on the immutable term: each node
    computes its set once, from its children's, and every later call
    returns that same shared frozenset."""
    out = getattr(t, "_vars", None)
    if out is not None:
        return out
    match t:
        case AtomTerm():
            out = _NO_VARS
        case Abs(_, body):
            out = free_vars(body)
        case App(_, arg):
            out = free_vars(arg)
        case Susp(_, x):
            out = frozenset((x,))
        case Tup(items):
            parts = [free_vars(s) for s in items]
            out = max(parts, key=len)
            if not all(p <= out for p in parts):
                out = out.union(*parts)
        case _:
            raise TypeError(f"not a term: {t!r}")
    object.__setattr__(t, "_vars", out)
    return out


def atoms_of(t: Term) -> set[Atom]:
    """All atoms mentioned in a term, including binders and suspension perms."""
    match t:
        case AtomTerm(a):
            return {a}
        case Abs(b, body):
            return {b} | atoms_of(body)
        case Tup(items):
            out: set[Atom] = set()
            for s in items:
                out |= atoms_of(s)
            return out
        case App(_, arg):
            return atoms_of(arg)
        case Susp(p, _):
            return set(p.support())
    raise TypeError(f"not a term: {t!r}")


def is_ground(t: Term) -> bool:
    return not free_vars(t)


def term_size(t: Term) -> int:
    """The number of nodes of t.  Memoised on the immutable term: each node
    computes its size once, from its children's, so later calls cost O(1)."""
    n = getattr(t, "_size", None)
    if n is not None:
        return n
    match t:
        case AtomTerm() | Susp():
            n = 1
        case Abs(_, body):
            n = 1 + term_size(body)
        case App(_, arg):
            n = 1 + term_size(arg)
        case Tup(items):
            n = 1 + sum(term_size(s) for s in items)
        case _:
            raise TypeError(f"not a term: {t!r}")
    object.__setattr__(t, "_size", n)
    return n


def same_term(s: Term, t: Term) -> bool:
    """Alias of ==, kept as a public name: == compares suspension permutations by action."""
    return s == t


def flatten(sig: Signature, t: Term) -> Term:
    """Flatten nested applications of A and AC symbols into one application
    whose argument tuple lists all collected arguments."""
    match t:
        case AtomTerm():
            return t
        case Susp():
            return t
        case Abs(b, body):
            return Abs(b, flatten(sig, body))
        case Tup(items):
            return Tup(tuple(flatten(sig, s) for s in items))
        case App(f, arg):
            if sig.theory(f) in (Theory.A, Theory.AC):
                args = [flatten(sig, s) for s in _collect_args(sig, f, arg)]
                if len(args) == 1:
                    return App(f, args[0])
                return App(f, Tup(tuple(args)))
            return App(f, flatten(sig, arg))
    raise TypeError(f"not a term: {t!r}")


def _collect_args(sig: Signature, f: str, arg: Term) -> list[Term]:
    out: list[Term] = []
    stack = list(arg.items) if isinstance(arg, Tup) else [arg]
    for s in stack:
        if isinstance(s, App) and s.symbol == f:
            out.extend(_collect_args(sig, f, s.arg))
        else:
            out.append(s)
    return out


def equational_args(sig: Signature, t: App) -> list[Term]:
    """Argument list of an application, flattened at its own head symbol."""
    return _collect_args(sig, t.symbol, t.arg)


def check_well_formed(sig: Signature, t: Term, theories=None) -> None:
    """Raise if t uses undeclared symbols, applies a C symbol to a non-pair,
    or, when theories is given, uses a symbol whose theory is not in it."""
    match t:
        case AtomTerm() | Susp():
            return
        case Abs(_, body):
            check_well_formed(sig, body, theories)
        case Tup(items):
            for s in items:
                check_well_formed(sig, s, theories)
        case App(f, arg):
            th = sig.theory(f)
            if theories is not None and th not in theories:
                raise IllFormedTermError(f"symbol {f} has unsupported theory {th.value} here")
            if th is Theory.C and not is_pair(arg):
                raise IllFormedTermError(f"commutative symbol {f} needs a pair argument")
            check_well_formed(sig, arg, theories)
        case _:
            raise TypeError(f"not a term: {t!r}")


class Substitution:
    """A finite map from variables to terms, applied homomorphically and
    possibly capturing: (pi.X)[X := s] is pi acting on s.  Subterms without
    a bound variable are shared with the input, not rebuilt."""

    def __init__(self, bindings: dict[Var, Term] | None = None):
        self.bindings: dict[Var, Term] = dict(bindings or {})

    def __call__(self, t: Term) -> Term:
        if self.bindings.keys().isdisjoint(free_vars(t)):
            return t
        match t:
            case Abs(b, body):
                return Abs(b, self(body))
            case Tup(items):
                return Tup(tuple(self(s) for s in items))
            case App(f, arg):
                return App(f, self(arg))
            case Susp(p, x):
                return act(p, self.bindings[x])
        raise TypeError(f"not a term: {t!r}")

    def compose(self, other: Substitution) -> Substitution:
        """self then other: t(self.compose(other)) == other(self(t))."""
        out = {x: other(s) for x, s in self.bindings.items()}
        for y, s in other.bindings.items():
            if y not in out:
                out[y] = s
        return Substitution(out)

    def domain(self) -> set[Var]:
        return set(self.bindings)

    def is_identity(self) -> bool:
        return not self.bindings

    def __eq__(self, other) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        dom = self.domain() | other.domain()
        return all(self(var(x.name)) == other(var(x.name)) for x in dom)

    def __repr__(self) -> str:
        inner = ", ".join(f"{x} -> {t}" for x, t in sorted(self.bindings.items(), key=lambda kv: kv[0]))
        return "{" + inner + "}"


class NameGenerator:
    """Produces fresh generated atoms with a reserved prefix.

    Generated atoms are identified by (prefix, index), so two generators with
    the same prefix must not overlap; use generator_avoiding to start past
    every atom already present in the inputs.
    """

    def __init__(self, prefix: str = GENERATED_PREFIX, start: int = 0):
        # prefix + digits must print as an atom: not as a variable, a number or several tokens
        bad_start = not prefix or prefix[0].isupper() or prefix[0].isdigit()
        if bad_start or any(c.isspace() or c in "()[],.;:?=" for c in prefix):
            raise IllFormedTermError(f"generated atoms with prefix {prefix!r} would not print as atoms")
        self.prefix = prefix
        self._counter = itertools.count(start)

    def fresh(self) -> Atom:
        k = next(self._counter)
        return Atom(f"{self.prefix}{k}", gen_index=k)

    def fresh_pair(self) -> tuple[Atom, Atom]:
        return self.fresh(), self.fresh()

    def newness(self, t: Term) -> tuple[Atom, list[tuple[Permutation, Var]]]:
        """A fresh pair c1, c2: c1 and the entries (c1 c2) fix Y, for every
        variable Y of t in order, recording that both atoms are new for t."""
        c1, c2 = self.fresh_pair()
        ys = sorted(free_vars(t))
        sw = Permutation.swap(c1, c2) if ys else None
        return c1, [(sw, y) for y in ys]


@dataclass(frozen=True)
class FreshnessContext:
    """A finite set of assumptions a # X (atom fresh for variable)."""

    constraints: frozenset[tuple[Atom, Var]] = frozenset()

    def holds(self, a: Atom, x: Var) -> bool:
        return (a, x) in self.constraints

    def extend(self, pairs) -> FreshnessContext:
        return FreshnessContext(self.constraints | frozenset(pairs))

    def atoms(self) -> set[Atom]:
        return {a for a, _ in self.constraints}

    def entries(self) -> list[tuple[Atom, Var]]:
        """The assumptions in print order."""
        return sorted(self.constraints)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{a} fresh {x}" for a, x in self.entries()) + "}"


@dataclass(frozen=True)
class FixpointContext:
    """A finite set of assumptions pi fix X (permutation fixes variable)."""

    constraints: frozenset[tuple[Permutation, Var]] = frozenset()

    def perms_of(self, x: Var) -> list[Permutation]:
        return [p for p, y in self.constraints if y == x]

    def supp_of(self, x: Var) -> frozenset[Atom]:
        """Union of supports of the permutations constrained to fix x.

        This is the support of the group they generate, since each generator
        moves only atoms in its own support.
        """
        out: set[Atom] = set()
        for p in self.perms_of(x):
            out |= p.support()
        return frozenset(out)

    def extend(self, pairs) -> FixpointContext:
        return FixpointContext(self.constraints | frozenset(pairs)) if pairs else self

    def atoms(self) -> set[Atom]:
        out: set[Atom] = set()
        for p, _ in self.constraints:
            out |= p.support()
        return out

    def entries(self) -> list[tuple[Permutation, Var]]:
        """The assumptions in print order: by variable, then by permutation."""
        return sorted(self.constraints, key=lambda c: (c[1], str(c[0])))

    def __str__(self) -> str:
        return "{" + ", ".join(f"{p} fix {x}" for p, x in self.entries()) + "}"


def atoms_in(*parts) -> set[Atom]:
    """Every atom mentioned by the given atoms, permutations, terms, and
    contexts or constraints (anything else with an atoms() method)."""
    out: set[Atom] = set()
    for x in parts:
        if isinstance(x, Atom):
            out.add(x)
        elif isinstance(x, Permutation):
            out |= x.support()
        elif isinstance(x, Term):
            out |= atoms_of(x)
        else:
            out |= x.atoms()
    return out


def generator_avoiding(atoms: set[Atom] | frozenset[Atom], prefix: str = GENERATED_PREFIX) -> NameGenerator:
    """A generator whose atoms are new for the given ones: it starts past
    every generated atom and every atom named prefix followed by digits."""
    taken = [a.gen_index for a in atoms if a.generated]
    numbered = [a.name[len(prefix) :] for a in atoms if a.name.startswith(prefix)]
    taken += [int(digits) for digits in numbered if digits.isascii() and digits.isdigit()]
    return NameGenerator(prefix=prefix, start=max(taken, default=-1) + 1)
