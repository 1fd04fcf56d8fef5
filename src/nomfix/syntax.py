"""Core data structures: atoms, permutations, terms, signatures, substitutions."""

from __future__ import annotations

import enum
import functools
import itertools
import operator
import re
import weakref


class NomfixError(Exception):
    """Base class for errors raised by this package."""


class IllFormedTermError(NomfixError, ValueError):
    """A term or problem outside what a signature or a solver accepts.  It is
    also a ValueError, the error unify and c_unify document for input they
    reject."""


class UndeclaredSymbolError(NomfixError):
    pass


GENERATED_PREFIX = "#c"
# a generated atom's name: one the parser reads as an atom everywhere, or, with
# '#' first, one that is only printed
_GENERATED_NAME = re.compile(r"[a-z#][A-Za-z0-9_']*")


# field values -> a weak reference to the live atom, (name, gen_index), or
# variable, (name,), with those values; the table is swept of dead references
# whenever it has doubled since the last sweep, so it stays within about twice
# the number of live ones.
_INTERNED: dict[tuple, weakref.ref] = {}
_sweep_at = 1024


def _sweep() -> None:
    """Drop the dead references from the table."""
    global _sweep_at
    for k in [k for k, r in _INTERNED.items() if r() is None]:
        del _INTERNED[k]
    _sweep_at = 2 * len(_INTERNED) + 1024


def _intern(cls, key: tuple):
    """The live cls object whose fields (__match_args__) hold key, made and
    entered in _INTERNED when none lives."""
    self = (ref := _INTERNED.get(key)) and ref()
    if self is None:
        self = object.__new__(cls)
        for attr, value in zip(cls.__match_args__, key):
            object.__setattr__(self, attr, value)
        _INTERNED[key] = weakref.ref(self)
        if len(_INTERNED) > _sweep_at:
            _sweep()
    return self


class _Fields:
    """Fields named by __match_args__, in constructor order: == compares
    those of two objects of one class, repr prints them, and pickle and copy
    rebuild through the constructor.  == without a hash leaves a record
    whose fields may change unhashable."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if cls.__match_args__:  # the fields as one value: a tuple when there are two or more
            cls._fields = operator.attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        return self._fields(self) == other._fields(other) if type(other) is type(self) else NotImplemented

    def __reduce__(self):
        return type(self), tuple(getattr(self, attr) for attr in self.__match_args__)

    def __repr__(self) -> str:
        args = ", ".join(f"{attr}={getattr(self, attr)!r}" for attr in self.__match_args__)
        return f"{type(self).__name__}({args})"


class _Value(_Fields):
    """An immutable value: its constructor sets each field once, past
    __setattr__, and setting or deleting one later raises AttributeError.
    ==, hash and repr skip memo slots.  copy returns the value itself."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, attr, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {attr}")

    __delattr__ = __setattr__

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__


class _Interned(_Value):
    """An immutable value with one live object per field values, kept in
    _INTERNED: == is identity, and pickle returns the live object."""

    __slots__ = ("__weakref__",)
    __eq__, __hash__ = object.__eq__, object.__hash__


@functools.total_ordering
class Atom(_Interned):
    """An object-level name.  Generated atoms come from a NameGenerator and
    carry the reserved prefix in their printed name.

    Atoms are interned: Atom(name, gen_index) returns the one live atom with
    that name and index.  Atoms are ordered by (name, gen_index).
    """

    __slots__ = ("name", "gen_index")
    __match_args__ = ("name", "gen_index")

    def __new__(cls, name: str, gen_index: int = -1) -> Atom:
        return _intern(cls, (name, gen_index))

    def __lt__(self, other: Atom) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return (self.name, self.gen_index) < (other.name, other.gen_index)

    @property
    def generated(self) -> bool:
        return self.gen_index >= 0

    def __str__(self) -> str:
        return self.name


@functools.total_ordering
class Var(_Interned):
    """A meta-level unknown, instantiable by substitution.  Variables are
    interned as atoms are: Var(name) returns the one live variable with that
    name.  Variables are ordered by name.  A variable keeps the set of just
    itself, which every suspension of it shares as its variables."""

    __slots__ = ("name", "_singleton")
    __match_args__ = ("name",)

    def __new__(cls, name: str) -> Var:
        self = _intern(cls, (name,))
        if not hasattr(self, "_singleton"):  # made just now
            object.__setattr__(self, "_singleton", frozenset((self,)))
        return self

    def __lt__(self, other: Var) -> bool:
        if not isinstance(other, Var):
            return NotImplemented
        return self.name < other.name

    def __str__(self) -> str:
        return self.name


@functools.total_ordering
class Swapping(_Value):
    """A transposition of two distinct atoms, ordered by (left, right)."""

    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Atom, right: Atom):
        if left == right:
            raise IllFormedTermError(f"swapping of an atom with itself: ({left} {right})")
        _set_left(self, left)
        _set_right(self, right)

    def __lt__(self, other: Swapping) -> bool:
        return (self.left, self.right) < (other.left, other.right) if type(other) is Swapping else NotImplemented

    def apply(self, a: Atom) -> Atom:
        if a == self.left:
            return self.right
        if a == self.right:
            return self.left
        return a

    def __str__(self) -> str:
        return f"({self.left} {self.right})"


class Permutation(_Value):
    """A finite permutation of atoms, stored as a list of swappings.

    The rightmost swapping acts first: (a b)(b c) sends c to a.  The
    constructor takes any list and keeps the canonical one for its action:
    each cycle c0 -> c1 -> ... -> ck, written from its least atom c0, becomes
    (c0 c1)(c1 c2)...(ck-1 ck), and the cycles follow the order of their
    least atoms.  So == and hash compare permutations, and every term,
    constraint and context holding one, by action, and str prints one text
    per permutation: (b a) prints (a b), (a b)(a b) prints Id.
    """

    __slots__ = __match_args__ = ("swappings",)

    def __init__(self, swappings: tuple[Swapping, ...] = ()):
        _set_swappings(self, _canonical(swappings) if swappings else swappings)

    @staticmethod
    def identity() -> Permutation:
        return _IDENTITY

    @staticmethod
    def swap(a: Atom, b: Atom) -> Permutation:
        return Permutation((Swapping(a, b),))

    def __call__(self, a: Atom) -> Atom:
        for sw in reversed(self.swappings):
            a = sw.apply(a)
        return a

    def preimage(self, a: Atom) -> Atom:
        """self^-1(a), read off the list without building the inverse."""
        for sw in self.swappings:
            a = sw.apply(a)
        return a

    def inverse(self) -> Permutation:
        # the identity and a single swapping are their own inverses
        return self if len(self.swappings) < 2 else Permutation(tuple(reversed(self.swappings)))

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

    def __str__(self) -> str:
        if not self.swappings:
            return "Id"
        return "".join(str(sw) for sw in self.swappings)


_set_left, _set_right, _set_swappings = Swapping.left.__set__, Swapping.right.__set__, Permutation.swappings.__set__
_IDENTITY = Permutation()


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
        p = object.__new__(Permutation)
        _set_swappings(p, _cycles(dict(self.image)))
        return p

    def differ(self, p: Permutation, q: Permutation) -> set[Atom]:
        """The atoms on which p and rho o q differ, evaluated pointwise: only
        an atom that p or q moves, or that q sends to one rho moves, can."""
        image = self.image
        maybe = {*p.support(), *q.support(), *map(q.preimage, image)}
        return {a for a in maybe if p(a) is not image.get(b := q(a), b)}


class Theory(enum.Enum):
    """Equational attribute of a function symbol."""

    NONE = "none"
    A = "A"
    C = "C"
    AC = "AC"


class Signature(_Fields):
    """Maps function symbols to their equational theories.

    A permissive signature treats unknown symbols as plain (Theory.NONE).
    """

    __slots__ = __match_args__ = ("symbols", "permissive")

    def __init__(self, symbols: dict[str, Theory] | None = None, permissive: bool = False):
        self.symbols, self.permissive = {} if symbols is None else symbols, permissive

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


class Term(_Value):
    """Base class of the term grammar.  Terms are immutable values, and a
    node is built after its children, so its constructor sets its size and
    variables, memo slots that are not fields, from theirs, in O(arity):
    term_size, free_vars and is_ground read them at any depth.  A leaf's
    size, and an atom's empty set of variables, are class attributes; a
    suspension shares its variable's one-element set.  A ground node's free
    atoms are filled by free_atoms when first asked for.  copy returns a
    term itself; ==, hash, repr and pickle recurse a frame per level.  act,
    flatten and Substitution rebuild a term through one loop, _rebuild, that
    returns a node whose parts it leaves unchanged as itself, so a new term
    shares every subterm that did not change.

    Every walk over terms dispatches once on the node's exact type, kind =
    type(t), then reads the fields by name; the five node classes are not
    subclassed.  Class patterns cost far more on Python 3.11.  Timed per
    call of a function that only dispatches (timeit, Python 3.11.7, 2-vCPU
    VM): case AtomTerm(a) took 0.6 us, a Susp reached past four other
    patterns 1.2 us and match (s, t) 0.8 us for its first case, against 0.1
    and 0.2 us for type tests (0.13 and 0.38 us for isinstance).  That was
    about half of what a checking engine spent per node.
    """

    __slots__ = ("_size", "_vars", "_atoms")


# the slots' own setters, past _Value.__setattr__, which raises
_set_size, _set_vars, _set_atoms = Term._size.__set__, Term._vars.__set__, Term._atoms.__set__
_NO_VARS: frozenset[Var] = frozenset()


def _one_child(node: Term, child: Term) -> None:
    """Set the size and variables of a node with one child, sharing its set."""
    try:
        _set_size(node, child._size + 1)
    except AttributeError:
        raise TypeError(f"not a term: {child!r}") from None
    _set_vars(node, child._vars)


class AtomTerm(Term):
    __slots__ = __match_args__ = ("atom",)
    _size = 1
    _vars = _NO_VARS

    def __init__(self, atom: Atom):
        _set_atom(self, atom)


class Abs(Term):
    __slots__ = __match_args__ = ("binder", "body")

    def __init__(self, binder: Atom, body: Term):
        _set_binder(self, binder)
        _set_body(self, body)
        _one_child(self, body)


class Tup(Term):
    __slots__ = __match_args__ = ("items",)

    def __init__(self, items: tuple[Term, ...]):
        if len(items) < 2:
            raise IllFormedTermError("tuples need at least two components")
        _set_items(self, items)
        size, out = 1, _NO_VARS
        try:
            for s in items:
                size += s._size
                # the union, kept as a child's own set while each set that
                # adds to it holds all the earlier ones
                v = s._vars
                if not v <= out:
                    out = v if out <= v else out | v
        except AttributeError:
            raise TypeError(f"not a term: {s!r}") from None
        _set_size(self, size)
        _set_vars(self, out)


class App(Term):
    __slots__ = __match_args__ = ("symbol", "arg")

    def __init__(self, symbol: str, arg: Term):
        _set_symbol(self, symbol)
        _set_arg(self, arg)
        _one_child(self, arg)


class Susp(Term):
    """A moderated variable pi.X."""

    __slots__ = __match_args__ = ("perm", "var")
    _size = 1

    def __init__(self, perm: Permutation, var: Var):
        _set_perm(self, perm)
        _set_var(self, var)
        _set_vars(self, var._singleton)


_set_atom, _set_binder, _set_body, _set_items = (d.__set__ for d in (AtomTerm.atom, Abs.binder, Abs.body, Tup.items))
_set_symbol, _set_arg, _set_perm, _set_var = (d.__set__ for d in (App.symbol, App.arg, Susp.perm, Susp.var))


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
    return _rebuild(t, perm=perm) if perm.swappings else t


def free_vars(t: Term) -> frozenset[Var]:
    """The variables of t, set when it was built from its children's, whose
    frozensets it shares where it can."""
    try:
        return t._vars
    except AttributeError:
        raise TypeError(f"not a term: {t!r}") from None


def free_atoms(t: Term) -> frozenset[Atom]:
    """The free atoms of a ground term: those not under a binder of their
    own name.  Unlike size and variables, they are left out of the
    constructors: only ground terms have them, and only the ground
    abs-rename side condition reads them.  So each node fills them the
    first time they are asked for, children first over an explicit stack,
    and shares a child's set when it removes nothing from it; any depth is
    answered.  A suspension's free atoms depend on what its variable stands
    for, so a term with one raises IllFormedTermError."""
    out = getattr(t, "_atoms", None)
    if out is not None:
        return out
    todo = [t]
    while todo:
        u = todo[-1]
        kind = type(u)
        if kind is AtomTerm:
            out = frozenset((u.atom,))
        elif kind is Abs or kind is App:
            child = u.body if kind is Abs else u.arg
            out = getattr(child, "_atoms", None)
            if out is None:
                todo.append(child)
                continue
            if kind is Abs and u.binder in out:
                out = out - {u.binder}
        elif kind is Tup:
            parts = [getattr(s, "_atoms", None) for s in u.items]
            if None in parts:
                todo += [s for s, p in zip(u.items, parts) if p is None]
                continue
            out = max(parts, key=len)
            if not all(p <= out for p in parts):
                out = out.union(*parts)
        elif kind is Susp:
            raise IllFormedTermError(f"free atoms of a term with a variable depend on it: {u.var}")
        else:
            raise TypeError(f"not a term: {u!r}")
        _set_atoms(u, out)
        todo.pop()
    return out


def atoms_of(t: Term) -> set[Atom]:
    """All atoms mentioned in a term, including binders and suspension perms.
    One loop over an explicit stack fills one set, so any depth is folded."""
    out: set[Atom] = set()
    todo = [t]
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is AtomTerm:
            out.add(t.atom)
        elif kind is Abs:
            out.add(t.binder)
            todo.append(t.body)
        elif kind is App:
            todo.append(t.arg)
        elif kind is Tup:
            todo += t.items
        elif kind is Susp:
            out |= t.perm.support()
        else:
            raise TypeError(f"not a term: {t!r}")
    return out


def is_ground(t: Term) -> bool:
    return not free_vars(t)


def term_size(t: Term) -> int:
    """The number of nodes of t, set when it was built."""
    try:
        return t._size
    except AttributeError:
        raise TypeError(f"not a term: {t!r}") from None


def flatten(sig: Signature, t: Term) -> Term:
    """Flatten nested applications of A and AC symbols into one application
    whose argument tuple lists all collected arguments.  A node with no A or
    AC application at or below it is returned itself, so t itself when sig
    declares no A or AC symbol."""
    if Theory.A in sig.symbols.values() or Theory.AC in sig.symbols.values():
        return _rebuild(t, sig=sig)
    return t


_SPLICED = (Theory.A, Theory.AC)


def _rebuild(
    t: Term, perm: Permutation | None = None, bindings: dict | None = None, sig: Signature | None = None
) -> Term:
    """t with perm acting on it, the variables of bindings replaced, or the
    nested applications of each A or AC symbol of sig spliced into one: one
    of the three per call.  One loop over an explicit stack pushes each node
    back, then the number of its children's results it waits for, then those
    children.  Popping that number, it makes the node from the results on
    top of done, or keeps the node itself when they are its own children, so
    unchanged subterms are shared at any depth.  Under bindings, a subterm
    without a bound variable is not visited."""
    bound = bindings.keys() if bindings is not None else None
    done: list[Term] = []
    todo: list = [t]
    while todo:
        u = todo.pop()
        kind = type(u)
        if kind is int:  # the node below waits for the top u results of done
            n, u = u, todo.pop()
            kind = type(u)
            if n > 1:  # a tuple, or an A or AC application with its arguments spliced in
                items = tuple(done[-n:])
                del done[-n:]
                if kind is App:
                    u = App(u.symbol, Tup(items))
                elif not all(map(operator.is_, items, u.items)):
                    u = Tup(items)
                done.append(u)
            elif kind is Abs:
                x = u.binder if perm is None else perm(u.binder)
                done[-1] = u if x is u.binder and done[-1] is u.body else Abs(x, done[-1])
            else:
                done[-1] = u if done[-1] is u.arg else App(u.symbol, done[-1])
            continue
        if kind is AtomTerm:
            if perm is not None and (x := perm(u.atom)) is not u.atom:
                u = AtomTerm(x)
            done.append(u)
        elif kind is Susp:
            if perm is not None:
                u = Susp(perm.compose(u.perm), u.var)
            elif bound is not None and (s := bindings.get(u.var)) is not None:
                u = act(u.perm, s)
            done.append(u)
        elif bound is not None and bound.isdisjoint(free_vars(u)):
            done.append(u)
        elif kind is Abs:
            todo += (u, 1, u.body)
        elif kind is Tup:
            todo += (u, len(u.items), *reversed(u.items))
        elif kind is App:
            f = u.symbol
            if sig is None or sig.theory(f) not in _SPLICED:
                todo += (u, 1, u.arg)
                continue
            # splice in the arguments of the applications of f below while
            # going down: splicing each rebuilt child's list would copy it at
            # every level of a nest.  They are collected right to left, the
            # order in which they go on todo.
            args, below = [], [u]
            while below:
                s = below.pop()
                if type(s) is App and s.symbol == f:
                    below += equational_args(s)
                else:
                    args.append(s)
            todo += (u, len(args), *args)
        else:
            raise TypeError(f"not a term: {u!r}")
    return done[0]


def equational_args(t: App) -> tuple[Term, ...]:
    """The arguments of an application, read off its argument tuple.  In a
    flattened term, which the engines always receive, those of its nested
    applications of an A or AC symbol are spliced in already."""
    arg = t.arg
    return arg.items if type(arg) is Tup else (arg,)


def check_well_formed(sig: Signature, t: Term, theories=None) -> None:
    """Raise if t uses undeclared symbols, applies a C symbol to a non-pair,
    or, when theories is given, uses a symbol whose theory is not in it."""
    todo = [t]
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is Abs:
            todo.append(t.body)
        elif kind is Tup:
            todo += reversed(t.items)  # pre-order, left to right: the first error found is the leftmost
        elif kind is App:
            th = sig.theory(t.symbol)
            if theories is not None and th not in theories:
                raise IllFormedTermError(f"symbol {t.symbol} has unsupported theory {th.value} here")
            if th is Theory.C and not is_pair(t.arg):
                raise IllFormedTermError(f"commutative symbol {t.symbol} needs a pair argument")
            todo.append(t.arg)
        elif kind is not AtomTerm and kind is not Susp:
            raise TypeError(f"not a term: {t!r}")


class Substitution:
    """A finite map from variables to terms, applied homomorphically and
    possibly capturing: (pi.X)[X := s] is pi acting on s.  It rebuilds a
    term as act and flatten do, at any depth; a subterm without a bound
    variable is shared with the input, and not visited."""

    def __init__(self, bindings: dict[Var, Term] | None = None):
        self.bindings: dict[Var, Term] = dict(bindings or {})

    def __call__(self, t: Term) -> Term:
        return _rebuild(t, bindings=self.bindings)

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
        from .printer import print_subst

        return print_subst(self)


class NameGenerator:
    """Produces fresh generated atoms with a reserved prefix.

    Generated atoms are identified by (prefix, index), so two generators with
    the same prefix must not overlap; use generator_avoiding to start past
    every atom already present in the inputs.
    """

    def __init__(self, prefix: str = GENERATED_PREFIX, start: int = 0):
        if not _GENERATED_NAME.fullmatch(prefix + "0"):
            raise IllFormedTermError(f"generated atoms with prefix {prefix!r} would not print as atoms")
        self.prefix = prefix
        self._counter = itertools.count(start)

    def fresh(self) -> Atom:
        k = next(self._counter)
        return Atom(f"{self.prefix}{k}", gen_index=k)

    def newness(self, t: Term) -> tuple[Atom, list[tuple[Permutation, Var]]]:
        """A fresh pair c1, c2: c1 and the entries (c1 c2) fix Y, for every
        variable Y of t in order, recording that both atoms are new for t."""
        c1, c2 = self.fresh(), self.fresh()
        ys = sorted(free_vars(t))
        sw = Permutation.swap(c1, c2) if ys else None
        return c1, [(sw, y) for y in ys]


class FreshnessContext(_Value):
    """A finite set of assumptions a # X (atom fresh for variable)."""

    __slots__ = __match_args__ = ("constraints",)

    def __init__(self, constraints: frozenset[tuple[Atom, Var]] = frozenset()):
        object.__setattr__(self, "constraints", constraints)

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


class FixpointContext(_Value):
    """A finite set of assumptions pi fix X (permutation fixes variable)."""

    __slots__ = __match_args__ = ("constraints",)

    def __init__(self, constraints: frozenset[tuple[Permutation, Var]] = frozenset()):
        object.__setattr__(self, "constraints", constraints)

    def supp_of(self, x: Var) -> frozenset[Atom]:
        """Union of supports of the permutations constrained to fix x.

        This is the support of the group they generate, since each generator
        moves only atoms in its own support.
        """
        out: set[Atom] = set()
        for p, y in self.constraints:
            if y == x:
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
