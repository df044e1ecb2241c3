(** Boolean-ring normal forms — CafeOBJ's builtin [BOOL].

    The paper relies on the fact that BOOL's equations, read as rewrite
    rules, are complete for propositional logic (Hsiang-Dershowitz, cited as
    [5]): every tautology rewrites to [true] and every contradiction to
    [false].  The canonical form behind that system is the boolean ring
    (exclusive-or / conjunction) polynomial: a formula is represented as an
    xor of monomials, each monomial a set of atoms, with
    [x xor x = false] and [x and x = x].

    This module implements that normal form directly (used by the proof
    engine, where it decides the [red] goals of proof passages), and also
    exports the corresponding rewrite rules for the generic engine (used by
    the mini-CafeOBJ REPL and the E10 benchmark).

    An {e atom} is any [Bool]-sorted term that is not headed by a builtin
    boolean operator.  Equality atoms are canonicalized by ordering their
    sides, so [a = b] and [b = a] denote the same atom. *)

type t

val tru : t
val fls : t

(** [atom t] injects a non-builtin boolean term as an atomic polynomial.
    @raise Invalid_argument if [t] is not of sort [Bool]. *)
val atom : Term.t -> t

(** [xor_ p q] merges the two sorted monomial lists, cancelling common
    monomials: O(|p| + |q|). *)
val xor_ : t -> t -> t

(** [and_ p q] forms the k = |p|·|q| monomial products, sorts them and
    cancels equal pairs (mod 2): O(k log k) monomial comparisons. *)
val and_ : t -> t -> t

val or_ : t -> t -> t
val not_ : t -> t
val implies_ : t -> t -> t
val iff_ : t -> t -> t

val is_true : t -> bool
val is_false : t -> bool
val equal : t -> t -> bool

(** [of_term t] converts a [Bool]-sorted term to its polynomial: builtin
    connectives (including [Bool]-sorted [if_then_else]) are interpreted,
    everything else becomes an atom.  Trivially reflexive equality atoms
    collapse to [true].

    Cost: each connective costs what {!xor_} or {!and_} costs on its
    operands' polynomials.  A Bool [if] whose condition is a single atom
    [x] (or [not x]) converts each branch with [x] fixed to its value
    ([x·(a|x:=1) ⊕ (1⊕x)·(b|x:=0)]), so the product it forms is one atom
    times a branch already reduced by every enclosing condition: a tower
    of such [if]s never multiplies out a polynomial its own atoms would
    collapse.  Any other condition [c] costs a product [|c|·|a⊕b|]. *)
val of_term : Term.t -> t

(** [to_term p] renders the polynomial back as a term (xor of conjunctions,
    in canonical atom order). *)
val to_term : t -> Term.t

(** [atoms p] lists the distinct atoms occurring in [p], in canonical
    order. *)
val atoms : Term.t -> Term.t list

val atoms_of : t -> Term.t list

(** [assign p atom value] specializes [p] under [atom := value] and
    renormalizes: the monomials mentioning [atom] are dropped ([false]), or
    stripped of it and the result sorted and cancelled ([true]):
    O(|p| log |p|). *)
val assign : t -> Term.t -> bool -> t

(** [tautology t] decides propositional validity of [t]: its polynomial is
    [true]. *)
val tautology : Term.t -> bool

(** [count_monomials p] is the number of monomials (complexity measure used
    in benchmarks). *)
val count_monomials : t -> int

val pp : Format.formatter -> t -> unit

(** The Hsiang rewrite system for the generic engine: orientations of the
    boolean-ring axioms, including the AC-extension variants needed for
    flattened xor/and chains.  Complete for propositional logic, but its
    distribution rule can blow terms up — use it for [red]-style reductions
    of standalone formulas (REPL, E10 benchmark), not mixed into large
    protocol rule sets. *)
val rewrite_rules : unit -> Rewrite.rule list

(** Constant-folding rules only ([not true = false], [true and X = X], …):
    linear and safe to mix with any rule set.  These are what the implicit
    BOOL import of {!Cafeobj.Spec} provides; full propositional decisions
    are made on polynomials by the prover. *)
val const_rules : unit -> Rewrite.rule list
