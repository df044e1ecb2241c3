(** First-order terms over an order-sorted signature, with maximal sharing.

    A term is either a sorted variable or the application of an operator to
    argument terms (constants are nullary applications).  Terms are the
    universal currency of the kernel: protocol states, messages, boolean
    formulas and proof goals are all terms.

    Terms are hash-consed: every structurally distinct term is interned
    exactly once in a domain-safe table, so structural equality coincides
    with pointer equality, {!compare} is a constant-time id comparison, and
    {!hash}, {!size}, {!depth}, {!is_ground} and {!ac_canonical} are
    precomputed at construction.  Pattern-match on terms through {!view}. *)

type var = { v_name : string; v_sort : Sort.t }

type t = private {
  node : node;
  id : int;  (** unique per structurally-distinct term, process-wide *)
  hash : int;  (** structural hash, stable across processes *)
  term_size : int;
  term_depth : int;
  ground : bool;
  canonical : bool;  (** the term is its own AC/Comm canonical form *)
}

and node =
  | Var of var
  | App of Signature.op * t list

(** [view t] is [t]'s top node, for pattern matching:
    [match Term.view t with Term.Var v -> ... | Term.App (o, args) -> ...]. *)
val view : t -> node

(** {1 Construction} *)

(** [var name sort] builds (interns) a variable. *)
val var : string -> Sort.t -> t

(** [app op args] builds an application.
    @raise Invalid_argument if the number of arguments does not match the
    operator's arity (sorts of the arguments are checked too). *)
val app : Signature.op -> t list -> t

(** [app_unchecked op args] interns an application without re-validating
    arity or argument sorts.  For kernel internals (substitution, AC
    rebuilds, rewriting) reassembling nodes from already-checked pieces. *)
val app_unchecked : Signature.op -> t list -> t

(** [const op] is [app op []]. *)
val const : Signature.op -> t

(** {1 Builtin sugar} *)

val tt : t
val ff : t
val bool_ : bool -> t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t
val implies : t -> t -> t
val iff : t -> t -> t

(** [conj ts] folds [and_] over [ts] ([tt] when empty). *)
val conj : t list -> t

(** [disj ts] folds [or_] over [ts] ([ff] when empty). *)
val disj : t list -> t

(** [eq t1 t2] is the equality atom at the (common) sort of [t1], [t2].
    @raise Invalid_argument on sort mismatch. *)
val eq : t -> t -> t

(** [ite c t e] is [if_then_else_fi] at the sort of [t]. *)
val ite : t -> t -> t -> t

(** {1 Inspection} *)

(** [sort t] is the sort of [t]. *)
val sort : t -> Sort.t

(** [equal] is structural equality (variables by name and sort, operators
    by name) — pointer equality, thanks to interning. *)
val equal : t -> t -> bool

(** [compare] is a total order consistent with {!equal}: id comparison.
    Subterms were interned before their parents, so a term's id is strictly
    greater than its proper subterms' — the order is a simplification order
    on any fixed set of terms within one process, but NOT stable across
    processes or runs. *)
val compare : t -> t -> int

(** [hash t] is the ordering hash: precomputed, structural, consistent
    with {!equal} and stable across processes, which is what
    {!ac_compare}, {!Set}, {!Map} and every serialized order read it for.
    It is not a table key: it folds children in with an xor that cancels,
    so [hash (f (f x))] and [hash x] agree below the sign bit for any
    unary [f].  Key tables by {!id_hash}. *)
val hash : t -> int

(** [id t] is [t]'s unique intern id. *)
val id : t -> int

(** [id_hash t] is a well-mixed hash of {!id}, the hash {!Tbl} keys by.
    Like the id it is not stable across processes or over time. *)
val id_hash : t -> int

(** [ac_compare] — the total order used to canonicalize AC/Comm argument
    lists (and every other order that leaks into stored term structure):
    hash-major, structural walk on collision.  Purely a function of the
    structure — unlike {!compare}, it does not change when a term is
    collected from the weak intern table and later re-interned with a
    fresh id, so canonical forms are stable over time, across domains and
    across processes. *)
val ac_compare : t -> t -> int

(** [vars t] lists the distinct variables of [t], left-to-right. *)
val vars : t -> var list

(** [is_ground t] is [true] iff [t] has no variables (precomputed). *)
val is_ground : t -> bool

(** [size t] counts operator and variable occurrences (precomputed). *)
val size : t -> int

(** [depth t] is the height of the term tree ([1] for leaves,
    precomputed). *)
val depth : t -> int

(** [ac_canonical t] is [true] iff [t] is its own AC/Comm canonical form,
    i.e. [Ac.normalize] returns [t] unchanged (precomputed at intern). *)
val ac_canonical : t -> bool

(** [subterms t] lists every subterm of [t] including [t] itself
    (pre-order). *)
val subterms : t -> t list

(** [occurs ~inside t] tests whether [t] occurs as a subterm of [inside]. *)
val occurs : inside:t -> t -> bool

(** [replace ~old ~by t] replaces every occurrence of the subterm [old] by
    [by] in [t] (used for congruence-by-substitution in the prover). *)
val replace : old:t -> by:t -> t -> t

(** [map_children f t] applies [f] to the immediate children of [t],
    reusing [t] when every child comes back physically unchanged. *)
val map_children : (t -> t) -> t -> t

(** [rename map t] is the simultaneous image of [t] under the constant
    renaming [map], a list of (constant, image) pairs: a permutation of
    constants is applied in one pass.  Like {!replace}, it returns [t]
    itself when no renamed constant occurs in it and re-interns only the
    nodes above a renamed one. *)
val rename : (t * t) list -> t -> t

(** [intern_table_len ()] is the number of live interned terms — the
    footprint of maximal sharing, exported for bench/stats reporting. *)
val intern_table_len : unit -> int

(** [intern_shard_stats ()] is the live-entry count of each of the intern
    table's shards (index = shard number).  A shard is chosen by the high
    bits of an intern key that mixes a node's hash with its children's
    ids, so occupancy skew across shards indicates key imbalance, not
    structural-hash imbalance. *)
val intern_shard_stats : unit -> int array

(** [publish_intern_gauges ()] samples {!intern_shard_stats} once and sets
    the gauges [kernel.intern.live_terms], [kernel.intern.shards_occupied]
    and [kernel.intern.max_shard] ({!Telemetry.Probe.set_gauge}). *)
val publish_intern_gauges : unit -> unit

(** {1 Printing} *)

(** [to_string t] is the prefix rendering of [t]: [f(a, b)], variables as
    [X:Sort]. *)
val to_string : t -> string

(** [add_to_buffer b t] appends [to_string t] to [b]. *)
val add_to_buffer : Buffer.t -> t -> unit

(** [pp] prints {!to_string} as one string: a term never breaks across
    lines. *)
val pp : Format.formatter -> t -> unit

(** {!Set} and {!Map} order elements by {!ac_compare} (structure-stable),
    so iteration order does not depend on intern-table allocation
    history.  {!Tbl} hashes by {!id_hash}: its iteration order does
    depend on that history, so nothing may iterate one into an output. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
