(** CafeOBJ-style specification modules.

    A module owns a signature fragment and a list of equations, and may
    import other modules (CafeOBJ's [pr(...)], protecting import).  The
    equations of a module and its imports, oriented left-to-right, form the
    rewrite system used by the [red] command (Section 2.1 of the paper).

    Modules are mutable while being defined and are typically frozen by the
    first call to {!reduce}; adding declarations later simply invalidates the
    cached rewrite system. *)

open Kernel

type t

(** [create ?imports name] makes an empty module.  Every module implicitly
    imports the builtin [BOOL] ({!Builtins.bool_spec}); pass
    [~bool:false] to opt out (used only by [BOOL] itself). *)
val create : ?bool:bool -> ?imports:t list -> string -> t

val name : t -> string
val imports : t -> t list

(** [branch base name] is a fresh child module importing [base]: it sees
    everything [base] declares, while its own declarations (fresh proof
    constants) and its rewrite system's memo table and step counter are
    private.  Proof cases each run in their own branch, which is what makes
    them safe to execute on separate domains — the shared base is only
    read.  O(1); the child's rewrite system is a {!Rewrite.fork} of
    [base]'s, made on first use, so the base's rules are compiled once
    for all its branches. *)
val branch : t -> string -> t

(** [declare_sort m name] interns a visible sort and records it as declared
    by [m]. *)
val declare_sort : t -> string -> Sort.t

(** [declare_hsort m name] interns a hidden sort (state space). *)
val declare_hsort : t -> string -> Sort.t

(** [declare_op m name arity sort ~attrs] declares an operator in [m]'s
    signature fragment. *)
val declare_op :
  t -> string -> Sort.t list -> Sort.t -> attrs:Signature.attr list -> Signature.op

(** [find_op m name] resolves [name] in [m]'s signature or, failing that, in
    its imports (depth-first) and the builtins. *)
val find_op : t -> string -> Signature.op option

(** [sorts m] lists the sorts declared by [m] itself. *)
val sorts : t -> Sort.t list

(** [own_ops m] lists the operators declared by [m] itself. *)
val own_ops : t -> Signature.op list

(** [all_ops m] lists the operators visible in [m] (own + imports,
    duplicates removed, own first). *)
val all_ops : t -> Signature.op list

(** [add_eq m ~label lhs rhs] records the equation [lhs = rhs]. *)
val add_eq : t -> label:string -> Term.t -> Term.t -> unit

(** [add_ceq m ~label lhs rhs ~cond] records the conditional equation
    [lhs = rhs if cond]. *)
val add_ceq : t -> label:string -> Term.t -> Term.t -> cond:Term.t -> unit

(** [add_rule m rule] records a pre-built rule. *)
val add_rule : t -> Rewrite.rule -> unit

(** [own_rules m] lists the equations declared by [m] itself, in order. *)
val own_rules : t -> Rewrite.rule list

(** [all_rules m] lists [m]'s rules followed by its imports' (own rules take
    precedence, imports depth-first, duplicates by label removed). *)
val all_rules : t -> Rewrite.rule list

(** [system m] is the rewrite system of [m] (cached; invalidated by any
    [add_*]).  A module with no equations of its own and exactly one
    import — every {!branch} — forks its import's system
    ({!Rewrite.fork}); any other module compiles [make (all_rules m)].
    The cache is filled atomically: concurrent first calls on several
    domains all return the same system. *)
val system : t -> Rewrite.system

(** [reduce m t] is CafeOBJ's [red t .] in module [m]: the normal form of
    [t]. *)
val reduce : t -> Term.t -> Term.t

(** [reduce_in m ~assumptions t] is [red] inside an [open m ... close]
    proof passage: the assumption equations extend the system, then [t] is
    normalized.  Assumptions are pairs [(lhs, rhs)] oriented as given. *)
val reduce_in : t -> assumptions:(Term.t * Term.t) list -> Term.t -> Term.t

(** [record_pos m key (line, col)] records the source position of a
    declaration.  Keys are ["eq:<label>"], ["op:<name>"] and
    ["sort:<name>"]; the first recording of a key wins.  Generated specs
    record nothing — diagnostics then simply omit the location. *)
val record_pos : t -> string -> int * int -> unit

(** [pos_of m key] looks a declaration's position up in [m] and,
    depth-first, its imports. *)
val pos_of : t -> string -> (int * int) option

val pp : Format.formatter -> t -> unit

(**/**)

(** Internal: the BOOL module; exposed for {!Builtins}. *)
val bool_spec : t Lazy.t
