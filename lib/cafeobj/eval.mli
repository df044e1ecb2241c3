(** Evaluator for the mini-CafeOBJ language: elaborates parsed modules into
    {!Spec} values and executes [red] commands — enough to replay the
    paper's specification-and-proof-score workflow from concrete syntax
    (Section 2.1: “The command red is used to rewrite a given term”). *)

open Kernel

type env

val create : unit -> env

(** [set_tracing env on] — with tracing on, every [red] also records its
    derivation and {!reduction.trace} carries the linearized steps
    ([caferepl --trace]). *)
val set_tracing : env -> bool -> unit

(** [set_uncached env on] — with uncached on, every untraced [red] runs
    through {!Kernel.Rewrite.normalize_uncached} (the seed engine's path,
    private per-call memo) instead of the shared normal-form memo.  Used by
    the differential test suite to compare both engines on every spec. *)
val set_uncached : env -> bool -> unit

(** [set_indexing env on] — with indexing off, every [red] (traced or not)
    selects candidate rules by the seed's linear head-operator scan
    instead of the discrimination-tree index
    ({!Kernel.Rewrite.set_indexing}).  Normal forms, step counts and
    traces are identical either way; the differential suite proves it. *)
val set_indexing : env -> bool -> unit

(** [find_module env name] returns an elaborated module. *)
val find_module : env -> string -> Spec.t option

type reduction = {
  input : Term.t;
  normal_form : Term.t;
  steps : int;  (** rule applications used by this reduction *)
  trace : Trace.step list option;  (** with {!set_tracing}: one entry per step *)
}

type output =
  | Defined of string  (** a module was elaborated *)
  | Reduced of reduction
  | Opened of string
  | Closed
  | Shown of string  (** pretty-printed module text *)

exception Error of string

(** [eval ?step_limit ?deadline_s env phrase] executes one toplevel
    phrase.  [red] commands reduce in the module named by [in], in the
    currently open scratch module, or in the most recently defined module,
    in that order of preference, with at most [step_limit] rule
    applications and [deadline_s] CPU-seconds, whatever limits an earlier
    call reduced under.  An absent limit is {!Kernel.Rewrite}'s default:
    {!Kernel.Rewrite.default_step_limit} steps, no deadline.  A [red] past
    a limit raises {!Kernel.Rewrite.Limit_exceeded}. *)
val eval : ?step_limit:int -> ?deadline_s:float -> env -> Parser.toplevel -> output

(** [eval_string env src] parses and evaluates a whole program. *)
val eval_string : env -> string -> output list

(** [reduce_string env src] — convenience: evaluate and return the last
    reduction.
    @raise Error if [src] performs no reduction. *)
val reduce_string : env -> string -> reduction

val pp_output : Format.formatter -> output -> unit
