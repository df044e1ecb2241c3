(** Rule-level flow analysis over OTS-style specs.

    Transition rules of an observational transition system have the
    shape [obs(action(S, xs), ys) = rhs]: the equation describes how one
    observer reads the post-state of one action.  This checker recovers
    that structure from the elaborated rewrite rules, computes per-action
    read/write footprints over the observers, derives the action
    dependency graph (an edge [a -> b] when [a] writes an observer [b]
    reads), and reports:

    - ["dead-transition"]: an action none of whose equations changes any
      observer — it can never affect the state (warning);
    - ["dead-guard"]: an observer equation whose guard normalizes to
      [false], so its effect branch is unreachable (warning);
    - ["duplicate-transition"]: two actions whose equations are
      alpha-identical modulo the action name (info);
    - ["unreachable-rule"]: any rule (OTS or not) whose left-hand side
      contains a proper subpattern reducible by an unconditional rule of
      the same system — under the innermost strategy the arguments are
      already normalized when the root is tried, so the rule can never
      fire (warning).

    Specs with no transition rules get footprint-free results and only
    the [unreachable-rule] scan. *)

type transition = {
  t_name : string;  (** action operator *)
  t_reads : string list;  (** observers read by guards/effects *)
  t_writes : string list;  (** observers whose value can change *)
  t_dead : bool;
}

type result = {
  transitions : transition list;  (** sorted by action name *)
  edges : (string * string) list;
      (** dependency edges: writer action, reader action — sorted, deduped *)
  diagnostics : Diagnostic.t list;
}

(** One observer equation [obs(action(S, xs), ys) = rhs], as recovered from
    an elaborated rewrite rule.  Exported for the independence analyzer
    ({!Indep}), which recombines the equations into commutation
    obligations. *)
type obs_eq = {
  oe_rule : Kernel.Rewrite.rule;
  oe_obs : Kernel.Signature.op;
  oe_action : Kernel.Signature.op;
  oe_state : Kernel.Term.var;
  oe_params : Kernel.Term.t list;  (** the observer's own parameters [ys] *)
}

(** [recognize_rule r] recovers the OTS structure of one rewrite rule, or
    [None] when [r] is not an observer-of-successor-state equation. *)
val recognize_rule : Kernel.Rewrite.rule -> obs_eq option

(** The frame of an observer equation: the observer re-applied to the
    pre-state with the same parameters. *)
val frame : obs_eq -> Kernel.Term.t

(** [observers eqs] is the distinct observers of [eqs], in order of first
    appearance. *)
val observers : obs_eq list -> Kernel.Signature.op list

val check : Cafeobj.Spec.t -> result

(** Graphviz rendering of the action dependency graph. *)
val dot : result -> string
