(** Left-to-right term rewriting — the kernel of CafeOBJ's [red] command.

    Equations are oriented left-to-right as rewrite rules (Section 2.1) and
    a term is normalized with a leftmost-innermost strategy.  Conditional
    rules (CafeOBJ's [ceq]) apply only when their condition normalizes to
    [true].

    Systems are immutable; proof passages fork a base system ({!fork})
    and extend it with their assumption equations ({!extend}), which
    mirrors CafeOBJ's [open ... close] temporary modules.  Each system
    carries a memoization table and rewrite-step counters used by the
    benchmarks.

    A system holds its compiled rules as {e layers}, newest first:
    {!make} compiles one, {!extend} compiles only its extra rules into a
    new front layer, and {!fork} compiles nothing.  A system, its forks
    and its extensions therefore share layers, so degrading one layer
    (see {!selfcheck}) degrades it in all of them.

    Normalization can additionally record a {e derivation} — a replayable
    proof trace of every rule application, condition discharge and AC
    permutation — which the engine-independent [Certify] checker validates
    (de Bruijn criterion: the big engine emits certificates, a small
    separate kernel checks them).

    When the telemetry probe is on ([Telemetry.Probe.set_enabled true]),
    every top-level normalization records a [cat = "red"] span and every
    rule application / condition discharge is profiled per rule label
    (hit count, self and inclusive time).  With the probe off the
    instrumentation reduces to one flag read per guarded site; normal
    forms and step counts are identical either way. *)

type rule = private {
  label : string;
  lhs : Term.t;
  rhs : Term.t;
  cond : Term.t option;  (** [Some c]: rule fires only when [c] reduces to [true] *)
}

(** [rule ?cond ~label lhs rhs] builds a rule.
    @raise Invalid_argument if [lhs] is a variable, if the two sides have
    different sorts, or if [rhs] (or [cond]) contains variables not occurring
    in [lhs]. *)
val rule : ?cond:Term.t -> label:string -> Term.t -> Term.t -> rule

type system

(** [make rules] builds a system; rules are tried in list order. *)
val make : rule list -> system

(** [rules sys] lists every rule of [sys] in the order they are tried. *)
val rules : system -> rule list

(** [extend sys rules] is a new system with [rules] added in front of
    [sys]'s (tried first, so passage assumptions take precedence over the
    base spec — matching CafeOBJ, where the innermost module's equations
    shadow imports).  Only [rules] are compiled; [sys]'s layers are
    shared.  The new system has a fresh memo, inherits [sys]'s limits and
    indexing flag, and shares its step counter. *)
val extend : system -> rule list -> system

(** [fork sys] behaves like [make (rules sys)] — fresh identity with no
    parent and every rule listed as added, a private memo and step
    counter, the default limits and indexing flag — but shares [sys]'s
    compiled layers instead of compiling them again.  Proof cases fork
    the protocol's base system. *)
val fork : system -> system

(** [normalize sys t] is the normal form of [t].  When a tracer is
    installed ({!set_tracer}, or {!with_tracer} on the calling domain),
    the run additionally records a derivation obligation for later
    certification.
    @raise Limit_exceeded if the step budget or deadline is exhausted (a
    safety net against non-terminating rule sets).  The exhausted run
    {e never} returns a partial normal form: callers either propagate the
    exception or report the reduction as inconclusive — a truncated
    reduction must not be mistaken for a proved [true]. *)
val normalize : system -> Term.t -> Term.t

(** [normalize_uncached sys t] runs the same traversal as {!normalize},
    with its strategy and step accounting, but memoizes in a private
    table that dies with the call — the shared memo is neither read nor
    written — and selects rules by the linear scan.  It is the
    differential test suite's baseline for the memo and the index.
    @raise Limit_exceeded as {!normalize}. *)
val normalize_uncached : system -> Term.t -> Term.t

(** Which resource ran out: the per-call step budget, or the per-call
    CPU-seconds deadline. *)
type limit = Steps of int | Deadline of float

exception Limit_exceeded of { limit : limit; steps : int }

(** The step limit of a new system: [5_000_000]. *)
val default_step_limit : int

(** [set_step_limit sys n] caps the number of rule applications in a single
    [normalize] call (default {!default_step_limit}). *)
val set_step_limit : system -> int -> unit

(** [set_deadline sys d] additionally caps a single [normalize] call at [d]
    CPU-seconds ([Sys.time]); [0.] (the default) disables the deadline.
    Checked once per rule application. *)
val set_deadline : system -> float -> unit

(** [steps sys] is the cumulative number of rule applications performed by
    this system since creation.  The counter is atomic and shared with
    every system derived by {!extend} (not with forks), so totals are
    exact even when the sched pool normalizes on several domains at
    once. *)
val steps : system -> int

(** [reset_steps sys] zeroes the counter. *)
val reset_steps : system -> unit

(** [clear_cache sys] drops the memoization tables (normal forms remain
    valid; this is only for memory control in long benchmark runs). *)
val clear_cache : system -> unit

(** {1 Normal-form memo}

    Each system owns a striped, generation-stamped memo mapping interned
    terms to their normal forms, shared read-mostly across the sched
    pool's domains.  Entries are stamped with the memo's generation at
    store time and ignored once the generation moves on — {!extend}
    allocates a fresh memo for the derived system (its extra rules
    invalidate every base normal form), {!fork} a private one, and
    {!invalidate_memo} bumps the generation in place. *)

(** [invalidate_memo sys] advances the memo generation: every cached
    normal form becomes stale (a guaranteed miss) without touching the
    tables.  Use when the meaning of the rule set changes under an
    existing system. *)
val invalidate_memo : system -> unit

type memo_stats = {
  hits : int;  (** lookups answered by a current-generation entry *)
  misses : int;  (** lookups finding nothing, or only a stale entry *)
  entries : int;  (** live table entries, stale ones included *)
  generation : int;
}

val memo_stats : system -> memo_stats

(** {1 Indexed rule selection}

    Each layer of a system is a discrimination-tree index ({!Index})
    compiled at {!make}/{!extend} time; a query concatenates the layers'
    answers, newest first.  Candidate selection through the
    index is {e never-miss} and preserves rule order, so normal forms,
    step counts, traced derivations and certificates are byte-identical
    with and without it — only the number of failed match attempts
    changes.  {!normalize} and {!normalize_traced} go through the index;
    {!normalize_uncached} always uses the linear scan (it is the
    differential baseline).

    Index⇄memo generation interaction: the index is keyed to the rule
    set, the memo to the {e meaning} of that rule set.  [extend] compiles
    a layer for the extra rules only (stamped with the new system's uid)
    and allocates a fresh memo; [fork] shares every layer and allocates a
    fresh memo.  {!invalidate_memo} bumps only the memo generation — the
    rules are unchanged, so the index stays valid and is {e not}
    rebuilt.  The one coupling runs the other way: if {!selfcheck} finds a
    layer corrupted, every normal form computed through it is suspect, so
    the memo generation is bumped and the derivation cache dropped along
    with degrading the layer. *)

(** [set_indexing sys b] switches rule selection between the index
    ([true], the default) and the seed's linear scan ([false]).  Linear
    selections on a non-empty bucket are accounted as index fallbacks. *)
val set_indexing : system -> bool -> unit

val indexing : system -> bool

(** [set_default_indexing b] sets the flag new systems ({!make},
    {!fork}) are born with — {!extend} inherits the parent's flag
    instead, so a campaign forced onto the linear scan stays on it
    through every split branch. *)
val set_default_indexing : bool -> unit

val default_indexing : unit -> bool

(** [index_info sys] describes the compiled index over all of [sys]'s
    layers: rule and bucket counts summed over the layers, the generation
    stamp of the newest layer (the uid of the system that compiled it —
    [(info sys).si_uid] for {!make} and {!extend}, the forked system's
    for {!fork}), and health ([false] if any layer is degraded). *)
val index_info : system -> Index.info

(** [selfcheck sys] re-runs the self-retrieval validation of every layer.
    On [Error] the corrupted layers are degraded to full-bucket answers
    {e and} [sys]'s memo generation is bumped / derivation cache dropped,
    because normal forms computed through a corrupted index cannot be
    trusted.  The degraded layers stay degraded in every system sharing
    them; their memos are not touched. *)
val selfcheck : system -> (unit, string) result

(**/**)

(** Test-only: corrupt the compiled index in place (see
    {!Index.unsafe_drop_slot}); [slot] counts along the bucket of the
    whole layer chain, in the order the rules are tried.  Exists so the
    adversarial differential tests can prove {!selfcheck} detects
    corruption and the degraded index falls back to sound full-bucket
    answers. *)
val corrupt_index_for_tests : system -> bucket:string -> slot:int -> bool

(**/**)

val pp_rule : Format.formatter -> rule -> unit

(** {1 Derivations}

    A derivation mirrors the innermost strategy: children first, then AC
    canonicalization at the root, then at most one root rule application
    whose result is normalized by a nested derivation.  A derivation
    certifies {e reachability} — [d_in] rewrites to [d_out] with the
    recorded rules — which is exactly what the soundness of a proof score
    rests on.  Subterms on which nothing happened collapse to {!Triv}
    ([d_in == d_out], zero steps), keeping certificates small. *)

type deriv = { d_in : Term.t; d_out : Term.t; d_node : dnode }

and dnode =
  | Triv
  | Dapp of {
      children : deriv list;  (** one derivation per argument, in order *)
      perm : int list option;
          (** AC/Comm canonicalization: permutation applied to the
              flattened argument list (AC) or the two arguments (Comm);
              [None] when canonicalization was the identity *)
      step : rstep option;  (** the root rule application, if any *)
    }

and rstep = {
  rs_rule : rule;
  rs_sub : Subst.t;  (** the matching substitution, recorded — never searched for by the checker *)
  rs_cond : deriv option;  (** discharge of the instantiated condition down to [true] *)
  rs_next : deriv;  (** normalization of the instantiated right-hand side *)
}

(** [normalize_traced sys t] normalizes [t] and returns the derivation,
    bypassing the global tracer (no obligation is recorded).
    @raise Limit_exceeded as {!normalize}. *)
val normalize_traced : system -> Term.t -> Term.t * deriv

(** {1 System identity}

    Proof passages extend systems with branch-local assumption rules
    ([split-n] ground equations).  Certificates must scope every derivation
    to the rules that were actually available, so each system carries a
    unique id and a pointer to the system it extended. *)

type sys_info = {
  si_uid : int;
  si_parent : sys_info option;
  si_added : rule list;  (** rules this system added over [si_parent] *)
}

val info : system -> sys_info

(** {1 Tracers}

    [set_tracer (Some tr)] makes every {!normalize} call — everywhere, on
    every domain — record its derivation into [tr] as a proof obligation.
    Recording is mutex-protected and deduplicated per (system, input);
    zero-step runs are skipped.  [set_tracer None] turns tracing off (the
    default).  [with_tracer tr f] records into [tr] only the {!normalize}
    calls [f] makes on the calling domain, and only while no process-wide
    tracer is set; concurrent work on other domains records nothing into
    it.  The untraced path costs two atomic loads. *)

type obligation = {
  ob_info : sys_info;
  ob_input : Term.t;
  ob_deriv : deriv;
}

type tracer

val tracer : unit -> tracer
val set_tracer : tracer option -> unit

(** [with_tracer tr f] runs [f ()] with [tr] as the calling domain's
    tracer, restoring the previous one when [f] returns or raises. *)
val with_tracer : tracer -> (unit -> 'a) -> 'a

(** [obligations tr] returns the recorded obligations in recording order. *)
val obligations : tracer -> obligation list
