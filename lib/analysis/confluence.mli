(** Local-confluence checker: every critical pair of the module's rule set
    ({!Kernel.Completion.all_critical_pairs}, self-overlaps included) must
    be joinable.  Together with a termination certificate this gives
    confluence (Newman's lemma), i.e. [red] computes a unique normal form.

    Pairs are joined innermost-first within a step budget.  A pair whose
    normal forms differ syntactically may still be {e semantically}
    joinable: both sides boolean-ring equal (Hsiang — how the paper's BOOL
    identifies [xor]-permuted forms), or joinable in every branch of a
    Shannon case split on an [if] condition (the if-lifted TLS rules
    produce nested conditionals in different orders).  Such pairs are
    counted [semantic] and do not fail certification; truly divergent
    pairs are errors, budget blow-ups are warnings. *)

open Kernel

type join_status =
  | Syntactic  (** identical normal forms *)
  | Semantic  (** equal after boolean-ring reasoning / [if] case split *)
  | Undecided  (** step budget or split fuel exhausted *)
  | Unjoinable of Term.t * Term.t  (** the divergent normal forms *)

(** A replayable join certificate: the derivation of each side's reduct and
    the reconciliation tail — syntactic identity, boolean-ring identity, or
    a Shannon split on an [if] condition with one certificate per branch.
    Checked by the engine-independent [Certify] kernel; the enumeration of
    critical pairs itself remains trusted (documented trust boundary). *)
type jtail = Tsyn | Tring | Tsplit of Term.t * jcert * jcert
and jcert = { jc_left : Rewrite.deriv; jc_right : Rewrite.deriv; jc_tail : jtail }

type pair_report = {
  overlap : Completion.overlap;
  status : join_status;
  cert : jcert option;  (** present when [check ~certify:true] decided the pair *)
}

type result = {
  certified : bool;  (** every pair [Syntactic] or [Semantic] *)
  total : int;
  syntactic : int;
  semantic : int;
  reports : pair_report list;  (** the non-syntactic pairs *)
  certs : (Completion.overlap * jcert) list;
      (** with [~certify:true]: one join certificate per decided pair *)
  diagnostics : Diagnostic.t list;
}

(** [join_terms sys fuel l r] decides one divergence: normalize both sides
    in [sys], then reconcile syntactically, by boolean-ring reasoning, or by
    a Shannon case split on an [if] condition (up to [fuel] splits).  This
    is the joinability core of {!check}, exported for reuse by the
    independence analyzer ({!Indep}). *)
val join_terms : Rewrite.system -> int -> Term.t -> Term.t -> join_status

(** [split_candidate t] is the condition of some [if] application inside
    [t] — the preferred Shannon-split pivot (application conditions before
    variable ones), or [None] when [t] contains no conditional. *)
val split_candidate : Term.t -> Term.t option

(** [check ?pool ?budget ?fuel ?certify spec] — [budget] caps rewrite steps
    per normalization (default 20k), [fuel] caps Shannon splits per pair
    (default 8).  With [pool], pair chunks are joined in parallel; the
    rules are compiled once and each chunk joins in a private fork of
    that system ({!Kernel.Rewrite.fork}), so results are deterministic
    and race-free.  With [certify] (default [false]), every decided pair
    also records a join certificate in [certs]. *)
val check :
  ?pool:Sched.Pool.t ->
  ?budget:int ->
  ?fuel:int ->
  ?certify:bool ->
  Cafeobj.Spec.t ->
  result
