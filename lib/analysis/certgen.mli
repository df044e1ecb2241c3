(** Certificate generation: the bridge from the engine to {!Certify}.

    A builder interns engine operators, terms, rules, rule-set chains and
    derivations into the certificate AST, preserving DAG sharing so that a
    sub-derivation reused by a thousand obligations serializes once.  This
    module sits on the {e untrusted} side of the de Bruijn boundary: a bug
    here yields a certificate the independent checker rejects, never one it
    wrongly accepts. *)

open Kernel

type t

val create : unit -> t

(** [add_obligation b ob] adds one traced [red] (named [r0], [r1], … in
    insertion order), scoped to the rule-set chain of the system that ran
    it. *)
val add_obligation : t -> Rewrite.obligation -> unit

val add_obligations : t -> Rewrite.obligation list -> unit

(** [add_lpo b ~precedence rules] records the termination certificate:
    [precedence] (later = greater, from
    {!Kernel.Order.search_precedence}) must orient every rule in
    [rules]. *)
val add_lpo : t -> precedence:Signature.op list -> Rewrite.rule list -> unit

(** [add_joins b ~rules certs] records one join certificate per critical
    pair, scoped to the flat [rules] set the confluence checker reduced
    under. *)
val add_joins :
  t -> rules:Rewrite.rule list -> (Completion.overlap * Confluence.jcert) list -> unit

(** [cert b] assembles the certificate (insertion order preserved). *)
val cert : t -> Certify.Cert.t

(** {1 Campaign certificates} *)

(** The evidence a campaign certificate takes from its spec alone: the
    LPO precedence of a certified termination search ([None] when the
    search failed) and a join certificate per critical pair. *)
type static = {
  precedence : Signature.op list option;
  joins : (Completion.overlap * Confluence.jcert) list;
}

(** [static_evidence ?pool spec] runs {!Termination.check} and
    [Confluence.check ~certify:true] (chunked over [pool] when given). *)
val static_evidence : ?pool:Sched.Pool.t -> Cafeobj.Spec.t -> static

(** [campaign spec st obligations] is the certificate of a traced
    campaign over [spec]: its reds, then [st]'s LPO and joins, scoped to
    the spec's full rule list. *)
val campaign : Cafeobj.Spec.t -> static -> Rewrite.obligation list -> Certify.Cert.t

(** {1 Chunked checking} *)

type check_result = {
  errors : Certify.Check.error list;
  obligations : int;  (** reds + joins *)
  steps_replayed : int;  (** rule applications successfully replayed *)
}

(** [check ?pool c] replays the whole certificate, chunking obligations
    across [pool] when given; each chunk gets a private checker, so results
    are deterministic and race-free. *)
val check : ?pool:Sched.Pool.t -> Certify.Cert.t -> check_result
