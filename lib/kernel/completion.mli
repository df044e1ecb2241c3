(** Knuth-Bendix completion.

    The paper's method rests on equations used as left-to-right rewrite
    rules; completion is the classical procedure that turns a set of
    equations into a {e confluent} and terminating rule set (when it
    succeeds), so that rewriting decides the equational theory — the same
    property CafeOBJ's BOOL enjoys by construction (Hsiang-Dershowitz,
    the paper's reference [5], is exactly about such rewrite methods).

    The implementation is the textbook procedure: compute critical pairs
    by unifying left-hand sides into non-variable subterm positions,
    normalize both sides with the current rules, orient the survivors with
    the LPO ({!Order.lpo}) and iterate. *)

type failure = {
  reason : string;
  unorientable : (Term.t * Term.t) option;
}

type result =
  | Completed of Rewrite.rule list
  | Failed of failure

(** A critical overlap: [peak] rewrites to [left] by [inner] (applied at
    the overlap position) and to [right] by [outer] (applied at the
    root). *)
type overlap = {
  outer : Rewrite.rule;
  inner : Rewrite.rule;
  peak : Term.t;
  left : Term.t;
  right : Term.t;
}

(** [overlaps r1 r2] computes the overlaps of [r2]'s left-hand side into
    non-variable positions of [r1]'s (variables renamed apart).  With
    [r1 = r2] this includes the genuine self-overlaps — e.g. the classic
    associativity overlap — and skips only the trivial root one.
    [renamed2] supplies a pre-renamed copy of [r2], letting a caller that
    pairs [r2] against many partners rename once instead of per pair (the
    hash-consed kernel would otherwise intern a fresh copy of the rule's
    term DAG for every call).

    A pair that cannot overlap — no position of [r1]'s lhs agrees with
    [r2]'s lhs on operator names and arities wherever both have an
    operator — gives [] without renaming.  Without [renamed2] every call,
    skipped or not, draws exactly one tag from a process-wide atomic
    counter, so the counter's value after a pass does not depend on which
    pairs were skipped, nor on how calls interleaved across domains. *)
val overlaps : ?renamed2:Rewrite.rule -> Rewrite.rule -> Rewrite.rule -> overlap list

(** [critical_pairs r1 r2] is [overlaps r1 r2] reduced to the divergent
    term pairs [(left, right)]. *)
val critical_pairs : Rewrite.rule -> Rewrite.rule -> (Term.t * Term.t) list

(** [all_critical_pairs rules] computes every critical overlap of the rule
    set: both orientations of every rule pair, self-overlaps included.
    This is the set whose joinability certifies local confluence
    (Knuth-Bendix criterion); used by the spec linter. *)
val all_critical_pairs : Rewrite.rule list -> overlap list

(** [complete ?max_rules ?max_steps ~prec equations] runs completion.
    @param max_rules abort when more rules than this are generated
    (default 64). *)
val complete :
  ?max_rules:int ->
  prec:(Signature.op -> Signature.op -> int) ->
  (Term.t * Term.t) list ->
  result

(** [joinable rules t1 t2] — do [t1] and [t2] have the same normal form
    under [rules]?  With a completed system this decides the equational
    theory. *)
val joinable : Rewrite.rule list -> Term.t -> Term.t -> bool
