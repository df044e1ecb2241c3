(** Static symmetry detection from the signature.

    A sort whose constants occur only {e symmetrically} in the rule set —
    every rule stays a rule under any transposition of two of them — is a
    scalarset in the Murφ sense: permuting those constants is an
    automorphism of the induced transition system, so the model checker
    may canonize states up to the permutation group.  The analysis finds
    the maximal interchangeable classes per sort (union-find over
    transposition invariance, which generates the full symmetric group on
    each class); constants that appear asymmetrically in some rule (an
    intruder's name, a certificate authority) are pinned, with the
    breaking rule recorded.

    Like {!Indep}, the result is certified: the certificate lists the
    classes and {!check} replays every transposition against the spec's
    own rules, rejecting forged classes with a breadcrumb path. *)

open Kernel

type cls = {
  c_sort : Sort.t;
  c_elems : Signature.op list;  (** interchangeable constants, sorted by name *)
}

type result = {
  y_spec : string;
  y_classes : cls list;
  y_pinned : (Signature.op * string) list;
      (** asymmetric constants, with the label of the first breaking rule *)
}

val analyze : Cafeobj.Spec.t -> result

(** [orbit_elems r ~candidates]: the largest subset of the candidate
    constant terms lying together in one symmetry class (at least two
    elements, else empty) — the safe canonization pool for a scenario
    drawing interchangeable fresh values from [candidates]. *)
val orbit_elems : result -> candidates:Term.t list -> Term.t list

(** [emitted_key emit st] is the key [emit] prints for [st]: the
    concatenation of the chunks [emit f st] hands to [f], in order. *)
val emitted_key : ((string -> unit) -> 's -> unit) -> 's -> string

(** [compare_emitted emit st k] is
    [String.compare (emitted_key emit st) k], decided without joining the
    chunks: it stops [emit] (by raising through it) at the first byte
    that decides, so the rest of the key is never printed.  [emit] must
    let exceptions pass. *)
val compare_emitted : ((string -> unit) -> 's -> unit) -> 's -> string -> int

(** [canonizer pool ~iter_terms ~remap ~emit] canonizes states over the
    permutations of the constants [pool] (an {!orbit_elems} result).  A
    state's key is the concatenation of the chunks [emit f st] hands to
    [f].  A state's representative is the first of its images, the
    permutations taken in a fixed order, with the smallest key; canonization
    is therefore idempotent.  [iter_terms f st] must apply [f] to every term
    of [st] that [remap] acts on, and [remap g st] must rebuild [st] with
    [g] applied to each of them.  Each distinct image is remapped and
    compared once: permutations that agree on the pool constants occurring
    in [st] share an image, and the identity's image, [st] itself, is
    skipped.  Images are compared as they print ({!compare_emitted}), against
    the key of the best image so far, which is printed whole only when a
    later image is compared against it.
    The [g] given to [remap] renames under the whole permutation, with
    each term's image memoized by the returned closure, per permutation
    and per calling domain (so the closure may run on several domains at
    once).  That is the image under [st]'s own pool constants only
    because [iter_terms] reaches every term [remap] touches.
    The identity when [pool] has fewer than two elements. *)
val canonizer :
  Term.t list ->
  iter_terms:((Term.t -> unit) -> 's -> unit) ->
  remap:((Term.t -> Term.t) -> 's -> 's) ->
  emit:((string -> unit) -> 's -> unit) ->
  's ->
  's

val certificate : result -> Certify.Sexp.t

(** Replay the certificate: every transposition within every claimed
    class is re-checked against the rule set.  [Ok classes] or
    [Error breadcrumb], e.g. [classes/class[Rand]/swap[nA,nE]/rule[...]]. *)
val check : Cafeobj.Spec.t -> Certify.Sexp.t -> (int, string) Stdlib.result

(** {1 Model-checker reductions}

    A concrete model checks the state space of a protocol whose symbolic
    OTS has a generated equational theory; the reduction it searches with
    is justified on that theory. *)

type basis = {
  b_ample : string list;  (** concrete rules certified as an ample set *)
  b_indep : Indep.result option;
  b_sym : result;
}

(** [reduction_basis ~classes spec_of] is a function memoized per key [k]
    (a protocol style or variant): the {!Indep} analysis of [spec_of k]
    focused on the symbolic actions of [classes k], and its symmetry
    {!analyze}.  Each class maps a concrete rule to the symbolic actions
    it enumerates; the rule is ample when every one of them is certified
    ({!Indep.certified_ample}). *)
val reduction_basis :
  classes:('k -> (string * string list) list) ->
  ('k -> Cafeobj.Spec.t) ->
  'k ->
  basis

(** [reducer b ~por ~symmetry ~candidates ~iter_terms ~remap ~emit] is
    the ample test on concrete rule names (always false without [por])
    and the {!canonizer} over [b]'s orbit of [candidates] (the identity
    without [symmetry]). *)
val reducer :
  basis ->
  por:bool ->
  symmetry:bool ->
  candidates:Term.t list ->
  iter_terms:((Term.t -> unit) -> 's -> unit) ->
  remap:((Term.t -> Term.t) -> 's -> 's) ->
  emit:((string -> unit) -> 's -> unit) ->
  (string -> bool) * ('s -> 's)
