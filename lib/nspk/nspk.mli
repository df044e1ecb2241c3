(** The Needham-Schroeder public-key protocol and Lowe's attack.

    Section 3.2 of the paper contrasts the abstract TLS handshake with
    “academic protocols such as the NSPK authentication protocol”; this
    module makes the comparison concrete by running the same explicit-state
    machinery on NSPK:

      1.  A -> B : {Na, A}pk(B)
      2.  B -> A : {Na, Nb}pk(A)          ({Na, Nb, B}pk(A) in Lowe's fix)
      3.  A -> B : {Nb}pk(B)

    With the classic message 2, the man-in-the-middle attack of Lowe (1996,
    cited as [6]) violates responder agreement; with the fixed message 2
    (NSL) the bounded scenario is clean.

    The protocol data lives in its own specification module but shares the
    [Prin], [Rand] (nonces) and [PubKey] sorts with {!Tls.Data}, so the
    Dolev-Yao engine and the model checker are reused unchanged. *)

open Kernel

type variant = Nspk_model.variant = Classic | Lowe_fixed

type scenario = {
  initiators : Term.t list;
  responders : Term.t list;  (** the intruder may also be contacted *)
  nonces : Term.t list;  (** honest principals' fresh-nonce pool *)
  intruder_nonces : Term.t list;  (** the intruder's own nonces *)
  variant : variant;
}

(** [default_scenario variant] — Alice initiating towards Bob {e and} the
    intruder (Lowe's attack needs an honest initiator that talks to the
    adversary), Bob responding. *)
val default_scenario : variant -> scenario

type state

val initial : scenario -> state

(** An action label: the transition's rule name and the terms it was
    instantiated with, printed only by {!pp_label}. *)
type label = { rule : string; args : Term.t list }

(** [pp_label] prints the rule, padded to 12 columns, then
    {!Kernel.Term.to_string} of each argument, space-separated. *)
val pp_label : Format.formatter -> label -> unit

(** [printed_key st] is the state's key as text: the network, the used
    nonces, then the initiators' started runs and the responders' runs
    and finished runs, each list behind its label, every term as
    {!Tls.Concrete.printed_term} renders it.  It is written once, as a
    sequence of chunks, which {!reduction}'s canonizer compares as they
    print, stopping at the first byte that differs, to order a state's
    images.  The model checker does not read it. *)
val printed_key : state -> string

(** [system scenario] packages everything for {!Mc.bfs}.  Its [key] holds
    the terms {!printed_key} prints, in the same order, with an
    {!Mc.marker} where the printed key has a label and one for a run's
    absent second nonce, so every run is four terms.  Two states have the
    same key exactly when their printed keys are equal. *)
val system : scenario -> (state, label) Mc.system

(** [responder_agreement st]: whenever an honest responder [b] finished a
    run apparently with honest initiator [a] on nonces [(na, nb)], [a]
    really started a run with [b] using [na].  Violated by Lowe's attack in
    the [Classic] variant. *)
val responder_agreement : state -> bool

(** [nonce_secrecy st]: no nonce generated by an honest responder for an
    honest initiator is derivable by the intruder. *)
val nonce_secrecy : state -> bool

(** [some_responder_done st] — reachability goal for sanity checks. *)
val some_responder_done : state -> bool

(** {1 State-space reduction}

    The reduction is justified statically, on the generated equational
    theory of the same protocol ({!Symbolic.gen_spec}): the concrete fake
    rules are admitted as an ample/flooding set only when every symbolic
    intruder action they enumerate is proved independent of every action
    by {!Analysis.Indep}, and states are canonized over the
    honest-nonce permutation orbit found by {!Analysis.Symmetry}.  Both
    analyses are memoized per variant. *)

(** [reduction ?por ?symmetry scenario] — a reduction for
    [Mc.bfs ~reduction]/[Mc.par_bfs ~reduction] over {!system} of the
    same scenario.  [por:false] disables the ample set, [symmetry:false]
    the canonization (both default [true]); with both disabled the
    reduction is the identity and exploration equals the full search. *)
val reduction :
  ?por:bool -> ?symmetry:bool -> scenario -> (state, label) Mc.reduction

(** [remap_state f st] rebuilds [st] with [f] applied to every term a
    permutation of the honest nonces acts on — the network, the used
    nonces and the runs' nonces — and the run lists re-sorted.
    {!reduction}'s canonization remaps with it. *)
val remap_state : (Term.t -> Term.t) -> state -> state

(** The memoized independence analysis over the variant's generated
    theory ([None] when the spec has no recognizable transitions —
    does not happen for these models). *)
val independence : variant -> Analysis.Indep.result option

(** The memoized symmetry analysis over the variant's generated theory. *)
val symmetries : variant -> Analysis.Symmetry.result

(** The symbolic OTS model and its verification campaign (the same
    treatment the paper gives TLS, applied to NSPK/NSL). *)
module Symbolic : module type of Nspk_model

module Symbolic_proofs : module type of Nspk_proofs
