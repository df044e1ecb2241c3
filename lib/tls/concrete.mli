(** Concrete finite-scenario semantics of the abstract handshake, for the
    explicit-state model checker (the Murφ-style baseline of Section 6).

    States carry the monotone network (a set of ground message terms from
    {!Data}), the used-value sets, the principals' session tables, and the
    intruder's knowledge: the Dolev-Yao closure of what is gleanable from
    the network, computed when first asked for.  A successor's closure is
    extended from its parent's by the message the transition sent; states
    the canonizer remaps, and Oops leaks, close from the scenario's seed.
    Transitions enumerate the same 12 + 15 rules as the symbolic model
    ({!Model}), instantiated over a finite scenario. *)

open Kernel

(** A finite scenario: the value pools transitions may draw from.
    Principals always additionally include the intruder; [ca] never acts. *)
type scenario = {
  clients : Term.t list;
  servers : Term.t list;
  rands : Term.t list;  (** honest principals take fresh ones, the intruder any *)
  sids : Term.t list;
  suites : Term.t list;
  lists : Term.t list;
  secrets : Term.t list;  (** honest clients' pre-master-secret seeds *)
  intruder_secrets : Term.t list;
  intruder_rands : Term.t list;
      (** rands used in the intruder's faked clear messages (one is enough:
          distinct guessable values only add symmetric states) *)
  oops : bool;
      (** enable Paulson's Oops rule: the Finished-protection keys of
          established sessions may leak to the intruder.  Paulson's TLS
          analysis (discussed in the paper's Section 6) showed resumption
          stays safe under such leaks; see the [oops] tests/bench. *)
  style : Model.style;
}

(** [default_scenario ()] — Alice vs Bob with the cast of {!Scenario}:
    one honest client, one honest server, enough fresh values for one full
    handshake plus one resumption, and the intruder. *)
val default_scenario : unit -> scenario

type state

val initial : scenario -> state

(** [network st] / [knowledge st] expose the state for property writing. *)
val network : state -> Term.t list

val knows : state -> Term.t -> bool

(** [derivable st t] — can the intruder synthesize [t]? *)
val derivable : state -> Term.t -> bool

(** [session st ~owner ~peer ~sid] is the stored session quadruple
    [(suite, rand1, rand2, pms)] if established. *)
val session :
  state -> owner:Term.t -> peer:Term.t -> sid:Term.t -> (Term.t * Term.t * Term.t * Term.t) option

(** An action label: the transition's rule name and the terms it was
    instantiated with.  The terms are printed only by {!pp_label}, so a
    search that shows no trace never renders them. *)
type label = { rule : string; args : Term.t list }

(** [pp_label] prints the rule, padded to 10 columns, then
    {!Kernel.Term.to_string} of each argument, space-separated. *)
val pp_label : Format.formatter -> label -> unit

(** [printed_term ()] is {!Kernel.Term.to_string} for the calling domain,
    the rendering of each non-constant term memoized by identity in a
    table of that domain (emptied once it holds 65 536 terms).  The state
    keys of this model and of {!Nspk} are emitted as chunks, each term's
    chunk taken from it. *)
val printed_term : unit -> Term.t -> string

(** [system scenario] packages everything for {!Mc.bfs}.  The state key
    is written once, as a sequence of chunks (separators, and each term
    as {!printed_term} renders it); the system's [key] joins them, and
    {!reduction}'s canonizer compares a state's images as their chunks
    print, stopping at the first byte that differs. *)
val system : scenario -> (state, label) Mc.system

(** {1 The paper's properties as state predicates} *)

(** [prop_pms_secrecy st]: no pre-master secret of two honest principals is
    derivable by the intruder (property 1). *)
val prop_pms_secrecy : scenario -> state -> bool

(** [prop_sf_authentic st]: every ServerFinished that a trustable client
    would accept originates from the server (property 2; [prop_sf2_authentic]
    is property 3). *)
val prop_sf_authentic : state -> bool

val prop_sf2_authentic : state -> bool

(** Properties 2' and 3' — the client-authentication mirror images; the
    checker finds the paper's four-message counterexamples. *)
val prop_cf_authentic : state -> bool

val prop_cf2_authentic : state -> bool

(** [handshake_complete scenario st]: some honest client and server both
    established the same session (used with {!Mc.reachable} as a sanity
    witness that the scenario can actually finish a handshake). *)
val handshake_complete : scenario -> state -> bool

(** [resumption_complete scenario st]: a session was established and later
    refreshed (both Finished2 messages exchanged). *)
val resumption_complete : scenario -> state -> bool

(** {1 State-space reduction}

    The reduction is justified statically, on the generated equational
    theory of the symbolic model ({!Model.spec}): the concrete fake rules
    carry the same names as the symbolic intruder actions, and are
    admitted as an ample/flooding set only when {!Analysis.Indep} proves
    them independent of every action; states are canonized over the
    honest-rand permutation orbit found by {!Analysis.Symmetry}.  Both
    analyses are memoized per style. *)

(** [reduction ?por ?symmetry scenario] — a reduction for
    [Mc.bfs ~reduction]/[Mc.par_bfs ~reduction] over {!system} of the
    same scenario.  [por:false] disables the ample set, [symmetry:false]
    the canonization (both default [true]).  Scenarios with [oops] keep
    the full interleaving of the Oops rule (it has no symbolic
    counterpart, so no certified commutations). *)
val reduction :
  ?por:bool -> ?symmetry:bool -> scenario -> (state, label) Mc.reduction

(** [remap_state f st] rebuilds [st] with [f] applied to every term a
    permutation of the honest rands acts on — the network, the used
    rands, the leaked keys and the session tables — and the session table
    re-sorted.  {!reduction}'s canonization remaps with it. *)
val remap_state : (Term.t -> Term.t) -> state -> state

(** The memoized independence analysis over the style's generated theory
    ([None] when the spec has no recognizable transitions — does not
    happen for these models). *)
val independence : Model.style -> Analysis.Indep.result option

(** The memoized symmetry analysis over the style's generated theory. *)
val symmetries : Model.style -> Analysis.Symmetry.result
