(** An explicit-state model checker à la Murφ.

    This is the reproduction of the paper's related-work baseline (Mitchell,
    Shmatikov and Stern's finite-state analysis of SSL 3.0, Section 6):
    exhaustive breadth-first exploration of a finite protocol scenario,
    invariant checking at every reachable state, and counterexample trace
    reconstruction.

    The checker is generic: a system is a record of initial state, enabled
    transitions and state identity.  States are deduplicated with a hash
    table over a caller-supplied canonical key. *)

type ('state, 'action) system = {
  initial : 'state;
  next : 'state -> ('action * 'state) list;
      (** enabled transitions in the given state *)
  key : 'state -> string;
      (** canonical identity: two states with the same key are merged *)
}

(** A state-space reduction, justified by the static analyses of
    {!Analysis.Indep} and {!Analysis.Symmetry}:

    - [ample a] marks actions proved independent of {e every} action of
      the system (including themselves) — see [Indep.certified_ample].
      From each state, all enabled ample transitions are saturated into a
      single compound step (a chase following the first ample successor
      whose key changes, cycle-capped), instead of branching the frontier
      on each of them.  Properties are still checked on every chase
      intermediate, so violations inside a compound step are not jumped
      over.
    - [canon s] maps a state to a canonical representative of its orbit
      under a proved permutation symmetry (see [Symmetry.orbit_elems]);
      orbit-minimization makes it idempotent.  [fun s -> s] when no
      symmetry is used.

    Soundness caveat inherited from ample-set reduction: with a finite
    [max_depth], compound steps compress several transitions into one
    level, so exhaustion of the reduced graph within the bound does not
    certify the full bounded space — such runs report [Out_of_bounds],
    matching the unreduced verdict.  Unbounded exhaustive runs still
    report [No_violation]. *)
type ('state, 'action) reduction = {
  ample : 'action -> bool;
  canon : 'state -> 'state;
}

type stats = {
  states_explored : int;
  transitions_fired : int;
  states_pruned : int;
      (** enabled ample transitions subsumed by compound steps; also
          accumulated on the [mc.por.pruned] telemetry counter *)
  max_depth : int;
  elapsed : float;  (** seconds, on the monotonic clock *)
}

type 'action violation = {
  property : string;
  trace : 'action list;  (** action labels from the initial state *)
  depth : int;
}

type 'action outcome =
  | No_violation of stats  (** the full (bounded) space satisfied everything *)
  | Violation of 'action violation * stats
  | Out_of_bounds of stats
      (** a bound was hit before exhaustion and no violation found *)

(** [bfs ?max_states ?max_depth ?reduction system ~props] explores
    breadth-first and checks each named predicate at every state,
    returning the first violation (whose trace is minimal by BFS) or
    exhaustion.  With [reduction], the search runs on the reduced state
    graph: states are canonized before dedup and certified-ample
    transitions collapse into compound steps (a violation trace then lists
    every action fired, compound chains flattened in order).  Defaults:
    [max_states = 1_000_000], [max_depth = max_int], no reduction.

    [bfs], {!par_bfs} and {!reachable} are one level-synchronous engine:
    each frontier state is expanded ([system.next], and under a reduction
    canonization and the compound chase), then its successors are merged
    into the seen set in frontier order.  The state bound is checked
    before each frontier state's merge, so a search may stop in the middle
    of a level. *)
val bfs :
  ?max_states:int ->
  ?max_depth:int ->
  ?reduction:('s, 'a) reduction ->
  ('s, 'a) system ->
  props:(string * ('s -> bool)) list ->
  'a outcome

(** [par_bfs ?max_states ?max_depth ?reduction ~pool system ~props] is
    {!bfs} on the same engine, with each frontier level expanded on
    [pool] in chunks of at most 32 states: at most [jobs + 1] chunks are
    in flight, and they are merged one by one in frontier order, each
    replaced by the next as it is merged.  So the search holds at most
    that window of expansions, and once a violation is found or the state
    bound passed it submits no further chunk; the chunks still in flight
    settle before it returns (or re-raises an exception from
    [system.next]), leaving the pool idle.  A pool of one merges each
    state as soon as it is expanded, as {!bfs} does.  The outcome —
    violation, minimal trace, depth, state/transition/pruned counts —
    does not depend on the pool: it is identical to [bfs] on the same
    system, bounds and reduction; only [elapsed] differs.  [system.next]
    (and [reduction], if any) must be safe to call concurrently on
    distinct states; [system.key] of the merged states runs on the
    calling domain. *)
val par_bfs :
  ?max_states:int ->
  ?max_depth:int ->
  ?reduction:('s, 'a) reduction ->
  pool:Sched.Pool.t ->
  ('s, 'a) system ->
  props:(string * ('s -> bool)) list ->
  'a outcome

(** [reachable ?max_states ?max_depth ?reduction system ~goal] searches
    for a state satisfying [goal]; returns the (BFS-minimal) witness
    trace, if any.  Used to answer “can the protocol reach a completed
    handshake?” style questions positively. *)
val reachable :
  ?max_states:int ->
  ?max_depth:int ->
  ?reduction:('s, 'a) reduction ->
  ('s, 'a) system ->
  goal:('s -> bool) ->
  ('a list * 's) option

val outcome_stats : 'a outcome -> stats
val pp_stats : Format.formatter -> stats -> unit

val pp_outcome :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a outcome -> unit
