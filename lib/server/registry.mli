(** Obligation deduplication for the resident server.

    Every proof obligation the server dispatches is keyed by a canonical
    string (e.g. ["verify:original:inv1"]).  The registry maps keys to the
    {!Sched.Task.t} computing them: a second request for a key whose task
    is still running shares the in-flight future, and a request for a key
    whose task has already resolved gets the resolved future back — the
    resident result cache that makes a warm repeat of a campaign subset
    near-instant.  Resolved entries are evicted oldest-first beyond
    [capacity]; in-flight entries are never evicted.

    The live counters [server.dedup.hits] / [server.dedup.misses]
    ({!Telemetry.Probe}) record the hit rate across every registry of
    the process; {!dedup_counts} reads them. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t

(** [find_or_submit ?requester t ~key spawn] returns the shared future
    for [key], calling [spawn] (which must submit the work and return its
    future) only when no live entry exists.  The flag distinguishes a
    fresh submission ([`Fresh]) from a dedup hit against a running
    ([`Inflight]) or completed ([`Cached]) obligation.

    [requester] attaches a request id to the entry, so observability can
    answer which requests are (or were) waiting on a shared obligation;
    ids are kept newest-first, deduplicated, capped at 8. *)
val find_or_submit :
  ?requester:string ->
  'a t ->
  key:string ->
  (unit -> 'a Sched.Task.t) ->
  'a Sched.Task.t * [ `Fresh | `Inflight | `Cached ]

(** [requesters t ~key] — the request ids attached to [key], newest
    first; [[]] for an unknown key. *)
val requesters : 'a t -> key:string -> string list

(** [in_flight_count t] counts entries whose task has not resolved yet. *)
val in_flight_count : 'a t -> int

(** [size t] is the number of live entries (cached + in flight). *)
val size : 'a t -> int

(** [dedup_counts ()] is [(hits, misses)] of every {!find_or_submit} in
    the process so far. *)
val dedup_counts : unit -> int * int
