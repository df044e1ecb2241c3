(** Crash flight recorder.

    A fixed-size ring buffer of recent event lines {e per domain}, cheap
    enough to leave on in production (one array store per {!note}, no
    locks on the hot path), dumped as a JSON post-mortem file when the
    process is about to become undebuggable: an escaped exception, a
    SIGQUIT, or a reduction blowing its {!Kernel.Rewrite.Limit_exceeded}
    budget mid-campaign.

    {!Log.event} tees every structured event line into the recorder while
    it is enabled — including events below the sink's level threshold — so
    the post-mortem carries debug-grain history even when the live log is
    quiet.

    Capacity changes and {!reset} assume quiescence (no domain actively
    noting), like {!Probe.snapshot}; {!dump} is best-effort by design —
    it is called on the way down. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

(** [note line] appends [line] to the calling domain's ring (overwriting
    the oldest entry when full), stamped with the wall clock.  No-op when
    disabled. *)
val note : string -> unit

(** [set_capacity n] resizes every domain's ring to [n] entries (and
    clears them); rings created later also use [n].  Default 256. *)
val set_capacity : int -> unit

(** [reset ()] clears every ring. *)
val reset : unit -> unit

(** [dump ~reason] renders all rings, merged and sorted by wall time,
    as one JSON document: the reason, dump time, pid, per-domain span
    summaries (when {!Probe} is recording) and every surviving entry
    with its timestamp and domain. *)
val dump : reason:string -> string

(** [dump_to_file ~reason path] writes {!dump} to [path]; best-effort
    (write failures are swallowed — this runs on crash paths). *)
val dump_to_file : reason:string -> string -> unit

(** {1 Shared formatting helpers}

    The one JSON string escaper of the telemetry layer: {!Log},
    {!Perfetto} and the daemon's [/statusz] builder use it too. *)

(** [json_escape s] escapes [s] for inclusion inside a JSON string. *)
val json_escape : string -> string

(** [iso8601 t] renders a [Unix.gettimeofday]-style timestamp as
    ISO-8601 UTC with millisecond precision. *)
val iso8601 : float -> string
