(** Shared command-line wiring for [--profile] / [--trace-out FILE].

    Every binary in the stack exposes the same two flags; this module is
    the one place that interprets them so their behaviour cannot drift:

    - {!setup} turns recording on when either flag is given (and applies a
      minimum span duration so rule-level spans cannot blow up the trace);
    - {!flush} takes the snapshot, writes the Perfetto trace and prints
      the hotspot report.  A binary that reports process-specific gauges
      (intern-table occupancy, say) sets them with {!Probe.set_gauge}
      before calling it. *)

(** The one table of process exit codes, shared by every binary ([verify],
    [lint], [check], [verifyd], the remote client) so overlapping numbers
    cannot drift between the binaries' headers and their behaviour.  Not
    every binary uses every code; each binary's header doc lists the ones
    it can produce. *)
module Exit : sig
  val ok : int
  (** [0] — the requested work succeeded. *)

  val failure : int
  (** [1] — a proof failed / a lint error / a rejected certificate chunk:
      the work ran to completion and the answer is "no". *)

  val usage : int
  (** [2] — bad command line, unreadable input, malformed request. *)

  val lint_gate : int
  (** [3] — [verify --lint]'s gate refused to prove over an uncertified
      rewrite system; no proof was attempted. *)

  val cert_rejected : int
  (** [4] — [verify --certify]'s independent checker refused a recorded
      derivation, the LPO certificate or a join certificate. *)

  val timeout : int
  (** [5] — a reduction hit its step budget or deadline
      ({!Kernel.Rewrite.Limit_exceeded} surfaced as a structured timeout
      verdict): the run is inconclusive, neither success nor refutation. *)
end

(** [setup ~profile ~trace_out ()] enables recording iff [profile] or
    [trace_out <> ""].  [span_min_ns] (default [10_000], i.e. 10 µs)
    bounds rule/cond span volume; structural spans ([~always:true]) are
    unaffected. *)
val setup : ?span_min_ns:int -> profile:bool -> trace_out:string -> unit -> unit

(** [active ~profile ~trace_out] mirrors {!setup}'s enabling condition. *)
val active : profile:bool -> trace_out:string -> bool

(** [flush ~profile ~trace_out ()] is a no-op unless {!active}.
    Otherwise: snapshots, writes [trace_out] (when non-empty, announcing
    the file and span count on [out]) and — when [profile] — prints the
    top-[top] hotspot report to [out] (default {!Format.std_formatter}). *)
val flush :
  ?process_name:string ->
  ?top:int ->
  ?out:Format.formatter ->
  profile:bool ->
  trace_out:string ->
  unit ->
  unit
