(** Structured runtime telemetry: spans, per-rule profiles and the one
    registry of counters, gauges and histograms.

    The verification stack is instrumented at four altitudes — proof score,
    proof case, [red] (one normalization), rule application — plus a set of
    engine counters (AC-matcher backtracks, sched-pool steals, …) and the
    resident server's operational counters and latency histograms.  All
    recording funnels through this module:

    - {b one branch when disabled}: spans and profiling-only counters are
      guarded by one load of an atomic flag; with the flag off the
      instrumented code paths are the un-instrumented ones plus a single
      branch.  The differential suite asserts byte-identical normal forms
      and step counts either way.  Live counters and histograms always
      count.
    - {b domain-safe and contention-free}: each domain records into its own
      buffer (spans, rule profiles) or its own counter cell, discovered
      through [Domain.DLS]; nothing is shared on the hot path.  Buffers are
      merged under a registry lock only at {!snapshot} time.
    - {b monotonic}: all timestamps come from the OS monotonic clock
      ([CLOCK_MONOTONIC], nanoseconds), never from wall-clock time.

    {!snapshot} and {!reset} assume quiescence (no domain actively
    recording): take them after pool work has settled, as the CLIs do.
    {!instruments} reads no span buffer and may be taken at any time. *)

(** [set_enabled b] turns recording on or off, globally (all domains). *)
val set_enabled : bool -> unit

(** [enabled ()] is the single-branch guard every probe starts with. *)
val enabled : unit -> bool

(** [now_ns ()] is the monotonic clock, in nanoseconds (ns since an
    arbitrary epoch; differences are meaningful, absolute values are not). *)
val now_ns : unit -> int

(** {1 Spans}

    A span is a named, categorized interval attributed to the domain that
    ran it.  Spans nest (per domain): depth is tracked so exporters and
    tests can check proper nesting.  Short spans of the hot categories can
    be dropped at record time ({!set_span_min_ns}) to bound trace size;
    spans recorded with [~always:true] ignore the threshold. *)

(** [with_span ~cat name f] runs [f ()] inside a span.  When recording is
    disabled this is exactly [f ()].  The span is recorded even if [f]
    raises.  [always] (default [false]) bypasses the minimum-duration
    filter. *)
val with_span : ?always:bool -> cat:string -> string -> (unit -> 'a) -> 'a

(** [span_since ~cat name t0] records a span started at [t0] (a {!now_ns}
    reading) and ending now — the allocation-free variant for hot paths
    that cannot afford a closure.  Subject to the minimum-duration filter;
    no-op when disabled.  Does not affect nesting depth. *)
val span_since : cat:string -> string -> int -> unit

(** [set_span_min_ns n] drops spans shorter than [n] ns at record time
    (except [~always:true] ones).  Default [0]: keep everything. *)
val set_span_min_ns : int -> unit

(** {1 Request attribution}

    A per-domain request id, stamped onto every span recorded while it is
    set ([sp_req]), so a Perfetto trace of a server process can be
    filtered down to the spans — request, obligation, case, red, rule — of
    one wire request.  {!Sched.Pool.submit} captures the submitting
    domain's id and restores it around task execution on whichever worker
    runs the task, so the attribution follows fan-out.  All three
    operations are cheap domain-local field accesses. *)

(** [current_request ()] is the id set on the calling domain, if any. *)
val current_request : unit -> string option

(** [set_request r] installs (or with [None] clears) the calling domain's
    request id. *)
val set_request : string option -> unit

(** [with_request r f] runs [f ()] with the calling domain's request id
    set to [r], restoring the previous id afterwards (also on raise). *)
val with_request : string option -> (unit -> 'a) -> 'a

(** {1 Counters}

    A counter owns one cell per domain (created on first use through
    [Domain.DLS]); increments are plain stores to the local cell, and
    {!value} merges the cells — by sum ([`Sum], default) or maximum
    ([`Max]).

    A counter is either {e profiling-only} (the default: every mutating
    operation is a no-op while recording is disabled, and {!reset} clears
    it) or {e live} ([~live:true]: it always counts and {!reset} leaves
    it alone — the operational counters of a long-lived process).  Both
    kinds cost one branch before the store. *)

type counter

(** [counter ?mode ?live name] finds the counter registered under [name],
    or registers one with [mode] (default [`Sum]) and [live] (default
    [false]).  A name names one counter: the first registration fixes its
    mode and liveness. *)
val counter : ?mode:[ `Sum | `Max ] -> ?live:bool -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** [record_max c v] raises a [`Max] counter's local cell to [v]. *)
val record_max : counter -> int -> unit

(** [value c] merges all domains' cells (sum or max, per the mode). *)
val value : counter -> int

(** {1 Gauges}

    Point-in-time values sampled by the reporting layer (memo hit rates,
    intern-table occupancy, pool utilization, server queue depth).  Unlike
    counters, gauges are set unconditionally — they are written at flush or
    export time, not on hot paths. *)

val set_gauge : string -> float -> unit

(** {1 Histograms}

    Log-bucketed latency histograms, always recording: bucket [i] counts
    observations of at most [10 µs × 2^i] (25 buckets, so the top bucket
    covers ~167 s; larger observations land in an overflow bucket).
    Quantiles are upper-bound approximations (the bucket boundary), which
    is the standard trade for lock-free recording.  {!reset} leaves them
    alone. *)

type histogram

(** [histogram name] finds or registers the histogram called [name]. *)
val histogram : string -> histogram

val observe_ns : histogram -> int -> unit

(** Number of bounded buckets; one overflow bucket follows. *)
val nbuckets : int

(** [bucket_bound_ns i] is the inclusive upper bound of bucket [i]
    ([10 µs × 2^i]); observations [<= bound] land in the first such
    bucket. *)
val bucket_bound_ns : int -> int

(** [bucket_of_ns ns] is the index ([0 .. nbuckets]) an observation of
    [ns] lands in; [nbuckets] is the overflow bucket. *)
val bucket_of_ns : int -> int

type histogram_view = {
  h_name : string;
  h_count : int;
  h_sum_ms : float;
  h_p50_ms : float;
  h_p90_ms : float;
  h_p99_ms : float;
  h_max_ms : float;
  h_buckets : int array;
      (** raw (non-cumulative) per-bucket counts, [nbuckets + 1] long,
          last = overflow *)
  h_sum_ns : int;  (** exact sum, for loss-free export *)
}

(** {1 Reading the instruments}

    The counters, gauges and histograms without the span buffers: safe to
    take while domains record, which is what the daemon's [metrics] reply
    and [GET /metrics] need. *)

type instruments = {
  in_counters : (string * int) list;  (** [`Sum] counters, sorted by name *)
  in_gauges : (string * float) list;
      (** gauges and [`Max] counters (a peak is a level, not a count),
          sorted by name *)
  in_histograms : histogram_view list;  (** sorted by name *)
}

val instruments : unit -> instruments

(** {1 Per-rule profiling}

    The rewriter brackets every rule application (and every condition
    discharge, and every root-match attempt) with
    {!rule_enter}/{!rule_exit}.  Frames form a per-domain stack so
    self-time is exact: a frame's children's total time is subtracted
    from its own.  Callers must guard with {!enabled} — the bracket
    assumes recording is on — and must pair enter/exit even on
    exceptions.  An application whose total time reaches the span
    threshold is additionally recorded as a span (cat ["rule"], ["cond"]
    or ["match"]), so slow instances show up on the trace timeline. *)

type kind =
  | Rewrite  (** normalizing the instantiated right-hand side *)
  | Cond  (** discharging the instantiated condition *)
  | Match
      (** one root-match attempt of the rule's left-hand side, successful
          or not — the cost rule indexing exists to avoid, attributed to
          the rule that was tried rather than dissolved into whichever
          rule happened to be firing above it *)

type frame

val rule_enter : unit -> frame
val rule_exit : frame -> kind:kind -> label:string -> unit

(** {1 Snapshot}

    Merges every domain's buffers into one immutable view. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_t0 : int;  (** start, ns (monotonic) *)
  sp_dur : int;  (** duration, ns *)
  sp_dom : int;  (** id of the domain that ran the span *)
  sp_depth : int;  (** nesting depth within its domain at start time *)
  sp_req : string;  (** request id the span ran under; [""] = unattributed *)
}

type rule_stat = {
  rl_label : string;
  rl_fires : int;  (** rewrite applications of this rule *)
  rl_rw_self_ns : int;  (** rewrite time minus nested rule applications *)
  rl_rw_total_ns : int;  (** inclusive rewrite time *)
  rl_cond_evals : int;  (** condition discharges attempted *)
  rl_cond_self_ns : int;
  rl_cond_total_ns : int;
  rl_match_tries : int;  (** root-match attempts (successful and failed) *)
  rl_match_self_ns : int;
  rl_match_total_ns : int;
}

type snapshot = {
  sn_spans : span list;  (** all domains, sorted by start time *)
  sn_rules : rule_stat list;  (** merged across domains, unsorted *)
  sn_counters : (string * int) list;
      (** every counter, [`Sum] and [`Max], live or not; sorted by name *)
  sn_gauges : (string * float) list;  (** sorted by name *)
  sn_dropped : int;  (** spans lost to the per-domain buffer cap *)
  sn_dropped_by_dom : (int * int) list;
      (** the same drops, attributed per domain id (only domains that
          dropped anything; sorted by domain) *)
  sn_t0 : int;  (** earliest span start (0 when no spans) *)
}

val snapshot : unit -> snapshot

(** [reset ()] clears every span buffer, profiling-only counter and gauge
    (live counters, histograms, the enabled flag and the minimum-duration
    threshold are left as they are). *)
val reset : unit -> unit
