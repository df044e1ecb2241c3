(** The trusted replay kernel.

    [Check] re-validates every obligation in a {!Cert.t} using only the
    certificate's own term representation — it never links against the
    rewriting engine, performs no AC matching search and follows no
    strategy.  Each recorded rule application is verified by instantiating
    the rule with the {e recorded} substitution and comparing against the
    redex (modulo the checker's own AC canonical form); recorded AC
    permutations are verified to be genuine permutations; condition
    discharges must bottom out at the [true] constant; the LPO certificate
    is rechecked with an independent ~30-line comparator.

    Derivations certify {e reachability} (input rewrites to output under
    the recorded rules), which is what proof-score soundness needs; they
    do not certify that the output is a normal form.

    A checker value carries physical-identity memo tables sized to one
    certificate, so callers chunking obligations across worker domains
    should [create] one checker per chunk. *)

type error = { e_path : string; e_msg : string }
(** [e_path] is a breadcrumb trail into the certificate, e.g.
    ["red r17/arg 0/step[fake-nonce]/cond"]. *)

val pp_error : Format.formatter -> error -> unit

type t

val create : Cert.t -> t

(** [check_all ck] validates the LPO certificate, every [red] obligation
    and every join certificate; returns the (possibly empty) list of
    rejections, most with positioned breadcrumb paths. *)
val check_all : t -> error list

(** Number of rule-application steps successfully replayed so far. *)
val steps_validated : t -> int

(** {1 Chunked replay}

    The plan every caller that spreads a certificate over domains shares:
    one job for the LPO obligation, the reds in [chunks] slices of about
    equal length, and one job for all joins.  Each job replays on a fresh
    checker, so the verdict does not depend on [chunks] but the step count
    does (a chunk re-validates the sub-derivations it shares with
    another). *)

type job

(** e.g. ["lpo"], ["reds[646]"], ["joins[4386]"] — for tracing spans. *)
val job_label : job -> string

(** [replay ~chunks ~map cert] runs every job through [map] and returns
    the rejections, in job order, and the steps replayed.  [map f jobs]
    must return the results of [f] in the order of [jobs] — [List.map], or
    a pool's order-preserving parallel map. *)
val replay :
  chunks:int ->
  map:((job -> error list * int) -> job list -> (error list * int) list) ->
  Cert.t ->
  error list * int
