(** verifyd — the resident verification server.

    A long-lived Unix-domain-socket daemon that loads the TLS protocol
    specs {e once} at startup and keeps the whole term universe hot across
    requests: the weak intern table, the generation-stamped normal-form
    memos of the resident proof environments, and every result it keeps
    survive from one request to the next — so the second identical
    campaign subset costs a registry lookup where a cold CLI run pays
    spec elaboration and every red from zero.

    Architecture: one single-threaded [select] event loop owns all socket
    I/O (accept, incremental frame decoding, response write-back) and
    dispatches proof obligations onto a {!Sched.Pool} of worker domains.
    Protocol clients and HTTP clients share one connection table: the
    same accept, read, bounded write and close sweep.  Each request kind
    is written once, as a queued job whose step sends the part of its
    reply that is ready and returns the exit code once the request is
    answered; one function turns an exception from any request's work
    into its reply.  A finished pool task writes one byte to a pipe the
    loop selects on, so the loop sleeps until there is I/O or a result
    to send — verdicts stream back in campaign order while later
    obligations are still running.

    Every resident result lives in a {!Registry}: proved obligations,
    and per style the lint report, the secrecy result and the static
    certificate evidence (LPO precedence, critical-pair joins).
    Identical in-flight requests from concurrent clients share one
    future; [cached] in a lint or secrecy reply means the lookup found a
    resolved entry, and [status]'s dedup counts include those lookups.
    The task that proves an obligation also renders its reply frames, so
    a warm repeat copies the bytes of the first reply, and the loop reads
    and writes through one scratch buffer.  A certifying campaign runs as
    one pool task on one domain under a tracer scoped to that domain
    ({!Kernel.Rewrite.with_tracer}), so its certificate records its own
    reds only and does not depend on [jobs].  Each request runs under a
    [cat = "server"] telemetry span.  The [metrics] request serves every
    instrument of the process ({!Telemetry.Probe.instruments}): the live
    server counters (requests, dedup hit rate), latency histograms,
    memo/intern occupancy gauges and the words the event loop's domain
    has allocated in the major heap ([server.loop.major_words]), and the
    kernel and scheduler counters, which advance only while recording is
    on ([verifyd --profile]).

    Graceful shutdown: a [shutdown] request, SIGINT or SIGTERM stops
    accepting, lets in-flight requests finish, flushes every connection,
    removes the socket file and returns.  The drain and the idle timeout
    close protocol clients only, and the daemon finishes when no
    protocol client is left, so an HTTP client never holds a drain open
    and a health check is never cut off.  A reduction that exhausts its
    step budget or deadline ({!Kernel.Rewrite.Limit_exceeded}) in any
    request is answered with a structured [timeout] verdict (exit 5) on
    that request's stream — the connection survives; any other exception
    from a request's work is answered with a [server] error (exit 1).

    Observability: with [metrics_port] set, the same event loop also
    serves HTTP on loopback — [GET /metrics] (OpenMetrics text, including
    per-request-type latency histograms labeled [type="…"]), [/healthz]
    (flips to 503 the moment a drain starts, while the protocol socket is
    still finishing work) and [/statusz] (a JSON summary).  An HTTP
    client gets one response and is closed once it is written.  Requests
    tagged with a client id ({!Protocol.encode_request}) carry that id
    through the structured log ({!Telemetry.Log}), the obligation
    registry, and — when profiling is on — every {!Telemetry.Probe} span
    the request causes, pool workers included.  With [flight_path] set,
    a {!Telemetry.Flight} ring records recent events and is dumped there
    on a crash, a SIGQUIT, or a [Limit_exceeded]. *)

type config = {
  socket : string;  (** path of the Unix-domain socket to bind *)
  jobs : int;  (** sched-pool parallelism (≥ 1) *)
  idle_timeout_s : float;  (** close connections idle this long; 0 = never *)
  max_frame : int;  (** per-frame byte cap (see {!Protocol.Frame}) *)
  handle_signals : bool;
      (** install SIGINT/SIGTERM drain handlers and the SIGQUIT
          flight-dump handler *)
  metrics_port : int option;
      (** loopback TCP port for the HTTP endpoint; [Some 0] binds an
          ephemeral port (see [announce_metrics_port]); [None] disables *)
  announce_metrics_port : int -> unit;
      (** called once with the actually-bound HTTP port *)
  log_file : string option;  (** JSON-lines sink; [None] leaves stderr *)
  log_level : Telemetry.Log.level option;  (** [None] = leave as configured *)
  log_rotate_bytes : int;  (** rotate the sink beyond this size; 0 = never *)
  slow_ms : float;
      (** requests at least this slow log at [Warn] as [slow_request];
          0 disables the slow log *)
  flight_path : string option;  (** post-mortem dump path; [None] disables *)
}

val default_config : socket:string -> config

(** [run config] binds, serves until drained, cleans up, returns.
    @raise Failure if the socket cannot be bound (e.g. another live
    daemon owns it — a stale socket file left by a crash is reclaimed). *)
val run : config -> unit

(** [verdict_of_result ~negative r] is the wire verdict for one proof
    result, [v_text] rendered exactly as the standalone [verify] binary
    prints it.  Exposed so tests and the bench can fingerprint local runs
    with the very function the server uses. *)
val verdict_of_result :
  negative:bool -> Core.Induction.result -> Protocol.verdict
