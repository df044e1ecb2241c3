(** Serving observability: OpenMetrics exposition and minimal HTTP.

    Pure string builders over {!Probe.instruments} plus just enough
    HTTP/1.1 to answer [curl] and a Prometheus scraper.  No sockets here
    — the daemon owns the file descriptors; this module owns the bytes,
    so the renderer and parser stay unit-testable without a server. *)

(** [sanitize_name s] maps an internal dotted metric name
    (["server.request_latency"]) to the OpenMetrics charset
    [\[a-zA-Z_\]\[a-zA-Z0-9_\]*] (["server_request_latency"]). *)
val sanitize_name : string -> string

(** The [Content-Type] a compliant scraper expects for the exposition
    produced by {!render_openmetrics}. *)
val content_type : string

(** [render_openmetrics ?labeled ins] renders [ins] as OpenMetrics
    text: counters get a [_total] sample, gauges (among them the [`Max]
    counters, which {!Probe.instruments} lists as gauges) a plain one,
    histograms become [_seconds]-suffixed families with cumulative
    [_bucket{le="…"}] samples (bounds converted from ns), [_count] and
    [_sum]; the exposition ends with [# EOF].

    [labeled] groups histogram families: an entry [(prefix, label)]
    folds every histogram named [prefix] or [prefix ^ "." ^ rest] into
    the single family [sanitize_name prefix ^ "_seconds"], with [rest]
    exported as the value of [label] — e.g.
    [~labeled:["server.request_latency", "type"]] yields
    [server_request_latency_seconds_bucket{type="verify",le="…"}]
    alongside the unlabeled all-requests series. *)
val render_openmetrics :
  ?labeled:(string * string) list -> Probe.instruments -> string

module Http : sig
  type request = { meth : string; target : string }

  (** [parse buffered] inspects the bytes read so far on a connection:
      [`Ready r] once a full request head has arrived, [`Partial] if
      more bytes are needed, [`Bad] on a malformed request line or a
      head larger than 8 KiB. *)
  val parse : string -> [ `Ready of request | `Partial | `Bad ]

  (** [response ?status ?content_type body] builds a complete
      [Connection: close] HTTP/1.1 response. *)
  val response : ?status:int -> ?content_type:string -> string -> string
end
