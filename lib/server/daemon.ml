module P = Protocol
module Probe = Telemetry.Probe
module Log = Telemetry.Log
module Flight = Telemetry.Flight
module Obs = Telemetry.Obs
module Exit = Telemetry.Cli.Exit

(* ------------------------------------------------------------------ *)
(* Operational metrics (live counters, always on; served by the [metrics]
   request next to every other instrument of the process) *)

let live name = Probe.counter ~live:true name
let c_requests = live "server.requests"
let c_connections = live "server.connections"
let c_timeouts = live "server.timeouts"
let c_protocol_errors = live "server.protocol_errors"
let h_latency = Probe.histogram "server.request_latency"

type config = {
  socket : string;
  jobs : int;
  idle_timeout_s : float;
  max_frame : int;
  handle_signals : bool;
  metrics_port : int option;
  announce_metrics_port : int -> unit;
  log_file : string option;
  log_level : Log.level option;
  log_rotate_bytes : int;
  slow_ms : float;
  flight_path : string option;
}

let default_config ~socket =
  {
    socket;
    jobs = Domain.recommended_domain_count ();
    idle_timeout_s = 300.;
    max_frame = P.Frame.default_max;
    handle_signals = true;
    metrics_port = None;
    announce_metrics_port = ignore;
    log_file = None;
    log_level = None;
    log_rotate_bytes = 0;
    slow_ms = 500.;
    flight_path = Some (socket ^ ".flight.json");
  }

(* ------------------------------------------------------------------ *)
(* Resident state: everything the daemon keeps hot across requests *)

(* A proved obligation as the registry keeps it: the result and its reply
   frames, rendered once by the pool task that proved it, so a warm hit
   copies bytes and the rendering lives and dies with its registry entry.
   The verdict's [negative] flag is a function of the key: properties
   2'/3' are only ever asked for as negatives. *)
type proved = {
  result : Core.Induction.result;
  verdict_frame : string;  (* the framed [Rverdict] *)
  summary_frame : string;  (* the framed [Rsummary] of this result alone *)
}

type resident = {
  pool : Sched.Pool.t;
  wake : Unix.file_descr;  (* write end of the event loop's wake pipe *)
  envs : (P.style * Core.Induction.env) list;
  (* every result kept across requests, in a registry per kind: proved
     obligations (keyed [verify:STYLE:NAME]), and per style the lint
     report, the secrecy result and the static certificate evidence *)
  registry : proved Registry.t;
  lints : Analysis.Lint.report Registry.t;
  secrecies : Analysis.Secrecy.result Registry.t;
  statics : Analysis.Certgen.static Registry.t;
  eval_env : Cafeobj.Eval.env;
  started_ns : int;
  slow_ms : float;
  flight_path : string option;
  mutable served : int;
  mutable pending : int;  (* queued jobs, refreshed once per loop tick *)
}

(* Post-mortem snapshot of the flight rings; called on the paths where a
   core dump would otherwise be the only evidence. *)
let flight_dump resident reason =
  match resident.flight_path with
  | Some path when Flight.enabled () -> Flight.dump_to_file ~reason path
  | _ -> ()

let model_style = function
  | P.Original -> Tls.Model.Original
  | P.Variant -> Tls.Model.Cf2First

let uptime_s resident =
  float_of_int (Probe.now_ns () - resident.started_ns) /. 1e9

let verdict_of_result ~negative (r : Core.Induction.result) =
  let case (c : Core.Induction.case_result) =
    let s = Core.Prover.outcome_stats c.Core.Induction.outcome in
    {
      P.c_name = c.Core.Induction.case_name;
      c_status =
        (match c.Core.Induction.outcome with
        | Core.Prover.Proved _ -> "proved"
        | Core.Prover.Refuted _ -> "refuted"
        | Core.Prover.Unknown _ -> "unknown");
      c_splits = s.Core.Prover.splits;
      c_steps = s.Core.Prover.rewrite_steps;
    }
  in
  {
    P.v_name = r.Core.Induction.res_invariant;
    v_proved = r.Core.Induction.proved;
    v_negative = negative;
    v_cases = List.map case r.Core.Induction.cases;
    v_text = Format.asprintf "%a" Core.Report.pp_result r;
  }

let summary_response results =
  let summary = Core.Report.summarize results in
  P.Rsummary
    {
      invariants =
        summary.Core.Report.invariants_proved, summary.Core.Report.invariants_total;
      cases = summary.Core.Report.cases_proved, summary.Core.Report.cases_total;
      splits = summary.Core.Report.total_splits;
      steps = summary.Core.Report.total_rewrite_steps;
      text = Format.asprintf "%a" Core.Report.pp_summary summary;
    }

let frame resp = P.Frame.to_string (P.encode_response resp)

let render ~negative result =
  {
    result;
    verdict_frame = frame (P.Rverdict (verdict_of_result ~negative result));
    summary_frame = frame (summary_response [ result ]);
  }

let wake_byte = Bytes.make 1 '!'

(* Every task the daemon gives the pool goes through here: the future the
   loop polls is resolved first, exception included, then one byte on the
   wake pipe ends the loop's select.  A full pipe already holds a wake-up. *)
let submit resident f =
  let t = Sched.Task.create () in
  ignore
    (Sched.Pool.submit resident.pool (fun () ->
         (match f () with
         | v -> Sched.Task.fill t v
         | exception e -> Sched.Task.fail t e (Printexc.get_raw_backtrace ()));
         try ignore (Unix.single_write resident.wake wake_byte 0 1)
         with Unix.Unix_error _ -> ())
      : unit Sched.Task.t);
  t

(* A style's static certificate evidence (LPO precedence, critical-pair
   joins), from its registry.  A miss is computed here, inside the
   certifying task and without the pool, so the task never helps run
   another: a certifying task run by one that is computing the evidence
   would wait for it forever.  A task that never helps can block on the
   one computing an in-flight entry. *)
let static_evidence resident style spec =
  let promise = Sched.Task.create () in
  match
    Registry.find_or_submit resident.statics ~key:(P.style_name style)
      (fun () -> promise)
  with
  | task, `Fresh -> (
    match Analysis.Certgen.static_evidence spec with
    | st ->
      Sched.Task.fill task st;
      st
    | exception e ->
      Sched.Task.fail task e (Printexc.get_raw_backtrace ());
      raise e)
  | task, (`Cached | `Inflight) -> Sched.Task.wait task

(* ------------------------------------------------------------------ *)
(* Connections and jobs *)

(* Requests on one connection are answered strictly in request order; a
   request's pool work is dispatched the moment its frame arrives, so
   later requests compute while earlier ones stream.  A job's [step] sends
   whatever part of its reply is ready and returns the exit code once the
   request is answered. *)
type job = {
  kind : string;
  req_id : string;
  t0_ns : int;
  step : unit -> int option;
}

(* fallback ids for clients that did not tag their request *)
let srv_id = Atomic.make 0

(* Protocol clients and HTTP clients share one table: the accept, the
   read, the bounded write and the close sweep.  An HTTP client gets one
   response and is closed once it is written. *)
type proto = Wire of P.Frame.decoder | Http of Buffer.t  (* request head so far *)

type conn = {
  fd : Unix.file_descr;
  proto : proto;
  out : Buffer.t;
  mutable out_off : int;
  jobs_q : job Queue.t;
  mutable last_active : float;
  mutable closing : bool;  (* stop reading; close once drained *)
  mutable dead : bool;  (* close now *)
}

let is_wire c = match c.proto with Wire _ -> true | Http _ -> false
let send conn resp = P.Frame.encode conn.out (P.encode_response resp)
let has_output conn = Buffer.length conn.out > conn.out_off

let finish_job resident conn job ~exit_code =
  send conn (P.Done { exit_code });
  ignore (Queue.pop conn.jobs_q);
  resident.served <- resident.served + 1;
  Probe.incr c_requests;
  Probe.incr (live ("server.requests." ^ job.kind));
  let dt_ns = Probe.now_ns () - job.t0_ns in
  Probe.observe_ns h_latency dt_ns;
  Probe.observe_ns
    (Probe.histogram ("server.request_latency." ^ job.kind))
    dt_ns;
  if Probe.enabled () then
    Probe.with_request (Some job.req_id) (fun () ->
        Probe.span_since ~cat:"server" ("req:" ^ job.kind) job.t0_ns);
  let ms = float_of_int dt_ns /. 1e6 in
  let fields =
    [
      "id", Log.S job.req_id;
      "kind", Log.S job.kind;
      "ms", Log.F ms;
      "exit", Log.I exit_code;
    ]
  in
  if resident.slow_ms > 0. && ms >= resident.slow_ms then
    Log.warn "slow_request" fields
  else Log.info "request_done" fields;
  conn.last_active <- Unix.gettimeofday ()

(* Pump a connection's head jobs as far as they go. *)
let progress resident conn =
  let rec pump () =
    match Queue.peek_opt conn.jobs_q with
    | None -> ()
    | Some job -> (
      match job.step () with
      | None -> ()
      | Some exit_code ->
        finish_job resident conn job ~exit_code;
        pump ())
  in
  pump ()

(* The reply to a request whose work raised [e]: an exhausted step budget
   or deadline is a structured timeout named [name], anything else a
   server error. *)
let failed resident conn ~req_id ~kind ?(name = kind) e =
  match e with
  | Kernel.Rewrite.Limit_exceeded { limit; steps } ->
    Probe.incr c_timeouts;
    Log.warn "timeout" [ "id", Log.S req_id; "kind", Log.S kind; "steps", Log.I steps ];
    flight_dump resident ("limit-exceeded: " ^ name);
    let limit =
      match limit with
      | Kernel.Rewrite.Steps n -> `Steps n
      | Kernel.Rewrite.Deadline d -> `Deadline d
    in
    send conn (P.Rtimeout { limit; steps; name });
    Exit.timeout
  | e ->
    send conn (P.Rerror { code = "server"; msg = Printexc.to_string e });
    Exit.failure

(* ------------------------------------------------------------------ *)
(* Immediate replies *)

(* Point-in-time gauges, recomputed on every export (s-expr [metrics]
   request and HTTP /metrics alike). *)
let refresh_gauges resident =
  List.iter
    (fun (wire, env) ->
      let sys = Core.Induction.system env in
      let ms = Kernel.Rewrite.memo_stats sys in
      let looked = ms.Kernel.Rewrite.hits + ms.Kernel.Rewrite.misses in
      let prefix = "server.memo." ^ P.style_name wire in
      Probe.set_gauge (prefix ^ ".hit_rate")
        (if looked = 0 then 0.
         else float_of_int ms.Kernel.Rewrite.hits /. float_of_int looked);
      Probe.set_gauge (prefix ^ ".entries")
        (float_of_int ms.Kernel.Rewrite.entries))
    resident.envs;
  Kernel.Term.publish_intern_gauges ();
  Probe.set_gauge "server.registry.entries"
    (float_of_int (Registry.size resident.registry));
  Probe.set_gauge "server.registry.in_flight"
    (float_of_int (Registry.in_flight_count resident.registry));
  Probe.set_gauge "server.queue_depth" (float_of_int resident.pending);
  (* words the event loop's domain has allocated in the major heap so
     far; gauges are refreshed on that domain *)
  let _, _, major = Gc.counters () in
  Probe.set_gauge "server.loop.major_words" major;
  Probe.set_gauge "server.uptime_s" (uptime_s resident)

let metrics_response resident =
  refresh_gauges resident;
  let ins = Probe.instruments () in
  P.Rmetrics
    {
      counters = ins.Probe.in_counters;
      gauges = ins.Probe.in_gauges;
      histograms =
        List.map
          (fun (h : Probe.histogram_view) ->
            ( h.Probe.h_name,
              [|
                float_of_int h.Probe.h_count;
                h.Probe.h_sum_ms;
                h.Probe.h_p50_ms;
                h.Probe.h_p90_ms;
                h.Probe.h_p99_ms;
                h.Probe.h_max_ms;
              |] ))
          ins.Probe.in_histograms;
    }

let stop_flag = Atomic.make false
let quit_flag = Atomic.make false

(* ------------------------------------------------------------------ *)
(* Request intake: dispatch the request's pool work and queue its job *)

let start_request resident conn ~req_id req =
  let t0_ns = Probe.now_ns () in
  let job kind step = Queue.push { kind; req_id; t0_ns; step } conn.jobs_q in
  let fail ?name kind e = failed resident conn ~req_id ~kind ?name e in
  let reply_now kind f = job kind (fun () -> Some (f ())) in
  let bad_request kind msg =
    reply_now kind (fun () ->
        send conn (P.Rerror { code = "bad-request"; msg });
        Exit.usage)
  in
  (* a reply from one pool task's result *)
  let await ?name kind task reply =
    job kind (fun () ->
        match Sched.Task.poll task with
        | None -> None
        | Some v -> Some (reply v)
        | exception e -> Some (fail ?name kind e))
  in
  let lookup registry style f =
    Registry.find_or_submit ~requester:req_id registry ~key:(P.style_name style)
      (fun () -> submit resident (fun () -> f (Tls.Model.spec (model_style style))))
  in
  match req with
  | P.Ping ->
    reply_now "ping" (fun () ->
        send conn (P.Pong { pid = Unix.getpid (); uptime_s = uptime_s resident });
        Exit.ok)
  | P.Status ->
    reply_now "status" (fun () ->
        let dedup_hits, dedup_misses = Registry.dedup_counts () in
        send conn
          (P.Rstatus
             {
               uptime_s = uptime_s resident;
               jobs = Sched.Pool.jobs resident.pool;
               requests = resident.served;
               in_flight = Registry.in_flight_count resident.registry;
               dedup_hits;
               dedup_misses;
               styles = List.map fst resident.envs;
             });
        Exit.ok)
  | P.Metrics ->
    reply_now "metrics" (fun () ->
        send conn (metrics_response resident);
        Exit.ok)
  | P.Shutdown ->
    reply_now "shutdown" (fun () ->
        Atomic.set stop_flag true;
        Exit.ok)
  | P.Eval { src; step_limit; deadline_s } ->
    (* runs on the event loop when it reaches the head of its connection;
       every red of this request is bounded by its own step limit and
       deadline (absent ones by the kernel's defaults), whichever module
       it reduces in *)
    reply_now "eval" (fun () ->
        let eval (phrase, _pos) =
          let out =
            Cafeobj.Eval.eval ?step_limit ?deadline_s resident.eval_env phrase
          in
          send conn (P.Reval { text = Format.asprintf "%a" Cafeobj.Eval.pp_output out })
        in
        let eval_error msg =
          send conn (P.Rerror { code = "eval"; msg });
          Exit.failure
        in
        match List.iter eval (Cafeobj.Parser.parse_string src) with
        | () -> Exit.ok
        | exception (Cafeobj.Parser.Error m | Cafeobj.Eval.Error m) -> eval_error m
        | exception Cafeobj.Lexer.Error { line; col; message } ->
          eval_error (Printf.sprintf "line %d, col %d: %s" line col message)
        | exception e -> fail "eval" e)
  | P.Lint { style } ->
    let task, how =
      lookup resident.lints style (fun spec ->
          Analysis.Lint.run ~pool:resident.pool
            [
              Analysis.Lint.Generated
                { label = "generated:tls-" ^ P.style_name style; spec };
            ])
    in
    await "lint" task (fun report ->
        send conn
          (P.Rlint
             {
               errors = report.Analysis.Lint.errors;
               warnings = report.Analysis.Lint.warnings;
               infos = report.Analysis.Lint.infos;
               cached = how = `Cached;
               text = Format.asprintf "%a" Analysis.Lint.pp_report report;
             });
        if report.Analysis.Lint.errors > 0 then Exit.failure else Exit.ok)
  | P.Secrecy { style } ->
    let task, how = lookup resident.secrecies style Analysis.Secrecy.analyze in
    await "secrecy" task (fun result ->
        send conn
          (P.Rsecrecy
             {
               verdict = Analysis.Secrecy.verdict_name result;
               clauses = result.Analysis.Secrecy.r_clauses;
               facts = result.Analysis.Secrecy.r_facts;
               rounds = result.Analysis.Secrecy.r_rounds;
               resolutions = result.Analysis.Secrecy.r_resolutions;
               cached = how = `Cached;
             });
        match result.Analysis.Secrecy.r_verdict with
        | Analysis.Secrecy.Secure | Analysis.Secrecy.Not_applicable _ -> Exit.ok
        | Analysis.Secrecy.Leak _ | Analysis.Secrecy.Inconclusive -> Exit.failure)
  | P.Check { cert } -> (
    match Certify.Cert.of_string cert with
    | Error msg -> bad_request "check" ("malformed certificate: " ^ msg)
    | Ok cert ->
      let task =
        submit resident (fun () -> Analysis.Certgen.check ~pool:resident.pool cert)
      in
      await "check" task (fun res ->
          let errors = res.Analysis.Certgen.errors in
          send conn
            (P.Rcheck
               {
                 ok = errors = [];
                 obligations = res.Analysis.Certgen.obligations;
                 steps = res.Analysis.Certgen.steps_replayed;
                 errors =
                   List.map
                     (fun (e : Certify.Check.error) ->
                       e.Certify.Check.e_path, e.Certify.Check.e_msg)
                     errors;
               });
          if errors = [] then Exit.ok else Exit.failure))
  | P.Verify { style; only; negative; extensions; certify } -> (
    let mstyle = model_style style in
    let resolve () =
      match only with
      | [] ->
        Ok
          (Proofs.Tls_invariants.all mstyle
          @
          if extensions then Proofs.Tls_invariants.extensions mstyle else [])
      | names ->
        List.fold_right
          (fun name acc ->
            match acc with
            | Error _ as e -> e
            | Ok ps -> (
              match Proofs.Tls_invariants.find mstyle name with
              | p -> Ok (p :: ps)
              | exception Not_found -> Error name))
          names (Ok [])
    in
    match resolve () with
    | Error name -> bad_request "verify" (Printf.sprintf "unknown proof %S" name)
    | Ok proofs ->
      let env = List.assoc style resident.envs in
      let obligations =
        List.map (fun p -> false, p) proofs
        @
        if negative then
          [
            true, Proofs.Tls_invariants.prop2' mstyle;
            true, Proofs.Tls_invariants.prop3' mstyle;
          ]
        else []
      in
      if certify then begin
        (* A certifying campaign bypasses the registry (cached results
           carry no trace) and runs as one pool task on one domain, so
           its tracer records its own reds and nothing else; the trace
           plus the style's static evidence becomes the certificate. *)
        let task =
          submit resident (fun () ->
              Probe.with_span ~always:true ~cat:"server" "verify-certify"
              @@ fun () ->
              let tr = Kernel.Rewrite.tracer () in
              let results =
                Kernel.Rewrite.with_tracer tr (fun () ->
                    List.map
                      (fun (neg, proof) -> neg, Proofs.Tls_invariants.run env proof)
                      obligations)
              in
              let spec = Tls.Model.spec mstyle in
              let cert =
                Analysis.Certgen.campaign spec
                  (static_evidence resident style spec)
                  (Kernel.Rewrite.obligations tr)
              in
              results, Certify.Cert.to_string cert)
        in
        await ~name:"obligation" "verify" task (fun (results, cert) ->
            List.iter
              (fun (neg, r) -> send conn (P.Rverdict (verdict_of_result ~negative:neg r)))
              results;
            let positives =
              List.filter_map (fun (neg, r) -> if neg then None else Some r) results
            in
            send conn (summary_response positives);
            send conn (P.Rcert { cert });
            if
              List.exists (fun (neg, r) -> neg && r.Core.Induction.proved) results
              || Core.Report.failures positives <> []
            then Exit.failure
            else Exit.ok)
      end
      else
        let todo =
          ref
            (List.map
               (fun (neg, proof) ->
                 let name = Proofs.Tls_invariants.name_of proof in
                 let key = Printf.sprintf "verify:%s:%s" (P.style_name style) name in
                 let task, _how =
                   Registry.find_or_submit ~requester:req_id resident.registry ~key
                     (fun () ->
                       submit resident (fun () ->
                           Probe.with_span ~always:true ~cat:"server"
                             ("obligation:" ^ name)
                           @@ fun () ->
                           render ~negative:neg
                             (Proofs.Tls_invariants.run ~pool:resident.pool env proof)))
                 in
                 neg, task)
               obligations)
        in
        (* verdicts stream in campaign order; exit codes rank by value
           (timeout 5 over failure 1 over ok 0) *)
        let positives = ref [] and code = ref Exit.ok in
        job "verify" (fun () ->
            let rec go () =
              match !todo with
              | [] ->
                let results = List.rev_map (fun p -> p.result) !positives in
                (match !positives with
                | [ p ] -> Buffer.add_string conn.out p.summary_frame
                | _ -> send conn (summary_response results));
                if Core.Report.failures results <> [] then code := max !code Exit.failure;
                Some !code
              | (neg, task) :: rest -> (
                match Sched.Task.poll task with
                | None -> None
                | Some p ->
                  todo := rest;
                  Buffer.add_string conn.out p.verdict_frame;
                  if not neg then positives := p :: !positives
                  else if p.result.Core.Induction.proved then
                    code := max !code Exit.failure;
                  go ()
                | exception e ->
                  todo := rest;
                  code := max !code (fail ~name:"obligation" "verify" e);
                  go ())
            in
            go ()))

(* ------------------------------------------------------------------ *)
(* The HTTP sidecar: GET /metrics, /healthz, /statusz on a loopback TCP
   port, served from the same connection table and select() loop as the
   wire protocol so a scrape can never be starved by (or starve) proof
   work. *)

let statusz_json resident ~draining =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"uptime_s\":%.3f,\"pid\":%d,\"jobs\":%d,\"draining\":%b,\
        \"requests_served\":%d,\"queue_depth\":%d"
       (uptime_s resident) (Unix.getpid ())
       (Sched.Pool.jobs resident.pool)
       draining resident.served resident.pending);
  let dedup_hits, dedup_misses = Registry.dedup_counts () in
  Buffer.add_string b
    (Printf.sprintf
       ",\"registry\":{\"entries\":%d,\"in_flight\":%d,\"dedup_hits\":%d,\
        \"dedup_misses\":%d}"
       (Registry.size resident.registry)
       (Registry.in_flight_count resident.registry)
       dedup_hits dedup_misses);
  Buffer.add_string b ",\"styles\":[";
  List.iteri
    (fun i (s, _) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\"" (P.style_name s)))
    resident.envs;
  Buffer.add_string b "]";
  Buffer.add_string b
    (Printf.sprintf ",\"build\":{\"ocaml\":\"%s\"}"
       (Flight.json_escape Sys.ocaml_version));
  Buffer.add_string b "}\n";
  Buffer.contents b

let http_route resident ~draining (r : Obs.Http.request) =
  if not (String.equal r.Obs.Http.meth "GET") then
    Obs.Http.response ~status:405 "method not allowed\n"
  else
    match r.Obs.Http.target with
    | "/metrics" ->
      refresh_gauges resident;
      Obs.Http.response ~content_type:Obs.content_type
        (Obs.render_openmetrics
           ~labeled:[ "server.request_latency", "type" ]
           (Probe.instruments ()))
    | "/healthz" ->
      if draining then Obs.Http.response ~status:503 "draining\n"
      else Obs.Http.response "ok\n"
    | "/statusz" ->
      Obs.Http.response ~content_type:"application/json"
        (statusz_json resident ~draining)
    | _ -> Obs.Http.response ~status:404 "not found\n"

(* ------------------------------------------------------------------ *)
(* Socket plumbing *)

(* [io] is the event loop's one scratch buffer: a write stages at most
   its length of the unsent reply there, so a slow reader holding a large
   reply costs one bounded copy per attempt, not a copy of the whole
   reply. *)
let flush_conn io conn =
  if has_output conn then begin
    let len = min (Buffer.length conn.out - conn.out_off) (Bytes.length io) in
    Buffer.blit conn.out conn.out_off io 0 len;
    match Unix.write conn.fd io 0 len with
    | n ->
      conn.out_off <- conn.out_off + n;
      if conn.out_off >= Buffer.length conn.out then begin
        Buffer.clear conn.out;
        conn.out_off <- 0
      end;
      conn.last_active <- Unix.gettimeofday ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
      conn.dead <- true
  end

let protocol_error conn msg =
  Probe.incr c_protocol_errors;
  Log.warn "protocol_error" [ "msg", Log.S msg ];
  send conn (P.Rerror { code = "protocol"; msg });
  send conn (P.Done { exit_code = Exit.usage })

let read_conn resident io conn ~draining =
  match Unix.read conn.fd io 0 (Bytes.length io) with
  | 0 -> conn.dead <- true
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (ECONNRESET, _, _) -> conn.dead <- true
  | n -> (
    conn.last_active <- Unix.gettimeofday ();
    match conn.proto with
    | Http head -> (
      Buffer.add_subbytes head io 0 n;
      let respond s =
        Buffer.add_string conn.out s;
        conn.closing <- true
      in
      match Obs.Http.parse (Buffer.contents head) with
      | `Partial -> ()
      | `Bad -> respond (Obs.Http.response ~status:400 "bad request\n")
      | `Ready r -> respond (http_route resident ~draining r))
    | Wire dec ->
      P.Frame.feed dec io 0 n;
      let rec drain_frames () =
        match P.Frame.next dec with
        | Ok None -> ()
        | Ok (Some payload) ->
          (match P.decode_request payload with
          | Ok req ->
            let req_id =
              match P.request_id payload with
              | Some id -> id
              | None -> Printf.sprintf "srv-%d" (Atomic.fetch_and_add srv_id 1)
            in
            Log.debug "request_start" [ "id", Log.S req_id ];
            (* the request id is installed while dispatching so the pool
               captures it onto every obligation submitted for this job *)
            if Probe.enabled () then
              Probe.with_request (Some req_id) (fun () ->
                  start_request resident conn ~req_id req)
            else start_request resident conn ~req_id req
          | Error msg -> protocol_error conn msg);
          drain_frames ()
        | Error msg ->
          (* framing is unrecoverable: answer, then close once flushed *)
          protocol_error conn msg;
          conn.closing <- true
      in
      drain_frames ())

(* ------------------------------------------------------------------ *)
(* The server proper *)

let claim_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect probe (ADDR_UNIX path) with
    | () ->
      Unix.close probe;
      failwith (path ^ ": a verifyd is already serving this socket")
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) ->
      Unix.close probe;
      (try Unix.unlink path with Unix.Unix_error _ -> ())
    | exception e ->
      Unix.close probe;
      raise e
  end

let run config =
  if config.jobs < 1 then invalid_arg "Daemon.run: jobs must be at least 1";
  Atomic.set stop_flag false;
  Atomic.set quit_flag false;
  Option.iter (fun l -> Log.set_level (Some l)) config.log_level;
  let opened_sink =
    match config.log_file with
    | Some path ->
      Log.open_sink ~rotate_bytes:config.log_rotate_bytes path;
      true
    | None -> false
  in
  let flight_was_enabled = Flight.enabled () in
  if config.flight_path <> None then Flight.set_enabled true;
  (* bind the HTTP sidecar before claiming the unix socket: a TCP bind
     failure (port in use) must not unlink a live daemon's socket *)
  let hlfd =
    match config.metrics_port with
    | None -> None
    | Some port ->
      let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd SO_REUSEADDR true;
         Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
         Unix.listen fd 16;
         Unix.set_nonblock fd
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      let bound =
        match Unix.getsockname fd with ADDR_INET (_, p) -> p | _ -> port
      in
      config.announce_metrics_port bound;
      Log.info "metrics_listening" [ "port", Log.I bound ];
      Some fd
  in
  claim_socket config.socket;
  let lfd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind lfd (ADDR_UNIX config.socket);
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;
  let previous_signals = ref [] in
  if config.handle_signals then begin
    let install signum handler =
      let old = Sys.signal signum (Sys.Signal_handle handler) in
      previous_signals := (signum, old) :: !previous_signals
    in
    install Sys.sigint (fun _ -> Atomic.set stop_flag true);
    install Sys.sigterm (fun _ -> Atomic.set stop_flag true);
    (* SIGQUIT: dump the flight recorder without dying *)
    install Sys.sigquit (fun _ -> Atomic.set quit_flag true)
  end;
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let pool = Sched.Pool.create ~jobs:config.jobs () in
  (* finished pool tasks write to [wake_w] ([submit]); the loop selects on
     [wake_r] and drains it *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  (* the loop's one I/O scratch buffer ([read_conn], [flush_conn]) *)
  let io = Bytes.create 65536 in
  (* Load the specs once: both proof environments are built before the
     first request, so every request — including the first — runs against
     the resident term universe. *)
  let resident =
    {
      pool;
      wake = wake_w;
      envs =
        [
          P.Original, Tls.Model.env Tls.Model.Original;
          P.Variant, Tls.Model.env Tls.Model.Cf2First;
        ];
      registry = Registry.create ();
      lints = Registry.create ();
      secrecies = Registry.create ();
      statics = Registry.create ();
      eval_env = Cafeobj.Eval.create ();
      started_ns = Probe.now_ns ();
      slow_ms = config.slow_ms;
      flight_path = config.flight_path;
      served = 0;
      pending = 0;
    }
  in
  Log.info "daemon_start"
    [
      "socket", Log.S config.socket;
      "jobs", Log.I config.jobs;
      "pid", Log.I (Unix.getpid ());
    ];
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let draining = ref false in
  let listening = ref true in
  let cleanup () =
    Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
    Hashtbl.reset conns;
    (match hlfd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    if !listening then (try Unix.close lfd with Unix.Unix_error _ -> ());
    (try Unix.unlink config.socket with Unix.Unix_error _ -> ());
    Sched.Pool.shutdown pool;
    Unix.close wake_r;
    Unix.close wake_w;
    List.iter (fun (signum, old) -> Sys.set_signal signum old) !previous_signals;
    Sys.set_signal Sys.sigpipe old_pipe;
    Log.info "daemon_exit" [ "served", Log.I resident.served ];
    if opened_sink then Log.close_sink ();
    if config.flight_path <> None && not flight_was_enabled then
      Flight.set_enabled false
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let accept_all lfd proto =
    let rec go () =
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
        Unix.set_nonblock fd;
        let c =
          {
            fd;
            proto = proto ();
            out = Buffer.create 1024;
            out_off = 0;
            jobs_q = Queue.create ();
            last_active = Unix.gettimeofday ();
            closing = false;
            dead = false;
          }
        in
        if is_wire c then Probe.incr c_connections;
        Hashtbl.replace conns fd c;
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    in
    go ()
  in
  let wire () = Wire (P.Frame.decoder ~max_frame:config.max_frame ()) in
  let http () = Http (Buffer.create 256) in
  let rec drain_wakes () =
    match Unix.read wake_r io 0 (Bytes.length io) with
    | n -> if n = Bytes.length io then drain_wakes ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  let finished = ref false in
  (try
     while not !finished do
       if Atomic.get stop_flag && not !draining then begin
         Log.info "drain_begin" [];
         draining := true
       end;
       if Atomic.exchange quit_flag false then begin
         Log.info "sigquit_dump" [];
         flight_dump resident "sigquit"
       end;
       if !draining && !listening then begin
         listening := false;
         (try Unix.close lfd with Unix.Unix_error _ -> ())
       end;
       (* pump every connection's head jobs and flush what they produced;
          then, before the loop can sleep in select, close broken and
          answered connections, clients of either kind that are idle, and
          protocol clients drained during a drain *)
       Hashtbl.iter
         (fun _ c ->
           if not c.dead then begin
             progress resident c;
             flush_conn io c
           end)
         conns;
       let now = Unix.gettimeofday () in
       let doomed =
         Hashtbl.fold
           (fun fd c acc ->
             let drained = Queue.is_empty c.jobs_q && not (has_output c) in
             if
               c.dead
               || (c.closing && drained)
               || drained
                  && ((!draining && is_wire c)
                     || config.idle_timeout_s > 0.
                        && now -. c.last_active > config.idle_timeout_s)
             then fd :: acc
             else acc)
           conns []
       in
       List.iter
         (fun fd ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           Hashtbl.remove conns fd)
         doomed;
       (* the drain ends with the last protocol client: an HTTP client
          never holds it open *)
       if !draining && not (Seq.exists is_wire (Hashtbl.to_seq_values conns)) then
         finished := true
       else begin
         resident.pending <-
           Hashtbl.fold (fun _ c n -> n + Queue.length c.jobs_q) conns 0;
         (* a 1-job pool has no workers: the loop lends its own domain, and
            comes straight back while there is work to lend it to *)
         let helped =
           Sched.Pool.jobs pool = 1 && resident.pending > 0
           && Sched.Pool.try_help pool
         in
         let rfds, wfds =
           Hashtbl.fold
             (fun fd c (r, w) ->
               ( (if c.closing || c.dead then r else fd :: r),
                 if (not c.dead) && has_output c then fd :: w else w ))
             conns
             ( (wake_r :: (if !listening then [ lfd ] else []))
               (* the HTTP listener stays up through the drain: health
                  checks must be able to observe the 503 flip *)
               @ Option.to_list hlfd,
               [] )
         in
         (* pending work needs no timeout: its completion writes [wake_w] *)
         let timeout = if helped then 0. else 0.25 in
         let readable, writable =
           match Unix.select rfds wfds [] timeout with
           | r, w, _ -> r, w
           | exception Unix.Unix_error (EINTR, _, _) -> [], []
         in
         List.iter
           (fun fd ->
             if fd = wake_r then drain_wakes ()
             else if fd = lfd && !listening then accept_all lfd wire
             else if hlfd = Some fd then accept_all fd http
             else
               match Hashtbl.find_opt conns fd with
               | Some c when not c.dead -> read_conn resident io c ~draining:!draining
               | _ -> ())
           readable;
         List.iter
           (fun fd ->
             match Hashtbl.find_opt conns fd with
             | Some c when not c.dead -> flush_conn io c
             | _ -> ())
           writable
       end
     done
   with e ->
     (* the flight recorder's raison d'être: capture the last moments
        before the event loop dies *)
     Log.error "crash" [ "exn", Log.S (Printexc.to_string e) ];
     flight_dump resident ("crash: " ^ Printexc.to_string e);
     raise e)
