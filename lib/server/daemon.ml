module P = Protocol
module Metrics = Telemetry.Metrics
module Log = Telemetry.Log
module Flight = Telemetry.Flight
module Obs = Telemetry.Obs
module Exit = Telemetry.Cli.Exit

(* ------------------------------------------------------------------ *)
(* Operational metrics (always on; served by the [metrics] request) *)

let c_requests = Metrics.counter "server.requests"
let c_connections = Metrics.counter "server.connections"
let c_timeouts = Metrics.counter "server.timeouts"
let c_protocol_errors = Metrics.counter "server.protocol_errors"
let c_lint_cache_hits = Metrics.counter "server.lint.cache_hits"
let c_secrecy_cache_hits = Metrics.counter "server.secrecy.cache_hits"
let h_latency = Metrics.histogram "server.request_latency"

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

type resident = {
  pool : Sched.Pool.t;
  envs : (P.style * Core.Induction.env) list;
  registry : Core.Induction.result Registry.t;
  lint_cache : (P.style, Analysis.Lint.report) Hashtbl.t;
  secrecy_cache : (P.style, Analysis.Secrecy.result) Hashtbl.t;
  (* the expensive, campaign-independent certificate parts (LPO
     precedence, critical-pair joins) computed once per style *)
  static_certs :
    ( P.style,
      Kernel.Signature.op list option
      * (Kernel.Completion.overlap * Analysis.Confluence.jcert) list )
    Hashtbl.t;
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
  float_of_int (Telemetry.Probe.now_ns () - resident.started_ns) /. 1e9

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

(* ------------------------------------------------------------------ *)
(* Per-connection state *)

(* Requests on one connection are answered strictly in request order;
   obligations are dispatched to the pool the moment the request frame
   arrives, so later requests compute while earlier ones stream. *)
type active =
  | Aimmediate of P.request
  | Aerror of { responses : P.response list; exit_code : int }
  | Averify of {
      mutable todo : (bool * Core.Induction.result Sched.Task.t) list;
      mutable results : Core.Induction.result list;  (* positives, reversed *)
      mutable timed_out : bool;
      mutable unexpected : bool;
      mutable errored : bool;
    }
  | Alint of {
      style : P.style;
      task : Analysis.Lint.report Sched.Task.t;
      cached : bool;
    }
  | Asecrecy of {
      style : P.style;
      task : Analysis.Secrecy.result Sched.Task.t;
      cached : bool;
    }
  | Acert of {
      task : ((bool * Core.Induction.result) list * string) Sched.Task.t;
          (** certifying campaign: (negative?, result) list + certificate *)
    }
  | Acheck of { task : Analysis.Certgen.check_result Sched.Task.t }

type job = { active : active; kind : string; req_id : string; t0_ns : int }

(* fallback ids for clients that did not tag their request *)
let srv_id = Atomic.make 0

type conn = {
  fd : Unix.file_descr;
  dec : P.Frame.decoder;
  out : Buffer.t;
  mutable out_off : int;
  jobs_q : job Queue.t;
  mutable last_active : float;
  mutable closing : bool;  (* stop reading; close once drained *)
  mutable dead : bool;  (* close now *)
}

let send conn resp = P.Frame.encode conn.out (P.encode_response resp)
let has_output conn = Buffer.length conn.out > conn.out_off

let finish_job resident conn job ~exit_code =
  send conn (P.Done { exit_code });
  ignore (Queue.pop conn.jobs_q);
  resident.served <- resident.served + 1;
  Metrics.incr c_requests;
  Metrics.incr (Metrics.counter ("server.requests." ^ job.kind));
  let dt_ns = Telemetry.Probe.now_ns () - job.t0_ns in
  Metrics.observe_ns h_latency dt_ns;
  Metrics.observe_ns
    (Metrics.histogram ("server.request_latency." ^ job.kind))
    dt_ns;
  if Telemetry.Probe.enabled () then
    Telemetry.Probe.with_request (Some job.req_id) (fun () ->
        Telemetry.Probe.span_since ~cat:"server" ("req:" ^ job.kind) job.t0_ns)
  else Telemetry.Probe.span_since ~cat:"server" ("req:" ^ job.kind) job.t0_ns;
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

(* ------------------------------------------------------------------ *)
(* Immediate requests *)

(* Point-in-time gauges, recomputed on every export (s-expr Metrics
   request and HTTP /metrics alike). *)
let refresh_gauges resident =
  List.iter
    (fun (wire, env) ->
      let sys = Core.Induction.system env in
      let ms = Kernel.Rewrite.memo_stats sys in
      let looked = ms.Kernel.Rewrite.hits + ms.Kernel.Rewrite.misses in
      let prefix = "server.memo." ^ P.style_name wire in
      Metrics.set_gauge (prefix ^ ".hit_rate")
        (if looked = 0 then 0.
         else float_of_int ms.Kernel.Rewrite.hits /. float_of_int looked);
      Metrics.set_gauge (prefix ^ ".entries")
        (float_of_int ms.Kernel.Rewrite.entries))
    resident.envs;
  Metrics.set_gauge "server.intern.live_terms"
    (float_of_int (Kernel.Term.intern_table_len ()));
  Metrics.set_gauge "server.registry.entries"
    (float_of_int (Registry.size resident.registry));
  Metrics.set_gauge "server.registry.in_flight"
    (float_of_int (Registry.in_flight_count resident.registry));
  Metrics.set_gauge "server.queue_depth" (float_of_int resident.pending);
  Metrics.set_gauge "server.uptime_s" (uptime_s resident)

let metrics_response resident =
  refresh_gauges resident;
  let snap = Metrics.snapshot () in
  P.Rmetrics
    {
      counters = snap.Metrics.m_counters;
      gauges = snap.Metrics.m_gauges;
      histograms =
        List.map
          (fun (h : Metrics.histogram_view) ->
            ( h.Metrics.h_name,
              [|
                float_of_int h.Metrics.h_count;
                h.Metrics.h_sum_ms;
                h.Metrics.h_p50_ms;
                h.Metrics.h_p90_ms;
                h.Metrics.h_p99_ms;
                h.Metrics.h_max_ms;
              |] ))
          snap.Metrics.m_histograms;
    }

let handle_eval resident ~step_limit ~deadline_s src emit =
  (* [red] runs synchronously on the event loop: every red this request
     makes is bounded by the request's own step limit / deadline (absent
     ones by the kernel's defaults), whichever module it reduces in.  This
     is also the direct wire exercise of Limit_exceeded. *)
  match Cafeobj.Parser.parse_string src with
  | exception Cafeobj.Parser.Error m ->
    emit (P.Rerror { code = "eval"; msg = m });
    Exit.failure
  | exception Cafeobj.Lexer.Error { line; col; message } ->
    emit
      (P.Rerror
         {
           code = "eval";
           msg = Printf.sprintf "line %d, col %d: %s" line col message;
         });
    Exit.failure
  | program -> (
    try
      List.iter
        (fun (phrase, _pos) ->
          let out =
            Cafeobj.Eval.eval ?step_limit ?deadline_s resident.eval_env phrase
          in
          emit (P.Reval { text = Format.asprintf "%a" Cafeobj.Eval.pp_output out }))
        program;
      Exit.ok
    with
    | Kernel.Rewrite.Limit_exceeded { limit; steps } ->
      Metrics.incr c_timeouts;
      Log.warn "timeout" [ "kind", Log.S "eval"; "steps", Log.I steps ];
      flight_dump resident "limit-exceeded: eval";
      let limit =
        match limit with
        | Kernel.Rewrite.Steps n -> `Steps n
        | Kernel.Rewrite.Deadline d -> `Deadline d
      in
      emit (P.Rtimeout { limit; steps; name = "eval" });
      Exit.timeout
    | Cafeobj.Eval.Error m ->
      emit (P.Rerror { code = "eval"; msg = m });
      Exit.failure)

(* ------------------------------------------------------------------ *)
(* Request intake: build the job (dispatching pool work now), enqueue *)

let start_request resident conn ~req_id req =
  let t0_ns = Telemetry.Probe.now_ns () in
  let enqueue kind active =
    Queue.push { active; kind; req_id; t0_ns } conn.jobs_q
  in
  match req with
  | P.Ping -> enqueue "ping" (Aimmediate req)
  | P.Status -> enqueue "status" (Aimmediate req)
  | P.Metrics -> enqueue "metrics" (Aimmediate req)
  | P.Shutdown -> enqueue "shutdown" (Aimmediate req)
  | P.Eval _ -> enqueue "eval" (Aimmediate req)
  | P.Lint { style } ->
    let cached = Hashtbl.find_opt resident.lint_cache style in
    let task =
      match cached with
      | Some report ->
        Metrics.incr c_lint_cache_hits;
        Sched.Task.of_result report
      | None ->
        Sched.Pool.submit resident.pool (fun () ->
            Analysis.Lint.run ~pool:resident.pool
              [
                Analysis.Lint.Generated
                  {
                    label = "generated:tls-" ^ P.style_name style;
                    spec = Tls.Model.spec (model_style style);
                  };
              ])
    in
    enqueue "lint" (Alint { style; task; cached = cached <> None })
  | P.Secrecy { style } ->
    let cached = Hashtbl.find_opt resident.secrecy_cache style in
    let task =
      match cached with
      | Some result ->
        Metrics.incr c_secrecy_cache_hits;
        Sched.Task.of_result result
      | None ->
        Sched.Pool.submit resident.pool (fun () ->
            Analysis.Secrecy.analyze (Tls.Model.spec (model_style style)))
    in
    enqueue "secrecy" (Asecrecy { style; task; cached = cached <> None })
  | P.Check { cert } -> (
    match Certify.Cert.of_string cert with
    | Error msg ->
      enqueue "check"
        (Aerror
           {
             responses =
               [
                 P.Rerror
                   { code = "bad-request"; msg = "malformed certificate: " ^ msg };
               ];
             exit_code = Exit.usage;
           })
    | Ok cert ->
      let task =
        Sched.Pool.submit resident.pool (fun () ->
            Analysis.Certgen.check ~pool:resident.pool cert)
      in
      enqueue "check" (Acheck { task }))
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
    | Error name ->
      enqueue "verify"
        (Aerror
           {
             responses =
               [
                 P.Rerror
                   {
                     code = "bad-request";
                     msg = Printf.sprintf "unknown proof %S" name;
                   };
               ];
             exit_code = Exit.usage;
           })
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
           carry no trace) and runs as one pool task: every red is traced,
           then the trace plus the per-style static evidence (LPO, joins —
           computed once and kept resident) becomes the certificate. *)
        let task =
          Sched.Pool.submit resident.pool (fun () ->
              Telemetry.Probe.with_span ~always:true ~cat:"server"
                "verify-certify"
              @@ fun () ->
              let tr = Kernel.Rewrite.tracer () in
              Kernel.Rewrite.set_tracer (Some tr);
              let results =
                Fun.protect
                  ~finally:(fun () -> Kernel.Rewrite.set_tracer None)
                  (fun () ->
                    List.map
                      (fun (neg, proof) ->
                        neg, Proofs.Tls_invariants.run ~pool:resident.pool env proof)
                      obligations)
              in
              let spec = Tls.Model.spec mstyle in
              let precedence, joins =
                match Hashtbl.find_opt resident.static_certs style with
                | Some sc -> sc
                | None ->
                  let term = Analysis.Termination.check spec in
                  let prec =
                    if term.Analysis.Termination.certified then
                      Some
                        term.Analysis.Termination.search
                          .Kernel.Order.precedence
                    else None
                  in
                  let conf =
                    Analysis.Confluence.check ~pool:resident.pool
                      ~certify:true spec
                  in
                  let sc = prec, conf.Analysis.Confluence.certs in
                  Hashtbl.replace resident.static_certs style sc;
                  sc
              in
              let b = Analysis.Certgen.create () in
              Analysis.Certgen.add_obligations b (Kernel.Rewrite.obligations tr);
              (match precedence with
              | Some p ->
                Analysis.Certgen.add_lpo b ~precedence:p
                  (Cafeobj.Spec.all_rules spec)
              | None -> ());
              Analysis.Certgen.add_joins b
                ~rules:(Cafeobj.Spec.all_rules spec)
                joins;
              results, Certify.Cert.to_string (Analysis.Certgen.cert b))
        in
        enqueue "verify" (Acert { task })
      end
      else
      let todo =
        List.map
          (fun (neg, proof) ->
            let name = Proofs.Tls_invariants.name_of proof in
            let key =
              Printf.sprintf "verify:%s:%s" (P.style_name style) name
            in
            let task, _how =
              Registry.find_or_submit ~requester:req_id resident.registry ~key
                (fun () ->
                  Sched.Pool.submit resident.pool (fun () ->
                      Telemetry.Probe.with_span ~always:true ~cat:"server"
                        ("obligation:" ^ name)
                      @@ fun () ->
                      Proofs.Tls_invariants.run ~pool:resident.pool env proof))
            in
            neg, task)
          obligations
      in
      enqueue "verify"
        (Averify
           {
             todo;
             results = [];
             timed_out = false;
             unexpected = false;
             errored = false;
           }))

(* ------------------------------------------------------------------ *)
(* Job progress: pump the head job of a connection as far as it goes *)

let progress resident conn ~request_shutdown =
  let rec pump () =
    match Queue.peek_opt conn.jobs_q with
    | None -> ()
    | Some job -> (
      match job.active with
      | Aimmediate req ->
        let exit_code =
          match req with
          | P.Ping ->
            send conn
              (P.Pong { pid = Unix.getpid (); uptime_s = uptime_s resident });
            Exit.ok
          | P.Status ->
            send conn
              (P.Rstatus
                 {
                   uptime_s = uptime_s resident;
                   jobs = Sched.Pool.jobs resident.pool;
                   requests = resident.served;
                   in_flight = Registry.in_flight_count resident.registry;
                   dedup_hits =
                     Metrics.value (Metrics.counter "server.dedup.hits");
                   dedup_misses =
                     Metrics.value (Metrics.counter "server.dedup.misses");
                   styles = List.map fst resident.envs;
                 });
            Exit.ok
          | P.Metrics ->
            send conn (metrics_response resident);
            Exit.ok
          | P.Shutdown ->
            request_shutdown ();
            Exit.ok
          | P.Eval { src; step_limit; deadline_s } ->
            handle_eval resident ~step_limit ~deadline_s src (send conn)
          | _ -> Exit.ok
        in
        finish_job resident conn job ~exit_code;
        pump ()
      | Aerror { responses; exit_code } ->
        List.iter (send conn) responses;
        finish_job resident conn job ~exit_code;
        pump ()
      | Alint a -> (
        match Sched.Task.poll a.task with
        | None -> ()
        | Some report ->
          if not (Hashtbl.mem resident.lint_cache a.style) then
            Hashtbl.replace resident.lint_cache a.style report;
          send conn
            (P.Rlint
               {
                 errors = report.Analysis.Lint.errors;
                 warnings = report.Analysis.Lint.warnings;
                 infos = report.Analysis.Lint.infos;
                 cached = a.cached;
                 text = Format.asprintf "%a" Analysis.Lint.pp_report report;
               });
          finish_job resident conn job
            ~exit_code:
              (if report.Analysis.Lint.errors > 0 then Exit.failure else Exit.ok);
          pump ()
        | exception e ->
          send conn (P.Rerror { code = "server"; msg = Printexc.to_string e });
          finish_job resident conn job ~exit_code:Exit.failure;
          pump ())
      | Asecrecy a -> (
        match Sched.Task.poll a.task with
        | None -> ()
        | Some result ->
          if not (Hashtbl.mem resident.secrecy_cache a.style) then
            Hashtbl.replace resident.secrecy_cache a.style result;
          let verdict = Analysis.Secrecy.verdict_name result in
          send conn
            (P.Rsecrecy
               {
                 verdict;
                 clauses = result.Analysis.Secrecy.r_clauses;
                 facts = result.Analysis.Secrecy.r_facts;
                 rounds = result.Analysis.Secrecy.r_rounds;
                 resolutions = result.Analysis.Secrecy.r_resolutions;
                 cached = a.cached;
               });
          finish_job resident conn job
            ~exit_code:
              (match result.Analysis.Secrecy.r_verdict with
              | Analysis.Secrecy.Secure | Analysis.Secrecy.Not_applicable _ ->
                Exit.ok
              | Analysis.Secrecy.Leak _ | Analysis.Secrecy.Inconclusive ->
                Exit.failure);
          pump ()
        | exception e ->
          send conn (P.Rerror { code = "server"; msg = Printexc.to_string e });
          finish_job resident conn job ~exit_code:Exit.failure;
          pump ())
      | Acert a -> (
        match Sched.Task.poll a.task with
        | None -> ()
        | Some (results, cert) ->
          let unexpected = ref false in
          List.iter
            (fun (neg, r) ->
              send conn (P.Rverdict (verdict_of_result ~negative:neg r));
              if neg && r.Core.Induction.proved then unexpected := true)
            results;
          let positives =
            List.filter_map (fun (neg, r) -> if neg then None else Some r) results
          in
          let summary = Core.Report.summarize positives in
          send conn
            (P.Rsummary
               {
                 invariants =
                   ( summary.Core.Report.invariants_proved,
                     summary.Core.Report.invariants_total );
                 cases =
                   ( summary.Core.Report.cases_proved,
                     summary.Core.Report.cases_total );
                 splits = summary.Core.Report.total_splits;
                 steps = summary.Core.Report.total_rewrite_steps;
                 text = Format.asprintf "%a" Core.Report.pp_summary summary;
               });
          send conn (P.Rcert { cert });
          finish_job resident conn job
            ~exit_code:
              (if !unexpected || Core.Report.failures positives <> [] then
                 Exit.failure
               else Exit.ok);
          pump ()
        | exception Kernel.Rewrite.Limit_exceeded { limit; steps } ->
          Metrics.incr c_timeouts;
          Log.warn "timeout"
            [ "id", Log.S job.req_id; "kind", Log.S job.kind; "steps", Log.I steps ];
          flight_dump resident "limit-exceeded: verify-certify";
          Kernel.Rewrite.set_tracer None;
          let limit =
            match limit with
            | Kernel.Rewrite.Steps n -> `Steps n
            | Kernel.Rewrite.Deadline d -> `Deadline d
          in
          send conn (P.Rtimeout { limit; steps; name = "obligation" });
          finish_job resident conn job ~exit_code:Exit.timeout;
          pump ()
        | exception e ->
          Kernel.Rewrite.set_tracer None;
          send conn (P.Rerror { code = "server"; msg = Printexc.to_string e });
          finish_job resident conn job ~exit_code:Exit.failure;
          pump ())
      | Acheck a -> (
        match Sched.Task.poll a.task with
        | None -> ()
        | Some res ->
          send conn
            (P.Rcheck
               {
                 ok = res.Analysis.Certgen.errors = [];
                 obligations = res.Analysis.Certgen.obligations;
                 steps = res.Analysis.Certgen.steps_replayed;
                 errors =
                   List.map
                     (fun (e : Certify.Check.error) ->
                       e.Certify.Check.e_path, e.Certify.Check.e_msg)
                     res.Analysis.Certgen.errors;
               });
          finish_job resident conn job
            ~exit_code:
              (if res.Analysis.Certgen.errors = [] then Exit.ok else Exit.failure);
          pump ()
        | exception e ->
          send conn (P.Rerror { code = "server"; msg = Printexc.to_string e });
          finish_job resident conn job ~exit_code:Exit.failure;
          pump ())
      | Averify a -> (
        match a.todo with
        | [] ->
          let results = List.rev a.results in
          let summary = Core.Report.summarize results in
          send conn
            (P.Rsummary
               {
                 invariants =
                   ( summary.Core.Report.invariants_proved,
                     summary.Core.Report.invariants_total );
                 cases =
                   ( summary.Core.Report.cases_proved,
                     summary.Core.Report.cases_total );
                 splits = summary.Core.Report.total_splits;
                 steps = summary.Core.Report.total_rewrite_steps;
                 text = Format.asprintf "%a" Core.Report.pp_summary summary;
               });
          let exit_code =
            if a.timed_out then Exit.timeout
            else if
              a.errored || a.unexpected
              || Core.Report.failures results <> []
            then Exit.failure
            else Exit.ok
          in
          finish_job resident conn job ~exit_code;
          pump ()
        | (neg, task) :: rest -> (
          match Sched.Task.poll task with
          | None -> ()
          | Some r ->
            send conn (P.Rverdict (verdict_of_result ~negative:neg r));
            if neg then begin
              if r.Core.Induction.proved then a.unexpected <- true
            end
            else a.results <- r :: a.results;
            a.todo <- rest;
            pump ()
          | exception Kernel.Rewrite.Limit_exceeded { limit; steps } ->
            Metrics.incr c_timeouts;
            Log.warn "timeout"
              [
                "id", Log.S job.req_id;
                "kind", Log.S job.kind;
                "steps", Log.I steps;
              ];
            flight_dump resident "limit-exceeded: obligation";
            let limit =
              match limit with
              | Kernel.Rewrite.Steps n -> `Steps n
              | Kernel.Rewrite.Deadline d -> `Deadline d
            in
            send conn (P.Rtimeout { limit; steps; name = "obligation" });
            a.timed_out <- true;
            a.todo <- rest;
            pump ()
          | exception e ->
            send conn
              (P.Rerror { code = "server"; msg = Printexc.to_string e });
            a.errored <- true;
            a.todo <- rest;
            pump ())))
  in
  pump ()

(* ------------------------------------------------------------------ *)
(* Socket plumbing *)

let flush_conn conn =
  if has_output conn then begin
    let bytes = Buffer.to_bytes conn.out in
    let len = Bytes.length bytes - conn.out_off in
    match Unix.write conn.fd bytes conn.out_off len with
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

let read_conn resident conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> conn.dead <- true
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (ECONNRESET, _, _) -> conn.dead <- true
  | n ->
    conn.last_active <- Unix.gettimeofday ();
    P.Frame.feed conn.dec chunk 0 n;
    let rec drain_frames () =
      match P.Frame.next conn.dec with
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
          if Telemetry.Probe.enabled () then
            Telemetry.Probe.with_request (Some req_id) (fun () ->
                start_request resident conn ~req_id req)
          else start_request resident conn ~req_id req
        | Error msg ->
          Metrics.incr c_protocol_errors;
          Log.warn "protocol_error" [ "msg", Log.S msg ];
          send conn (P.Rerror { code = "protocol"; msg });
          send conn (P.Done { exit_code = Exit.usage }));
        drain_frames ()
      | Error msg ->
        (* framing is unrecoverable: answer, then close once flushed *)
        Metrics.incr c_protocol_errors;
        Log.warn "protocol_error" [ "msg", Log.S msg ];
        send conn (P.Rerror { code = "protocol"; msg });
        send conn (P.Done { exit_code = Exit.usage });
        conn.closing <- true
    in
    drain_frames ()

(* ------------------------------------------------------------------ *)
(* The HTTP sidecar: GET /metrics, /healthz, /statusz on a loopback TCP
   port, multiplexed through the same select() loop as the wire protocol
   so a scrape can never be starved by (or starve) proof work. *)

type hconn = {
  hfd : Unix.file_descr;
  hin : Buffer.t;
  mutable hout : string;  (* "" until the response is computed *)
  mutable hout_off : int;
  mutable hdead : bool;
}

let statusz_json resident ~draining =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"uptime_s\":%.3f,\"pid\":%d,\"jobs\":%d,\"draining\":%b,\
        \"requests_served\":%d,\"queue_depth\":%d"
       (uptime_s resident) (Unix.getpid ())
       (Sched.Pool.jobs resident.pool)
       draining resident.served resident.pending);
  Buffer.add_string b
    (Printf.sprintf
       ",\"registry\":{\"entries\":%d,\"in_flight\":%d,\"dedup_hits\":%d,\
        \"dedup_misses\":%d}"
       (Registry.size resident.registry)
       (Registry.in_flight_count resident.registry)
       (Metrics.value (Metrics.counter "server.dedup.hits"))
       (Metrics.value (Metrics.counter "server.dedup.misses")));
  Buffer.add_string b ",\"styles\":[";
  List.iteri
    (fun i (s, _) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\"" (P.style_name s)))
    resident.envs;
  Buffer.add_string b "]";
  Buffer.add_string b
    (Printf.sprintf ",\"build\":{\"ocaml\":\"%s\"}"
       (Obs.json_escape Sys.ocaml_version));
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
           (Metrics.snapshot ()))
    | "/healthz" ->
      if draining then Obs.Http.response ~status:503 "draining\n"
      else Obs.Http.response "ok\n"
    | "/statusz" ->
      Obs.Http.response ~content_type:"application/json"
        (statusz_json resident ~draining)
    | _ -> Obs.Http.response ~status:404 "not found\n"

(* ------------------------------------------------------------------ *)
(* The server proper *)

let stop_flag = Atomic.make false
let quit_flag = Atomic.make false

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
  (* Load the specs once: both proof environments are built before the
     first request, so every request — including the first — runs against
     the resident term universe. *)
  let resident =
    {
      pool;
      envs =
        [
          P.Original, Tls.Model.env Tls.Model.Original;
          P.Variant, Tls.Model.env Tls.Model.Cf2First;
        ];
      registry = Registry.create ();
      lint_cache = Hashtbl.create 4;
      secrecy_cache = Hashtbl.create 4;
      static_certs = Hashtbl.create 4;
      eval_env = Cafeobj.Eval.create ();
      started_ns = Telemetry.Probe.now_ns ();
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
  let hconns : (Unix.file_descr, hconn) Hashtbl.t = Hashtbl.create 8 in
  let draining = ref false in
  let listening = ref true in
  let request_shutdown () = Atomic.set stop_flag true in
  let cleanup () =
    Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
    Hashtbl.reset conns;
    Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) hconns;
    Hashtbl.reset hconns;
    (match hlfd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    if !listening then (try Unix.close lfd with Unix.Unix_error _ -> ());
    (try Unix.unlink config.socket with Unix.Unix_error _ -> ());
    Sched.Pool.shutdown pool;
    List.iter (fun (signum, old) -> Sys.set_signal signum old) !previous_signals;
    Sys.set_signal Sys.sigpipe old_pipe;
    Log.info "daemon_exit" [ "served", Log.I resident.served ];
    if opened_sink then Log.close_sink ();
    if config.flight_path <> None && not flight_was_enabled then
      Flight.set_enabled false
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let accept_all () =
    let rec go () =
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
        Unix.set_nonblock fd;
        Metrics.incr c_connections;
        Hashtbl.replace conns fd
          {
            fd;
            dec = P.Frame.decoder ~max_frame:config.max_frame ();
            out = Buffer.create 1024;
            out_off = 0;
            jobs_q = Queue.create ();
            last_active = Unix.gettimeofday ();
            closing = false;
            dead = false;
          };
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    in
    go ()
  in
  let pending_jobs () =
    Hashtbl.fold (fun _ c n -> n + Queue.length c.jobs_q) conns 0
  in
  let accept_http lfd =
    let rec go () =
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
        Unix.set_nonblock fd;
        Hashtbl.replace hconns fd
          {
            hfd = fd;
            hin = Buffer.create 256;
            hout = "";
            hout_off = 0;
            hdead = false;
          };
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    in
    go ()
  in
  let read_http h =
    let chunk = Bytes.create 4096 in
    match Unix.read h.hfd chunk 0 (Bytes.length chunk) with
    | 0 -> h.hdead <- true
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (ECONNRESET, _, _) -> h.hdead <- true
    | n ->
      Buffer.add_subbytes h.hin chunk 0 n;
      if String.equal h.hout "" then begin
        match Obs.Http.parse (Buffer.contents h.hin) with
        | `Partial -> ()
        | `Bad -> h.hout <- Obs.Http.response ~status:400 "bad request\n"
        | `Ready r -> h.hout <- http_route resident ~draining:!draining r
      end
  in
  let write_http h =
    let len = String.length h.hout - h.hout_off in
    if len > 0 then
      match Unix.write_substring h.hfd h.hout h.hout_off len with
      | n ->
        h.hout_off <- h.hout_off + n;
        (* Connection: close — one exchange per connection *)
        if h.hout_off >= String.length h.hout then h.hdead <- true
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
        h.hdead <- true
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
       (* pump every connection's head job, then flush what it produced *)
       Hashtbl.iter
         (fun _ c ->
           if not c.dead then begin
             progress resident c ~request_shutdown;
             flush_conn c
           end)
         conns;
       resident.pending <- pending_jobs ();
       (* a 1-job pool has no workers: the loop lends its own domain *)
       if Sched.Pool.jobs pool = 1 && resident.pending > 0 then
         ignore (Sched.Pool.try_help pool : bool);
       let rfds =
         (if !listening then [ lfd ] else [])
         (* the HTTP listener stays up through the drain: health checks
            must be able to observe the 503 flip *)
         @ (match hlfd with Some fd -> [ fd ] | None -> [])
         @ Hashtbl.fold
             (fun fd c acc -> if c.closing || c.dead then acc else fd :: acc)
             conns []
         @ Hashtbl.fold
             (fun fd h acc ->
               if h.hdead || not (String.equal h.hout "") then acc
               else fd :: acc)
             hconns []
       in
       let wfds =
         Hashtbl.fold
           (fun fd c acc ->
             if (not c.dead) && has_output c then fd :: acc else acc)
           conns []
         @ Hashtbl.fold
             (fun fd h acc ->
               if (not h.hdead) && not (String.equal h.hout "") then fd :: acc
               else acc)
             hconns []
       in
       let timeout = if resident.pending > 0 then 0.005 else 0.25 in
       let readable, writable =
         match Unix.select rfds wfds [] timeout with
         | r, w, _ -> r, w
         | exception Unix.Unix_error (EINTR, _, _) -> [], []
       in
       List.iter
         (fun fd ->
           if fd = lfd && !listening then accept_all ()
           else if hlfd = Some fd then accept_http fd
           else
             match Hashtbl.find_opt conns fd with
             | Some c when not c.dead -> read_conn resident c
             | _ -> (
               match Hashtbl.find_opt hconns fd with
               | Some h when not h.hdead -> read_http h
               | _ -> ()))
         readable;
       List.iter
         (fun fd ->
           match Hashtbl.find_opt conns fd with
           | Some c when not c.dead -> flush_conn c
           | _ -> (
             match Hashtbl.find_opt hconns fd with
             | Some h when not h.hdead -> write_http h
             | _ -> ()))
         writable;
       (* close idle, drained and broken connections *)
       let now = Unix.gettimeofday () in
       let doomed =
         Hashtbl.fold
           (fun fd c acc ->
             let drained = Queue.is_empty c.jobs_q && not (has_output c) in
             if
               c.dead
               || (c.closing && drained)
               || (!draining && drained)
               || (config.idle_timeout_s > 0. && drained
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
       let hdoomed =
         Hashtbl.fold (fun fd h acc -> if h.hdead then fd :: acc else acc)
           hconns []
       in
       List.iter
         (fun fd ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           Hashtbl.remove hconns fd)
         hdoomed;
       if !draining && Hashtbl.length conns = 0 then finished := true
     done
   with e ->
     (* the flight recorder's raison d'être: capture the last moments
        before the event loop dies *)
     Log.error "crash" [ "exn", Log.S (Printexc.to_string e) ];
     flight_dump resident ("crash: " ^ Printexc.to_string e);
     raise e)
