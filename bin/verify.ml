(* verify — run the Section-5 verification campaign.

   Usage:
     verify                     run all 18 invariants (original protocol)
     verify --variant           run them for the Cf2First variant
     verify --only inv1         run a single proof
     verify --negative          also attempt the failing properties 2'/3'
     verify --extensions        also prove the two beyond-paper invariants
     verify --lint              gate: statically lint the spec first and
                                refuse to prove over an uncertified system
     verify --stats             print campaign totals only
     verify --jobs N            verify on N domains (work-stealing pool)
     verify --certify           trace every red, rebuild the campaign as a
                                proof certificate (LPO + critical-pair joins
                                included) and replay it with the independent
                                Certify checker
     verify --certify-out FILE  also write the certificate (implies --certify)
     verify --profile           record telemetry and print a hotspot report
                                (top rules by self-time, slowest proof cases)
     verify --trace-out FILE    write a Chrome/Perfetto trace of the campaign
                                (implies recording; open at ui.perfetto.dev)
     verify --remote SOCKET     don't prove locally: send the request to a
                                resident verifyd serving SOCKET and stream
                                its verdicts back (see bin/verifyd.ml);
                                with --certify the daemon traces the
                                campaign and streams the certificate over
                                the wire (write it with --certify-out,
                                re-check it with a check request)

   Exit status (Telemetry.Cli.Exit, shared by verify / lint / check / verifyd):
     0  every requested proof succeeded (and, with --negative, the failing
        properties were refuted as the paper predicts)
     1  an invariant was left unproved or refuted, or a negative property
        unexpectedly proved
     2  usage error
     3  the --lint gate failed: the rewrite system behind the proofs is
        not certified (termination/confluence/… error diagnostics) —
        no proof was attempted
     4  certificate rejected: the independent checker refused a recorded
        derivation, the LPO certificate or a join certificate
     5  a reduction exhausted its step budget or deadline (remote runs:
        the server answers a structured timeout verdict, the daemon and
        the connection survive)

   Results are independent of --jobs: every case runs in its own branched
   spec environment, so statistics and outcomes are byte-identical to the
   sequential run — and byte-identical to what a verifyd serving the same
   style answers over the wire. *)

open Core

let run_one ?pool env proof =
  let r = Proofs.Tls_invariants.run ?pool env proof in
  Format.printf "%a@.@." Report.pp_result r;
  r

module Exit = Telemetry.Cli.Exit

(* --remote: ship the request to a resident verifyd and stream its
   verdicts.  [v_text] is the server-side rendering of Report.pp_result,
   so the per-proof output is byte-identical to a local run (modulo
   wall-clock durations); negative verdicts stream after the positives,
   before the campaign summary. *)
let run_remote ~socket ~variant ~only ~negative ~extensions ~stats_only
    ~certify ~certify_out =
  let module P = Server.Protocol in
  let style = if variant then P.Variant else P.Original in
  let req = P.Verify { style; only; negative; extensions; certify } in
  (* a client-generated request id: the daemon stamps it onto its log
     lines, dedup registry entries and (when profiling) telemetry spans,
     so this one invocation can be singled out server-side *)
  let req_id =
    Printf.sprintf "cli-%d-%x" (Unix.getpid ())
      (int_of_float (Unix.gettimeofday () *. 1e3) land 0xffffff)
  in
  Format.printf "request id: %s@." req_id;
  let negative_header = ref false in
  let on_response = function
    | P.Rcert { cert } ->
      if certify_out = "" then
        Format.printf "certify: received a %d-byte certificate@."
          (String.length cert)
      else begin
        let oc = open_out certify_out in
        output_string oc cert;
        output_char oc '\n';
        close_out oc;
        Format.printf "certify: wrote %s (%d bytes)@." certify_out
          (String.length cert)
      end
    | P.Rverdict v ->
      if v.P.v_negative && not !negative_header then begin
        negative_header := true;
        Format.printf "--- negative properties (Section 5.3) ---@."
      end;
      if not stats_only then Format.printf "%s@.@." v.P.v_text
    | P.Rsummary { text; _ } -> Format.printf "%s@." text
    | P.Rtimeout { limit; steps; name } ->
      let limit_s =
        match limit with
        | `Steps n -> Printf.sprintf "%d-step budget" n
        | `Deadline d -> Printf.sprintf "%.3fs deadline" d
      in
      Format.eprintf "verify: %s exhausted its %s after %d steps@." name
        limit_s steps
    | P.Rerror { code; msg } -> Format.eprintf "verify: %s: %s@." code msg
    | _ -> ()
  in
  match
    Server.Client.with_client ~socket (fun c ->
        Server.Client.request ~id:req_id c req ~on_response)
  with
  | code -> code
  | exception Unix.Unix_error (e, _, _) ->
    Format.eprintf "verify: cannot reach verifyd at %s: %s@." socket
      (Unix.error_message e);
    Exit.failure
  | exception Failure msg ->
    Format.eprintf "verify: %s@." msg;
    Exit.failure

let () =
  let variant = ref false in
  let only = ref [] in
  let negative = ref false in
  let extensions = ref false in
  let lint = ref false in
  let stats_only = ref false in
  let certify = ref false in
  let certify_out = ref "" in
  let profile = ref false in
  let trace_out = ref "" in
  let jobs = ref (Domain.recommended_domain_count ()) in
  let remote = ref "" in
  let no_index = ref false in
  let log_file = ref "" in
  let spec =
    [
      "--variant", Arg.Set variant, "verify the Cf2First variant protocol";
      "--only", Arg.String (fun s -> only := s :: !only), "NAME run one proof (repeatable)";
      "--negative", Arg.Set negative, "also attempt properties 2' and 3'";
      "--extensions", Arg.Set extensions, "also prove the beyond-paper invariants";
      "--lint", Arg.Set lint, "lint the spec and refuse to prove over an uncertified system";
      "--stats", Arg.Set stats_only, "print summary only";
      "--certify", Arg.Set certify, "record and independently re-check proof certificates";
      ( "--certify-out",
        Arg.Set_string certify_out,
        "FILE write the certificate to FILE (implies --certify)" );
      "--profile", Arg.Set profile, "record telemetry and print a hotspot report";
      ( "--trace-out",
        Arg.Set_string trace_out,
        "FILE write a Chrome/Perfetto trace (implies recording)" );
      "--jobs", Arg.Set_int jobs, "N number of domains (default: cores)";
      ( "--remote",
        Arg.Set_string remote,
        "SOCKET send the request to a verifyd serving SOCKET" );
      ( "--no-index",
        Arg.Set no_index,
        "select rules by linear scan instead of the discrimination-tree \
         index (results are identical; for differential timing)" );
      ( "--log",
        Arg.Set_string log_file,
        "FILE append structured JSON-lines events to FILE" );
    ]
  in
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s))) "verify [options]";
  if !certify_out <> "" then certify := true;
  if !jobs < 1 then begin
    prerr_endline "verify: --jobs must be at least 1";
    exit Exit.usage
  end;
  if !log_file <> "" then begin
    Telemetry.Log.open_sink !log_file;
    Telemetry.Log.set_level (Some Telemetry.Log.Info);
    Telemetry.Log.info "campaign_start"
      [
        "style",
        Telemetry.Log.S (if !variant then "variant" else "original");
        "remote", Telemetry.Log.B (!remote <> "");
        "jobs", Telemetry.Log.I !jobs;
      ]
  end;
  if !remote <> "" then begin
    if !lint || !profile || !trace_out <> "" then begin
      prerr_endline
        "verify: --lint/--profile/--trace-out do not apply to --remote \
         (the daemon owns its own pool and telemetry)";
      exit Exit.usage
    end;
    let code =
      run_remote ~socket:!remote ~variant:!variant ~only:(List.rev !only)
        ~negative:!negative ~extensions:!extensions ~stats_only:!stats_only
        ~certify:!certify ~certify_out:!certify_out
    in
    if !log_file <> "" then
      Telemetry.Log.info "campaign_done" [ "exit", Telemetry.Log.I code ];
    exit code
  end;
  Telemetry.Cli.setup ~profile:!profile ~trace_out:!trace_out ();
  if !no_index then Kernel.Rewrite.set_default_indexing false;
  let style = if !variant then Tls.Model.Cf2First else Tls.Model.Original in
  let env = Tls.Model.env style in
  (* the base system may already exist (memoized per style) — flip it too *)
  if !no_index then
    Kernel.Rewrite.set_indexing (Core.Induction.system env) false;
  let proofs =
    match !only with
    | [] ->
      Proofs.Tls_invariants.all style
      @ (if !extensions then Proofs.Tls_invariants.extensions style else [])
    | names ->
      List.map
        (fun name ->
          try Proofs.Tls_invariants.find style name
          with Not_found ->
            Printf.eprintf "verify: unknown proof %S (see lib/proofs)\n" name;
            exit Exit.usage)
        (List.rev names)
  in
  let code =
    Sched.Pool.with_pool ~jobs:!jobs @@ fun pool ->
  if !lint then begin
    (* Gate the campaign on the static certificate: a looping or
       non-confluent system makes every red result meaningless. *)
    let label =
      if !variant then "generated:tls-variant" else "generated:tls"
    in
    let t0 = Unix.gettimeofday () in
    let report =
      Analysis.Lint.run ~pool
        [ Analysis.Lint.Generated { label; spec = Tls.Model.spec style } ]
    in
    let dt = Unix.gettimeofday () -. t0 in
    if report.Analysis.Lint.errors > 0 then begin
      List.iter
        (fun d ->
          if d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error then
            Format.eprintf "%a@." Analysis.Diagnostic.pp d)
        report.Analysis.Lint.diagnostics;
      Format.eprintf
        "verify: lint gate failed: %d error(s) — system not certified, \
         refusing to prove@."
        report.Analysis.Lint.errors;
      exit Exit.lint_gate
    end;
    Format.printf "lint gate: %s certified in %.2fs (%d warnings, %d infos)@.@."
      label dt report.Analysis.Lint.warnings report.Analysis.Lint.infos
  end;
  let tracer =
    if !certify then begin
      let tr = Kernel.Rewrite.tracer () in
      Kernel.Rewrite.set_tracer (Some tr);
      Some tr
    end
    else None
  in
  let t0 = Unix.gettimeofday () in
  (* --stats only hides the per-proof reports: the campaign runs the same
     way either way, so what it traces (and certifies) does not depend on
     a display flag *)
  let results =
    Sched.Pool.parallel_map pool
      (fun proof -> Proofs.Tls_invariants.run ~pool env proof)
      proofs
  in
  if not !stats_only then
    List.iter (fun r -> Format.printf "%a@.@." Report.pp_result r) results;
  Kernel.Rewrite.set_tracer None;
  Format.printf "%a@." Report.pp_summary (Report.summarize results);
  Format.printf "wall-clock: %.2fs (%d domain%s)@."
    (Unix.gettimeofday () -. t0)
    !jobs
    (if !jobs = 1 then "" else "s");
  let unexpected_proof = ref false in
  if !negative then begin
    Format.printf "@.--- negative properties (Section 5.3) ---@.";
    List.iter
      (fun p ->
        let r = run_one ~pool env p in
        if r.Induction.proved then unexpected_proof := true)
      [ Proofs.Tls_invariants.prop2' style; Proofs.Tls_invariants.prop3' style ]
  end;
  (match tracer with
  | None -> ()
  | Some tr ->
    (* Rebuild everything the campaign relied on as one certificate — the
       traced reds plus the termination and local-confluence evidence —
       and replay it with the engine-independent checker. *)
    Format.printf "@.--- proof certificate ---@.";
    let spec = Tls.Model.spec style in
    let t0 = Unix.gettimeofday () in
    let static = Analysis.Certgen.static_evidence ~pool spec in
    if static.Analysis.Certgen.precedence = None then
      Format.printf "certify: no LPO certificate (termination search failed)@.";
    let cert =
      Analysis.Certgen.campaign spec static (Kernel.Rewrite.obligations tr)
    in
    let produce_s = Unix.gettimeofday () -. t0 in
    let bytes =
      if !certify_out = "" then String.length (Certify.Cert.to_string cert)
      else begin
        let s = Certify.Cert.to_string cert in
        let oc = open_out !certify_out in
        output_string oc s;
        output_char oc '\n';
        close_out oc;
        String.length s
      end
    in
    let t1 = Unix.gettimeofday () in
    let res = Analysis.Certgen.check ~pool cert in
    let check_s = Unix.gettimeofday () -. t1 in
    Format.printf
      "certify: %d obligations (%d reds, %d joins%s), %d steps replayed, %d bytes@."
      res.Analysis.Certgen.obligations
      (List.length cert.Certify.Cert.reds)
      (List.length cert.Certify.Cert.joins)
      (if cert.Certify.Cert.lpo = None then "" else ", lpo")
      res.Analysis.Certgen.steps_replayed bytes;
    Format.printf "certify: produced in %.2fs, checked in %.2fs@." produce_s check_s;
    if !certify_out <> "" then Format.printf "certify: wrote %s@." !certify_out;
    match res.Analysis.Certgen.errors with
    | [] -> Format.printf "certify: certificate ACCEPTED@."
    | errs ->
      List.iter (fun e -> Format.eprintf "certify: %a@." Certify.Check.pp_error e) errs;
      Format.eprintf "certify: certificate REJECTED (%d error(s))@." (List.length errs);
      exit Exit.cert_rejected);
    let failures = Report.failures results in
    if failures <> [] || !unexpected_proof then Exit.failure else Exit.ok
  in
  (* flush outside with_pool so the shutdown-time utilization gauge and
     every worker's buffers are included; the intern gauges are sampled
     once, after the campaign has settled *)
  Kernel.Term.publish_intern_gauges ();
  Telemetry.Cli.flush ~process_name:"verify" ~profile:!profile
    ~trace_out:!trace_out ();
  if !log_file <> "" then
    Telemetry.Log.info "campaign_done" [ "exit", Telemetry.Log.I code ];
  if code <> 0 then exit code
