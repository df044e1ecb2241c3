(* check — replay a proof certificate with the independent checker.

   Usage:
     check FILE            validate every obligation in FILE
     check FILE --json     machine-readable report on stdout
     check FILE --jobs N   chunk obligations across N domains
     check FILE --profile  record telemetry, print a hotspot report
     check FILE --trace-out OUT  write a Chrome/Perfetto trace of the replay

   This binary deliberately links only [certify] (the trusted replay
   kernel), [sched] (a generic domain pool) and [telemetry] (passive
   observation): the rewriting engine, AC matcher and proof strategy are
   nowhere in the executable, so accepting a certificate depends on
   nothing the engine computed.

   Exit status (Telemetry.Cli.Exit, shared by verify / lint / check):
     0  certificate accepted
     1  certificate rejected (diagnostics on stderr, or in the JSON report)
     2  usage error, unreadable file or malformed certificate *)

module Exit = Telemetry.Cli.Exit

let usage = "check FILE [--json] [--jobs N] [--profile] [--trace-out OUT]"

let () =
  let json = ref false in
  let jobs = ref 1 in
  let file = ref "" in
  let profile = ref false in
  let trace_out = ref "" in
  let spec =
    [
      "--json", Arg.Set json, "print a machine-readable report";
      "--jobs", Arg.Set_int jobs, "N number of domains (default: 1)";
      "--profile", Arg.Set profile, "record telemetry and print a hotspot report";
      ( "--trace-out",
        Arg.Set_string trace_out,
        "OUT write a Chrome/Perfetto trace (implies recording)" );
    ]
  in
  Arg.parse spec
    (fun s ->
      if !file = "" then file := s
      else raise (Arg.Bad ("unexpected argument " ^ s)))
    usage;
  if !file = "" then begin
    prerr_endline ("check: no certificate file given\nusage: " ^ usage);
    exit Exit.usage
  end;
  if !jobs < 1 then begin
    prerr_endline "check: --jobs must be at least 1";
    exit Exit.usage
  end;
  let contents =
    try In_channel.with_open_bin !file In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "check: %s\n" msg;
      exit Exit.usage
  in
  let cert =
    match Certify.Cert.of_string contents with
    | Ok c -> c
    | Error msg ->
      Printf.eprintf "check: %s: %s\n" !file msg;
      exit Exit.usage
  in
  let t0 = Sys.time () in
  Telemetry.Cli.setup ~profile:!profile ~trace_out:!trace_out ();
  let map replay_job work =
    let run job =
      Telemetry.Probe.with_span ~always:true ~cat:"check"
        (Certify.Check.job_label job) (fun () -> replay_job job)
    in
    if !jobs = 1 then List.map run work
    else Sched.Pool.with_pool ~jobs:!jobs (fun pool -> Sched.Pool.parallel_map pool run work)
  in
  let errors, steps = Certify.Check.replay ~chunks:(!jobs * 4) ~map cert in
  Telemetry.Cli.flush ~process_name:"check" ~profile:!profile
    ~trace_out:!trace_out ();
  let dt = Sys.time () -. t0 in
  let nred = List.length cert.Certify.Cert.reds in
  let njoin = List.length cert.Certify.Cert.joins in
  let has_lpo = cert.Certify.Cert.lpo <> None in
  if !json then begin
    let esc = Telemetry.Flight.json_escape in
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"file\":\"%s\",\"ok\":%b,\"reds\":%d,\"joins\":%d,\"lpo\":%b,\
          \"steps_replayed\":%d,\"cert_bytes\":%d,\"check_ms\":%.1f,\"errors\":["
         (esc !file) (errors = []) nred njoin has_lpo steps
         (String.length contents) (dt *. 1000.));
    List.iteri
      (fun i (e : Certify.Check.error) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"path\":\"%s\",\"msg\":\"%s\"}" (esc e.e_path)
             (esc e.e_msg)))
      errors;
    Buffer.add_string b "]}";
    print_endline (Buffer.contents b)
  end
  else begin
    Printf.printf "check: %s: %d red(s), %d join(s)%s; %d steps replayed in %.2fs\n"
      !file nred njoin
      (if has_lpo then ", lpo certificate" else "")
      steps dt;
    List.iter
      (fun e -> Format.eprintf "check: %a@." Certify.Check.pp_error e)
      errors;
    if errors = [] then print_endline "check: certificate ACCEPTED"
    else Printf.eprintf "check: certificate REJECTED (%d error(s))\n" (List.length errors)
  end;
  if errors <> [] then exit Exit.failure
