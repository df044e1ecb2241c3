(* lint — statically certify the rewrite systems behind red.

   Usage:
     lint specs/*.cafe             lint CafeOBJ files
     lint --tls                    lint the generated TLS handshake spec
     lint --tls-variant            lint the generated Cf2First variant spec
     lint --json FILE              also write machine-readable diagnostics
     lint --only CHECKER           run one checker (repeatable);
     lint --skip CHECKER           or skip one (repeatable); checkers:
                                   termination confluence completeness
                                   hygiene coverage secrecy flow
     lint --allow SPEC:CODE        demote a known finding to info
                                   (repeatable), e.g. LEAKY:secret-leaks
     lint --sarif FILE             write a SARIF 2.1.0 report for CI
                                   code-scanning / PR annotation
     lint --dot FILE               write the action dependency graph(s)
                                   with proved independence edges as
                                   Graphviz (needs flow + independence)
     lint --prec f,g,h             seed the termination precedence
                                   (later = greater)
     lint --budget N               rewrite steps per critical-pair join
     lint --fuel N                 case splits per critical-pair join
     lint --jobs N                 join critical pairs on N domains
     lint --profile                record telemetry, print a hotspot report
     lint --trace-out FILE         write a Chrome/Perfetto trace of the run

   Exit status (Telemetry.Cli.Exit, shared by verify / lint / check):
     0  no error-severity diagnostics
     1  at least one error diagnostic
     2  usage error *)

module Exit = Telemetry.Cli.Exit

let () =
  let files = ref [] in
  let tls = ref false in
  let tls_variant = ref false in
  let json = ref "" in
  let sarif = ref "" in
  let dot = ref "" in
  let only = ref [] in
  let skip = ref [] in
  let allow = ref [] in
  let prec = ref "" in
  let budget = ref Analysis.Lint.default_options.Analysis.Lint.budget in
  let fuel = ref Analysis.Lint.default_options.Analysis.Lint.fuel in
  let profile = ref false in
  let trace_out = ref "" in
  let jobs = ref (Domain.recommended_domain_count ()) in
  let spec =
    [
      "--tls", Arg.Set tls, "lint the generated TLS handshake spec";
      "--tls-variant", Arg.Set tls_variant, "lint the generated Cf2First variant";
      "--json", Arg.Set_string json, "FILE write the JSON report to FILE";
      "--sarif", Arg.Set_string sarif, "FILE write a SARIF 2.1.0 report to FILE";
      "--dot", Arg.Set_string dot, "FILE write the action dependency graph(s) as Graphviz";
      "--only", Arg.String (fun s -> only := s :: !only), "CHECKER run only this checker (repeatable)";
      "--skip", Arg.String (fun s -> skip := s :: !skip), "CHECKER skip this checker (repeatable)";
      "--allow", Arg.String (fun s -> allow := s :: !allow), "SPEC:CODE demote a known finding to info (repeatable)";
      "--prec", Arg.Set_string prec, "OPS comma-separated precedence seed, later = greater";
      "--budget", Arg.Set_int budget, "N rewrite steps per critical-pair join (default 20000)";
      "--fuel", Arg.Set_int fuel, "N case splits per critical-pair join (default 8)";
      "--jobs", Arg.Set_int jobs, "N number of domains (default: cores)";
      "--profile", Arg.Set profile, "record telemetry and print a hotspot report";
      ( "--trace-out",
        Arg.Set_string trace_out,
        "FILE write a Chrome/Perfetto trace (implies recording)" );
    ]
  in
  Arg.parse spec (fun f -> files := f :: !files) "lint [options] [files]";
  let sources =
    List.map (fun f -> Analysis.Lint.File f) (List.rev !files)
    @ (if !tls then
         [ Analysis.Lint.Generated { label = "generated:tls"; spec = Tls.Model.spec Tls.Model.Original } ]
       else [])
    @
    if !tls_variant then
      [ Analysis.Lint.Generated { label = "generated:tls-variant"; spec = Tls.Model.spec Tls.Model.Cf2First } ]
    else []
  in
  if sources = [] then begin
    prerr_endline "lint: nothing to lint (pass files, --tls or --tls-variant)";
    exit Exit.usage
  end;
  if !jobs < 1 then begin
    prerr_endline "lint: --jobs must be at least 1";
    exit Exit.usage
  end;
  let opts =
    {
      Analysis.Lint.only = List.rev !only;
      skip = List.rev !skip;
      hint =
        (if !prec = "" then []
         else String.split_on_char ',' !prec |> List.map String.trim);
      budget = !budget;
      fuel = !fuel;
      allow = List.rev !allow;
    }
  in
  Telemetry.Cli.setup ~profile:!profile ~trace_out:!trace_out ();
  let report =
    try
      Sched.Pool.with_pool ~jobs:!jobs @@ fun pool ->
      Analysis.Lint.run ~pool ~opts sources
    with Invalid_argument m ->
      prerr_endline ("lint: " ^ m);
      exit Exit.usage
  in
  Format.printf "%a" Analysis.Lint.pp_report report;
  if !json <> "" then begin
    let oc = open_out !json in
    output_string oc (Analysis.Lint.report_to_json report);
    close_out oc;
    Format.printf "wrote %s@." !json
  end;
  if !sarif <> "" then begin
    Analysis.Sarif.write !sarif report;
    Format.printf "wrote %s@." !sarif
  end;
  if !dot <> "" then begin
    match report.Analysis.Lint.graphs with
    | [] ->
      prerr_endline
        "lint: --dot needs the flow and independence checkers enabled on a \
         module with transitions";
      exit Exit.usage
    | graphs ->
      let oc = open_out !dot in
      List.iter (fun (_, g) -> output_string oc g) graphs;
      close_out oc;
      Format.printf "wrote %s (%d graph%s)@." !dot (List.length graphs)
        (if List.length graphs = 1 then "" else "s")
  end;
  Kernel.Term.publish_intern_gauges ();
  Telemetry.Cli.flush ~process_name:"lint" ~profile:!profile
    ~trace_out:!trace_out ();
  exit (if report.Analysis.Lint.errors > 0 then Exit.failure else Exit.ok)
