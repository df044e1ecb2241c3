(* perfbench — one pass of a benchmark workload in a fresh process.

   Usage:
     perfbench campaign|assure [--seed N] [--trace] [--smoke] [--setup-only]
     perfbench attack [--seed N] [--trace] [--smoke]
     perfbench serve --verifyd EXE --socket PATH [--seed N] [--requests N]
                     [--trace] [--smoke]

   Pools and the daemon run at [Util.jobs] domains.  Prints one JSON
   object on its last line of output: the pass's set-up and window
   measurements, the verdicts to compare with the golden file, and with
   --trace the layers table and per-layer metrics.  The orchestrator
   (perfbench/run.py) runs the passes and aggregates them. *)

let () =
  let seed = ref 0 in
  let traced = ref false in
  let smoke = ref false in
  let setup_only = ref false in
  let verifyd = ref "" in
  let socket = ref "" in
  let requests = ref 2000 in
  let workload = ref "" in
  let spec =
    [
      "--seed", Arg.Set_int seed, "N input seed (submission order, request mix)";
      "--trace", Arg.Set traced, " time every layer from the harness";
      "--smoke", Arg.Set smoke, " tiny inputs";
      "--setup-only", Arg.Set setup_only, " set up, report set-up time, exit (campaign, assure)";
      "--verifyd", Arg.Set_string verifyd, "EXE the verifyd binary (serve)";
      "--socket", Arg.Set_string socket, "PATH socket for verifyd (serve)";
      "--requests", Arg.Set_int requests, "N measured requests (serve)";
    ]
  in
  Arg.parse spec (fun w -> workload := w) "perfbench WORKLOAD [options]";
  let result =
    match !workload with
    | "campaign" ->
      if !setup_only then Proofs_w.setup_probe ~workload:`Campaign
      else Proofs_w.campaign ~seed:!seed ~smoke:!smoke ~traced:!traced
    | "assure" ->
      if !setup_only then Proofs_w.setup_probe ~workload:`Assure
      else Proofs_w.assure ~seed:!seed ~smoke:!smoke ~traced:!traced
    | "attack" -> Attack_w.attack ~seed:!seed ~smoke:!smoke ~traced:!traced
    | "serve" ->
      if !verifyd = "" || !socket = "" then begin
        prerr_endline "perfbench: serve needs --verifyd EXE and --socket PATH";
        exit 2
      end;
      Serve_w.serve ~verifyd:!verifyd ~socket:!socket ~seed:!seed ~smoke:!smoke
        ~traced:!traced ~requests:!requests
    | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2
  in
  Util.print_json result
