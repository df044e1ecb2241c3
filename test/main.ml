(* Aggregated test runner: each [Test_*] module exports a [suite].

   Every test case is wrapped to accumulate time per suite — on the
   monotonic clock, like every other timing in the stack, so an NTP step
   mid-run cannot produce negative or wild totals.  The footer prints
   after the Alcotest summary, slowest suite first, so the place to
   optimize is always the first line.  Suites that ran no cases (filtered
   out, or registering none) are listed apart instead of skewing the sort
   with 0.000s rows — [Timing] owns that logic and is itself under test
   (see [Test_index.timing_suite]). *)

let timings : (string * int ref * int ref) list ref = ref []

let timed (name, cases) =
  let total = ref 0 in
  let runs = ref 0 in
  timings := !timings @ [ (name, runs, total) ];
  let wrap (case_name, speed, fn) =
    ( case_name,
      speed,
      fun arg ->
        let t0 = Telemetry.Probe.now_ns () in
        Fun.protect
          ~finally:(fun () ->
            incr runs;
            total := !total + (Telemetry.Probe.now_ns () - t0))
          (fun () -> fn arg) )
  in
  (name, List.map wrap cases)

let report () =
  prerr_newline ();
  prerr_string
    (Timing.render
       (List.map
          (fun (name, runs, total) ->
            { Timing.e_name = name; e_runs = !runs; e_ns = !total })
          !timings));
  flush stderr

let () =
  at_exit report;
  Alcotest.run "eqtls"
    (List.map timed
       [
         Test_kernel.suite;
         Test_hashcons.suite;
         Test_differential.suite;
         Test_boolring.suite;
         Test_completion.suite;
         Test_matching_props.suite;
         Test_dolevyao.suite;
         Test_cafeobj.suite;
         Test_analysis.suite;
         Test_export.suite;
         Test_core.suite;
         Test_prover.suite;
         Test_tls.suite;
         Test_proofs.suite;
         Test_mc.suite;
         Test_mc_reduction.suite;
         Test_mc_keys.suite;
         Test_nspk_sym.suite;
         Test_sched.suite;
         Test_secrecy.suite;
         Test_server.suite;
         Test_certify.suite;
         Test_telemetry.suite;
         Test_obs.suite;
         Test_index.suite;
       ])
