(* Benchmark harness: regenerates every evaluation artifact of the paper
   (experiments E1-E11 of DESIGN.md; EXPERIMENTS.md records the
   paper-vs-measured comparison), then measures the figures the CI gates
   read.

   The paper's evaluation is qualitative — which properties hold, which
   fail and with what counterexamples, and how much effort verification
   takes.  [table] is the whole run, in order: each measurement returns
   its report lines, its JSON fields and whether its outcome matches the
   paper's, and the process exits 1 when one does not.  The gate figures
   come after the report and the lint, where they were always measured:
   the same red timed earlier or later in the process reads differently
   (a fresh heap and intern table against a full one). *)

open Kernel

(* one entry of the JSON "experiments" array; [steps]/[splits] are 0 where
   the notion does not apply (model checking counts states) *)
type run = { name : string; wall_s : float; steps : int; splits : int }

type report = {
  lines : string list;
  fields : (string * string) list;  (* root JSON fields, values rendered *)
  runs : run list;
  ok : bool;  (* the outcome matches the paper's *)
}

let report ?(fields = []) ?(runs = []) ?(ok = true) lines =
  { lines; fields; runs; ok }

let merge rs =
  {
    lines = List.concat_map (fun r -> r.lines) rs;
    fields = List.concat_map (fun r -> r.fields) rs;
    runs = List.concat_map (fun r -> r.runs) rs;
    ok = List.for_all (fun r -> r.ok) rs;
  }

let sprintf = Printf.sprintf

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* mean ms per call over [reps] back-to-back calls *)
let ms_per ~reps f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1000. /. float_of_int reps

let median l =
  let a = List.sort compare l in
  List.nth a (List.length a / 2)

(* ------------------------------------------------------------------ *)
(* The paper's report *)

let protocol_runs _pool =
  let line name (run : Tls.Scenario.run) =
    let effective = Tls.Scenario.effective run = [] in
    report ~ok:effective
      [
        sprintf "%s: %d transitions, all effective: %b" name
          (List.length run.Tls.Scenario.steps)
          effective;
      ]
  in
  let full = line "full handshake" (Tls.Scenario.full_handshake ()) in
  merge [ full; line "with resumption" (Tls.Scenario.resumption ()) ]

let campaign ~pool style name =
  let results, dt =
    timed (fun () -> Proofs.Tls_invariants.campaign ~pool style)
  in
  let s = Core.Report.summarize results in
  ( s,
    report
      ~ok:(s.Core.Report.invariants_proved = s.Core.Report.invariants_total)
      ~runs:
        [
          {
            name = "campaign-" ^ String.trim name;
            wall_s = dt;
            steps = s.Core.Report.total_rewrite_steps;
            splits = s.Core.Report.total_splits;
          };
        ]
      [
        sprintf
          "%s: %d/%d invariants proved (%d/%d cases, %d splits, %d rewrite \
           steps) in %.2fs"
          name s.Core.Report.invariants_proved s.Core.Report.invariants_total
          s.Core.Report.cases_proved s.Core.Report.cases_total
          s.Core.Report.total_splits s.Core.Report.total_rewrite_steps dt;
      ] )

let verification pool =
  let s, original = campaign ~pool Tls.Model.Original "original protocol " in
  let env = Tls.Model.env Tls.Model.Original in
  let ext = Proofs.Tls_invariants.extensions Tls.Model.Original in
  let proved =
    List.length
      (List.filter
         (fun (r : Core.Induction.result) -> r.Core.Induction.proved)
         (List.map (Proofs.Tls_invariants.run env) ext))
  in
  merge
    [
      original;
      report
        ~ok:(proved = List.length ext)
        [
          sprintf "E7  effort: %d proof cases checked mechanically vs ~1 week by hand"
            s.Core.Report.cases_total;
          sprintf "extensions beyond the paper: %d/%d proved (%s)" proved
            (List.length ext)
            (String.concat ", " (List.map Proofs.Tls_invariants.name_of ext));
        ];
    ]

let variant pool = snd (campaign ~pool Tls.Model.Cf2First "variant protocol  ")

(* The line for the outcome a search reached ([found] or [clean]); it
   matches the paper when the search found a violation exactly when
   [violation] says the paper did.  [run] names its "experiments" entry. *)
let search ~violation ?run outcome ~found ~clean =
  let stats = Mc.outcome_stats outcome in
  let line, ok =
    match outcome with
    | Mc.Violation (v, _) -> (found v stats, violation)
    | _ -> (clean stats, not violation)
  in
  let runs =
    Option.to_list run
    |> List.map (fun name ->
           { name; wall_s = stats.Mc.elapsed; steps = 0; splits = 0 })
  in
  report ~ok ~runs [ line ]

let explicit_state pool =
  let style = Tls.Model.Original in
  let env = Tls.Model.env style in
  let refuted (name, proof) =
    let r = Proofs.Tls_invariants.run env proof in
    let refuting =
      List.filter_map
        (fun (c : Core.Induction.case_result) ->
          match c.Core.Induction.outcome with
          | Core.Prover.Refuted _ -> Some c.Core.Induction.case_name
          | _ -> None)
        r.Core.Induction.cases
    in
    report ~ok:(not r.Core.Induction.proved)
      [
        sprintf "%s: %s (refuted at %s)" name
          (if r.Core.Induction.proved then "PROVED (unexpected!)"
           else "does not hold")
          (String.concat ", " refuting);
      ]
  in
  let negative =
    List.map refuted
      [
        "property 2'", Proofs.Tls_invariants.prop2' style;
        "property 3'", Proofs.Tls_invariants.prop3' style;
      ]
  in
  let scen = Tls.Concrete.default_scenario () in
  let system = Tls.Concrete.system scen in
  let counterexample ~label ~run ~paper ~max_states ~max_depth prop =
    search ~violation:true ~run
      (Mc.par_bfs ~max_states ~max_depth ~pool system ~props:[ prop ])
      ~found:(fun v stats ->
        sprintf "%s counterexample: depth %d, %d states, %.3fs (paper: %s)"
          label v.Mc.depth stats.Mc.states_explored stats.Mc.elapsed paper)
      ~clean:(fun _ -> label ^ " counterexample NOT found (unexpected)")
  in
  let e4 =
    counterexample ~label:"E4  2'" ~run:"mc-2prime-attack"
      ~paper:"5-message trace" ~max_states:50_000 ~max_depth:6
      ("cf-authentic", Tls.Concrete.prop_cf_authentic)
  in
  let e5 =
    counterexample ~label:"E5  3'" ~run:"mc-3prime-attack"
      ~paper:"4 more messages" ~max_states:100_000 ~max_depth:9
      ("cf2-authentic", Tls.Concrete.prop_cf2_authentic)
  in
  let e8 =
    search ~violation:false ~run:"mc-bounded-sweep"
      (Mc.par_bfs ~max_states:25_000 ~max_depth:6 ~pool system
         ~props:
           [
             "pms-secrecy", Tls.Concrete.prop_pms_secrecy scen;
             "sf-authentic", Tls.Concrete.prop_sf_authentic;
             "sf2-authentic", Tls.Concrete.prop_sf2_authentic;
           ])
      ~found:(fun v _ ->
        sprintf "E8  bounded check VIOLATED %s (unexpected)" v.Mc.property)
      ~clean:(fun stats ->
        sprintf
          "E8  properties 1-3 hold over %d states (depth %d, %.3fs, \
           Murphi-style bound)"
          stats.Mc.states_explored stats.Mc.max_depth stats.Mc.elapsed)
  in
  merge (negative @ [ e4; e5; e8 ])

let oops _pool =
  let scen = { (Tls.Concrete.default_scenario ()) with Tls.Concrete.oops = true } in
  search ~violation:false
    (Mc.bfs ~max_states:25_000 ~max_depth:8 (Tls.Concrete.system scen)
       ~props:
         [
           "pms-secrecy", Tls.Concrete.prop_pms_secrecy scen;
           "sf-authentic", Tls.Concrete.prop_sf_authentic;
           "sf2-authentic", Tls.Concrete.prop_sf2_authentic;
         ])
    ~found:(fun v _ -> sprintf "E11 Oops BROKE %s (unexpected)" v.Mc.property)
    ~clean:(fun stats ->
      sprintf
        "E11 session-key leakage breaks nothing over %d states (Paulson's \
         finding)"
        stats.Mc.states_explored)

let nspk _pool =
  let module P = Nspk.Symbolic_proofs in
  let module M = Nspk.Symbolic in
  let nsl_env = M.proof_env M.Lowe_fixed in
  let nsl =
    List.for_all
      (fun p -> (P.run ~env:nsl_env M.Lowe_fixed p).Core.Induction.proved)
      (P.campaign M.Lowe_fixed)
  in
  let cls_env = M.proof_env M.Classic in
  let cls =
    (P.run ~env:cls_env M.Classic (P.find M.Classic "nonce-secrecy"))
      .Core.Induction.proved
  in
  let symbolic =
    report
      ~ok:(nsl && not cls)
      [
        sprintf
          "E9  symbolic: NSL nonce secrecy %s; classic NSPK secrecy %s \
           (refuted at finishInit)"
          (if nsl then "proved (8 invariants)" else "FAILED (unexpected)")
          (if cls then "PROVED (unexpected!)" else "does not hold");
      ]
  in
  let agreement ~max_states variant =
    Mc.bfs ~max_states ~max_depth:8
      (Nspk.system (Nspk.default_scenario variant))
      ~props:[ "responder-agreement", Nspk.responder_agreement ]
  in
  let attack =
    search ~violation:true
      (agreement ~max_states:100_000 Nspk.Classic)
      ~found:(fun v stats ->
        sprintf "E9  NSPK: Lowe's attack at depth %d (%d states, %.3fs)"
          v.Mc.depth stats.Mc.states_explored stats.Mc.elapsed)
      ~clean:(fun _ -> "E9  NSPK attack NOT found (unexpected)")
  in
  let fixed =
    search ~violation:false
      (agreement ~max_states:60_000 Nspk.Lowe_fixed)
      ~found:(fun _ _ -> "E9  NSL VIOLATED (unexpected)")
      ~clean:(fun stats ->
        sprintf "E9  NSL (Lowe's fix): clean over %d states"
          stats.Mc.states_explored)
  in
  merge [ symbolic; attack; fixed ]

let bool_const name =
  Term.const
    (Cafeobj.Spec.declare_op (Cafeobj.Builtins.bool_spec ()) name [] Sort.bool
       ~attrs:[])

let bool_completeness _pool =
  let p = bool_const "bench-p" in
  let q = bool_const "bench-q" in
  let peirce = Term.implies (Term.implies (Term.implies p q) p) p in
  let by_ring = Boolring.tautology peirce in
  let nf = Rewrite.normalize (Rewrite.make (Boolring.rewrite_rules ())) peirce in
  report
    ~ok:(by_ring && Term.equal nf Term.tt)
    [
      sprintf "peirce's law by polynomial normal form: %b" by_ring;
      Format.asprintf "peirce's law by Hsiang rewriting:       %a" Term.pp nf;
    ]

let lint pool =
  let lr, dt =
    timed (fun () ->
        Analysis.Lint.run ~pool
          [
            Analysis.Lint.Generated
              { label = "generated:tls"; spec = Tls.Model.spec Tls.Model.Original };
          ])
  in
  report
    ~ok:(lr.Analysis.Lint.errors = 0)
    [
      sprintf
        "E13 lint: generated TLS spec certified=%b (%d errors, %d warnings, %d \
         infos) in %.3fs"
        (lr.Analysis.Lint.errors = 0)
        lr.Analysis.Lint.errors lr.Analysis.Lint.warnings lr.Analysis.Lint.infos
        dt;
    ]

(* ------------------------------------------------------------------ *)
(* The figures CI gates read *)

(* The red every timing gate measures: the E1 gleaning observation (is the
   premaster secret in the network after a full handshake?), cold — the
   normal-form memo is cleared before each call. *)
let gleaning_red () =
  let full = Tls.Scenario.full_handshake () in
  let nwt = Tls.Model.nw full.Tls.Scenario.ots (Tls.Scenario.final full) in
  let c = Tls.Scenario.cast in
  let pms =
    Tls.Data.pms_ ~client:c.Tls.Scenario.alice ~server:c.Tls.Scenario.bob
      c.Tls.Scenario.sec1
  in
  let sys = Cafeobj.Spec.system (Tls.Model.spec Tls.Model.Original) in
  let goal = Tls.Data.in_cpms pms nwt in
  ( sys,
    fun () ->
      Rewrite.clear_cache sys;
      ignore (Rewrite.normalize sys goal) )

(* The telemetry guard's figure: CI compares it with the same red timed by
   the seed commit's bench on the same runner. *)
let cold_red _pool =
  let _, red = gleaning_red () in
  red ();
  let ms = ms_per ~reps:50 red in
  report
    ~fields:[ "red_untraced_ms", sprintf "%.3f" ms ]
    [ sprintf "E14 cold red: %.3f ms untraced" ms ]

(* Every invariant of the campaign run alone under the profiler, once with
   the discrimination-tree index and once with the linear scan: the
   root-match attempts are the deterministic counterpart of the E20 timing
   gate.  Spans under 1 ms are not recorded; [spans_dropped] counts spans
   the per-domain buffer cap lost anyway, so nonzero means the profile
   under-reports. *)
let profiled_campaign _pool =
  let env = Tls.Model.env Tls.Model.Original in
  let base = Core.Induction.system env in
  let proofs = Proofs.Tls_invariants.all Tls.Model.Original in
  let n = List.length proofs and dropped = ref 0 in
  (* invariants proved and root-match attempts under one engine *)
  let profile indexing =
    Rewrite.set_default_indexing indexing;
    Rewrite.set_indexing base indexing;
    Telemetry.Probe.set_enabled true;
    let proved = ref 0 and tries = ref 0 in
    List.iter
      (fun proof ->
        Telemetry.Probe.reset ();
        if (Proofs.Tls_invariants.run env proof).Core.Induction.proved then
          incr proved;
        let snap = Telemetry.Probe.snapshot () in
        dropped := !dropped + snap.Telemetry.Probe.sn_dropped;
        List.iter
          (fun (rl : Telemetry.Probe.rule_stat) ->
            tries := !tries + rl.Telemetry.Probe.rl_match_tries)
          snap.Telemetry.Probe.sn_rules)
      proofs;
    Telemetry.Probe.set_enabled false;
    Telemetry.Probe.reset ();
    (!proved, !tries)
  in
  Telemetry.Probe.set_span_min_ns 1_000_000;
  let pi, ti = profile true in
  let pl, tl = profile false in
  Rewrite.set_default_indexing true;
  Rewrite.set_indexing base true;
  report
    ~ok:(pi = n && pl = n)
    ~fields:
      [
        "spans_dropped", string_of_int !dropped;
        "match_tries_indexed", string_of_int ti;
        "match_tries_linear", string_of_int tl;
      ]
    [
      sprintf
        "E16 profiled campaign: %d/%d invariants proved indexed, %d/%d linear; \
         root-match tries %d linear, %d indexed (%.1fx fewer); %d spans dropped"
        pi n pl n tl ti
        (float_of_int tl /. Float.max (float_of_int ti) 1.)
        !dropped;
    ]

(* The cold red under both rule-selection strategies.  The arms alternate,
   round by round, and each reports its median round (ms per red): load
   that comes and goes on the machine then moves a round of each arm alike
   instead of one whole arm. *)
let indexed_matching _pool =
  let sys, red = gleaning_red () in
  let rounds = 11 and reps = 10 in
  let round indexing =
    Rewrite.set_indexing sys indexing;
    ms_per ~reps red
  in
  List.iter (fun indexing -> Rewrite.set_indexing sys indexing; red ()) [ false; true ];
  Index.reset_stats ();
  let arms = List.init rounds (fun _ -> let l = round false in (l, round true)) in
  let linear = median (List.map fst arms) and indexed = median (List.map snd arms) in
  let st = Index.stats () in
  let considered = st.Index.hits + st.Index.filtered in
  let ratio =
    if considered = 0 then 1.
    else float_of_int st.Index.hits /. float_of_int considered
  in
  let ii = Rewrite.index_info sys in
  report
    ~fields:
      [
        "red_linear_ms", sprintf "%.3f" linear;
        "red_indexed_ms", sprintf "%.3f" indexed;
        "index_candidate_ratio", sprintf "%.4f" ratio;
      ]
    [
      sprintf
        "E20 red rule selection: %.3f ms linear, %.3f ms indexed (%.2fx); \
         candidate ratio %.3f (%d rules, %d buckets, %d AC)"
        linear indexed
        (linear /. Float.max indexed 1e-9)
        ratio ii.Index.ix_rules ii.Index.ix_buckets ii.Index.ix_ac_buckets;
    ]

(* A resident server on a fresh socket, shut down and joined after [f]. *)
let with_daemon name ~config_f f =
  let module P = Server.Protocol in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (sprintf "eqtls-bench-%s-%d.sock" name (Unix.getpid ()))
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let config =
    config_f
      {
        (Server.Daemon.default_config ~socket) with
        jobs = 2;
        handle_signals = false;
        flight_path = None;
      }
  in
  let d = Domain.spawn (fun () -> Server.Daemon.run config) in
  let rec wait_up n =
    if n = 0 then failwith "bench: obs verifyd did not come up"
    else
      match Server.Client.connect ~socket with
      | c -> Server.Client.close c
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.05;
        wait_up (n - 1)
  in
  wait_up 400;
  Fun.protect
    ~finally:(fun () ->
      (try
         ignore
           (Server.Client.with_client ~socket (fun c ->
                Server.Client.request c P.Shutdown ~on_response:(fun _ -> ())))
       with _ -> ());
      Domain.join d)
    (fun () -> f socket)

(* Two resident servers, identical except for the observability surface:
   one dark (no exporter, no log, no flight recorder), one with everything
   on.  Both run at once and their warm round trips alternate, round by
   round and in alternating order, as E20's arms do: load that comes and
   goes on the machine then moves both arms alike.  The log threshold and
   the flight recorder are process-wide, so each round first sets them to
   its arm's setting; the exporter and the request ids belong to the lit
   daemon alone.  The medians bound what a production deployment pays per
   request for being observable; the scrape and p99 come from the
   instrumented server itself. *)
let observability _pool =
  let module P = Server.Protocol in
  let req =
    P.Verify
      {
        style = P.Original;
        only = [ "inv1" ];
        negative = false;
        extensions = false;
        certify = false;
      }
  in
  let round ~observed ?id socket =
    Telemetry.Log.set_level (if observed then Some Telemetry.Log.Info else None);
    Telemetry.Flight.set_enabled observed;
    let t0 = Unix.gettimeofday () in
    let _, code =
      Server.Client.with_client ~socket (fun c ->
          Server.Client.request_collect ?id c req)
    in
    if code <> 0 then failwith "bench: obs round-trip failed";
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let port = Atomic.make 0 in
  let log_tmp = Filename.temp_file "eqtls-bench-obs" ".log" in
  let scrape_ms = ref 0. and p99_ms = ref 0. in
  let dark_ms, lit_ms =
    with_daemon "dark" ~config_f:(fun c -> c) @@ fun dark_socket ->
    with_daemon "lit"
      ~config_f:(fun c ->
        {
          c with
          Server.Daemon.metrics_port = Some 0;
          announce_metrics_port = (fun p -> Atomic.set port p);
          log_file = Some log_tmp;
          log_level = Some Telemetry.Log.Info;
          flight_path = Some (c.Server.Daemon.socket ^ ".flight.json");
        })
    @@ fun socket ->
    let dark () = round ~observed:false dark_socket in
    let lit () = round ~observed:true ~id:"bench-obs" socket in
    (* cold: prove once on each, then measure the cached repeats *)
    ignore (dark ());
    ignore (lit ());
    let arms =
      List.init 120 (fun i ->
          if i land 1 = 0 then
            let d = dark () in
            d, lit ()
          else
            let l = lit () in
            dark (), l)
    in
    (* scrape the OpenMetrics endpoint the way Prometheus would *)
    let scrape () =
      let t0 = Unix.gettimeofday () in
      let ic, oc =
        Unix.open_connection (ADDR_INET (Unix.inet_addr_loopback, Atomic.get port))
      in
      output_string oc
        "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
      flush oc;
      let body = In_channel.input_all ic in
      close_out oc;
      if body = "" then failwith "bench: empty scrape";
      (Unix.gettimeofday () -. t0) *. 1000.
    in
    scrape_ms := median (List.init 20 (fun _ -> scrape ()));
    (* the server's own latency distribution, from its always-on
       histograms (p99 is the log2-bucket upper bound) *)
    ignore
      (Server.Client.with_client ~socket (fun c ->
           Server.Client.request c P.Metrics ~on_response:(function
             | P.Rmetrics { histograms; _ } -> (
               match List.assoc_opt "server.request_latency" histograms with
               | Some a when Array.length a = 6 -> p99_ms := a.(4)
               | _ -> ())
             | _ -> ())));
    (* the daemons' shutdowns log nothing *)
    Telemetry.Log.set_level None;
    median (List.map fst arms), median (List.map snd arms)
  in
  Telemetry.Log.set_level None;
  (try Sys.remove log_tmp with Sys_error _ -> ());
  (try Sys.remove (log_tmp ^ ".1") with Sys_error _ -> ());
  let overhead_ms = lit_ms -. dark_ms in
  let overhead_pct = overhead_ms /. Float.max dark_ms 1e-9 *. 100. in
  report
    ~fields:
      [
        "obs_overhead_pct", sprintf "%.2f" overhead_pct;
        "obs_overhead_ms", sprintf "%.3f" overhead_ms;
        "metrics_scrape_ms", sprintf "%.3f" !scrape_ms;
        "server_p99_ms", sprintf "%.3f" !p99_ms;
      ]
    [
      sprintf
        "E21 observability: warm inv1 %.3f ms dark, %.3f ms fully observed \
         (%+.1f%%); /metrics scrape %.2f ms; server p99 %.2f ms"
        dark_ms lit_ms overhead_pct !scrape_ms !p99_ms;
    ]

(* ------------------------------------------------------------------ *)

let table =
  [
    "E1: Figure-2 protocol runs (symbolic execution)", protocol_runs;
    ( "E2+E3+E7: the verification campaign (paper: 18 invariants, ~1 week by hand)",
      verification );
    "E6: the ClientFinished2-first variant (Section 5.3)", variant;
    "E4+E5+E8: explicit-state analysis (Murphi-style baseline)", explicit_state;
    "E11: Paulson's Oops rule (Section 6) — resumption despite key loss", oops;
    "E9: NSPK comparison (Section 3.2 / Lowe [6])", nspk;
    "E10: BOOL completeness (Hsiang system, Section 2.1)", bool_completeness;
    "E13: static analysis of the generated rewrite system (lint)", lint;
    "E14: cold red (telemetry-off guard)", cold_red;
    "E16: profiled campaign (root-match attempts, span loss)", profiled_campaign;
    "E20: indexed matching (discrimination tree vs linear scan)", indexed_matching;
    ( "E21: production observability (OpenMetrics scrape, per-request cost)",
      observability );
  ]

let write_json file ~jobs results =
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"jobs\": %d,\n" jobs;
  List.iter
    (fun r -> List.iter (fun (k, v) -> Printf.fprintf oc "  \"%s\": %s,\n" k v) r.fields)
    results;
  Printf.fprintf oc "  \"experiments\": [";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "%s\n    { \"name\": \"%s\", \"wall_s\": %.6f, \"rewrite_steps\": %d, \"splits\": %d }"
        (if i = 0 then "" else ",")
        (Telemetry.Flight.json_escape r.name)
        r.wall_s r.steps r.splits)
    (List.concat_map (fun r -> r.runs) results);
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc

let () =
  let jobs = ref (Domain.recommended_domain_count ()) in
  let json = ref "" in
  let spec =
    [
      "--jobs", Arg.Set_int jobs, "N number of domains (default: cores)";
      "--json", Arg.Set_string json, "FILE write a machine-readable report";
    ]
  in
  Arg.parse spec
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "bench [options]";
  if !jobs < 1 then begin
    prerr_endline "bench: --jobs must be at least 1";
    exit 2
  end;
  (* fail on an unwritable --json target now, not after a long run *)
  if !json <> "" then begin
    match open_out !json with
    | oc -> close_out oc
    | exception Sys_error msg ->
      Printf.eprintf "bench: cannot write --json file: %s\n" msg;
      exit 2
  end;
  print_endline "eqtls benchmark harness — reproduces the paper's evaluation";
  let results =
    Sched.Pool.with_pool ~jobs:!jobs @@ fun pool ->
    List.map
      (fun (title, measure) ->
        Printf.printf "\n== %s ==\n%!" title;
        let r = measure pool in
        List.iter print_endline r.lines;
        flush stdout;
        (title, r))
      table
  in
  if !json <> "" then write_json !json ~jobs:!jobs (List.map snd results);
  match List.filter (fun (_, r) -> not r.ok) results with
  | [] -> print_endline "\ndone"
  | differ ->
    Printf.eprintf "bench: outcome differs from the paper's in %s\n"
      (String.concat "; " (List.map fst differ));
    exit 1
