(* Benchmark harness: regenerates every evaluation artifact of the paper
   (experiments E1-E10 of DESIGN.md; EXPERIMENTS.md records the
   paper-vs-measured comparison), then times the core operations with
   Bechamel.

   The paper's evaluation is qualitative — which properties hold, which
   fail and with what counterexamples, and how much effort verification
   takes.  Part 1 reproduces those outcomes, one line per experiment;
   part 2 measures the machinery that produced them (one Bechamel test per
   experiment). *)

open Kernel

let section name = Format.printf "@.== %s ==@." name

let median l =
  let a = List.sort compare l in
  List.nth a (List.length a / 2)

(* ------------------------------------------------------------------ *)
(* Machine-readable report (--json): one record per timed experiment.
   [rec_steps]/[rec_splits] are 0 where the notion does not apply (model
   checking counts states, not rewrite steps). *)

type record = {
  rec_name : string;
  rec_wall : float;  (* seconds *)
  rec_steps : int;  (* rewrite steps *)
  rec_splits : int;  (* prover case splits *)
}

let records : record list ref = ref []
let lint_ms = ref 0.0
let certify_ms = ref 0.0
let cert_bytes = ref 0
let red_untraced_ms = ref 0.0
let red_traced_ms = ref 0.0
let red_memo_ms = ref 0.0
let memo_hit_rate = ref 0.0
let intern_table_len = ref 0
let telemetry_overhead_pct = ref 0.0
let server_cold_ms = ref 0.0
let server_warm_ms = ref 0.0
let secrecy_ms = ref 0.0
let horn_clauses = ref 0
let saturation_rounds = ref 0
let server_dedup_hit_rate = ref 0.0
let mc_full_states = ref 0
let mc_por_states = ref 0
let mc_reduction_factor = ref 0.0
let indep_cert_ms = ref 0.0
let red_linear_ms = ref 0.0
let red_indexed_ms = ref 0.0
let index_candidate_ratio = ref 0.0

(* campaign-wide rule-selection work (the cost indexing targets): total
   root-match attempts and their self-time, under each engine *)
let match_tries_linear = ref 0
let match_tries_indexed = ref 0
let match_self_ms_linear = ref 0.0
let match_self_ms_indexed = ref 0.0

(* E21 — production observability: per-request cost of the full
   observability surface (structured log + flight recorder + HTTP
   exporter) on a warm server round-trip, the scrape itself, and the
   server's own latency distribution *)
let obs_overhead_pct = ref 0.0
let obs_overhead_ms = ref 0.0
let metrics_scrape_ms = ref 0.0
let server_p99_ms = ref 0.0

(* spans lost to the per-domain Probe buffer cap across the profiled
   campaign (E16) — nonzero means the hot-rules tables under-report *)
let spans_dropped = ref 0
let spans_dropped_dom : (int * int) list ref = ref []

(* per invariant, the top rules by self-time:
   (label, fires, self_ms, match_tries, match_self_ms) — [hot_rules] with
   the discrimination-tree index (the default engine), [hot_rules_linear]
   with the seed's linear scan (the E20 baseline) *)
let hot_rules : (string * (string * int * float * int * float) list) list ref =
  ref []

let hot_rules_linear :
    (string * (string * int * float * int * float) list) list ref =
  ref []

let record ?(steps = 0) ?(splits = 0) name wall =
  records :=
    { rec_name = name; rec_wall = wall; rec_steps = steps; rec_splits = splits }
    :: !records

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json file ~jobs =
  let oc = open_out file in
  Printf.fprintf oc
    "{\n  \"jobs\": %d,\n  \"lint_ms\": %.3f,\n  \"certify_ms\": %.3f,\n  \
     \"cert_bytes\": %d,\n  \"red_untraced_ms\": %.3f,\n  \"red_traced_ms\": \
     %.3f,\n  \"red_memo_ms\": %.3f,\n  \"memo_hit_rate\": %.4f,\n  \
     \"intern_table_len\": %d,\n  \"telemetry_overhead_pct\": %.2f,\n  \
     \"server_cold_ms\": %.3f,\n  \"server_warm_ms\": %.3f,\n  \
     \"server_dedup_hit_rate\": %.4f,\n  \"secrecy_ms\": %.3f,\n  \
     \"horn_clauses\": %d,\n  \"saturation_rounds\": %d,\n  \
     \"mc_full_states\": %d,\n  \"mc_por_states\": %d,\n  \
     \"mc_reduction_factor\": %.2f,\n  \"indep_cert_ms\": %.3f,\n  \
     \"red_linear_ms\": %.3f,\n  \"red_indexed_ms\": %.3f,\n  \
     \"index_candidate_ratio\": %.4f,\n  \
     \"match_tries_linear\": %d,\n  \"match_tries_indexed\": %d,\n  \
     \"match_self_ms_linear\": %.3f,\n  \"match_self_ms_indexed\": %.3f,\n  \
     \"obs_overhead_pct\": %.2f,\n  \"obs_overhead_ms\": %.3f,\n  \
     \"metrics_scrape_ms\": %.3f,\n  \
     \"server_p99_ms\": %.3f,\n  \"spans_dropped\": %d,\n  \
     \"spans_dropped_by_dom\": {%s},\n  \
     \"experiments\": ["
    jobs !lint_ms !certify_ms !cert_bytes !red_untraced_ms !red_traced_ms
    !red_memo_ms !memo_hit_rate !intern_table_len !telemetry_overhead_pct
    !server_cold_ms !server_warm_ms !server_dedup_hit_rate !secrecy_ms
    !horn_clauses !saturation_rounds !mc_full_states !mc_por_states
    !mc_reduction_factor !indep_cert_ms !red_linear_ms !red_indexed_ms
    !index_candidate_ratio !match_tries_linear !match_tries_indexed
    !match_self_ms_linear !match_self_ms_indexed !obs_overhead_pct
    !obs_overhead_ms !metrics_scrape_ms !server_p99_ms !spans_dropped
    (String.concat ", "
       (List.map
          (fun (dom, n) -> Printf.sprintf "\"dom%d\": %d" dom n)
          (List.sort compare !spans_dropped_dom)));
  List.iteri
    (fun i r ->
      Printf.fprintf oc "%s\n    { \"name\": \"%s\", \"wall_s\": %.6f, \"rewrite_steps\": %d, \"splits\": %d }"
        (if i = 0 then "" else ",")
        (json_escape r.rec_name) r.rec_wall r.rec_steps r.rec_splits)
    (List.rev !records);
  Printf.fprintf oc "\n  ],";
  let write_hot key table =
    Printf.fprintf oc "\n  \"%s\": [" key;
    List.iteri
      (fun i (inv, rules) ->
        Printf.fprintf oc "%s\n    { \"invariant\": \"%s\", \"rules\": ["
          (if i = 0 then "" else ",")
          (json_escape inv);
        List.iteri
          (fun j (label, fires, self_ms, tries, match_ms) ->
            Printf.fprintf oc
              "%s{\"rule\": \"%s\", \"fires\": %d, \"self_ms\": %.3f, \
               \"match_tries\": %d, \"match_self_ms\": %.3f}"
              (if j = 0 then "" else ", ")
              (json_escape label) fires self_ms tries match_ms)
          rules;
        Printf.fprintf oc "] }")
      table;
    Printf.fprintf oc "\n  ]"
  in
  write_hot "hot_rules" !hot_rules;
  Printf.fprintf oc ",";
  write_hot "hot_rules_linear" !hot_rules_linear;
  Printf.fprintf oc "\n}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Part 1: the experiment report *)

let report_verification ?pool style name =
  let t0 = Unix.gettimeofday () in
  let results = Proofs.Tls_invariants.campaign ?pool style in
  let dt = Unix.gettimeofday () -. t0 in
  let s = Core.Report.summarize results in
  Format.printf
    "%s: %d/%d invariants proved (%d/%d cases, %d splits, %d rewrite steps) in %.2fs@."
    name s.Core.Report.invariants_proved s.Core.Report.invariants_total
    s.Core.Report.cases_proved s.Core.Report.cases_total
    s.Core.Report.total_splits s.Core.Report.total_rewrite_steps dt;
  record
    (Printf.sprintf "campaign-%s" (String.trim name))
    dt ~steps:s.Core.Report.total_rewrite_steps ~splits:s.Core.Report.total_splits;
  s

let report_negative style =
  let env = Tls.Model.env style in
  List.iter
    (fun (name, proof) ->
      let r = Proofs.Tls_invariants.run env proof in
      let refuting =
        List.filter_map
          (fun (c : Core.Induction.case_result) ->
            match c.Core.Induction.outcome with
            | Core.Prover.Refuted _ -> Some c.Core.Induction.case_name
            | _ -> None)
          r.Core.Induction.cases
      in
      Format.printf "%s: %s (refuted at %s)@." name
        (if r.Core.Induction.proved then "PROVED (unexpected!)" else "does not hold")
        (String.concat ", " refuting))
    [
      "property 2'", Proofs.Tls_invariants.prop2' style;
      "property 3'", Proofs.Tls_invariants.prop3' style;
    ]

let report_mc ~pool () =
  let scen = Tls.Concrete.default_scenario () in
  let system = Tls.Concrete.system scen in
  (match
     Mc.par_bfs ~max_states:50_000 ~max_depth:6 ~pool system
       ~props:[ "cf-authentic", Tls.Concrete.prop_cf_authentic ]
   with
  | Mc.Violation (v, stats) ->
    Format.printf
      "E4  2' counterexample: depth %d, %d states, %.3fs (paper: 5-message trace)@."
      v.Mc.depth stats.Mc.states_explored stats.Mc.elapsed;
    record "mc-2prime-attack" stats.Mc.elapsed
  | _ -> Format.printf "E4  2' counterexample NOT found (unexpected)@.");
  (match
     Mc.par_bfs ~max_states:100_000 ~max_depth:9 ~pool system
       ~props:[ "cf2-authentic", Tls.Concrete.prop_cf2_authentic ]
   with
  | Mc.Violation (v, stats) ->
    Format.printf
      "E5  3' counterexample: depth %d, %d states, %.3fs (paper: 4 more messages)@."
      v.Mc.depth stats.Mc.states_explored stats.Mc.elapsed;
    record "mc-3prime-attack" stats.Mc.elapsed
  | _ -> Format.printf "E5  3' counterexample NOT found (unexpected)@.");
  match
    Mc.par_bfs ~max_states:25_000 ~max_depth:6 ~pool system
      ~props:
        [
          "pms-secrecy", Tls.Concrete.prop_pms_secrecy scen;
          "sf-authentic", Tls.Concrete.prop_sf_authentic;
          "sf2-authentic", Tls.Concrete.prop_sf2_authentic;
        ]
  with
  | Mc.Violation (v, _) ->
    Format.printf "E8  bounded check VIOLATED %s (unexpected)@." v.Mc.property
  | outcome ->
    let stats = Mc.outcome_stats outcome in
    Format.printf
      "E8  properties 1-3 hold over %d states (depth %d, %.3fs, Murphi-style bound)@."
      stats.Mc.states_explored stats.Mc.max_depth stats.Mc.elapsed;
    record "mc-bounded-sweep" stats.Mc.elapsed

let report_nspk () =
  (let module P = Nspk.Symbolic_proofs in
   let module M = Nspk.Symbolic in
   let env = Tls.Model.env Tls.Model.Original in
   ignore env;
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
   Format.printf
     "E9  symbolic: NSL nonce secrecy %s; classic NSPK secrecy %s (refuted at finishInit)@."
     (if nsl then "proved (8 invariants)" else "FAILED (unexpected)")
     (if cls then "PROVED (unexpected!)" else "does not hold"));
  (match
     Mc.bfs ~max_states:100_000 ~max_depth:8
       (Nspk.system (Nspk.default_scenario Nspk.Classic))
       ~props:[ "responder-agreement", Nspk.responder_agreement ]
   with
  | Mc.Violation (v, stats) ->
    Format.printf "E9  NSPK: Lowe's attack at depth %d (%d states, %.3fs)@."
      v.Mc.depth stats.Mc.states_explored stats.Mc.elapsed
  | _ -> Format.printf "E9  NSPK attack NOT found (unexpected)@.");
  match
    Mc.bfs ~max_states:60_000 ~max_depth:8
      (Nspk.system (Nspk.default_scenario Nspk.Lowe_fixed))
      ~props:[ "responder-agreement", Nspk.responder_agreement ]
  with
  | Mc.Violation _ -> Format.printf "E9  NSL VIOLATED (unexpected)@."
  | outcome ->
    let stats = Mc.outcome_stats outcome in
    Format.printf "E9  NSL (Lowe's fix): clean over %d states@."
      stats.Mc.states_explored

(* Full-campaign per-rule totals: label -> (match tries, match self ns,
   total self ns), over every rule in every invariant's snapshot — the
   per-invariant tables truncate to the top 3, which would bias any
   rule-to-rule comparison between engines (a rule makes the top 3 more
   often once the scan-heavy rules around it drop out). *)
let rule_totals_linear : (string, int * int * int) Hashtbl.t = Hashtbl.create 256
let rule_totals_indexed : (string, int * int * int) Hashtbl.t = Hashtbl.create 256

(* Per-invariant rule attribution: sequential on purpose — reset/snapshot
   need quiescence, and one invariant at a time keeps the profiles
   separable.  Shared by E16 (indexed) and E20 (linear baseline).
   Returns the per-invariant top-3 table plus the campaign-wide
   rule-selection totals (root-match attempts and their self-time, over
   *all* rules, not just the top 3); [totals] gets the exact per-rule
   sums. *)
let profile_hot_rules ~totals env proofs =
  Telemetry.Probe.set_enabled true;
  let tries_total = ref 0 and match_ns_total = ref 0 in
  Hashtbl.reset totals;
  let table =
    List.map
      (fun proof ->
        Telemetry.Probe.reset ();
        ignore (Proofs.Tls_invariants.run env proof);
        let snap = Telemetry.Probe.snapshot () in
        spans_dropped := !spans_dropped + snap.Telemetry.Probe.sn_dropped;
        List.iter
          (fun (dom, n) ->
            let prev =
              Option.value ~default:0 (List.assoc_opt dom !spans_dropped_dom)
            in
            spans_dropped_dom :=
              (dom, prev + n) :: List.remove_assoc dom !spans_dropped_dom)
          snap.Telemetry.Probe.sn_dropped_by_dom;
        List.iter
          (fun (r : Telemetry.Probe.rule_stat) ->
            tries_total := !tries_total + r.Telemetry.Probe.rl_match_tries;
            match_ns_total :=
              !match_ns_total + r.Telemetry.Probe.rl_match_self_ns;
            let t0, m0, s0 =
              Option.value ~default:(0, 0, 0)
                (Hashtbl.find_opt totals r.Telemetry.Probe.rl_label)
            in
            Hashtbl.replace totals r.Telemetry.Probe.rl_label
              ( t0 + r.Telemetry.Probe.rl_match_tries,
                m0 + r.Telemetry.Probe.rl_match_self_ns,
                s0 + r.Telemetry.Probe.rl_rw_self_ns
                + r.Telemetry.Probe.rl_cond_self_ns
                + r.Telemetry.Probe.rl_match_self_ns ))
          snap.Telemetry.Probe.sn_rules;
        ( Proofs.Tls_invariants.name_of proof,
          List.map
            (fun (r : Telemetry.Probe.rule_stat) ->
              ( r.Telemetry.Probe.rl_label,
                r.Telemetry.Probe.rl_fires,
                float_of_int
                  (r.Telemetry.Probe.rl_rw_self_ns
                  + r.Telemetry.Probe.rl_cond_self_ns
                  + r.Telemetry.Probe.rl_match_self_ns)
                /. 1e6,
                r.Telemetry.Probe.rl_match_tries,
                float_of_int r.Telemetry.Probe.rl_match_self_ns /. 1e6 ))
            (Telemetry.Hotspot.hot_rules ~top:3 snap) ))
      proofs
  in
  Telemetry.Probe.set_enabled false;
  Telemetry.Probe.reset ();
  (table, (!tries_total, float_of_int !match_ns_total /. 1e6))

let hot_weight (_, rules) =
  List.fold_left (fun acc (_, _, ms, _, _) -> acc +. ms) 0. rules

let bool_const name =
  Term.const
    (Cafeobj.Spec.declare_op (Cafeobj.Builtins.bool_spec ()) name [] Sort.bool
       ~attrs:[])

let report ~pool () =
  section "E1: Figure-2 protocol runs (symbolic execution)";
  let run = Tls.Scenario.full_handshake () in
  Format.printf "full handshake: %d transitions, all effective: %b@."
    (List.length run.Tls.Scenario.steps)
    (Tls.Scenario.effective run = []);
  let run = Tls.Scenario.resumption () in
  Format.printf "with resumption: %d transitions, all effective: %b@."
    (List.length run.Tls.Scenario.steps)
    (Tls.Scenario.effective run = []);

  section
    "E2+E3+E7: the verification campaign (paper: 18 invariants, ~1 week by hand)";
  let s = report_verification ~pool Tls.Model.Original "original protocol " in
  Format.printf
    "E7  effort: %d proof cases checked mechanically vs ~1 week by hand@."
    s.Core.Report.cases_total;

  (let env = Tls.Model.env Tls.Model.Original in
   let ext = Proofs.Tls_invariants.extensions Tls.Model.Original in
   let results = List.map (Proofs.Tls_invariants.run env) ext in
   Format.printf "extensions beyond the paper: %d/%d proved (%s)@."
     (List.length (List.filter (fun (r : Core.Induction.result) -> r.Core.Induction.proved) results))
     (List.length results)
     (String.concat ", " (List.map Proofs.Tls_invariants.name_of ext)));

  section "E6: the ClientFinished2-first variant (Section 5.3)";
  ignore (report_verification ~pool Tls.Model.Cf2First "variant protocol  ");

  section "E4+E5+E8: explicit-state analysis (Murphi-style baseline)";
  report_negative Tls.Model.Original;
  report_mc ~pool ();

  section "E11: Paulson's Oops rule (Section 6) — resumption despite key loss";
  (let oops_scen = { (Tls.Concrete.default_scenario ()) with Tls.Concrete.oops = true } in
   match
     Mc.bfs ~max_states:25_000 ~max_depth:8 (Tls.Concrete.system oops_scen)
       ~props:
         [
           "pms-secrecy", Tls.Concrete.prop_pms_secrecy oops_scen;
           "sf-authentic", Tls.Concrete.prop_sf_authentic;
           "sf2-authentic", Tls.Concrete.prop_sf2_authentic;
         ]
   with
  | Mc.Violation (v, _) ->
    Format.printf "E11 Oops BROKE %s (unexpected)@." v.Mc.property
  | outcome ->
    let stats = Mc.outcome_stats outcome in
    Format.printf
      "E11 session-key leakage breaks nothing over %d states (Paulson's finding)@."
      stats.Mc.states_explored);

  section "E9: NSPK comparison (Section 3.2 / Lowe [6])";
  report_nspk ();

  section "E10: BOOL completeness (Hsiang system, Section 2.1)";
  let p = bool_const "bench-p" in
  let q = bool_const "bench-q" in
  let peirce = Term.implies (Term.implies (Term.implies p q) p) p in
  Format.printf "peirce's law by polynomial normal form: %b@."
    (Boolring.tautology peirce);
  let sys = Rewrite.make (Boolring.rewrite_rules ()) in
  Format.printf "peirce's law by Hsiang rewriting:       %a@." Term.pp
    (Rewrite.normalize sys peirce);

  section "E13: static analysis of the generated rewrite system (lint)";
  let t0 = Unix.gettimeofday () in
  let lr =
    Analysis.Lint.run ~pool
      [
        Analysis.Lint.Generated
          { label = "generated:tls"; spec = Tls.Model.spec Tls.Model.Original };
      ]
  in
  let dt = Unix.gettimeofday () -. t0 in
  lint_ms := dt *. 1000.;
  Format.printf
    "E13 lint: generated TLS spec certified=%b (%d errors, %d warnings, %d infos) in %.3fs@."
    (lr.Analysis.Lint.errors = 0)
    lr.Analysis.Lint.errors lr.Analysis.Lint.warnings lr.Analysis.Lint.infos dt;
  record "lint-generated-tls" dt;

  section "E14: proof certificates (trace, emit, independently re-check)";
  let spec = Tls.Model.spec Tls.Model.Original in
  (* traced-vs-untraced overhead of red on the E1 gleaning observation *)
  (let full = Tls.Scenario.full_handshake () in
   let nwt = Tls.Model.nw full.Tls.Scenario.ots (Tls.Scenario.final full) in
   let c = Tls.Scenario.cast in
   let pms =
     Tls.Data.pms_ ~client:c.Tls.Scenario.alice ~server:c.Tls.Scenario.bob
       c.Tls.Scenario.sec1
   in
   let sys = Cafeobj.Spec.system spec in
   let goal = Tls.Data.in_cpms pms nwt in
   let reps = 50 in
   let time f =
     f ();
     let t0 = Unix.gettimeofday () in
     for _ = 1 to reps do
       f ()
     done;
     (Unix.gettimeofday () -. t0) *. 1000. /. float_of_int reps
   in
   let untraced =
     time (fun () ->
         Rewrite.clear_cache sys;
         ignore (Rewrite.normalize sys goal))
   in
   let traced =
     time (fun () ->
         Rewrite.clear_cache sys;
         ignore (Rewrite.normalize_traced sys goal))
   in
   red_untraced_ms := untraced;
   red_traced_ms := traced;
   Format.printf
     "E14 red tracing overhead: %.3f ms untraced, %.3f ms traced (%+.1f%%)@."
     untraced traced
     ((traced -. untraced) /. untraced *. 100.);
   (* E15: the same red through the warm normal-form memo — steady state of
      a proof campaign, where most subterms have been normalized before. *)
   let memo =
     time (fun () -> ignore (Rewrite.normalize sys goal))
   in
   red_memo_ms := memo;
   let ms = Rewrite.memo_stats sys in
   let looked_up = ms.Rewrite.hits + ms.Rewrite.misses in
   memo_hit_rate :=
     (if looked_up = 0 then 0. else float_of_int ms.Rewrite.hits /. float_of_int looked_up);
   intern_table_len := Term.intern_table_len ();
   Format.printf
     "E15 red memo: %.3f ms warm (%.1fx untraced), hit rate %.1f%%, %d live interned terms@."
     memo (untraced /. Float.max memo 1e-9)
     (!memo_hit_rate *. 100.) !intern_table_len);
  (* one invariant's campaign as a certificate, replayed independently *)
  (let env = Tls.Model.env Tls.Model.Original in
   let inv1 = Proofs.Tls_invariants.find Tls.Model.Original "inv1" in
   let tr = Rewrite.tracer () in
   Rewrite.set_tracer (Some tr);
   let t0 = Unix.gettimeofday () in
   ignore (Proofs.Tls_invariants.run ~pool env inv1);
   let run_s = Unix.gettimeofday () -. t0 in
   Rewrite.set_tracer None;
   let t0 = Unix.gettimeofday () in
   let b = Analysis.Certgen.create () in
   Analysis.Certgen.add_obligations b (Rewrite.obligations tr);
   let term_res = Analysis.Termination.check spec in
   if term_res.Analysis.Termination.certified then
     Analysis.Certgen.add_lpo b
       ~precedence:term_res.Analysis.Termination.search.Order.precedence
       (Cafeobj.Spec.all_rules spec);
   let conf = Analysis.Confluence.check ~pool ~certify:true spec in
   Analysis.Certgen.add_joins b
     ~rules:(Cafeobj.Spec.all_rules spec)
     conf.Analysis.Confluence.certs;
   let cert = Analysis.Certgen.cert b in
   let bytes = String.length (Certify.Cert.to_string cert) in
   let produce_s = Unix.gettimeofday () -. t0 in
   let t0 = Unix.gettimeofday () in
   let res = Analysis.Certgen.check ~pool cert in
   let check_s = Unix.gettimeofday () -. t0 in
   certify_ms := check_s *. 1000.;
   cert_bytes := bytes;
   Format.printf
     "E14 inv1 certificate: %d obligations, %d steps replayed, %d bytes; \
      proof %.2fs, emit %.2fs, check %.2fs (check/produce %.2fx)%s@."
     res.Analysis.Certgen.obligations res.Analysis.Certgen.steps_replayed bytes
     run_s produce_s check_s
     (check_s /. (run_s +. produce_s))
     (if res.Analysis.Certgen.errors = [] then "" else " — REJECTED (unexpected)");
   record "certify-inv1" check_s);

  section "E16: telemetry overhead and per-invariant hot rules";
  (let full = Tls.Scenario.full_handshake () in
   let nwt = Tls.Model.nw full.Tls.Scenario.ots (Tls.Scenario.final full) in
   let c = Tls.Scenario.cast in
   let pms =
     Tls.Data.pms_ ~client:c.Tls.Scenario.alice ~server:c.Tls.Scenario.bob
       c.Tls.Scenario.sec1
   in
   let sys = Cafeobj.Spec.system (Tls.Model.spec Tls.Model.Original) in
   let goal = Tls.Data.in_cpms pms nwt in
   let reps = 50 in
   let time f =
     f ();
     let t0 = Unix.gettimeofday () in
     for _ = 1 to reps do
       f ()
     done;
     (Unix.gettimeofday () -. t0) *. 1000. /. float_of_int reps
   in
   let red () =
     Rewrite.clear_cache sys;
     ignore (Rewrite.normalize sys goal)
   in
   (* the cold E14 red, with recording off and on: the on-path records a
      span per red plus rule profiles, so this is the worst-case price of
      --profile, not of the flag merely existing (that price is measured
      by the CI guard on red_untraced_ms) *)
   Telemetry.Probe.set_enabled false;
   let off = time red in
   Telemetry.Probe.set_span_min_ns 1_000_000;
   Telemetry.Probe.set_enabled true;
   let on = time red in
   Telemetry.Probe.set_enabled false;
   Telemetry.Probe.reset ();
   telemetry_overhead_pct := (on -. off) /. Float.max off 1e-9 *. 100.;
   Format.printf
     "E16 telemetry: red %.3f ms off, %.3f ms recording (%+.1f%%)@." off on
     !telemetry_overhead_pct;
   let env = Tls.Model.env Tls.Model.Original in
   let table, (tries, match_ms) =
     profile_hot_rules ~totals:rule_totals_indexed env
       (Proofs.Tls_invariants.all Tls.Model.Original)
   in
   hot_rules := table;
   match_tries_indexed := tries;
   match_self_ms_indexed := match_ms;
   match
     List.stable_sort
       (fun a b -> compare (hot_weight b) (hot_weight a))
       !hot_rules
   with
   | [] -> ()
   | (inv, rules) :: _ ->
     Format.printf "E16 hottest invariant %s:@." inv;
     List.iter
       (fun (label, fires, self_ms, _, _) ->
         Format.printf "      %-32s %5d fires %10.3f ms self@." label fires self_ms)
       rules);

  section "E17: resident verification server (verifyd)";
  (let module P = Server.Protocol in
   let socket =
     Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "eqtls-bench-vd-%d.sock" (Unix.getpid ()))
   in
   (try Unix.unlink socket with Unix.Unix_error _ -> ());
   let config =
     {
       (Server.Daemon.default_config ~socket) with
       jobs = 2;
       handle_signals = false;
     }
   in
   let d = Domain.spawn (fun () -> Server.Daemon.run config) in
   let rec wait_up n =
     if n = 0 then failwith "bench: verifyd did not come up"
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
   @@ fun () ->
   let req =
     P.Verify
       { style = P.Original; only = [ "inv1" ]; negative = false; extensions = false; certify = false }
   in
   let round_trip () =
     let t0 = Unix.gettimeofday () in
     let _, code =
       Server.Client.with_client ~socket (fun c ->
           Server.Client.request_collect c req)
     in
     if code <> 0 then failwith "bench: remote verify failed";
     (Unix.gettimeofday () -. t0) *. 1000.
   in
   (* cold: the daemon's first campaign request proves from scratch;
      warm: the identical repeat is served from the resident obligation
      cache (dedup registry) over the same hot term universe *)
   server_cold_ms := round_trip ();
   server_warm_ms := round_trip ();
   let counters = ref [] in
   ignore
     (Server.Client.with_client ~socket (fun c ->
          Server.Client.request c P.Metrics ~on_response:(function
            | P.Rmetrics { counters = cs; _ } -> counters := cs
            | _ -> ())));
   let counter name =
     match List.assoc_opt name !counters with Some n -> n | None -> 0
   in
   let hits = counter "server.dedup.hits"
   and misses = counter "server.dedup.misses" in
   server_dedup_hit_rate :=
     (if hits + misses = 0 then 0.
      else float_of_int hits /. float_of_int (hits + misses));
   record "server-warm-inv1" (!server_warm_ms /. 1000.);
   Format.printf
     "E17 verifyd: inv1 over the socket %.1f ms cold, %.2f ms warm (%.0fx); \
      dedup hit rate %.2f (%d/%d)@."
     !server_cold_ms !server_warm_ms
     (!server_cold_ms /. Float.max !server_warm_ms 1e-9)
     !server_dedup_hit_rate hits (hits + misses));

  section "E18: static secrecy analysis (Horn-clause saturation)";
  (let t0 = Unix.gettimeofday () in
   let r = Analysis.Secrecy.analyze (Tls.Model.spec Tls.Model.Original) in
   let dt = Unix.gettimeofday () -. t0 in
   secrecy_ms := dt *. 1000.;
   horn_clauses := r.Analysis.Secrecy.r_clauses;
   saturation_rounds := r.Analysis.Secrecy.r_rounds;
   record "secrecy-generated-tls" dt;
   Format.printf
     "E18 secrecy: generated TLS spec %s in %.3fs (%d clauses, %d facts, %d \
      rounds, %d resolutions)@."
     (Analysis.Secrecy.verdict_name r)
     dt r.Analysis.Secrecy.r_clauses r.Analysis.Secrecy.r_facts
     r.Analysis.Secrecy.r_rounds r.Analysis.Secrecy.r_resolutions);

  section "E19: state-space reduction (certified POR + symmetry)";
  (* Full vs reduced exploration under identical bounds and identical
     verdicts: the reduction is the point, the byte-identical outcome is
     the soundness check (also enforced by the mc-reduction tests). *)
  (let scen = Nspk.default_scenario Nspk.Lowe_fixed in
   let system = Nspk.system scen in
   let props = [ "responder-agreement", Nspk.responder_agreement ] in
   let run ?reduction () =
     let t0 = Unix.gettimeofday () in
     let o = Mc.bfs ~max_states:60_000 ~max_depth:8 ?reduction system ~props in
     Mc.outcome_stats o, Unix.gettimeofday () -. t0
   in
   let fs, full_s = run () in
   let rs, red_s = run ~reduction:(Nspk.reduction scen) () in
   mc_full_states := fs.Mc.states_explored;
   mc_por_states := rs.Mc.states_explored;
   mc_reduction_factor :=
     float_of_int fs.Mc.states_explored
     /. float_of_int (max rs.Mc.states_explored 1);
   record "mc-nsl-full" full_s;
   record "mc-nsl-reduced" red_s;
   Format.printf
     "E19 NSL (60k states / depth 8): full %d states %.2fs; reduced %d \
      states %.2fs (pruned %d) — %.0fx fewer states@."
     fs.Mc.states_explored full_s rs.Mc.states_explored red_s
     rs.Mc.states_pruned !mc_reduction_factor);
  (let scen = Tls.Concrete.default_scenario () in
   let system = Tls.Concrete.system scen in
   let props = [ "cf-authentic", Tls.Concrete.prop_cf_authentic ] in
   let full = Mc.bfs ~max_states:20_000 ~max_depth:6 system ~props in
   let red =
     Mc.bfs ~max_states:20_000 ~max_depth:6
       ~reduction:(Tls.Concrete.reduction scen) system ~props
   in
   match full, red with
   | Mc.Violation (v, s), Mc.Violation (v', s') ->
     Format.printf
       "E19 TLS 2' attack: full depth %d / %d states vs reduced depth %d / \
        %d states (pruned %d)@."
       v.Mc.depth s.Mc.states_explored v'.Mc.depth s'.Mc.states_explored
       s'.Mc.states_pruned
   | _ -> Format.printf "E19 TLS 2' attack NOT preserved (unexpected)@.");
  (* The static certificate behind the ample sets: full NSL independence
     analysis, s-expression certificate, independent replay. *)
  (let nspec = Nspk.Symbolic.gen_spec Nspk.Lowe_fixed in
   match Analysis.Indep.analyze ~pool nspec with
   | None ->
     Format.printf "E19 independence: no transitions found (unexpected)@."
   | Some r ->
     let cert = Analysis.Indep.certificate r in
     let t0 = Unix.gettimeofday () in
     (match Analysis.Indep.check nspec cert with
     | Ok (pairs, claims) ->
       let dt = Unix.gettimeofday () -. t0 in
       indep_cert_ms := dt *. 1000.;
       record "indep-cert-replay-nsl" dt;
       Format.printf
         "E19 independence certificate: %d pairs / %d claims replayed clean \
          in %.2fs@."
         pairs claims dt
     | Error breadcrumb ->
       Format.printf "E19 independence certificate REJECTED at %s (unexpected)@."
         breadcrumb));

  section "E20: indexed matching (discrimination tree vs linear scan)";
  (* Same red as E14/E16, timed under both rule-selection strategies.
     The differential suite holds the two to identical results; the only
     thing allowed to differ is how many rules fail to match. *)
  (let full = Tls.Scenario.full_handshake () in
   let nwt = Tls.Model.nw full.Tls.Scenario.ots (Tls.Scenario.final full) in
   let c = Tls.Scenario.cast in
   let pms =
     Tls.Data.pms_ ~client:c.Tls.Scenario.alice ~server:c.Tls.Scenario.bob
       c.Tls.Scenario.sec1
   in
   let sys = Cafeobj.Spec.system (Tls.Model.spec Tls.Model.Original) in
   let goal = Tls.Data.in_cpms pms nwt in
   let red () =
     Rewrite.clear_cache sys;
     ignore (Rewrite.normalize sys goal)
   in
   (* The arms alternate, round by round, and each reports its median
      round (ms per red): load that comes and goes on the machine then
      moves a round of each arm alike instead of one whole arm. *)
   let rounds = 11 and reps = 10 in
   let round indexing =
     Rewrite.set_indexing sys indexing;
     let t0 = Unix.gettimeofday () in
     for _ = 1 to reps do
       red ()
     done;
     (Unix.gettimeofday () -. t0) *. 1000. /. float_of_int reps
   in
   List.iter (fun indexing -> Rewrite.set_indexing sys indexing; red ()) [ false; true ];
   Index.reset_stats ();
   let arms = List.init rounds (fun _ -> let l = round false in (l, round true)) in
   let linear = median (List.map fst arms) and indexed = median (List.map snd arms) in
   let st = Index.stats () in
   let considered = st.Index.hits + st.Index.filtered in
   red_linear_ms := linear;
   red_indexed_ms := indexed;
   index_candidate_ratio :=
     (if considered = 0 then 1.
      else float_of_int st.Index.hits /. float_of_int considered);
   let ii = Rewrite.index_info sys in
   Format.printf
     "E20 red rule selection: %.3f ms linear, %.3f ms indexed (%.2fx); \
      candidate ratio %.3f (%d rules, %d buckets, %d AC)@."
     linear indexed
     (linear /. Float.max indexed 1e-9)
     !index_candidate_ratio ii.Index.ix_rules ii.Index.ix_buckets
     ii.Index.ix_ac_buckets;
   (* the linear-scan counterpart of E16's per-invariant hot-rules table:
      this is the before/after evidence that indexing cuts the self-time
      of the hottest transition rules (match attempts — failed or not —
      are charged to the rule attempted, so a rule the linear scan tries
      at every redex is expensive even when it never fires) *)
   let env = Tls.Model.env Tls.Model.Original in
   let base = Core.Induction.system env in
   Rewrite.set_default_indexing false;
   Rewrite.set_indexing base false;
   (let table, (ltries, lmatch_ms) =
      profile_hot_rules ~totals:rule_totals_linear env
        (Proofs.Tls_invariants.all Tls.Model.Original)
    in
    hot_rules_linear := table;
    match_tries_linear := ltries;
    match_self_ms_linear := lmatch_ms);
   (* campaign fingerprints must be byte-identical under both strategies *)
   let proofs = Proofs.Tls_invariants.all Tls.Model.Original in
   let fingerprints () =
     List.map
       (fun p ->
         Core.Report.result_fingerprint (Proofs.Tls_invariants.run ~pool env p))
       proofs
   in
   let fp_linear = fingerprints () in
   Rewrite.set_default_indexing true;
   Rewrite.set_indexing base true;
   let fp_indexed = fingerprints () in
   Format.printf "E20 campaign fingerprints, indexed vs linear: %s@."
     (if List.equal String.equal fp_linear fp_indexed then "byte-identical"
      else "DIVERGED (unexpected!)");
   (* the work the index exists to remove: root-match attempts across the
      whole profiled campaign (every rule, not just the top 3) *)
   Format.printf
     "E20 rule-selection work, full campaign: %d tries / %.1f ms match time \
      linear, %d tries / %.1f ms indexed (%.1fx fewer tries, %.1fx less \
      match time)@."
     !match_tries_linear !match_self_ms_linear !match_tries_indexed
     !match_self_ms_indexed
     (float_of_int !match_tries_linear
     /. Float.max (float_of_int !match_tries_indexed) 1.)
     (!match_self_ms_linear /. Float.max !match_self_ms_indexed 1e-9);
   match
     List.stable_sort
       (fun a b -> compare (hot_weight b) (hot_weight a))
       !hot_rules_linear
   with
   | [] -> ()
   | (inv, (top_label, _, _, _, _) :: _) :: _ ->
     (* exact full-campaign totals for the hottest rule, from the
        untruncated per-rule sums: tries are deterministic, the
        self-times carry run-to-run GC/warmth noise *)
     let find tbl =
       Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl top_label)
     in
     let lt, lm, ls = find rule_totals_linear in
     let it, im, is = find rule_totals_indexed in
     Format.printf
       "E20 hottest linear-scan rule %s (invariant %s), full campaign: \
        tries %d -> %d (%.1fx), match-self %.2f -> %.2f ms, total self \
        %.1f -> %.1f ms@."
       top_label inv lt it
       (float_of_int lt /. Float.max (float_of_int it) 1.)
       (float_of_int lm /. 1e6)
       (float_of_int im /. 1e6)
       (float_of_int ls /. 1e6)
       (float_of_int is /. 1e6)
   | _ -> ());

  section "E21: production observability (OpenMetrics scrape, per-request cost)";
  (* Two resident servers, identical except for the observability
     surface: one dark (no exporter, no log, no flight recorder), one
     with everything on.  The warm round-trip medians bound what a
     production deployment pays per request for being observable; the
     scrape and p99 come from the instrumented server itself. *)
  (let module P = Server.Protocol in
   let obs_seq = ref 0 in
   let with_obs_bench_daemon ~config_f f =
     incr obs_seq;
     let socket =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "eqtls-bench-obs-%d-%d.sock" (Unix.getpid ()) !obs_seq)
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
   in
   let warm_median ?id socket ~reps =
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
     let round () =
       let t0 = Unix.gettimeofday () in
       let _, code =
         Server.Client.with_client ~socket (fun c ->
             Server.Client.request_collect ?id c req)
       in
       if code <> 0 then failwith "bench: obs round-trip failed";
       (Unix.gettimeofday () -. t0) *. 1000.
     in
     ignore (round ());
     (* cold: prove once, then measure the cached repeats *)
     median (List.init reps (fun _ -> round ()))
   in
   let reps = 120 in
   let dark_ms =
     with_obs_bench_daemon ~config_f:(fun c -> c) (fun socket ->
         warm_median socket ~reps)
   in
   let port = Atomic.make 0 in
   let log_tmp = Filename.temp_file "eqtls-bench-obs" ".log" in
   let lit_ms =
     with_obs_bench_daemon
       ~config_f:(fun c ->
         {
           c with
           Server.Daemon.metrics_port = Some 0;
           announce_metrics_port = (fun p -> Atomic.set port p);
           log_file = Some log_tmp;
           log_level = Some Telemetry.Log.Info;
           flight_path = Some (c.Server.Daemon.socket ^ ".flight.json");
         })
       (fun socket ->
         let ms = warm_median ~id:"bench-obs" socket ~reps in
         (* scrape the OpenMetrics endpoint the way Prometheus would *)
         let http_get path =
           let fd = Unix.socket PF_INET SOCK_STREAM 0 in
           Fun.protect
             ~finally:(fun () ->
               try Unix.close fd with Unix.Unix_error _ -> ())
           @@ fun () ->
           Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Atomic.get port));
           let req =
             Printf.sprintf
               "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
               path
           in
           ignore (Unix.write_substring fd req 0 (String.length req));
           let buf = Buffer.create 8192 in
           let chunk = Bytes.create 8192 in
           let rec slurp () =
             match Unix.read fd chunk 0 8192 with
             | 0 -> ()
             | n ->
               Buffer.add_subbytes buf chunk 0 n;
               slurp ()
           in
           slurp ();
           Buffer.contents buf
         in
         let scrape () =
           let t0 = Unix.gettimeofday () in
           let body = http_get "/metrics" in
           if String.length body = 0 then failwith "bench: empty scrape";
           (Unix.gettimeofday () -. t0) *. 1000.
         in
         metrics_scrape_ms := median (List.init 20 (fun _ -> scrape ()));
         (* the server's own latency distribution, from its always-on
            histograms (p99 is the log2-bucket upper bound) *)
         ignore
           (Server.Client.with_client ~socket (fun c ->
                Server.Client.request c P.Metrics ~on_response:(function
                  | P.Rmetrics { histograms; _ } -> (
                    match List.assoc_opt "server.request_latency" histograms with
                    | Some a when Array.length a = 6 -> server_p99_ms := a.(4)
                    | _ -> ())
                  | _ -> ())));
         ms)
   in
   Telemetry.Log.set_level None;
   (try Sys.remove log_tmp with Sys_error _ -> ());
   (try Sys.remove (log_tmp ^ ".1") with Sys_error _ -> ());
   obs_overhead_ms := lit_ms -. dark_ms;
   obs_overhead_pct := (lit_ms -. dark_ms) /. Float.max dark_ms 1e-9 *. 100.;
   record "server-warm-inv1-observed" (lit_ms /. 1000.);
   Format.printf
     "E21 observability: warm inv1 %.3f ms dark, %.3f ms fully observed \
      (%+.1f%%); /metrics scrape %.2f ms; server p99 %.2f ms@."
     dark_ms lit_ms !obs_overhead_pct !metrics_scrape_ms !server_p99_ms)

(* ------------------------------------------------------------------ *)
(* Part 2: timing *)

open Bechamel
open Toolkit

let make_tautology n =
  (* (a1 -> a2 -> ... -> an -> (a1 and ... and an)), a valid formula whose
     polynomial grows with n. *)
  let atoms = List.init n (fun i -> bool_const (Printf.sprintf "bench-atom-%d" i)) in
  let conj = Term.conj atoms in
  List.fold_left (fun acc a -> Term.implies a acc) conj (List.rev atoms)

let bench_tests () =
  let full = Tls.Scenario.full_handshake () in
  let nwt = Tls.Model.nw full.Tls.Scenario.ots (Tls.Scenario.final full) in
  let c = Tls.Scenario.cast in
  let pms =
    Tls.Data.pms_ ~client:c.Tls.Scenario.alice ~server:c.Tls.Scenario.bob
      c.Tls.Scenario.sec1
  in
  let sys = Cafeobj.Spec.system (Tls.Model.spec Tls.Model.Original) in
  let observe () =
    Rewrite.clear_cache sys;
    ignore (Rewrite.normalize sys (Tls.Data.in_cpms pms nwt))
  in
  let env = Tls.Model.env Tls.Model.Original in
  let inv1 = Proofs.Tls_invariants.find Tls.Model.Original "inv1" in
  let esfin = Proofs.Tls_invariants.find Tls.Model.Original "esfin-genuine" in
  let inv2 = Proofs.Tls_invariants.find Tls.Model.Original "inv2" in
  let scen = Tls.Concrete.default_scenario () in
  let taut = make_tautology 8 in
  let hsiang_sys = Rewrite.make (Boolring.rewrite_rules ()) in
  [
    "E1-gleaning-observation", observe;
    "E2-verify-inv1", (fun () -> ignore (Proofs.Tls_invariants.run env inv1));
    "E2-verify-inv2-derived", (fun () -> ignore (Proofs.Tls_invariants.run env inv2));
    "E3-verify-esfin-genuine", (fun () -> ignore (Proofs.Tls_invariants.run env esfin));
    ( "E4-mc-find-2prime-attack",
      fun () ->
        ignore
          (Mc.bfs ~max_states:5_000 ~max_depth:5 (Tls.Concrete.system scen)
             ~props:[ "cf", Tls.Concrete.prop_cf_authentic ]) );
    ( "E8-mc-sweep-depth4",
      fun () ->
        ignore
          (Mc.bfs ~max_states:2_000 ~max_depth:4 (Tls.Concrete.system scen)
             ~props:[ "pms", Tls.Concrete.prop_pms_secrecy scen ]) );
    ( "E9-nspk-lowe-attack",
      fun () ->
        ignore
          (Mc.bfs ~max_states:20_000 ~max_depth:7
             (Nspk.system (Nspk.default_scenario Nspk.Classic))
             ~props:[ "agree", Nspk.responder_agreement ]) );
    "E10-boolring-tautology", (fun () -> ignore (Boolring.tautology taut));
    ( "E10-hsiang-rewriting",
      fun () ->
        (* defeat the memo table: we measure rewriting, not the cache *)
        Rewrite.clear_cache hsiang_sys;
        ignore (Rewrite.normalize hsiang_sys taut) );
  ]

(* Heavier experiments need a larger sampling budget for the regression to
   converge; micro benchmarks are fine with half a second. *)
let run_group ~quota ~name entries =
  (* Warm up every function once so that lazily built rewrite systems and
     caches do not land in the first regression sample. *)
  List.iter (fun (_, fn) -> fn ()) entries;
  let tests =
    List.map (fun (n, fn) -> Test.make ~name:n (Staged.stage fn)) entries
  in
  let cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second quota) () in
  let grouped = Test.make_grouped ~name tests in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with
          | Some (v :: _) -> v
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) -> Format.printf "%-36s %12.3f ms/run@." name (ns /. 1e6))
    (List.sort compare rows)

let run_benchmarks () =
  section "timings (Bechamel, ordinary-least-squares estimate per run)";
  let micro, macro =
    List.partition
      (fun (name, _) ->
        List.exists
          (fun tag ->
            String.length name >= String.length tag
            && String.sub name 0 (String.length tag) = tag)
          [ "E1-"; "E2-verify-inv2"; "E10-boolring"; "E8-" ])
      (bench_tests ())
  in
  run_group ~quota:0.5 ~name:"micro" micro;
  run_group ~quota:8.0 ~name:"macro" macro

let () =
  let jobs = ref (Domain.recommended_domain_count ()) in
  let json = ref "" in
  let no_bechamel = ref false in
  let spec =
    [
      "--jobs", Arg.Set_int jobs, "N number of domains (default: cores)";
      "--json", Arg.Set_string json, "FILE write a machine-readable report";
      "--report-only", Arg.Set no_bechamel, "skip the Bechamel timing pass";
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
  Format.printf "eqtls benchmark harness — reproduces the paper's evaluation@.";
  Sched.Pool.with_pool ~jobs:!jobs @@ fun pool ->
  report ~pool ();
  if !json <> "" then write_json !json ~jobs:!jobs;
  if not !no_bechamel then run_benchmarks ();
  Format.printf "@.done@."
