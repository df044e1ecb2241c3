(* The [campaign] and [assure] workloads: cold proof campaigns, and the
   auditor's evidence pipeline (lint gate, traced campaign, certificate
   generation, serialization, independent replay).

   Untraced passes call the campaign exactly as [verify] does
   ([Tls_invariants.run] under [Pool.parallel_map]).  Traced passes
   re-drive the same case loop through the public calls — [Spec.branch],
   [Induction.make_env], [Spec.system], [Induction.prove_case] /
   [base_case] / [prove_derived] — so each layer can be timed from here;
   the verdict fingerprints prove both drive the same computation. *)

open Util
module TI = Proofs.Tls_invariants
module I = Core.Induction

let style_name = function
  | Tls.Model.Original -> "original"
  | Tls.Model.Cf2First -> "variant"

(* The smoke subset: one cheap inductive proof, one derived proof and one
   refuted property per style. *)
let smoke_names = [ "sig-genuine"; "inv4"; "prop2'" ]

(* The campaign of one style, with the extensions and the two refuted
   properties when asked, as [verify --negative --extensions] runs them. *)
let proofs ~smoke ~negative ~extensions style =
  let all =
    TI.all style
    @ (if extensions then TI.extensions style else [])
    @ if negative then [ TI.prop2' style; TI.prop3' style ] else []
  in
  if smoke then List.filter (fun p -> List.mem (TI.name_of p) smoke_names) all
  else all

type item = { style : Tls.Model.style; env : I.env; proof : TI.proof }

let key it name = style_name it.style ^ "/" ^ name

(* ------------------------------------------------------------------ *)
(* Set-up: spec generation, environments and pool *)

type setup = {
  items : item list;
  pool : Sched.Pool.t;
  specgen_ns : int;
  setup_ns : int;
}

let setup ~seed ~styles ~smoke ~negative ~extensions =
  let t0 = now_ns () in
  let envs =
    List.map
      (fun st ->
        ignore (Tls.Model.spec st);
        st, Tls.Model.env st)
      styles
  in
  let t1 = now_ns () in
  let items =
    List.concat_map
      (fun (style, env) ->
        List.map
          (fun proof -> { style; env; proof })
          (proofs ~smoke ~negative ~extensions style))
      envs
  in
  let pool = Sched.Pool.create ~jobs () in
  let t2 = now_ns () in
  { items = shuffle seed items; pool; specgen_ns = t1 - t0; setup_ns = t2 - t0 }

(* A set-up-only pass: the workload's set-up, timed, then exit. *)
let setup_probe ~workload =
  let styles, negative, extensions =
    match workload with
    | `Campaign -> [ Tls.Model.Original; Tls.Model.Cf2First ], true, true
    | `Assure -> [ Tls.Model.Original ], false, false
  in
  let s = setup ~seed:0 ~styles ~smoke:false ~negative ~extensions in
  Sched.Pool.shutdown s.pool;
  Obj [ "setup_s", Float (s_of_ns s.setup_ns) ]

(* ------------------------------------------------------------------ *)
(* The case loop *)

(* Per-case timings of the re-driven loop (all ns, summed over cases). *)
type acc = {
  mutable branch_ns : int;
  mutable sysbuild_ns : int;
  mutable case_ns : int;  (** prove_case / base_case / prove_derived *)
  mutable prove_ns : int;  (** the prover durations they report *)
  mutable g_branch : gc;
  mutable g_sys : gc;
}

let acc_zero () =
  {
    branch_ns = 0;
    sysbuild_ns = 0;
    case_ns = 0;
    prove_ns = 0;
    g_branch = gc_zero;
    g_sys = gc_zero;
  }

let acc_merge a b =
  a.branch_ns <- a.branch_ns + b.branch_ns;
  a.sysbuild_ns <- a.sysbuild_ns + b.sysbuild_ns;
  a.case_ns <- a.case_ns + b.case_ns;
  a.prove_ns <- a.prove_ns + b.prove_ns;
  a.g_branch <- gc_add a.g_branch b.g_branch;
  a.g_sys <- gc_add a.g_sys b.g_sys

let ns_of_s s = int_of_float (s *. 1e9)

(* One inductive case, mirroring [Induction.prove_invariant]'s branching. *)
let traced_case it inv hints case =
  let a = acc_zero () in
  let label = Printf.sprintf "%s@%s" inv.I.inv_name (Option.value ~default:"init" case) in
  let g0 = gc_now () in
  let t0 = now_ns () in
  let spec = Cafeobj.Spec.branch (Tls.Model.spec it.style) label in
  let env = I.make_env ~spec ~ots:(I.ots it.env) () in
  let t1 = now_ns () in
  let g1 = gc_now () in
  ignore (Cafeobj.Spec.system spec);
  let t2 = now_ns () in
  let g2 = gc_now () in
  let c =
    match case with
    | None -> I.base_case env inv
    | Some action -> I.prove_case env ~hints inv ~action
  in
  let t3 = now_ns () in
  a.branch_ns <- t1 - t0;
  a.sysbuild_ns <- t2 - t1;
  a.case_ns <- t3 - t2;
  a.prove_ns <- ns_of_s c.I.duration;
  a.g_branch <- gc_diff g0 g1;
  a.g_sys <- gc_diff g1 g2;
  c, a

let traced_run pool it =
  match it.proof with
  | TI.Inductive (inv, hints) ->
    let case_names =
      None
      :: List.map
           (fun (a : Core.Ots.action) -> Some a.Core.Ots.act_op.Kernel.Signature.name)
           (I.ots it.env).Core.Ots.actions
    in
    let cases =
      Sched.Pool.parallel_map pool (traced_case it inv hints) case_names
    in
    let a = acc_zero () in
    List.iter (fun (_, b) -> acc_merge a b) cases;
    let cases = List.map fst cases in
    let proved =
      List.for_all
        (fun c -> match c.I.outcome with Core.Prover.Proved _ -> true | _ -> false)
        cases
    in
    { I.res_invariant = inv.I.inv_name; cases; proved }, a
  | TI.Derived (inv, hyps) ->
    let a = acc_zero () in
    let t0 = now_ns () in
    let r = I.prove_derived it.env ~hyps inv in
    a.case_ns <- now_ns () - t0;
    a.prove_ns <-
      List.fold_left (fun acc c -> acc + ns_of_s c.I.duration) 0 r.I.cases;
    r, a

(* Runs the items; [traced] re-drives the case loop and returns the
   accumulated per-case timings. *)
let run_items ~traced pool items =
  if traced then begin
    let rs = Sched.Pool.parallel_map pool (fun it -> it, traced_run pool it) items in
    let a = acc_zero () in
    List.iter (fun (_, (_, b)) -> acc_merge a b) rs;
    List.map (fun (it, (r, _)) -> it, r) rs, Some a
  end
  else
    ( Sched.Pool.parallel_map pool (fun it -> it, TI.run ~pool it.env it.proof) items,
      None )

let verdicts results =
  Obj
    (List.map
       (fun (it, r) -> key it r.I.res_invariant, Str (Core.Report.result_fingerprint r))
       results)

(* Deterministic prover counts over the results. *)
let prover_counts results =
  let cases = ref 0 and splits = ref 0 and vacuous = ref 0 and steps = ref 0 in
  List.iter
    (fun (_, r) ->
      List.iter
        (fun c ->
          let s = Core.Prover.outcome_stats c.I.outcome in
          incr cases;
          splits := !splits + s.Core.Prover.splits;
          vacuous := !vacuous + s.Core.Prover.vacuous;
          steps := !steps + s.Core.Prover.rewrite_steps)
        r.I.cases)
    results;
  [
    "core.cases", Int !cases;
    "core.splits", Int !splits;
    "core.vacuous", Int !vacuous;
    "kernel.rewrite_steps", Int !steps;
  ]

(* The prover/kernel rows of a traced case loop.  All of that work runs on
   the pool, so each row is the layer's domain-time divided by the pool
   size: the rows then share out the loop's wall time, and whatever the
   domains spent idle or scheduling stays in the unattributed row. *)
let case_rows a (p : profile) =
  let j = float_of_int jobs in
  let ms ns = ms_of_ns ns /. j in
  let rule_ns = p.match_ns + p.rewrite_ns + p.cond_ns in
  [
    row ~gc:a.g_branch "core.case_branch" (ms a.branch_ns);
    row ~gc:a.g_sys "kernel.system_build" (ms a.sysbuild_ns);
    row "core.case_setup" (ms (a.case_ns - a.prove_ns));
    row "kernel.match" (ms p.match_ns);
    row "kernel.rewrite" (ms p.rewrite_ns);
    row "kernel.cond" (ms p.cond_ns);
    row "kernel.red_other" (ms (p.red_ns - rule_ns));
    row "core.prover_other" (ms (a.prove_ns - p.red_ns));
  ]

let case_metrics ~wall_ns a (p : profile) =
  let hits = counter p "kernel.memo.hits" and misses = counter p "kernel.memo.misses" in
  [
    "core.case_branch_ms", Float (ms_of_ns a.branch_ns);
    "core.case_setup_ms", Float (ms_of_ns (a.case_ns - a.prove_ns));
    "core.prove_ms", Float (ms_of_ns a.prove_ns);
    "core.prover_other_ms", Float (ms_of_ns (a.prove_ns - p.red_ns));
    "kernel.system_build_ms", Float (ms_of_ns a.sysbuild_ns);
    "kernel.red_ms", Float (ms_of_ns p.red_ns);
    "kernel.match_ms", Float (ms_of_ns p.match_ns);
    "kernel.rewrite_ms", Float (ms_of_ns p.rewrite_ns);
    "kernel.cond_ms", Float (ms_of_ns p.cond_ns);
    "kernel.match_tries", Int p.tries;
    "kernel.match_hit_ratio", Float (ratio p.fires p.tries);
    "kernel.memo_lookups", Int (hits + misses);
    "kernel.memo_hit_ratio", Float (ratio hits (hits + misses));
    (* the pool's own busy counter includes nested tasks' time twice:
       count the leaf case tasks the harness timed instead *)
    "sched.busy_frac", Float (ratio (a.branch_ns + a.sysbuild_ns + a.case_ns) (jobs * wall_ns));
    "sched.steals", Int (counter p "sched.steals");
    "trace.spans_dropped", Int p.spans_dropped;
  ]

(* One [Rewrite.extend] of the resident TLS base by one ground rule, as a
   proof split does; median over repetitions, microseconds. *)
let extend_us env =
  let spec = Cafeobj.Spec.branch (Tls.Model.spec Tls.Model.Original) "perfbench-extend" in
  let benv = I.make_env ~spec ~ots:(I.ots env) () in
  let c = I.fresh_const benv Tls.Data.prin in
  let rule = Kernel.Rewrite.rule ~label:"perfbench-split" c Tls.Data.intruder in
  let base = I.system env in
  let samples =
    List.init 200 (fun _ ->
        let t0 = now_ns () in
        ignore (Sys.opaque_identity (Kernel.Rewrite.extend base [ rule ]));
        float_of_int (now_ns () - t0) /. 1e3)
  in
  quantile samples 0.5

(* ------------------------------------------------------------------ *)
(* campaign *)

let campaign ~seed ~smoke ~traced =
  let s =
    setup ~seed ~styles:[ Tls.Model.Original; Tls.Model.Cf2First ] ~smoke
      ~negative:true ~extensions:true
  in
  let g0 = gc_now () in
  let c0 = cpu_s () in
  let t0 = now_ns () in
  let (results, acc), prof =
    if traced then with_probe (fun () -> run_items ~traced s.pool s.items)
    else (run_items ~traced s.pool s.items, empty_profile)
  in
  let wall_ns = now_ns () - t0 in
  let cpu = cpu_s () -. c0 in
  let extend =
    if traced then
      match s.items with it :: _ -> Some (extend_us it.env) | [] -> None
    else None
  in
  Sched.Pool.shutdown s.pool;
  let gc = gc_diff g0 (gc_now ()) in
  let layers =
    match acc with
    | None -> []
    | Some a ->
      [
        "layers",
          table_json
            (table ~wall_ms:(ms_of_ns wall_ns) (case_rows a prof));
        ( "per_layer",
          Obj
            ([ "tls.specgen_ms", Float (ms_of_ns s.specgen_ns) ]
            @ case_metrics ~wall_ns a prof
            @ prover_counts results
            @ [ "kernel.extend_us", Float (Option.value ~default:0. extend) ]) );
      ]
  in
  Obj
    ([
       "setup_s", Float (s_of_ns s.setup_ns);
       "wall_s", Float (s_of_ns wall_ns);
       "cpu_s", Float cpu;
       "peak_rss_mb", Float (peak_rss_mb ());
       "attempted", Int (List.length results);
       "gc", gc_json gc;
       "verdicts", verdicts results;
     ]
    @ layers)

(* ------------------------------------------------------------------ *)
(* assure *)

(* The smoke lint gate runs the two cheapest checkers only. *)
let smoke_checkers = [ "completeness"; "hygiene" ]

let lint_opts ~smoke =
  if smoke then { Analysis.Lint.default_options with only = smoke_checkers }
  else Analysis.Lint.default_options

(* Per-checker wall time, from the one span per checker and module that
   [Analysis.Lint] already records. *)
let lint_rows (p : profile) =
  List.map
    (fun checker ->
      let prefix = checker ^ ":" in
      let ns =
        List.fold_left
          (fun acc (s : Telemetry.Probe.span) ->
            if
              s.sp_cat = "lint"
              && String.length s.sp_name >= String.length prefix
              && String.sub s.sp_name 0 (String.length prefix) = prefix
            then acc + s.sp_dur
            else acc)
          0 p.spans
      in
      checker, ns)
    Analysis.Lint.checkers

let assure ~seed ~smoke ~traced =
  let style = Tls.Model.Original in
  let s =
    setup ~seed ~styles:[ style ] ~smoke ~negative:false ~extensions:false
  in
  let spec = Tls.Model.spec style in
  let pool = s.pool in
  let g0 = gc_now () in
  let c0 = cpu_s () in
  let t0 = now_ns () in
  (* traced: the GC delta of each step that is one call from here *)
  let step_gc = Hashtbl.create 4 in
  let body () =
    let timed ?row f =
      let g = if traced then Some (gc_now ()) else None in
      let t = now_ns () in
      let r = f () in
      let dt = now_ns () - t in
      (match row, g with
      | Some name, Some g -> Hashtbl.replace step_gc name (gc_diff g (gc_now ()))
      | _ -> ());
      r, dt
    in
    (* traced: one probe profile per step, so each step's spans and rule
       profiles stay apart *)
    let profiled f =
      if traced then begin
        Telemetry.Probe.reset ();
        let r = f () in
        r, profile_of (Telemetry.Probe.snapshot ())
      end
      else f (), empty_profile
    in
    (* 1. the lint gate *)
    let (report, lint_ns), lint_prof =
      profiled (fun () ->
          timed (fun () ->
              Analysis.Lint.run ~pool ~opts:(lint_opts ~smoke)
                [ Analysis.Lint.Generated { label = "generated:tls"; spec } ]))
    in
    (* 2. the campaign under the global tracer *)
    let tr = Kernel.Rewrite.tracer () in
    let ((results, acc), campaign_ns), prof =
      profiled (fun () ->
          timed (fun () ->
              Kernel.Rewrite.set_tracer (Some tr);
              Fun.protect
                ~finally:(fun () -> Kernel.Rewrite.set_tracer None)
                (fun () -> run_items ~traced pool s.items)))
    in
    (* 3. certificate generation: traced reds, LPO, joins *)
    let cert, certgen_ns =
      timed ~row:"analysis.certgen" (fun () ->
          let b = Analysis.Certgen.create () in
          Analysis.Certgen.add_obligations b (Kernel.Rewrite.obligations tr);
          let term = Analysis.Termination.check spec in
          if term.Analysis.Termination.certified then
            Analysis.Certgen.add_lpo b
              ~precedence:term.Analysis.Termination.search.Kernel.Order.precedence
              (Cafeobj.Spec.all_rules spec);
          let conf = Analysis.Confluence.check ~pool ~certify:true spec in
          Analysis.Certgen.add_joins b
            ~rules:(Cafeobj.Spec.all_rules spec)
            conf.Analysis.Confluence.certs;
          Analysis.Certgen.cert b)
    in
    (* 4. serialization round trip *)
    let text, encode_ns = timed ~row:"certify.encode" (fun () -> Certify.Cert.to_string cert) in
    let decoded, decode_ns = timed ~row:"certify.decode" (fun () -> Certify.Cert.of_string text) in
    (* 5. independent replay of what was decoded *)
    let check, replay_ns =
      timed ~row:"certify.replay" (fun () ->
          match decoded with
          | Ok c -> Ok (Analysis.Certgen.check ~pool c)
          | Error msg -> Error msg)
    in
    ( report, lint_ns, lint_prof, results, acc, campaign_ns, prof, certgen_ns,
      String.length text, encode_ns, decode_ns, check, replay_ns )
  in
  let ( report, lint_ns, lint_prof, results, acc, campaign_ns, prof, certgen_ns,
        bytes, encode_ns, decode_ns, check, replay_ns ) =
    if traced then fst (with_probe body) else body ()
  in
  let wall_ns = now_ns () - t0 in
  let cpu = cpu_s () -. c0 in
  Sched.Pool.shutdown pool;
  let gc = gc_diff g0 (gc_now ()) in
  let cert_ok, cert_errors, obligations, steps_replayed =
    match check with
    | Ok r ->
      ( r.Analysis.Certgen.errors = [],
        List.length r.Analysis.Certgen.errors,
        r.Analysis.Certgen.obligations,
        r.Analysis.Certgen.steps_replayed )
    | Error _ -> false, 1, 0, 0
  in
  let cert_mb = float_of_int bytes /. 1048576. in
  let check_s = s_of_ns (decode_ns + replay_ns) in
  let layers =
    match acc with
    | None -> []
    | Some a ->
      let checker_ns = lint_rows lint_prof in
      let rows =
        List.map
          (fun (c, ns) -> row ("analysis.lint." ^ c) (ms_of_ns ns))
          checker_ns
        @ [
            row "analysis.lint_other"
              (ms_of_ns
                 (lint_ns - List.fold_left (fun acc (_, ns) -> acc + ns) 0 checker_ns));
          ]
        @ case_rows a prof
        @ [
            row "kernel.traced_campaign_other"
              (ms_of_ns campaign_ns
              -. List.fold_left (fun acc r -> acc +. r.r_ms) 0. (case_rows a prof));
          ]
        @ List.map
            (fun (name, ns) -> row ?gc:(Hashtbl.find_opt step_gc name) name (ms_of_ns ns))
            [
              "analysis.certgen", certgen_ns;
              "certify.encode", encode_ns;
              "certify.decode", decode_ns;
              "certify.replay", replay_ns;
          ]
      in
      [
        "layers", table_json (table ~wall_ms:(ms_of_ns wall_ns) rows);
        ( "per_layer",
          Obj
            ([ "tls.specgen_ms", Float (ms_of_ns s.specgen_ns) ]
            @ List.map
                (fun (c, ns) -> "analysis.lint." ^ c ^ "_ms", Float (ms_of_ns ns))
                checker_ns
            @ [
                "analysis.certgen_ms", Float (ms_of_ns certgen_ns);
                "kernel.traced_campaign_ms", Float (ms_of_ns campaign_ns);
                "certify.encode_ms", Float (ms_of_ns encode_ns);
                "certify.decode_ms", Float (ms_of_ns decode_ns);
                "certify.replay_ms", Float (ms_of_ns replay_ns);
                "certify.obligations", Int obligations;
                "certify.steps_replayed", Int steps_replayed;
                "check_s", Float check_s;
                "cert_mb", Float cert_mb;
              ]
            @ case_metrics ~wall_ns:campaign_ns a prof
            @ prover_counts results) );
      ]
  in
  Obj
    ([
       "setup_s", Float (s_of_ns s.setup_ns);
       "wall_s", Float (s_of_ns wall_ns);
       "cpu_s", Float cpu;
       "peak_rss_mb", Float (peak_rss_mb ());
       "attempted", Int (List.length results + 2);
       "gc", gc_json gc;
       "verdicts", verdicts results;
       ( "lint",
         Obj
           [
             "errors", Int report.Analysis.Lint.errors;
             "warnings", Int report.Analysis.Lint.warnings;
             "infos", Int report.Analysis.Lint.infos;
           ] );
       ( "certificate",
         Obj
           [
             "accepted", Bool cert_ok;
             "errors", Int cert_errors;
             "obligations", Int obligations;
             "steps_replayed", Int steps_replayed;
             "bytes", Int bytes;
           ] );
       "check_s", Float check_s;
       "cert_mb", Float cert_mb;
     ]
    @ layers)
