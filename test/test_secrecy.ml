(* Tests of the static secrecy analyzer (lib/analysis/secrecy.ml): the
   unbounded secrecy proof of the generated TLS handshake, the golden
   derivation witness and its concrete certified replay on the
   deliberately leaky fixture, the QCheck property that saturation order
   does not change the verdict, the flow checker, and the lint
   integration (allowlist demotion, SARIF rendering). *)

open Kernel

let find_file name =
  let candidates =
    [ name; "../" ^ name; "../../" ^ name; "../../../" ^ name;
      "test/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "file %s not found from %s" name (Sys.getcwd ())

let eval_module src name =
  let env = Cafeobj.Eval.create () in
  ignore (Cafeobj.Eval.eval_string env src);
  match Cafeobj.Eval.find_module env name with
  | Some m -> m
  | None -> Alcotest.failf "module %s not elaborated" name

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let load_leaky () =
  let path = find_file "specs/leaky.cafe" in
  let src = In_channel.with_open_bin path In_channel.input_all in
  eval_module src "LEAKY"

let leaky_spec = lazy (load_leaky ())
let tls_spec = lazy (Tls.Model.spec Tls.Model.Original)
let leaky_result = lazy (Analysis.Secrecy.analyze (Lazy.force leaky_spec))
let tls_result = lazy (Analysis.Secrecy.analyze (Lazy.force tls_spec))

let leak_of (r : Analysis.Secrecy.result) =
  match r.Analysis.Secrecy.r_verdict with
  | Analysis.Secrecy.Leak l -> l
  | _ -> Alcotest.fail "expected a Leak verdict"

(* ------------------------------------------------------------------ *)
(* The unbounded TLS secrecy proof — the point of the analyzer: no BFS,
   no induction, just saturation of the Horn abstraction. *)

let test_tls_secure () =
  List.iter
    (fun style ->
      let r = Analysis.Secrecy.analyze (Tls.Model.spec style) in
      (match r.Analysis.Secrecy.r_verdict with
      | Analysis.Secrecy.Not_applicable reason ->
        Alcotest.failf "not applicable: %s" reason
      | _ -> ());
      Alcotest.(check string) "verdict" "secure"
        (Analysis.Secrecy.verdict_name r);
      Alcotest.(check bool) "saturated with facts" true
        (r.Analysis.Secrecy.r_facts > 0);
      Alcotest.(check bool) "pms query derived from the signature" true
        (List.exists
           (fun q -> q.Analysis.Secrecy.q_name = "in-cpms")
           r.Analysis.Secrecy.r_queries))
    [ Tls.Model.Original; Tls.Model.Cf2First ]

(* The Horn translation of the generated TLS spec, pinned: a change to how
   the OTS view is recognized or compiled into clauses moves these counts. *)
let test_tls_horn_counts () =
  let r = Lazy.force tls_result in
  Alcotest.(check (list int)) "clauses, facts, rounds, resolutions"
    [ 38; 26; 35; 163 ]
    Analysis.Secrecy.
      [ r.r_clauses; r.r_facts; r.r_rounds; r.r_resolutions ]

let test_non_protocol_not_applicable () =
  let m =
    eval_module
      {|mod SNAT {
          [ SN ]
          op sz : -> SN { ctor } .
          op ss : SN -> SN { ctor } .
          op sp : SN SN -> SN .
          vars M N : SN .
          eq sp(sz, N) = N .
          eq sp(ss(M), N) = ss(sp(M, N)) .
        }|}
      "SNAT"
  in
  let r = Analysis.Secrecy.analyze m in
  Alcotest.(check string) "verdict" "n/a" (Analysis.Secrecy.verdict_name r)

(* ------------------------------------------------------------------ *)
(* Golden derivation witness on the leaky fixture *)

let golden_witness =
  "(secrecy-witness (spec LEAKY) (query in-cpms) (secret (pms (? Q1 Prin) \
   (? Q2 Prin) (? Q3 Secret))) (step (pred glean:in-cpms) (fact (pms (? %1 \
   Prin) (? %2 Prin) (? %3 Secret))) (rule LEAKY-eq-22/1) (via (kx (? %1 \
   Prin) (? %2 Prin) (epms (pk intruder) (pms (? %1 Prin) (? %2 Prin) (? %3 \
   Secret)))) (step (pred net) (fact (kx (? %1 Prin) (? %2 Prin) (epms (? \
   %3 PubKey) (pms (? %1 Prin) (? %2 Prin) (? %4 Secret))))) (rule \
   LEAKY-eq-49) (via (ct intruder (? %1 Prin) (cert (? %2 Prin) (? %3 \
   PubKey) (sig ca intruder (pk intruder)))) (step (pred net) (fact (ct \
   intruder (? %1 Prin) (cert (? %2 Prin) (? %3 PubKey) (sig ca intruder \
   (pk intruder))))) (rule LEAKY-eq-50) (via (sig ca intruder (pk \
   intruder)) (step (pred glean:in-csig) (fact (sig ca intruder (pk \
   intruder))) (rule LEAKY-eq-23/base1)))))))))"

let test_leaky_golden_witness () =
  let r = Lazy.force leaky_result in
  Alcotest.(check string) "verdict" "leaks" (Analysis.Secrecy.verdict_name r);
  let l = leak_of r in
  let sx = Analysis.Secrecy.witness_sexp ~spec:"LEAKY" l in
  Alcotest.(check string) "golden witness" golden_witness
    (Certify.Sexp.to_string sx)

(* Differential: the static leak witness replays step by step in the
   concrete rewriter, and the certify kernel accepts the traced run. *)
let test_leaky_replay () =
  let spec = Lazy.force leaky_spec in
  let l = leak_of (Lazy.force leaky_result) in
  let rp = Analysis.Secrecy.replay spec l in
  (match rp.Analysis.Secrecy.rp_error with
  | None -> ()
  | Some e -> Alcotest.failf "replay error: %s" e);
  Alcotest.(check bool) "replayed concretely" true rp.Analysis.Secrecy.rp_ok;
  Alcotest.(check bool) "certify kernel accepts" true
    rp.Analysis.Secrecy.rp_cert_ok;
  Alcotest.(check bool) "performed concrete reductions" true
    (rp.Analysis.Secrecy.rp_checks > 0);
  Alcotest.(check bool) "traced obligations" true
    (rp.Analysis.Secrecy.rp_obligations > 0)

(* ------------------------------------------------------------------ *)
(* QCheck: permuting the Horn clause list does not change the verdict *)

let clauses_of spec =
  match Analysis.Secrecy.clauses spec with
  | Ok cs -> cs
  | Error e -> Alcotest.failf "not an OTS spec: %s" e

let leaky_clauses = lazy (clauses_of (Lazy.force leaky_spec))
let tls_clauses = lazy (clauses_of (Lazy.force tls_spec))

let saturate_with spec cls =
  let o = Analysis.Secrecy.default_options in
  let normalize t =
    try Cafeobj.Spec.reduce spec t with Rewrite.Limit_exceeded _ -> t
  in
  let constructors srt =
    List.filter
      (fun (op : Signature.op) ->
        Signature.is_ctor op && Sort.equal op.Signature.sort srt)
      (Cafeobj.Spec.all_ops spec)
  in
  Analysis.Horn.saturate ~depth:o.Analysis.Secrecy.depth
    ~max_facts:o.Analysis.Secrecy.max_facts
    ~expansion:o.Analysis.Secrecy.expansion ~normalize ~constructors cls

(* [find_leak] re-derived over a raw saturation outcome: some fact of the
   query predicate covers the secret pattern with honest principals. *)
let leaks spec outcome (q : Analysis.Secrecy.query) =
  let intr =
    List.find_map
      (fun (o : Signature.op) ->
        if o.Signature.name = "intruder" && o.Signature.arity = [] then
          Some (Term.const o)
        else None)
      (Cafeobj.Spec.all_ops spec)
  in
  List.exists
    (fun (f : Analysis.Horn.fact) ->
      let arg =
        Analysis.Horn.map_vars
          (fun v -> Term.var (v.Term.v_name ^ "!f") v.Term.v_sort)
          f.Analysis.Horn.f_arg
      in
      match Matching.unify arg q.Analysis.Secrecy.q_pattern with
      | None -> false
      | Some s ->
        List.for_all
          (fun v ->
            match (Subst.find s v, intr) with
            | Some t, Some i -> not (Term.equal t i)
            | _ -> true)
          q.Analysis.Secrecy.q_honest)
    (Analysis.Horn.facts_of outcome q.Analysis.Secrecy.q_pred)

let apply_perm cls perm = List.map (List.nth cls) perm

let gen_perms st =
  let perm cls =
    QCheck.Gen.shuffle_l (List.init (List.length cls) Fun.id) st
  in
  (perm (Lazy.force leaky_clauses), perm (Lazy.force tls_clauses))

let print_perms (lp, tp) =
  let s l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "leaky:[%s] tls:[%s]" (s lp) (s tp)

let prop_order_invariant =
  QCheck.Test.make ~count:15
    ~name:"saturation verdict is clause-order invariant"
    (QCheck.make ~print:print_perms gen_perms)
    (fun (lp, tp) ->
      let lspec = Lazy.force leaky_spec and tspec = Lazy.force tls_spec in
      let lout =
        saturate_with lspec (apply_perm (Lazy.force leaky_clauses) lp)
      in
      let tout = saturate_with tspec (apply_perm (Lazy.force tls_clauses) tp) in
      let lqs = (Lazy.force leaky_result).Analysis.Secrecy.r_queries in
      let tqs = (Lazy.force tls_result).Analysis.Secrecy.r_queries in
      lout.Analysis.Horn.saturated
      && List.exists (leaks lspec lout) lqs
      && tout.Analysis.Horn.saturated
      && not (List.exists (leaks tspec tout) tqs))

(* ------------------------------------------------------------------ *)
(* Flow checker *)

let test_flow_dead_transition () =
  let m =
    eval_module
      {|mod FLOWD {
          *[ Sys ]*
          [ Cnt ]
          op fz : -> Cnt { ctor } .
          op fs : Cnt -> Cnt { ctor } .
          op finit : -> Sys .
          op tick : Sys -> Sys .
          op noop : Sys -> Sys .
          op cnt : Sys -> Cnt .
          var S : Sys .
          eq cnt(finit) = fz .
          eq cnt(tick(S)) = fs(cnt(S)) .
          eq cnt(noop(S)) = cnt(S) .
        }|}
      "FLOWD"
  in
  let r = Analysis.Flow.check m in
  let find name =
    match
      List.find_opt
        (fun t -> t.Analysis.Flow.t_name = name)
        r.Analysis.Flow.transitions
    with
    | Some t -> t
    | None -> Alcotest.failf "transition %s not recognized" name
  in
  Alcotest.(check bool) "noop is dead" true (find "noop").Analysis.Flow.t_dead;
  Alcotest.(check bool) "tick is live" false
    (find "tick").Analysis.Flow.t_dead;
  Alcotest.(check (list string)) "tick writes cnt" [ "cnt" ]
    (find "tick").Analysis.Flow.t_writes;
  Alcotest.(check bool) "dead-transition reported" true
    (List.exists
       (fun d -> d.Analysis.Diagnostic.code = "dead-transition")
       r.Analysis.Flow.diagnostics)

let test_flow_shipped_specs_clean () =
  (* the five shipped specs and both generated TLS styles are flow-clean;
     CI greps for this, so keep it pinned here too *)
  List.iter
    (fun style ->
      let r = Analysis.Flow.check (Tls.Model.spec style) in
      Alcotest.(check int) "no flow diagnostics" 0
        (List.length r.Analysis.Flow.diagnostics))
    [ Tls.Model.Original; Tls.Model.Cf2First ]

(* ------------------------------------------------------------------ *)
(* Lint integration: allowlist demotion and SARIF rendering *)

let lint_leaky ?(allow = []) () =
  let opts =
    { Analysis.Lint.default_options with
      only = [ "secrecy" ];
      allow;
    }
  in
  Analysis.Lint.run ~opts [ Analysis.Lint.File (find_file "specs/leaky.cafe") ]

let test_lint_secrecy_error () =
  let report = lint_leaky () in
  Alcotest.(check int) "one error" 1 report.Analysis.Lint.errors;
  Alcotest.(check bool) "secret-leaks code" true
    (List.exists
       (fun d -> d.Analysis.Diagnostic.code = "secret-leaks")
       report.Analysis.Lint.diagnostics);
  Alcotest.(check bool) "summary records verdict" true
    (List.exists
       (fun m -> m.Analysis.Lint.m_secrecy = Some "leaks")
       report.Analysis.Lint.modules)

let test_lint_allow_demotes () =
  let report = lint_leaky ~allow:[ "LEAKY:secret-leaks" ] () in
  Alcotest.(check int) "no errors" 0 report.Analysis.Lint.errors;
  let demoted =
    List.find_opt
      (fun d -> d.Analysis.Diagnostic.code = "secret-leaks")
      report.Analysis.Lint.diagnostics
  in
  match demoted with
  | None -> Alcotest.fail "secret-leaks diagnostic disappeared"
  | Some d ->
    Alcotest.(check bool) "demoted to info" true
      (d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Info);
    Alcotest.(check bool) "annotated [allowed]" true
      (contains ~needle:"[allowed]" d.Analysis.Diagnostic.message)

let test_sarif () =
  let report = lint_leaky () in
  let s = Analysis.Sarif.of_report report in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("sarif contains " ^ needle) true
        (contains ~needle s))
    [
      "\"version\": \"2.1.0\"";
      "\"name\": \"ots-lint\"";
      "\"ruleId\": \"secrecy/secret-leaks\"";
      "\"level\": \"error\"";
      "leaky.cafe";
      "\"startLine\"";
    ]

(* ------------------------------------------------------------------ *)

let suite =
  ( "secrecy",
    [
      "tls handshake proven secure", `Quick, test_tls_secure;
      "tls horn translation counts", `Quick, test_tls_horn_counts;
      "non-protocol spec is n/a", `Quick, test_non_protocol_not_applicable;
      "leaky golden witness", `Quick, test_leaky_golden_witness;
      "leaky witness replays + certifies", `Quick, test_leaky_replay;
      "flow: dead transition detected", `Quick, test_flow_dead_transition;
      "flow: tls specs are clean", `Quick, test_flow_shipped_specs_clean;
      "lint: leak is an error", `Quick, test_lint_secrecy_error;
      "lint: allowlist demotes to info", `Quick, test_lint_allow_demotes;
      "lint: sarif rendering", `Quick, test_sarif;
      QCheck_alcotest.to_alcotest ?verbose:None ?long:None
        prop_order_invariant;
    ] )
