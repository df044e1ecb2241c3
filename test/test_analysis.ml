(* Tests of the lib/analysis spec linter: the five checkers, the
   end-to-end lint report on the deliberately broken fixture, the
   certification of the shipped specs and the generated TLS module, and
   the property that a linter-certified system computes order-independent
   normal forms. *)

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

let codes ds = List.map (fun d -> d.Analysis.Diagnostic.code) ds

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let errors_of ds =
  List.filter (fun d -> d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error) ds

(* ------------------------------------------------------------------ *)
(* Termination *)

let test_termination_certifies () =
  let m =
    eval_module
      {|mod TNAT {
          [ TN ]
          op tz : -> TN { ctor } .
          op ts : TN -> TN { ctor } .
          op tplus : TN TN -> TN .
          vars M N : TN .
          eq tplus(tz, N) = N .
          eq tplus(ts(M), N) = ts(tplus(M, N)) .
        }|}
      "TNAT"
  in
  let r = Analysis.Termination.check m in
  Alcotest.(check bool) "certified" true r.Analysis.Termination.certified;
  Alcotest.(check int) "no diagnostics" 0
    (List.length r.Analysis.Termination.diagnostics)

let test_termination_loop () =
  let m =
    eval_module
      {|mod TLOOP {
          [ TL ]
          op la : -> TL { ctor } .
          op lf : TL -> TL .
          var X : TL .
          eq lf(X) = lf(lf(X)) .
        }|}
      "TLOOP"
  in
  let r = Analysis.Termination.check m in
  Alcotest.(check bool) "not certified" false r.Analysis.Termination.certified;
  let errs = errors_of r.Analysis.Termination.diagnostics in
  Alcotest.(check (list string)) "one unoriented" [ "unoriented-rule" ] (codes errs);
  Alcotest.(check bool) "has position" true
    ((List.hd errs).Analysis.Diagnostic.pos <> None)

(* ------------------------------------------------------------------ *)
(* Confluence *)

let test_confluence_unjoinable () =
  let m =
    eval_module
      {|mod COIN {
          [ Coin ]
          op heads : -> Coin { ctor } .
          op tails : -> Coin { ctor } .
          op toss : -> Coin .
          eq toss = heads .
          eq toss = tails .
        }|}
      "COIN"
  in
  let r = Analysis.Confluence.check m in
  Alcotest.(check bool) "not certified" false r.Analysis.Confluence.certified;
  Alcotest.(check bool) "unjoinable reported" true
    (List.mem "unjoinable-pair" (codes (errors_of r.Analysis.Confluence.diagnostics)))

let test_confluence_semantic_join () =
  (* The critical pair of the two [pick] rules diverges into nested
     conditionals in opposite orders — exactly the shape the if-lifted TLS
     rules produce.  The normal forms differ syntactically and only a
     Shannon case split on the conditions identifies them. *)
  let m =
    eval_module
      {|mod CSEM {
          [ CS ]
          op ca : -> CS { ctor } .
          op cb : -> CS { ctor } .
          op prd : CS -> Bool .
          op qrd : CS -> Bool .
          op pick : CS -> CS .
          var X : CS .
          eq pick(X) = if prd(X) then (if qrd(X) then X else ca fi) else (if qrd(X) then ca else cb fi) fi .
          eq pick(X) = if qrd(X) then (if prd(X) then X else ca fi) else (if prd(X) then ca else cb fi) fi .
        }|}
      "CSEM"
  in
  let r = Analysis.Confluence.check m in
  Alcotest.(check bool) "certified" true r.Analysis.Confluence.certified;
  Alcotest.(check bool) "semantic joins counted" true
    (r.Analysis.Confluence.semantic > 0)

(* ------------------------------------------------------------------ *)
(* Sufficient completeness *)

let test_completeness_missing_case () =
  let m =
    eval_module
      {|mod CHALF {
          [ CN ]
          op cz : -> CN { ctor } .
          op cs : CN -> CN { ctor } .
          op chalf : CN -> CN .
          var N : CN .
          eq chalf(cz) = cz .
          eq chalf(cs(cs(N))) = cs(chalf(N)) .
        }|}
      "CHALF"
  in
  let r = Analysis.Completeness.check m in
  let errs = errors_of r.Analysis.Completeness.diagnostics in
  Alcotest.(check (list string)) "one missing pattern" [ "missing-pattern" ]
    (codes errs);
  Alcotest.(check bool) "names the pattern" true
    (contains ~needle:"chalf(cs(cz))" (List.hd errs).Analysis.Diagnostic.message)

let test_completeness_projection_is_info () =
  (* A selector defined on one of two constructors: partial, but every rhs
     is a variable, so the missing case is idiomatic junk — info only. *)
  let m =
    eval_module
      {|mod CSEL {
          [ CB ]
          op leaf : -> CB { ctor } .
          op node : CB -> CB { ctor } .
          op child : CB -> CB .
          var N : CB .
          eq child(node(N)) = N .
        }|}
      "CSEL"
  in
  let r = Analysis.Completeness.check m in
  Alcotest.(check int) "no errors" 0
    (List.length (errors_of r.Analysis.Completeness.diagnostics));
  Alcotest.(check bool) "info missing-pattern present" true
    (List.exists
       (fun d ->
         d.Analysis.Diagnostic.code = "missing-pattern"
         && d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Info)
       r.Analysis.Completeness.diagnostics)

(* ------------------------------------------------------------------ *)
(* Hygiene *)

let hygiene_module =
  {|mod HYG {
      [ HS ]
      op ha : -> HS { ctor } .
      op hf : HS -> HS .
      op hg : HS -> HS .
      var X : HS .
      eq hf(X) = ha .
      eq hf(ha) = hg(ha) .
      eq hg(X) = ha .
      eq hg(X) = ha .
    }|}

let test_hygiene_shadowed_and_duplicate () =
  let m = eval_module hygiene_module "HYG" in
  let ds = (Analysis.Hygiene.check m).Analysis.Hygiene.diagnostics in
  Alcotest.(check bool) "shadowed (different result) is a warning" true
    (List.exists
       (fun d ->
         d.Analysis.Diagnostic.code = "shadowed-rule"
         && d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Warning)
       ds);
  Alcotest.(check bool) "duplicate is an info" true
    (List.exists
       (fun d ->
         d.Analysis.Diagnostic.code = "duplicate-rule"
         && d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Info)
       ds)

let test_hygiene_vacuous_condition () =
  let m =
    eval_module
      {|mod HVAC {
          [ HV ]
          op va : -> HV { ctor } .
          op vp : HV -> Bool .
          op vf : HV -> HV .
          var X : HV .
          ceq vf(X) = va if vp(X) and not(vp(X)) .
        }|}
      "HVAC"
  in
  let ds = (Analysis.Hygiene.check m).Analysis.Hygiene.diagnostics in
  Alcotest.(check bool) "vacuous condition is an error" true
    (List.mem "vacuous-condition" (codes (errors_of ds)))

(* ------------------------------------------------------------------ *)
(* Proof-score coverage *)

let coverage_program complementary =
  Printf.sprintf
    {|mod COV {
        [ CV ]
        op cva : -> CV { ctor } .
        op good : CV -> Bool .
      }
      open COV
      op w : -> CV .
      eq good(w) = true .
      red good(w) .
      close
      open COV
      op w : -> CV .
      eq good(w) = %s .
      red good(w) == %s .
      close|}
    (if complementary then "false" else "true")
    (if complementary then "false" else "true")

let test_coverage_exhaustive () =
  let program = Cafeobj.Parser.parse_string (coverage_program true) in
  let r = Analysis.Coverage.check program in
  Alcotest.(check int) "one group" 1 (List.length r.Analysis.Coverage.groups);
  Alcotest.(check int) "no diagnostics" 0
    (List.length r.Analysis.Coverage.diagnostics)

let test_coverage_inexhaustive () =
  let program = Cafeobj.Parser.parse_string (coverage_program false) in
  let r = Analysis.Coverage.check program in
  Alcotest.(check (list string)) "one non-exhaustive split"
    [ "non-exhaustive-split" ]
    (codes r.Analysis.Coverage.diagnostics)

(* ------------------------------------------------------------------ *)
(* End-to-end lint of the broken fixture *)

let broken_report =
  lazy (Analysis.Lint.run [ Analysis.Lint.File (find_file "fixtures/broken.cafe") ])

let test_fixture_exact_errors () =
  let r = Lazy.force broken_report in
  Alcotest.(check int) "exactly three errors" 3 r.Analysis.Lint.errors;
  let errs = errors_of r.Analysis.Lint.diagnostics in
  Alcotest.(check (list string)) "the three expected codes"
    [ "missing-pattern"; "non-exhaustive-split"; "unoriented-rule" ]
    (List.sort String.compare (codes errs));
  List.iter
    (fun d ->
      Alcotest.(check bool)
        ("error has a position: " ^ d.Analysis.Diagnostic.message)
        true
        (d.Analysis.Diagnostic.pos <> None))
    errs

let test_fixture_json () =
  let json = Analysis.Lint.report_to_json (Lazy.force broken_report) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json contains " ^ needle) true
        (contains ~needle json))
    [
      {|"errors": 3|};
      {|"code": "unoriented-rule"|};
      {|"code": "missing-pattern"|};
      {|"code": "non-exhaustive-split"|};
      {|"terminating": false|};
    ]

let test_lint_only_skip () =
  let file = Analysis.Lint.File (find_file "fixtures/broken.cafe") in
  let opts =
    { Analysis.Lint.default_options with Analysis.Lint.only = [ "termination" ] }
  in
  let r = Analysis.Lint.run ~opts [ file ] in
  Alcotest.(check (list string)) "only termination errors" [ "unoriented-rule" ]
    (codes (errors_of r.Analysis.Lint.diagnostics));
  let opts =
    { Analysis.Lint.default_options with Analysis.Lint.skip = [ "coverage" ] }
  in
  let r = Analysis.Lint.run ~opts [ file ] in
  Alcotest.(check int) "coverage skipped" 2 r.Analysis.Lint.errors;
  Alcotest.check_raises "unknown checker rejected"
    (Invalid_argument
       "unknown checker nope (expected one of termination, confluence, \
        completeness, hygiene, coverage, secrecy, flow, independence)")
    (fun () ->
      ignore
        (Analysis.Lint.run
           ~opts:{ Analysis.Lint.default_options with Analysis.Lint.only = [ "nope" ] }
           [ file ]))

(* ------------------------------------------------------------------ *)
(* Certification of the shipped specs and the generated TLS module *)

let test_certify_shipped_specs () =
  let r =
    Analysis.Lint.run
      [
        Analysis.Lint.File (find_file "specs/peano.cafe");
        Analysis.Lint.File (find_file "specs/lock.cafe");
      ]
  in
  Alcotest.(check int) "no errors" 0 r.Analysis.Lint.errors;
  Alcotest.(check int) "no warnings" 0 r.Analysis.Lint.warnings;
  List.iter
    (fun m ->
      Alcotest.(check (option bool))
        (m.Analysis.Lint.m_name ^ " terminating")
        (Some true) m.Analysis.Lint.m_terminating;
      Alcotest.(check (option bool))
        (m.Analysis.Lint.m_name ^ " joinable")
        (Some true) m.Analysis.Lint.m_joinable)
    r.Analysis.Lint.modules

let test_certify_generated_tls () =
  let r =
    (* every default checker, independence over all 378 TLS action pairs
       included, exactly as the lint gate runs them *)
    Analysis.Lint.run
      [
        Analysis.Lint.Generated
          { label = "generated:tls"; spec = Tls.Model.spec Tls.Model.Original };
      ]
  in
  Alcotest.(check int) "no errors" 0 r.Analysis.Lint.errors;
  match r.Analysis.Lint.modules with
  | [ m ] ->
    Alcotest.(check (option bool)) "terminating" (Some true) m.Analysis.Lint.m_terminating;
    Alcotest.(check (option bool)) "joinable" (Some true) m.Analysis.Lint.m_joinable;
    Alcotest.(check bool) "thousands of pairs actually checked" true
      (match m.Analysis.Lint.m_pairs with Some n -> n > 1000 | None -> false);
    Alcotest.(check (option (pair int int))) "independent action pairs" (Some (265, 378))
      m.Analysis.Lint.m_independent
  | ms -> Alcotest.failf "expected one module, got %d" (List.length ms)

(* ------------------------------------------------------------------ *)
(* Property: a certified system has order-independent normal forms.

   The linter's certificate is "terminating (LPO) + every critical pair
   joinable"; by Newman's lemma such a system is confluent, so normalize
   must compute the same normal form whatever order the rules are tried
   in.  Random ground systems keep the certificate checkable directly. *)

let psort = Sort.visible "LintProp"
let psig = Signature.create ()
let pa = Signature.declare psig "lint-a" [] psort ~attrs:[]
let pb = Signature.declare psig "lint-b" [] psort ~attrs:[]
let pf = Signature.declare psig "lint-f" [ psort ] psort ~attrs:[]
let pg = Signature.declare psig "lint-g" [ psort; psort ] psort ~attrs:[]

let gen_pterm =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then oneofl [ Term.const pa; Term.const pb ]
        else
          frequency
            [
              1, oneofl [ Term.const pa; Term.const pb ];
              2, map (fun t -> Term.app pf [ t ]) (self (n / 2));
              2, map2 (fun a b -> Term.app pg [ a; b ]) (self (n / 2)) (self (n / 2));
            ]))

let gen_system =
  QCheck.Gen.(
    pair
      (list_size (1 -- 3) (pair gen_pterm gen_pterm))
      (list_size (return 4) gen_pterm))

let print_system (eqs, terms) =
  String.concat "; "
    (List.map (fun (l, r) -> Term.to_string l ^ " -> " ^ Term.to_string r) eqs)
  ^ " @ "
  ^ String.concat ", " (List.map Term.to_string terms)

let certified_normal_forms_agree (eqs, terms) =
  match
    List.mapi
      (fun i (l, r) -> Rewrite.rule ~label:(Printf.sprintf "prop%d" i) l r)
      eqs
  with
  | exception Invalid_argument _ -> true
  | rules -> (
    let res = Order.search_precedence ~ops:[ pa; pb; pf; pg ] rules in
    if res.Order.unoriented <> [] then true
    else
      let nf sys t =
        try Some (Rewrite.normalize sys t)
        with Rewrite.Limit_exceeded _ -> None
      in
      let sys = Rewrite.make rules in
      Rewrite.set_step_limit sys 50_000;
      let joinable =
        List.for_all
          (fun (o : Completion.overlap) ->
            match nf sys o.Completion.left, nf sys o.Completion.right with
            | Some l, Some r -> Term.equal l r
            | _ -> false)
          (Completion.all_critical_pairs rules)
      in
      if not joinable then true
      else
        (* certified: any rule order must give the same normal forms *)
        let reordered =
          [ Rewrite.make (List.rev rules);
            Rewrite.make (match rules with [] -> [] | r :: rest -> rest @ [ r ]) ]
        in
        List.iter (fun s -> Rewrite.set_step_limit s 50_000) reordered;
        List.for_all
          (fun t ->
            let reference = nf sys t in
            reference <> None
            && List.for_all
                 (fun s ->
                   match reference, nf s t with
                   | Some a, Some b -> Term.equal a b
                   | _ -> false)
                 reordered)
          terms)

let prop_certified_order_independent =
  QCheck.Test.make ~name:"linter-certified systems are order-independent"
    ~count:300
    (QCheck.make ~print:print_system gen_system)
    certified_normal_forms_agree

let qcheck_cases =
  List.map
    (QCheck_alcotest.to_alcotest ?verbose:None ?long:None)
    [ prop_certified_order_independent ]

let tests =
  [
    "termination certifies", `Quick, test_termination_certifies;
    "termination flags loop", `Quick, test_termination_loop;
    "confluence flags unjoinable", `Quick, test_confluence_unjoinable;
    "confluence semantic join", `Quick, test_confluence_semantic_join;
    "completeness missing case", `Quick, test_completeness_missing_case;
    "completeness projection info", `Quick, test_completeness_projection_is_info;
    "hygiene shadowed/duplicate", `Quick, test_hygiene_shadowed_and_duplicate;
    "hygiene vacuous condition", `Quick, test_hygiene_vacuous_condition;
    "coverage exhaustive", `Quick, test_coverage_exhaustive;
    "coverage inexhaustive", `Quick, test_coverage_inexhaustive;
    "fixture exact errors", `Quick, test_fixture_exact_errors;
    "fixture json", `Quick, test_fixture_json;
    "lint only/skip", `Quick, test_lint_only_skip;
    "shipped specs certified", `Quick, test_certify_shipped_specs;
    "generated TLS certified", `Quick, test_certify_generated_tls;
  ]
  @ qcheck_cases

let suite = "analysis", tests
