(* Certificate round-trip and adversarial-tampering tests: a valid traced
   campaign must check, and every forged certificate — wrong rule, wrong
   position, wrong substitution, skipped condition discharge, bogus AC
   permutation, reversed LPO precedence — must be rejected with a
   positioned diagnostic. *)

open Kernel
module C = Certify.Cert

let nat = Sort.visible "TcNat"
let sg = Signature.create ()
let zop = Signature.declare sg "tcZ" [] nat ~attrs:[ Signature.Ctor ]
let sop = Signature.declare sg "tcS" [ nat ] nat ~attrs:[ Signature.Ctor ]
let plusop = Signature.declare sg "tcP" [ nat; nat ] nat ~attrs:[]
let uop = Signature.declare sg "tcU" [ nat; nat ] nat ~attrs:[ Signature.Ac ]
let iszop = Signature.declare sg "tcIsz" [ nat ] Sort.bool ~attrs:[]
let gateop = Signature.declare sg "tcGate" [ nat ] nat ~attrs:[]
let caop = Signature.declare sg "tcA" [] nat ~attrs:[ Signature.Ctor ]
let cbop = Signature.declare sg "tcB" [] nat ~attrs:[ Signature.Ctor ]
let ccop = Signature.declare sg "tcC" [] nat ~attrs:[ Signature.Ctor ]
let z = Term.const zop
let s t = Term.app sop [ t ]
let plus a b = Term.app plusop [ a; b ]
let u a b = Term.app uop [ a; b ]
let isz t = Term.app iszop [ t ]
let gate t = Term.app gateop [ t ]
let vM = Term.var "M" nat
let vN = Term.var "N" nat

let rules =
  [
    Rewrite.rule ~label:"tc-p0" (plus z vN) vN;
    Rewrite.rule ~label:"tc-ps" (plus (s vM) vN) (s (plus vM vN));
    Rewrite.rule ~label:"tc-isz" (isz z) Term.tt;
    Rewrite.rule ~cond:(isz vN) ~label:"tc-gate" (gate vN) z;
  ]

(* Trace three reductions: a two-step [plus], a pure AC reorder (records a
   permutation, no rule step) and a conditional rule discharge. *)
let traced_cert () =
  let sys = Rewrite.make rules in
  let tr = Rewrite.tracer () in
  Rewrite.set_tracer (Some tr);
  Fun.protect ~finally:(fun () -> Rewrite.set_tracer None) @@ fun () ->
  ignore (Rewrite.normalize sys (plus (s z) (s (s z))));
  ignore (Rewrite.normalize sys (u (Term.const ccop) (u (Term.const caop) (Term.const cbop))));
  ignore (Rewrite.normalize sys (gate z));
  let b = Analysis.Certgen.create () in
  Analysis.Certgen.add_obligations b (Rewrite.obligations tr);
  Analysis.Certgen.cert b

let check_errors cert = Certify.Check.create cert |> Certify.Check.check_all

(* A forgery must be rejected by one checker over the whole certificate
   and, with the same diagnostics, by the chunked replay plan that
   Certgen.check and check.exe share, whatever the chunk count. *)
let expect_reject what cert ~path ~msg =
  let errors = check_errors cert in
  List.iter
    (fun chunks ->
      if fst (Certify.Check.replay ~chunks ~map:List.map cert) <> errors then
        Alcotest.failf "%s: replay in %d chunk(s) disagrees with check_all" what
          chunks)
    [ 1; 2; 3 ];
  match errors with
  | [] -> Alcotest.failf "%s: tampered certificate was accepted" what
  | e :: _ ->
    let contains hay needle =
      let lh = String.length hay and ln = String.length needle in
      let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
      ln = 0 || go 0
    in
    if not (contains e.Certify.Check.e_path path) then
      Alcotest.failf "%s: diagnostic path %S does not mention %S" what
        e.Certify.Check.e_path path;
    if not (contains e.Certify.Check.e_msg msg) then
      Alcotest.failf "%s: diagnostic %S does not mention %S" what
        e.Certify.Check.e_msg msg

(* Rebuild the cert with red number [i]'s derivation transformed. *)
let tamper_red cert i f =
  {
    cert with
    C.reds =
      List.mapi
        (fun j (r : C.red) -> if i = j then { r with C.red_deriv = f r.red_deriv } else r)
        cert.C.reds;
  }

(* [App] carries an inlined record, so the rebuild has to happen inside
   the match: [f] maps the (children, perm, step) triple. *)
let map_root_app what (d : C.deriv) f =
  match d.C.d_node with
  | C.App { children; perm; step } ->
    let children, perm, step = f children perm step in
    C.deriv ~d_in:d.C.d_in ~d_out:d.C.d_out (C.App { children; perm; step })
  | C.Triv -> Alcotest.failf "%s: expected an app derivation at the root" what

let map_root_step what (d : C.deriv) f =
  map_root_app what d (fun children perm step ->
      match step with
      | Some st -> (children, perm, f st)
      | None -> Alcotest.failf "%s: expected a rule step at the root" what)

(* ------------------------------------------------------------------ *)

let test_valid_cert () =
  let cert = traced_cert () in
  Alcotest.(check int) "three obligations" 3 (List.length cert.C.reds);
  (match check_errors cert with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "valid certificate rejected: %s: %s" e.Certify.Check.e_path
      e.Certify.Check.e_msg);
  let ck = Certify.Check.create cert in
  ignore (Certify.Check.check_all ck);
  Alcotest.(check bool) "steps were replayed" true (Certify.Check.steps_validated ck >= 3)

let test_roundtrip () =
  let cert = traced_cert () in
  let text = C.to_string cert in
  match C.of_string text with
  | Error m -> Alcotest.failf "serialized certificate does not parse: %s" m
  | Ok cert' ->
    Alcotest.(check bool) "round-trip is identical" true (C.equal cert cert');
    Alcotest.(check int) "round-tripped cert checks" 0 (List.length (check_errors cert'))

let test_tamper_wrong_rule () =
  let cert = traced_cert () in
  let other =
    match
      List.find_opt
        (fun (r : C.rule) -> r.C.r_label = "tc-isz")
        (List.hd cert.C.reds).C.red_rset.C.rs_rules
    with
    | Some r -> r
    | None -> Alcotest.fail "fixture rule tc-isz not in rule set"
  in
  (* make the plus step claim it used tc-isz *)
  let wrong =
    tamper_red cert 0 (fun d ->
        map_root_step "wrong-rule" d (fun st -> Some { st with C.s_rule = other }))
  in
  expect_reject "wrong-rule" wrong ~path:"red r0" ~msg:"does not match the redex"

let test_tamper_wrong_position () =
  let cert = traced_cert () in
  (* swap the argument derivations: each now starts at the other argument *)
  let wrong =
    tamper_red cert 0 (fun d ->
        map_root_app "wrong-position" d (fun children perm step ->
            (List.rev children, perm, step)))
  in
  expect_reject "wrong-position" wrong ~path:"red r0/arg 0" ~msg:"not argument"

let test_tamper_wrong_substitution () =
  let cert = traced_cert () in
  (* swap the images bound to M and N: same variables, wrong instance *)
  let wrong =
    tamper_red cert 0 (fun d ->
        map_root_step "wrong-subst" d (fun st ->
            let sub =
              match st.C.s_sub with
              | [ (n1, s1, t1); (n2, s2, t2) ] -> [ (n1, s1, t2); (n2, s2, t1) ]
              | _ -> Alcotest.fail "expected two bindings in the plus step"
            in
            Some { st with C.s_sub = sub }))
  in
  expect_reject "wrong-subst" wrong ~path:"red r0" ~msg:"does not match the redex"

let test_tamper_skipped_condition () =
  let cert = traced_cert () in
  (* red r2 is the conditional gate rule: drop its condition discharge *)
  let wrong =
    tamper_red cert 2 (fun d ->
        map_root_step "skip-cond" d (fun st -> Some { st with C.s_cond = None }))
  in
  expect_reject "skip-cond" wrong ~path:"red r2" ~msg:"records no condition discharge"

let test_tamper_bogus_perm () =
  let cert = traced_cert () in
  (* red r1 is the pure AC reorder: replace its permutation with a non-bijection *)
  let wrong =
    tamper_red cert 1 (fun d ->
        map_root_app "bogus-perm" d (fun children perm step ->
            (match perm with
            | Some _ -> ()
            | None -> Alcotest.fail "fixture AC derivation records no permutation");
            (children, Some [ 0; 0; 0 ], step)))
  in
  expect_reject "bogus-perm" wrong ~path:"red r1/perm" ~msg:"bogus AC permutation"

(* ------------------------------------------------------------------ *)

let lpo_cert () =
  let ops = [ zop; sop; plusop; uop; iszop; gateop; caop; cbop; ccop ] in
  let sr = Order.search_precedence ~ops rules in
  Alcotest.(check int) "fixture rules orient" 0 (List.length sr.Order.unoriented);
  let b = Analysis.Certgen.create () in
  Analysis.Certgen.add_lpo b ~precedence:sr.Order.precedence rules;
  Analysis.Certgen.cert b

let test_lpo_cert () =
  let cert = lpo_cert () in
  (match check_errors cert with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "valid LPO certificate rejected: %s: %s" e.Certify.Check.e_path
      e.Certify.Check.e_msg);
  (* reversing the precedence must break at least one orientation *)
  let reversed =
    match cert.C.lpo with
    | Some l -> { cert with C.lpo = Some { l with C.lpo_prec = List.rev l.C.lpo_prec } }
    | None -> Alcotest.fail "certificate has no LPO section"
  in
  expect_reject "reversed-precedence" reversed ~path:"lpo/rule" ~msg:"not LPO-greater"

let test_join_cert () =
  let b = Analysis.Certgen.create () in
  let cert0 = Analysis.Certgen.cert b in
  let cterm name = C.A ({ C.op_name = name; op_arity = []; op_sort = "TcNat"; op_flags = [] }, []) in
  let l = cterm "tcA" in
  let r = cterm "tcB" in
  let triv t = C.deriv ~d_in:t ~d_out:t C.Triv in
  let rs = { C.rs_parent = None; rs_rules = [] } in
  let join jc_right =
    {
      C.j_label = "t1";
      j_rset = rs;
      j_peak = l;
      j_left = l;
      j_right = l;
      j_cert = { C.jc_left = triv l; jc_right; jc_tail = C.Jsyn };
    }
  in
  let good = { cert0 with C.joins = [ join (triv l) ] } in
  (match check_errors good with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "valid join certificate rejected: %s: %s" e.Certify.Check.e_path
      e.Certify.Check.e_msg);
  (* a join whose right side silently ends somewhere else must be refused *)
  let bad = { cert0 with C.joins = [ { (join (triv r)) with C.j_right = r } ] } in
  expect_reject "unjoined" bad ~path:"join t1" ~msg:"distinct terms"

(* ------------------------------------------------------------------ *)
(* Encoder: rule-set sharing and a byte-exact golden *)

let section name text =
  match Certify.Sexp.parse_one text with
  | Ok (Certify.Sexp.List (_ :: sections)) -> (
    match
      List.find_map
        (function
          | Certify.Sexp.List (Certify.Sexp.Atom n :: entries) when n = name -> Some entries
          | _ -> None)
        sections
    with
    | Some entries -> entries
    | None -> Alcotest.failf "certificate has no %s section" name)
  | Ok _ -> Alcotest.fail "certificate is not an (eqcert ...) list"
  | Error m -> Alcotest.failf "certificate does not parse: %s" m

(* Reds on every level of one deep rule-set chain over a flat base set,
   joins sharing that flat set, and two structurally equal but physically
   distinct rule sets: every distinct rule set is emitted exactly once, and
   the text decodes back to an equal certificate. *)
let test_rset_sharing () =
  let op name arity =
    { C.op_name = name; op_arity = arity; op_sort = "TcNat"; op_flags = [] }
  in
  let const name = C.A (op name [], []) in
  let rule label lhs = { C.r_label = label; r_lhs = lhs; r_rhs = const "k0"; r_cond = None } in
  let base_rule i =
    let lhs = C.A (op "tcF" [ "TcNat" ], [ const (Printf.sprintf "k%d" i) ]) in
    rule (Printf.sprintf "b%d" i) lhs
  in
  let base_size = 200 and depth = 300 in
  let base = { C.rs_parent = None; rs_rules = List.init base_size base_rule } in
  let chain = Array.make (depth + 1) base in
  for i = 1 to depth do
    chain.(i) <-
      {
        C.rs_parent = Some chain.(i - 1);
        rs_rules = [ rule (Printf.sprintf "g%d" i) (const (Printf.sprintf "c%d" i)) ];
      }
  done;
  let twin () = { C.rs_parent = None; rs_rules = [ base_rule 0; base_rule 1 ] } in
  let t = const "k0" in
  let triv = C.deriv ~d_in:t ~d_out:t C.Triv in
  let red i rs =
    let red_name = Printf.sprintf "r%d" i in
    { C.red_name; red_rset = rs; red_in = t; red_out = t; red_deriv = triv }
  in
  let join i rs =
    {
      C.j_label = Printf.sprintf "j%d" i;
      j_rset = rs;
      j_peak = t;
      j_left = t;
      j_right = t;
      j_cert = { C.jc_left = triv; jc_right = triv; jc_tail = C.Jsyn };
    }
  in
  let cert =
    {
      C.reds =
        List.init (2 * (depth + 1)) (fun i -> red i chain.(depth - (i mod (depth + 1))))
        @ [ red (-1) (twin ()) ];
      lpo = None;
      joins = List.init 500 (fun i -> join i base) @ [ join (-1) (twin ()) ];
    }
  in
  let text = C.to_string cert in
  let rsets = section "rsets" text in
  Alcotest.(check int) "one entry per distinct rule set" (depth + 2) (List.length rsets);
  Alcotest.(check int) "no rule set emitted twice" (depth + 2)
    (List.length
       (List.sort_uniq compare
          (List.map
             (function
               | Certify.Sexp.List (_ :: _ :: body) -> body
               | _ -> Alcotest.fail "malformed rs entry")
             rsets)));
  Alcotest.(check int) "one entry per distinct rule" (base_size + depth)
    (List.length (section "rules" text));
  match C.of_string text with
  | Error m -> Alcotest.failf "encoded certificate does not decode: %s" m
  | Ok cert' ->
    Alcotest.(check bool) "round-trip is equal" true (C.equal cert cert');
    Alcotest.(check string) "re-encoding is byte-identical" text (C.to_string cert')

(* A small hand-built certificate touching every node kind: flagged ops,
   variables, a conditional rule, a rule-set chain, trivial and app
   derivations with a permutation, a step with a substitution and a
   condition discharge, an LPO section and a split join. *)
let golden_cert () =
  let op ?(flags = []) name arity sort =
    { C.op_name = name; op_arity = arity; op_sort = sort; op_flags = flags }
  in
  let n = "TcNat" in
  let z = C.A (op "tcZ" [] n, []) in
  let s t = C.A (op "tcS" [ n ] n, [ t ]) in
  let plus a b = C.A (op "tcP" [ n; n ] n, [ a; b ]) in
  let u a b = C.A (op ~flags:[ C.Ac ] "tcU" [ n; n ] n, [ a; b ]) in
  let isz t = C.A (op "tcIsz" [ n ] "Bool", [ t ]) in
  let tt = C.A (op ~flags:[ C.Tt ] "true" [] "Bool", []) in
  let ca = C.A (op "tcA" [] n, []) and cb = C.A (op "tcB" [] n, []) in
  let vm = C.V { v_name = "M"; v_sort = n } and vn = C.V { v_name = "N"; v_sort = n } in
  let rule ?cond label lhs rhs =
    { C.r_label = label; r_lhs = lhs; r_rhs = rhs; r_cond = cond }
  in
  let p0 = rule "tc-p0" (plus z vn) vn in
  let ps = rule "tc-ps" (plus (s vm) vn) (s (plus vm vn)) in
  let iszr = rule "tc-isz" (isz z) tt in
  let gate = rule ~cond:(isz vn) "tc-gate" (plus vn vn) z in
  let base = { C.rs_parent = None; rs_rules = [ p0; ps; iszr; gate ] } in
  let child = { C.rs_parent = Some base; rs_rules = [ rule "ground" ca cb ] } in
  let triv t = C.deriv ~d_in:t ~d_out:t C.Triv in
  let app ?perm ?step d_in d_out children =
    C.deriv ~d_in ~d_out (C.App { children; perm; step })
  in
  let step ?cond r sub next = { C.s_rule = r; s_sub = sub; s_cond = cond; s_next = next } in
  (* tcP(tcZ, tcZ) -> tcZ by tc-p0 *)
  let d_p0 = app (plus z z) z [] ~step:(step p0 [ "N", n, z ] (triv z)) in
  (* tcP(tcS(tcZ), tcZ) -> tcS(tcP(tcZ, tcZ)) -> tcS(tcZ) *)
  let d_ps =
    app (plus (s z) z) (s z) []
      ~step:(step ps [ "M", n, z; "N", n, z ] (app (s (plus z z)) (s z) [ d_p0 ]))
  in
  let d_isz = app (isz z) tt [] ~step:(step iszr [] (triv tt)) in
  let d_gate = app (plus z z) z [] ~step:(step ~cond:d_isz gate [ "N", n, z ] (triv z)) in
  let d_perm = app (u cb ca) (u ca cb) [ triv cb; triv ca ] ~perm:[ 1; 0 ] in
  let red name rs d =
    { C.red_name = name; red_rset = rs; red_in = d.C.d_in; red_out = d.C.d_out; red_deriv = d }
  in
  {
    C.reds =
      [
        red "r0" child d_ps; red "r1" base d_gate; red "r2" child d_perm; red "r3" base (triv ca);
      ];
    lpo =
      Some
        {
          C.lpo_prec = [ op "tcP" [ n; n ] n; op "tcS" [ n ] n; op "tcZ" [] n ];
          lpo_rules = [ p0; ps ];
        };
    joins =
      [
        {
          C.j_label = "j0";
          j_rset = base;
          j_peak = plus (s z) z;
          j_left = s z;
          j_right = s z;
          j_cert =
            {
              C.jc_left = triv (s z);
              jc_right = triv (s z);
              jc_tail =
                C.Jsplit
                  ( isz ca,
                    { C.jc_left = triv (s z); jc_right = triv (s z); jc_tail = C.Jsyn },
                    { C.jc_left = d_ps; jc_right = triv (s z); jc_tail = C.Jring } );
            };
        };
      ];
  }

(* Recorded before rule sets were memoized by identity: pins the id order
   of every section, which the memo must not change. *)
let golden_text =
  String.concat " "
    [
      "(eqcert (version 1) (ops (op 0 tcP (TcNat TcNat) TcNat) (op 1 tcZ ()";
      "TcNat) (op 2 tcS (TcNat) TcNat) (op 3 tcIsz (TcNat) Bool) (op 4 true ()";
      "Bool tt) (op 5 tcA () TcNat) (op 6 tcB () TcNat) (op 7 tcU (TcNat TcNat)";
      "TcNat ac)) (terms (t 0 a 1) (t 1 v N TcNat) (t 2 a 0 0 1) (t 3 v M";
      "TcNat) (t 4 a 2 3) (t 5 a 0 4 1) (t 6 a 0 3 1) (t 7 a 2 6) (t 8 a 3 0)";
      "(t 9 a 4) (t 10 a 0 1 1) (t 11 a 3 1) (t 12 a 5) (t 13 a 6) (t 14 a 2 0)";
      "(t 15 a 0 14 0) (t 16 a 0 0 0) (t 17 a 2 16) (t 18 a 7 13 12) (t 19 a 7";
      "12 13) (t 20 a 3 12)) (rules (rule 0 tc-p0 2 1) (rule 1 tc-ps 5 7) (rule";
      "2 tc-isz 8 9) (rule 3 tc-gate 10 0 11) (rule 4 ground 12 13)) (rsets (rs";
      "0 -1 0 1 2 3) (rs 1 0 4)) (derivs (d 0 triv 0) (d 1 app 16 0 () (step 0";
      "(sub (N TcNat 0)) 0)) (d 2 app 17 14 (1)) (d 3 app 15 14 () (step 1 (sub";
      "(M TcNat 0) (N TcNat 0)) 2)) (d 4 triv 9) (d 5 app 8 9 () (step 2 (sub)";
      "4)) (d 6 app 16 0 () (step 3 (sub (N TcNat 0)) (cond 5) 0)) (d 7 triv";
      "13) (d 8 triv 12) (d 9 app 18 19 (7 8) (perm 1 0)) (d 10 triv 14)) (reds";
      "(red r0 1 15 14 3) (red r1 0 16 0 6) (red r2 1 18 19 9) (red r3 0 12 12";
      "8)) (lpo (prec 0 2 1) (rules 0 1)) (joins (join j0 0 15 14 14 (j 10 10";
      "(split 20 (j 10 10 syn) (j 3 10 ring))))))";
    ]

let test_golden_encoding () =
  let text = C.to_string (golden_cert ()) in
  Alcotest.(check string) "byte-exact encoding" golden_text text;
  match C.of_string text with
  | Error m -> Alcotest.failf "golden certificate does not decode: %s" m
  | Ok cert -> Alcotest.(check bool) "golden round-trips" true (C.equal (golden_cert ()) cert)

(* The encoder memoizes derivations by node id and terms, rules and rule
   sets by physical identity, then merges by content: a certificate whose
   obligations each carry their own physically distinct copy of one DAG
   (every [golden_cert ()] call builds fresh terms, rules, rule sets and
   derivations) must encode to the same bytes as one whose obligations
   share a single copy, and its decoded form must re-encode to them. *)
let test_physical_copies () =
  let copies = 6 in
  let repeat (c : C.t) =
    {
      c with
      C.reds = List.concat (List.init copies (fun _ -> c.C.reds));
      joins = List.concat (List.init copies (fun _ -> c.C.joins));
    }
  in
  let shared = repeat (golden_cert ()) in
  let certs = List.init copies (fun _ -> golden_cert ()) in
  let copied =
    {
      (List.hd certs) with
      C.reds = List.concat_map (fun (c : C.t) -> c.C.reds) certs;
      joins = List.concat_map (fun (c : C.t) -> c.C.joins) certs;
    }
  in
  let text = C.to_string shared in
  Alcotest.(check string) "copies encode like the shared DAG" text (C.to_string copied);
  Alcotest.(check int) "one entry per distinct derivation" 11
    (List.length (section "derivs" text));
  match C.of_string text with
  | Error m -> Alcotest.failf "encoded certificate does not decode: %s" m
  | Ok cert ->
    Alcotest.(check bool) "round-trip is equal" true (C.equal copied cert);
    Alcotest.(check string) "re-encoding is byte-identical" text (C.to_string cert)

(* ------------------------------------------------------------------ *)
(* Serialization fuzz: random certificates (weird atom spellings
   included) must round-trip to structurally identical values. *)

let gen_name =
  QCheck.Gen.(
    oneof
      [
        map (Printf.sprintf "op-%d") (int_bound 30);
        map (Printf.sprintf "weird %d \"quoted\" \\ ;semi") (int_bound 9);
        return "";
      ])

let gen_term =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [
              map (fun nm -> C.V { v_name = nm; v_sort = "S" }) gen_name;
              map
                (fun nm ->
                  C.A ({ C.op_name = nm; op_arity = []; op_sort = "S"; op_flags = [] }, []))
                gen_name;
            ]
        else
          map2
            (fun nm args ->
              C.A
                ( {
                    C.op_name = nm;
                    op_arity = List.map (fun _ -> "S") args;
                    op_sort = "S";
                    op_flags = [];
                  },
                  args ))
            gen_name
            (list_size (int_bound 3) (self (n / 2)))))

let gen_cert =
  QCheck.Gen.(
    map2
      (fun lhs rhs ->
        let rule = { C.r_label = "g"; r_lhs = lhs; r_rhs = lhs; r_cond = None } in
        let rs = { C.rs_parent = None; rs_rules = [ rule ] } in
        let d = C.deriv ~d_in:rhs ~d_out:rhs C.Triv in
        {
          C.reds =
            [ { C.red_name = "r0"; red_rset = rs; red_in = rhs; red_out = rhs; red_deriv = d } ];
          lpo = None;
          joins = [];
        })
      gen_term gen_term)

let prop_roundtrip =
  QCheck.Test.make ~name:"certificate serialization round-trips" ~count:200
    (QCheck.make gen_cert) (fun cert ->
      match C.of_string (C.to_string cert) with
      | Ok cert' -> C.equal cert cert'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* The decoder on untrusted text: whatever the bytes, [of_string] returns
   a result and raises nothing. *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let decode what text =
  match C.of_string text with
  | r -> r
  | exception e -> Alcotest.failf "%s: of_string raised %s" what (Printexc.to_string e)

let expect_error what text needle =
  match decode what text with
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error m -> if not (contains m needle) then Alcotest.failf "%s: %S lacks %S" what m needle

(* Every proper prefix of the golden certificate ends inside a list. *)
let test_truncations () =
  expect_error "empty text" "" "expected one s-expression, got 0";
  for i = 1 to String.length golden_text - 1 do
    expect_error
      (Printf.sprintf "%d-byte prefix" i)
      (String.sub golden_text 0 i) "parse error at 1:"
  done

let test_untrusted_errors () =
  let ops = "(eqcert (version 1) (ops (op 0 f (S) S) (op 1 c () S))" in
  expect_error "overflowing id" (ops ^ " (terms (t 4611686018427387904 a 1)))")
    "term id: expected integer, got \"4611686018427387904\"";
  expect_error "overflowing hex id" (ops ^ " (terms (t 0x1ffffffffffffffff a 1)))")
    "term id: expected integer";
  expect_error "forward reference" (ops ^ " (terms (t 0 a 0 1) (t 1 a 1)))") "term: unknown id 1";
  expect_error "id out of order" (ops ^ " (terms (t 1 a 1)))") "term: id 1 out of order";
  (match decode "version 2" "(eqcert (version 2))" with
  | Error m -> Alcotest.(check string) "version 2" "unsupported certificate version 2" m
  | Ok _ -> Alcotest.fail "version 2 accepted");
  expect_error "unclosed list" (ops ^ "\n  (terms (t 0 a 1)") "parse error at 2:3: unclosed parenthesis";
  expect_error "two expressions" (ops ^ ") (eqcert)") "expected one s-expression, got 2";
  (* other integer spellings read as [int_of_string_opt] reads them *)
  List.iter
    (fun v ->
      match decode v (Printf.sprintf "(eqcert (version %s))" v) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "version %s refused: %s" v m)
    [ "1"; "01"; "0x1"; "0b1"; "+1"; "\"1\"" ]

let gen_mutation =
  let n = String.length golden_text in
  QCheck.Gen.(
    triple (int_bound 2) (int_bound (n - 1))
      (oneof [ char; oneofl [ '('; ')'; '"'; ' '; ';'; '\\'; '\n'; '0'; '9'; '-'; 'a' ] ]))

let prop_mutations =
  QCheck.Test.make ~name:"truncated or mutated certificates never raise" ~count:1000
    (QCheck.make gen_mutation) (fun (kind, i, c) ->
      let t = golden_text in
      let mutated =
        match kind with
        | 0 -> String.sub t 0 i
        | 1 -> String.sub t 0 i ^ String.sub t (i + 1) (String.length t - i - 1)
        | _ -> String.mapi (fun j x -> if j = i then c else x) t
      in
      match C.of_string mutated with Ok _ | Error _ -> true)

let suite =
  ( "certify",
    [
      "valid certificate accepted", `Quick, test_valid_cert;
      "serialize/parse round-trip", `Quick, test_roundtrip;
      "tamper: wrong rule", `Quick, test_tamper_wrong_rule;
      "tamper: wrong position", `Quick, test_tamper_wrong_position;
      "tamper: wrong substitution", `Quick, test_tamper_wrong_substitution;
      "tamper: skipped condition", `Quick, test_tamper_skipped_condition;
      "tamper: bogus AC permutation", `Quick, test_tamper_bogus_perm;
      "LPO certificate and reversed precedence", `Quick, test_lpo_cert;
      "join certificate and unjoined tamper", `Quick, test_join_cert;
      "encoder emits each rule set once", `Quick, test_rset_sharing;
      "encoder golden bytes", `Quick, test_golden_encoding;
      "encoder merges physical copies", `Quick, test_physical_copies;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      "decoder refuses every truncation", `Quick, test_truncations;
      "decoder errors on untrusted text", `Quick, test_untrusted_errors;
      QCheck_alcotest.to_alcotest prop_mutations;
    ] )
