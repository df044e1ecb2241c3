(* Unit and property tests for the term-algebra kernel. *)

open Kernel

let nat = Sort.visible "TNat"
let sg = Signature.create ()
let zero = Signature.declare sg "zero" [] nat ~attrs:[ Signature.Ctor ]
let succ = Signature.declare sg "succ" [ nat ] nat ~attrs:[ Signature.Ctor ]
let plus = Signature.declare sg "plus" [ nat; nat ] nat ~attrs:[]
let union = Signature.declare sg "union" [ nat; nat ] nat ~attrs:[ Signature.Ac ]

let rec nat_term n =
  if n = 0 then Term.const zero else Term.app succ [ nat_term (n - 1) ]

let x = Term.var "X" nat
let y = Term.var "Y" nat
let z = Term.var "Z" nat

let plus_rules =
  [
    Rewrite.rule ~label:"plus-zero" (Term.app plus [ Term.const zero; y ]) y;
    Rewrite.rule ~label:"plus-succ"
      (Term.app plus [ Term.app succ [ x ]; y ])
      (Term.app succ [ Term.app plus [ x; y ] ]);
  ]

let term_testable = Alcotest.testable Term.pp Term.equal

(* ------------------------------------------------------------------ *)
(* Sorts and signatures *)

let test_sort_interning () =
  Alcotest.(check bool) "same object" true (Sort.visible "TNat" == nat);
  Alcotest.(check bool) "bool is visible" false Sort.bool.Sort.hidden;
  Alcotest.(check bool) "mem" true (Sort.mem "TNat")

let test_sort_hidden_conflict () =
  Alcotest.check_raises "conflicting visibility"
    (Invalid_argument "Sort.hidden: \"TNat\" already interned with other visibility")
    (fun () -> ignore (Sort.hidden "TNat"))

let test_signature_redeclare () =
  let again = Signature.declare sg "plus" [ nat; nat ] nat ~attrs:[] in
  Alcotest.(check bool) "idempotent" true (Signature.op_equal again plus);
  Alcotest.check_raises "profile clash"
    (Invalid_argument "Signature.declare: \"plus\" redeclared")
    (fun () -> ignore (Signature.declare sg "plus" [ nat ] nat ~attrs:[]))

let test_constructors_of () =
  let ctors = Signature.constructors_of sg nat in
  Alcotest.(check (list string))
    "ctors" [ "zero"; "succ" ]
    (List.map (fun (o : Signature.op) -> o.Signature.name) ctors)

(* ------------------------------------------------------------------ *)
(* Terms *)

let test_app_arity_check () =
  Alcotest.check_raises "arity"
    (Invalid_argument "Term.app: succ expects 1 arguments, got 2")
    (fun () -> ignore (Term.app succ [ nat_term 0; nat_term 0 ]))

let test_app_sort_check () =
  let b = Term.tt in
  Alcotest.check_raises "sort"
    (Invalid_argument "Term.app: succ: argument of sort Bool where TNat expected")
    (fun () -> ignore (Term.app succ [ b ]))

let test_term_size_depth () =
  let t = Term.app plus [ nat_term 2; nat_term 3 ] in
  Alcotest.(check int) "size" 8 (Term.size t);
  Alcotest.(check int) "depth" 5 (Term.depth t)

let test_term_vars () =
  let t = Term.app plus [ x; Term.app plus [ y; x ] ] in
  Alcotest.(check (list string))
    "vars" [ "X"; "Y" ]
    (List.map (fun (v : Term.var) -> v.Term.v_name) (Term.vars t))

let test_term_replace () =
  let t = Term.app plus [ nat_term 1; nat_term 1 ] in
  let t' = Term.replace ~old:(nat_term 1) ~by:(nat_term 0) t in
  Alcotest.check term_testable "replaced"
    (Term.app plus [ nat_term 0; nat_term 0 ])
    t'

let test_term_eq_reflexivity_check () =
  Alcotest.check_raises "eq sort mismatch"
    (Invalid_argument "Term.eq: sorts TNat and Bool differ")
    (fun () -> ignore (Term.eq (nat_term 0) Term.tt))

(* ------------------------------------------------------------------ *)
(* Substitution and matching *)

let test_subst_apply () =
  let sub = Subst.of_list [ (match Term.view x with Term.Var v -> v | _ -> assert false), nat_term 2 ] in
  Alcotest.check term_testable "apply"
    (Term.app succ [ nat_term 2 ])
    (Subst.apply sub (Term.app succ [ x ]))

let test_match_simple () =
  let pat = Term.app plus [ Term.app succ [ x ]; y ] in
  let subject = Term.app plus [ nat_term 2; nat_term 1 ] in
  match Matching.match_ pat subject with
  | None -> Alcotest.fail "expected a match"
  | Some sub ->
    Alcotest.check term_testable "match x" (nat_term 1)
      (Subst.apply sub x);
    Alcotest.check term_testable "match y" (nat_term 1)
      (Subst.apply sub y)

let test_match_nonlinear () =
  let pat = Term.app plus [ x; x ] in
  Alcotest.(check bool) "equal args" true
    (Matching.matches pat (Term.app plus [ nat_term 1; nat_term 1 ]));
  Alcotest.(check bool) "unequal args" false
    (Matching.matches pat (Term.app plus [ nat_term 1; nat_term 2 ]))

let test_match_sort_guard () =
  Alcotest.(check bool) "var sort blocks" false
    (Matching.matches (Term.var "B" Sort.bool) (nat_term 0))

let test_unify_basic () =
  let t1 = Term.app plus [ x; nat_term 1 ] in
  let t2 = Term.app plus [ nat_term 2; y ] in
  match Matching.unify t1 t2 with
  | None -> Alcotest.fail "expected unifier"
  | Some sub ->
    Alcotest.check term_testable "both sides equal"
      (Subst.apply sub t1) (Subst.apply sub t2)

let test_unify_occurs_check () =
  Alcotest.(check bool) "occurs" true
    (Matching.unify x (Term.app succ [ x ]) = None)

(* ------------------------------------------------------------------ *)
(* AC *)

let u a b = Term.app union [ a; b ]

let test_ac_flatten () =
  let t = u (u (nat_term 0) (nat_term 1)) (u (nat_term 2) (nat_term 3)) in
  Alcotest.(check int) "flatten length" 4 (List.length (Ac.flatten union t))

let test_ac_equal () =
  let t1 = u (nat_term 0) (u (nat_term 1) (nat_term 2)) in
  let t2 = u (u (nat_term 2) (nat_term 0)) (nat_term 1) in
  Alcotest.(check bool) "ac equal" true (Ac.ac_equal t1 t2);
  Alcotest.(check bool) "not ac equal" false
    (Ac.ac_equal t1 (u (nat_term 0) (nat_term 1)))

let test_ac_match_var_absorbs () =
  let pat = u x y in
  let subject = u (nat_term 0) (u (nat_term 1) (nat_term 2)) in
  let matchers = Ac.match_ pat subject in
  Alcotest.(check bool) "several matchers" true (List.length matchers >= 3);
  List.iter
    (fun sub -> Alcotest.(check bool) "reconstructs" true
        (Ac.ac_equal (Subst.apply sub pat) subject))
    matchers

let test_ac_match_rigid () =
  let pat = u (Term.app succ [ x ]) y in
  let subject = u (nat_term 0) (u (nat_term 0) (nat_term 3)) in
  match Ac.match_first pat subject with
  | None -> Alcotest.fail "expected AC match"
  | Some sub ->
    Alcotest.check term_testable "x bound" (nat_term 2) (Subst.apply sub x)

let test_ac_match_failure () =
  let pat = u (Term.app succ [ x ]) (Term.app succ [ y ]) in
  let subject = u (nat_term 0) (nat_term 0) in
  Alcotest.(check bool) "no match" true (Ac.match_ pat subject = [])

(* ------------------------------------------------------------------ *)
(* Rewriting *)

let test_rewrite_addition () =
  let sys = Rewrite.make plus_rules in
  Alcotest.check term_testable "2+3=5" (nat_term 5)
    (Rewrite.normalize sys (Term.app plus [ nat_term 2; nat_term 3 ]))

let test_rewrite_steps_counted () =
  let sys = Rewrite.make plus_rules in
  Rewrite.reset_steps sys;
  ignore (Rewrite.normalize sys (Term.app plus [ nat_term 3; nat_term 4 ]));
  Alcotest.(check int) "4 steps" 4 (Rewrite.steps sys)

let test_rewrite_extend_shadows () =
  let sys = Rewrite.make plus_rules in
  let shadow =
    Rewrite.rule ~label:"shadow"
      (Term.app plus [ Term.const zero; y ])
      (Term.app succ [ y ])
  in
  let sys' = Rewrite.extend sys [ shadow ] in
  Alcotest.check term_testable "base unchanged" (nat_term 1)
    (Rewrite.normalize sys (Term.app plus [ nat_term 0; nat_term 1 ]));
  Alcotest.check term_testable "extension wins" (nat_term 2)
    (Rewrite.normalize sys' (Term.app plus [ nat_term 0; nat_term 1 ]))

let test_rewrite_conditional () =
  let is_zero = Signature.declare sg "is_zero" [ nat ] Sort.bool ~attrs:[] in
  let rules =
    [
      Rewrite.rule ~label:"is-zero-z" (Term.app is_zero [ Term.const zero ]) Term.tt;
      Rewrite.rule ~label:"is-zero-s"
        (Term.app is_zero [ Term.app succ [ x ] ])
        Term.ff;
      Rewrite.rule ~label:"guarded" ~cond:(Term.app is_zero [ x ])
        (Term.app plus [ x; y ])
        y;
    ]
  in
  let sys = Rewrite.make rules in
  Alcotest.check term_testable "guard true" (nat_term 7)
    (Rewrite.normalize sys (Term.app plus [ nat_term 0; nat_term 7 ]));
  Alcotest.check term_testable "guard false stays"
    (Term.app plus [ nat_term 1; nat_term 7 ])
    (Rewrite.normalize sys (Term.app plus [ nat_term 1; nat_term 7 ]))

let test_rewrite_step_limit () =
  let loop = Signature.declare sg "loop" [ nat ] nat ~attrs:[] in
  let rules =
    [
      Rewrite.rule ~label:"spin" (Term.app loop [ x ])
        (Term.app loop [ Term.app succ [ x ] ]);
    ]
  in
  let sys = Rewrite.make rules in
  Rewrite.set_step_limit sys 1000;
  Alcotest.check_raises "diverging system trips the limit"
    (Rewrite.Limit_exceeded { limit = Rewrite.Steps 1000; steps = 1000 }) (fun () ->
      ignore (Rewrite.normalize sys (Term.app loop [ nat_term 0 ])))

let test_rewrite_deadline () =
  let loop = Signature.declare sg "loop" [ nat ] nat ~attrs:[] in
  let rules =
    [
      Rewrite.rule ~label:"spin" (Term.app loop [ x ])
        (Term.app loop [ Term.app succ [ x ] ]);
    ]
  in
  let sys = Rewrite.make rules in
  Rewrite.set_deadline sys 0.02;
  match Rewrite.normalize sys (Term.app loop [ nat_term 0 ]) with
  | _ -> Alcotest.fail "diverging system returned a normal form"
  | exception Rewrite.Limit_exceeded { limit = Rewrite.Deadline d; steps } ->
    Alcotest.(check (float 1e-9)) "reported deadline" 0.02 d;
    Alcotest.(check bool) "some steps were counted" true (steps > 0)

let test_rewrite_rule_validation () =
  Alcotest.(check bool) "rhs extra var rejected" true
    (try
       ignore (Rewrite.rule ~label:"bad" (Term.app succ [ x ]) y);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Boolean ring *)

let p = Term.var "P" Sort.bool
let q = Term.var "Q" Sort.bool
let r = Term.var "R" Sort.bool

let atom name = Term.const (Signature.declare sg name [] Sort.bool ~attrs:[])
let pa = atom "pa"
let qa = atom "qa"
let ra = atom "ra"

let test_boolring_tautologies () =
  let open Term in
  let cases =
    [
      "excluded middle", or_ pa (not_ pa);
      "contraposition", iff (implies pa qa) (implies (not_ qa) (not_ pa));
      "peirce", implies (implies (implies pa qa) pa) pa;
      "de morgan", iff (not_ (and_ pa qa)) (or_ (not_ pa) (not_ qa));
      "distrib", iff (and_ pa (or_ qa ra)) (or_ (and_ pa qa) (and_ pa ra));
      "material", iff (implies pa qa) (or_ (not_ pa) qa);
    ]
  in
  List.iter
    (fun (name, t) ->
      Alcotest.(check bool) name true (Boolring.tautology t))
    cases

let test_boolring_non_tautologies () =
  let open Term in
  Alcotest.(check bool) "atom not valid" false (Boolring.tautology pa);
  Alcotest.(check bool) "affirming consequent" false
    (Boolring.tautology (implies (and_ (implies pa qa) qa) pa));
  Alcotest.(check bool) "contradiction is false" true
    (Boolring.is_false (Boolring.of_term (and_ pa (not_ pa))))

let test_boolring_assign () =
  let f = Term.implies pa qa in
  let poly = Boolring.of_term f in
  Alcotest.(check bool) "assign pa=false makes true" true
    (Boolring.is_true (Boolring.assign poly pa false));
  Alcotest.(check bool) "assign pa=true leaves qa" true
    (Boolring.equal (Boolring.assign poly pa true) (Boolring.atom qa))

let test_boolring_eq_atom_orientation () =
  let t1 = Term.eq (nat_term 1) (nat_term 2) in
  let t2 = Term.eq (nat_term 2) (nat_term 1) in
  Alcotest.(check bool) "oriented equal" true
    (Boolring.equal (Boolring.of_term t1) (Boolring.of_term t2));
  Alcotest.(check bool) "reflexive collapses" true
    (Boolring.is_true (Boolring.of_term (Term.eq (nat_term 1) (nat_term 1))))

let test_boolring_ite () =
  let f = Term.ite pa qa ra in
  (* if pa then qa else ra == (pa -> qa) and (not pa -> ra) *)
  let spec = Term.and_ (Term.implies pa qa) (Term.implies (Term.not_ pa) ra) in
  Alcotest.(check bool) "ite spec" true
    (Boolring.tautology (Term.iff f spec))

let test_boolring_rewrite_system () =
  let sys = Rewrite.make (Boolring.rewrite_rules ()) in
  let open Term in
  let taut = or_ pa (not_ pa) in
  Alcotest.check term_testable "rewrites to true" Term.tt
    (Rewrite.normalize sys taut);
  let contr = and_ pa (not_ pa) in
  Alcotest.check term_testable "rewrites to false" Term.ff
    (Rewrite.normalize sys contr)

(* ------------------------------------------------------------------ *)
(* If-lifting *)

let test_iflift () =
  let lift = Iflift.rules_for_op succ in
  let simplify = Iflift.simplify_rules nat in
  let sys = Rewrite.make (lift @ simplify) in
  let t = Term.app succ [ Term.ite pa (nat_term 0) (nat_term 1) ] in
  Alcotest.check term_testable "lifted"
    (Term.ite pa (nat_term 1) (nat_term 2))
    (Rewrite.normalize sys t);
  let collapsed = Term.app succ [ Term.ite pa (nat_term 3) (nat_term 3) ] in
  Alcotest.check term_testable "if-same" (nat_term 4)
    (Rewrite.normalize sys collapsed)

let test_term_collections () =
  let ts = [ nat_term 0; nat_term 1; nat_term 2; nat_term 1 ] in
  let set = List.fold_left (fun s t -> Term.Set.add t s) Term.Set.empty ts in
  Alcotest.(check int) "set deduplicates" 3 (Term.Set.cardinal set);
  let tbl = Term.Tbl.create 4 in
  List.iteri (fun i t -> Term.Tbl.replace tbl t i) ts;
  Alcotest.(check int) "tbl hashes structurally" 3 (Term.Tbl.length tbl);
  Alcotest.(check (option int)) "last write wins" (Some 3)
    (Term.Tbl.find_opt tbl (nat_term 1))

let test_subst_bind_conflicts () =
  let v = match Term.view x with Term.Var v -> v | _ -> assert false in
  let s1 = Subst.bind Subst.empty v (nat_term 1) in
  let s2 = Subst.bind s1 v (nat_term 1) in
  Alcotest.(check bool) "rebinding same value ok" true
    (Subst.bindings s1 = Subst.bindings s2);
  Alcotest.(check bool) "conflicting rebind rejected" true
    (try
       ignore (Subst.bind s1 v (nat_term 2));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "sort mismatch rejected" true
    (try
       ignore (Subst.bind Subst.empty v Term.tt);
       false
     with Invalid_argument _ -> true)

let test_ac_rebuild_empty () =
  Alcotest.check_raises "empty rebuild"
    (Invalid_argument "Ac.rebuild: empty argument list") (fun () ->
      ignore (Ac.rebuild union []))

let test_occurs_and_subterms () =
  let t = Term.app plus [ nat_term 1; Term.app succ [ x ] ] in
  Alcotest.(check bool) "var occurs" true (Term.occurs ~inside:t x);
  Alcotest.(check bool) "missing subterm" false
    (Term.occurs ~inside:t (nat_term 3));
  Alcotest.(check int) "subterm count = size" (Term.size t)
    (List.length (Term.subterms t))

let test_boolring_atom_requires_bool () =
  Alcotest.(check bool) "non-boolean atom rejected" true
    (try
       ignore (Boolring.atom (nat_term 1));
       false
     with Invalid_argument _ -> true)

let test_boolring_monomial_count () =
  let f = Term.xor pa (Term.xor qa (Term.and_ pa ra)) in
  Alcotest.(check int) "three monomials" 3
    (Boolring.count_monomials (Boolring.of_term f))

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_term =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then return (Term.const zero)
        else
          frequency
            [
              1, return (Term.const zero);
              2, map (fun t -> Term.app succ [ t ]) (self (n / 2));
              2,
              map2 (fun a b -> Term.app plus [ a; b ]) (self (n / 2)) (self (n / 2));
              2,
              map2 (fun a b -> Term.app union [ a; b ]) (self (n / 2)) (self (n / 2));
            ]))

let arb_term = QCheck.make ~print:Term.to_string gen_term

let prop_ac_normalize_idempotent =
  QCheck.Test.make ~name:"Ac.normalize idempotent" ~count:200 arb_term (fun t ->
      Term.equal (Ac.normalize (Ac.normalize t)) (Ac.normalize t))

let prop_ac_normalize_preserves_multiset =
  QCheck.Test.make ~name:"Ac.normalize preserves flattened multiset" ~count:200
    arb_term (fun t ->
      let sorted u = List.sort Term.compare (Ac.flatten union u) in
      (* Compare the multiset of union-leaves before and after, each leaf
         itself normalized. *)
      let before = List.map Ac.normalize (sorted t) in
      let after = sorted (Ac.normalize t) in
      List.length before = List.length after
      && List.for_all2 Term.equal (List.sort Term.compare before) after)

let prop_replace_identity =
  QCheck.Test.make ~name:"Term.replace with self is identity" ~count:200 arb_term
    (fun t -> Term.equal (Term.replace ~old:(nat_term 0) ~by:(nat_term 0) t) t)

let prop_size_positive =
  QCheck.Test.make ~name:"Term.size >= depth" ~count:200 arb_term (fun t ->
      Term.size t >= Term.depth t)

let gen_formula =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then oneof [ return pa; return qa; return ra; return Term.tt; return Term.ff ]
        else
          frequency
            [
              1, oneof [ return pa; return qa; return ra ];
              2, map Term.not_ (self (n / 2));
              2, map2 Term.and_ (self (n / 2)) (self (n / 2));
              2, map2 Term.or_ (self (n / 2)) (self (n / 2));
              1, map2 Term.implies (self (n / 2)) (self (n / 2));
              1, map2 Term.xor (self (n / 2)) (self (n / 2));
            ]))

let arb_formula = QCheck.make ~print:Term.to_string gen_formula

(* Reference semantics: evaluate under all 8 valuations of pa,qa,ra. *)
let rec eval env t =
  let module B = Signature.Builtin in
  match Term.view t with
  | Term.App (o, []) when Signature.op_equal o B.tt -> true
  | Term.App (o, []) when Signature.op_equal o B.ff -> false
  | Term.App (o, [ a ]) when Signature.op_equal o B.not_ -> not (eval env a)
  | Term.App (o, [ a; b ]) when Signature.op_equal o B.and_ -> eval env a && eval env b
  | Term.App (o, [ a; b ]) when Signature.op_equal o B.or_ -> eval env a || eval env b
  | Term.App (o, [ a; b ]) when Signature.op_equal o B.xor -> eval env a <> eval env b
  | Term.App (o, [ a; b ]) when Signature.op_equal o B.implies ->
    (not (eval env a)) || eval env b
  | _ -> List.assoc (Term.to_string t) env

let valuations =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b -> List.map (fun c -> [ "pa", a; "qa", b; "ra", c ]) [ true; false ])
        [ true; false ])
    [ true; false ]

let prop_boolring_agrees_with_truth_tables =
  QCheck.Test.make ~name:"Boolring.tautology agrees with truth tables" ~count:300
    arb_formula (fun t ->
      Boolring.tautology t = List.for_all (fun env -> eval env t) valuations)

let prop_boolring_xor_involutive =
  QCheck.Test.make ~name:"p xor p xor q == q" ~count:200 arb_formula (fun t ->
      Boolring.equal
        (Boolring.of_term (Term.xor (Term.xor t t) qa))
        (Boolring.atom qa))

(* ------------------------------------------------------------------ *)
(* Printing: [Term.to_string] and [Term.pp] against the Format printer
   they replaced, kept here as the reference. *)

let rec ref_pp ppf t =
  match Term.view t with
  | Term.Var v -> Format.fprintf ppf "%s:%s" v.Term.v_name v.Term.v_sort.Sort.name
  | Term.App (o, []) -> Format.pp_print_string ppf o.Signature.name
  | Term.App (o, args) ->
    Format.fprintf ppf "%s(%a)" o.Signature.name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         ref_pp)
      args

let psg = Signature.create ()
let konst = Signature.declare psg "konst" [] nat ~attrs:[]
let tri = Signature.declare psg "tri" [ nat; nat; nat ] nat ~attrs:[]

let printed_leaves =
  [ Term.const zero; Term.const konst; x; y; Term.var "LongVariableName" nat ]

(* Variables, constants, unary, binary, ternary and AC operators, and the
   builtin equality and if-then-else, nested. *)
let gen_printed =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf = oneofl printed_leaves in
        if n <= 0 then leaf
        else
          frequency
            [
              1, leaf;
              2, map (fun t -> Term.app succ [ t ]) (self (n / 2));
              2, map2 (fun a b -> Term.app plus [ a; b ]) (self (n / 2)) (self (n / 2));
              2,
              map3
                (fun a b c -> Term.app tri [ a; b; c ])
                (self (n / 3)) (self (n / 3)) (self (n / 3));
              2, map2 (fun a b -> Term.app union [ a; b ]) (self (n / 2)) (self (n / 2));
              1,
              map3
                (fun a b c -> Term.ite (Term.eq a b) c a)
                (self (n / 3)) (self (n / 3)) (self (n / 3));
            ]))

let prop_printer_matches_reference =
  QCheck.Test.make ~name:"to_string and pp match the Format reference" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" ref_pp) gen_printed)
    (fun t ->
      let expected = Format.asprintf "%a" ref_pp t in
      String.equal (Term.to_string t) expected
      && String.equal (Format.asprintf "%a" Term.pp t) expected)

(* Terms inside a vertical box with break hints, as the prover prints a
   refutation trail, and inside a packing box: short terms, and terms
   longer than the margin. *)
let test_printer_layout () =
  let rec deep n t = if n = 0 then t else deep (n - 1) (Term.app tri [ t; x; Term.const konst ]) in
  let terms =
    [ x; Term.const zero; nat_term 3; deep 2 y; deep 6 (nat_term 2); Term.app union [ deep 4 x; deep 3 z ] ]
  in
  let trail pp ppf ts =
    Format.fprintf ppf "@[<v2>refuted (splits=3); trail:";
    List.iteri (fun i t -> Format.fprintf ppf "@,%a := %b" pp t (i mod 2 = 0)) ts;
    Format.fprintf ppf "@]"
  in
  let packed pp ppf ts =
    Format.fprintf ppf "@[<hov2>residual";
    List.iter (fun t -> Format.fprintf ppf "@ %a" pp t) ts;
    Format.fprintf ppf "@]"
  in
  List.iter
    (fun (name, layout) ->
      Alcotest.(check string) name
        (Format.asprintf "%a" (layout ref_pp) terms)
        (Format.asprintf "%a" (layout Term.pp) terms))
    [ "vertical trail", trail; "packed residual", packed ]

let qcheck_cases =
  List.map
    (QCheck_alcotest.to_alcotest ?verbose:None ?long:None)
    [
      prop_printer_matches_reference;
      prop_ac_normalize_idempotent;
      prop_ac_normalize_preserves_multiset;
      prop_replace_identity;
      prop_size_positive;
      prop_boolring_agrees_with_truth_tables;
      prop_boolring_xor_involutive;
    ]

let tests =
  [
    "sort interning", `Quick, test_sort_interning;
    "sort visibility conflict", `Quick, test_sort_hidden_conflict;
    "signature redeclare", `Quick, test_signature_redeclare;
    "constructors_of", `Quick, test_constructors_of;
    "app arity check", `Quick, test_app_arity_check;
    "app sort check", `Quick, test_app_sort_check;
    "term size/depth", `Quick, test_term_size_depth;
    "term vars", `Quick, test_term_vars;
    "term replace", `Quick, test_term_replace;
    "eq sort mismatch", `Quick, test_term_eq_reflexivity_check;
    "subst apply", `Quick, test_subst_apply;
    "match simple", `Quick, test_match_simple;
    "match nonlinear", `Quick, test_match_nonlinear;
    "match sort guard", `Quick, test_match_sort_guard;
    "unify basic", `Quick, test_unify_basic;
    "unify occurs check", `Quick, test_unify_occurs_check;
    "ac flatten", `Quick, test_ac_flatten;
    "ac equal", `Quick, test_ac_equal;
    "ac match var absorbs", `Quick, test_ac_match_var_absorbs;
    "ac match rigid", `Quick, test_ac_match_rigid;
    "ac match failure", `Quick, test_ac_match_failure;
    "rewrite addition", `Quick, test_rewrite_addition;
    "rewrite steps counted", `Quick, test_rewrite_steps_counted;
    "rewrite extend shadows", `Quick, test_rewrite_extend_shadows;
    "rewrite conditional", `Quick, test_rewrite_conditional;
    "rewrite step limit", `Quick, test_rewrite_step_limit;
    "rewrite deadline", `Quick, test_rewrite_deadline;
    "rewrite rule validation", `Quick, test_rewrite_rule_validation;
    "boolring tautologies", `Quick, test_boolring_tautologies;
    "boolring non-tautologies", `Quick, test_boolring_non_tautologies;
    "boolring assign", `Quick, test_boolring_assign;
    "boolring eq orientation", `Quick, test_boolring_eq_atom_orientation;
    "boolring ite", `Quick, test_boolring_ite;
    "boolring rewrite system", `Quick, test_boolring_rewrite_system;
    "if lifting", `Quick, test_iflift;
    "term collections", `Quick, test_term_collections;
    "subst bind conflicts", `Quick, test_subst_bind_conflicts;
    "ac rebuild empty", `Quick, test_ac_rebuild_empty;
    "occurs and subterms", `Quick, test_occurs_and_subterms;
    "boolring atom sort check", `Quick, test_boolring_atom_requires_bool;
    "boolring monomial count", `Quick, test_boolring_monomial_count;
    "printer layout in boxes", `Quick, test_printer_layout;
  ]
  @ qcheck_cases

let suite = "kernel", tests
