(* Tests of the LPO reduction order and Knuth-Bendix completion — including
   the classic completion of free groups into the ten-rule convergent
   system. *)

open Kernel

let g = Sort.visible "KbG"
let sg = Signature.create ()
let e_op = Signature.declare sg "kb-e" [] g ~attrs:[]
let i_op = Signature.declare sg "kb-i" [ g ] g ~attrs:[]
let mul_op = Signature.declare sg "kb-mul" [ g; g ] g ~attrs:[]
let e = Term.const e_op
let i t = Term.app i_op [ t ]
let mul a b = Term.app mul_op [ a; b ]
let x = Term.var "X" g
let y = Term.var "Y" g
let z = Term.var "Z" g

(* Precedence: i > mul > e (later = greater). *)
let prec = Order.precedence_of_list [ e_op; mul_op; i_op ]

let group_axioms =
  [
    mul e x, x;  (* left unit *)
    mul (i x) x, e;  (* left inverse *)
    mul (mul x y) z, mul x (mul y z);  (* associativity *)
  ]

(* ------------------------------------------------------------------ *)
(* LPO *)

let test_lpo_subterm () =
  Alcotest.(check bool) "f(x) > x" true (Order.lpo ~prec (i x) x);
  Alcotest.(check bool) "x < f(x)" false (Order.lpo ~prec x (i x))

let test_lpo_precedence () =
  Alcotest.(check bool) "i(x) > mul(x,x)" true
    (Order.lpo ~prec (i x) (mul x x));
  Alcotest.(check bool) "mul(x,x) > e" true (Order.lpo ~prec (mul x x) e)

let test_lpo_orients_group_axioms () =
  List.iter
    (fun (l, r) ->
      Alcotest.(check bool)
        (Term.to_string l ^ " -> " ^ Term.to_string r)
        true
        (Order.orients ~prec (l, r) = `Lr))
    group_axioms

let test_lpo_irreflexive_antisym () =
  let terms = [ e; x; i x; mul x y; mul (i x) (mul x y); i (mul x y) ] in
  List.iter
    (fun t ->
      Alcotest.(check bool) "irreflexive" false (Order.lpo ~prec t t))
    terms;
  List.iter
    (fun t1 ->
      List.iter
        (fun t2 ->
          if Order.lpo ~prec t1 t2 then
            Alcotest.(check bool) "antisymmetric" false (Order.lpo ~prec t2 t1))
        terms)
    terms

let test_lpo_unorientable () =
  (* commutativity cannot be oriented by any simplification order *)
  Alcotest.(check bool) "comm" true
    (Order.orients ~prec (mul x y, mul y x) = `No)

let test_terminating_check () =
  let rules =
    List.map (fun (l, r) -> Rewrite.rule ~label:"ax" l r) group_axioms
  in
  Alcotest.(check bool) "axioms decrease" true (Order.terminating ~prec rules);
  let bad = Rewrite.rule ~label:"grow" (i x) (mul (i x) e) in
  Alcotest.(check bool) "growing rule rejected" false
    (Order.terminating ~prec [ bad ])

(* ------------------------------------------------------------------ *)
(* Critical pairs *)

let test_critical_pairs_assoc_unit () =
  (* Overlapping left-unit into associativity yields the classic pair. *)
  let assoc = Rewrite.rule ~label:"assoc" (mul (mul x y) z) (mul x (mul y z)) in
  let unit_ = Rewrite.rule ~label:"unit" (mul e x) x in
  let pairs = Completion.critical_pairs assoc unit_ in
  Alcotest.(check bool) "at least one pair" true (pairs <> []);
  (* Every critical pair must be a consequence of the axioms: check with
     the completed system below rather than syntactically here. *)
  ()

let test_self_overlap_skips_root () =
  let unit_ = Rewrite.rule ~label:"unit" (mul e x) x in
  (* The only overlap of the unit rule with itself is at the root; it must
     be skipped, giving no pairs. *)
  Alcotest.(check int) "no self pairs" 0
    (List.length (Completion.critical_pairs unit_ unit_))

let test_assoc_self_overlap () =
  (* The classic self-overlap: associativity overlaps itself below the
     root, with peak mul(mul(mul(x,y),z),w).  Dropping it (the old
     critical-pair enumeration did) silently weakens confluence checks. *)
  let assoc = Rewrite.rule ~label:"assoc" (mul (mul x y) z) (mul x (mul y z)) in
  let pairs = Completion.critical_pairs assoc assoc in
  Alcotest.(check bool) "assoc overlaps itself" true (pairs <> []);
  (* Associativity alone is convergent, so each pair joins under it. *)
  let sys = Rewrite.make [ assoc ] in
  List.iter
    (fun (l, r) ->
      Alcotest.(check bool)
        (Term.to_string l ^ " joins " ^ Term.to_string r)
        true
        (Term.equal (Rewrite.normalize sys l) (Rewrite.normalize sys r)))
    pairs;
  (* and the whole-system enumeration reports the same self-overlaps *)
  Alcotest.(check int) "all_critical_pairs includes self-overlaps"
    (List.length pairs)
    (List.length (Completion.all_critical_pairs [ assoc ]))

let test_search_precedence_group () =
  let rules =
    List.mapi
      (fun i (l, r) -> Rewrite.rule ~label:(Printf.sprintf "gax%d" i) l r)
      group_axioms
  in
  let res = Order.search_precedence ~ops:[ e_op; i_op; mul_op ] rules in
  Alcotest.(check int) "all axioms oriented" 0 (List.length res.Order.unoriented);
  Alcotest.(check bool) "found order passes the terminating check" true
    (Order.terminating ~prec:res.Order.prec rules)

let test_search_precedence_hint () =
  (* [a -> b] orients only if a > b; a hint listing a above b (later =
     greater) must be respected, and the reverse hint must fail. *)
  let a_op = Signature.declare sg "kb-ha" [] g ~attrs:[] in
  let b_op = Signature.declare sg "kb-hb" [] g ~attrs:[] in
  let r = Rewrite.rule ~label:"ab" (Term.const a_op) (Term.const b_op) in
  let ok = Order.search_precedence ~hint:[ b_op; a_op ] ~ops:[ a_op; b_op ] [ r ] in
  Alcotest.(check int) "hint b < a orients" 0 (List.length ok.Order.unoriented);
  let bad = Order.search_precedence ~hint:[ a_op; b_op ] ~ops:[ a_op; b_op ] [ r ] in
  Alcotest.(check int) "hint a < b cannot orient" 1
    (List.length bad.Order.unoriented)

(* ------------------------------------------------------------------ *)
(* Completion of free groups *)

let completed_rules =
  lazy
    (match Completion.complete ~max_rules:40 ~prec group_axioms with
    | Completion.Completed rules -> rules
    | Completion.Failed f -> Alcotest.failf "completion failed: %s" f.Completion.reason)

let test_group_completion_succeeds () =
  let rules = Lazy.force completed_rules in
  (* The canonical convergent presentation of free groups has 10 rules;
     our procedure may keep a few redundant (joinable) rules since it does
     not interreduce aggressively, but must stay in the same ballpark. *)
  Alcotest.(check bool) "at least 10 rules" true (List.length rules >= 10);
  Alcotest.(check bool) "at most 25 rules" true (List.length rules <= 25)

let check_joinable t1 t2 =
  Alcotest.(check bool)
    (Term.to_string t1 ^ " = " ^ Term.to_string t2)
    true
    (Completion.joinable (Lazy.force completed_rules) t1 t2)

let test_group_theorems () =
  check_joinable (mul x (i x)) e;  (* right inverse *)
  check_joinable (mul x e) x;  (* right unit *)
  check_joinable (i (i x)) x;  (* double inverse *)
  check_joinable (i e) e;  (* inverse of unit *)
  check_joinable (i (mul x y)) (mul (i y) (i x))  (* antihomomorphism *)

let test_group_non_theorems () =
  let rules = Lazy.force completed_rules in
  Alcotest.(check bool) "x = y is not a theorem" false
    (Completion.joinable rules x y);
  Alcotest.(check bool) "commutativity is not a theorem" false
    (Completion.joinable rules (mul x y) (mul y x))

let test_unorientable_failure () =
  match Completion.complete ~prec [ mul x y, mul y x ] with
  | Completion.Failed { unorientable = Some _; _ } -> ()
  | Completion.Failed f -> Alcotest.failf "wrong failure: %s" f.Completion.reason
  | Completion.Completed _ -> Alcotest.fail "commutativity completed?!"

let test_rule_limit () =
  match Completion.complete ~max_rules:1 ~prec group_axioms with
  | Completion.Failed { reason; _ } ->
    Alcotest.(check string) "limit" "rule limit exceeded" reason
  | Completion.Completed _ -> Alcotest.fail "expected failure at limit 1"

(* ------------------------------------------------------------------ *)
(* Properties over random group words *)

let gen_word =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then oneof [ return e; return x; return y; return z ]
        else
          frequency
            [
              1, oneof [ return e; return x; return y; return z ];
              2, map i (self (n / 2));
              3, map2 mul (self (n / 2)) (self (n / 2));
            ]))

let arb_word = QCheck.make ~print:Term.to_string gen_word

let normalize_word t =
  let sys = Rewrite.make (Lazy.force completed_rules) in
  Rewrite.normalize sys t

let prop_group_left_inverse =
  QCheck.Test.make ~name:"i(w)*w joins e for every word w" ~count:100 arb_word
    (fun w -> Completion.joinable (Lazy.force completed_rules) (mul (i w) w) e)

let prop_group_assoc_normal_forms =
  QCheck.Test.make ~name:"(u*v)*w and u*(v*w) share a normal form" ~count:100
    (QCheck.triple arb_word arb_word arb_word) (fun (u, v, w) ->
      Term.equal (normalize_word (mul (mul u v) w)) (normalize_word (mul u (mul v w))))

let prop_group_normalize_idempotent =
  QCheck.Test.make ~name:"group normal forms are stable" ~count:100 arb_word
    (fun w ->
      let nf = normalize_word w in
      Term.equal nf (normalize_word nf))

let qcheck_cases =
  List.map
    (QCheck_alcotest.to_alcotest ?verbose:None ?long:None)
    [
      prop_group_left_inverse;
      prop_group_assoc_normal_forms;
      prop_group_normalize_idempotent;
    ]

(* ------------------------------------------------------------------ *)
(* Differential: [Completion.overlaps] answers [] without renaming when no
   position of the first lhs agrees with the second lhs on its operator
   skeleton.  [Ref] is the unfiltered algorithm it replaced: rename, then
   try to unify at every non-variable position.  Over every ordered rule
   pair of the generated TLS spec and of every module of specs/*.cafe,
   both give the same overlaps term for term, with a shared renamed copy
   and on the default path, whose copy carries the tag the call drew; and
   each call on the default path draws exactly one tag. *)

module Ref = struct
  let rec contexts t =
    let here = t, fun x -> x in
    match Term.view t with
    | Term.Var _ -> [ here ]
    | Term.App (o, args) ->
      here
      :: List.concat
           (List.mapi
              (fun i a ->
                List.map
                  (fun (s, rebuild) ->
                    ( s,
                      fun x ->
                        Term.app_unchecked o
                          (List.mapi (fun j b -> if i = j then rebuild x else b) args) ))
                  (contexts a))
              args)

  let rename tag (r : Rewrite.rule) =
    let sub =
      Subst.of_list
        (List.map
           (fun (v : Term.var) -> v, Term.var (tag ^ v.Term.v_name) v.Term.v_sort)
           (Term.vars r.Rewrite.lhs))
    in
    Rewrite.rule ~label:r.Rewrite.label
      (Subst.apply sub r.Rewrite.lhs)
      (Subst.apply sub r.Rewrite.rhs)

  (* [ctx1] is [contexts r1.lhs]; [r2'] is [r2] renamed apart *)
  let overlaps ctx1 r2' (r1 : Rewrite.rule) (r2 : Rewrite.rule) =
    let same =
      Term.equal r1.Rewrite.lhs r2.Rewrite.lhs && Term.equal r1.Rewrite.rhs r2.Rewrite.rhs
    in
    List.filter_map
      (fun (s, rebuild) ->
        match Term.view s with
        | Term.Var _ -> None
        | Term.App _ ->
          if same && Term.equal s r1.Rewrite.lhs then None
          else
            Option.map
              (fun sub ->
                {
                  Completion.outer = r1;
                  inner = r2;
                  peak = Subst.apply sub r1.Rewrite.lhs;
                  left = Subst.apply sub (rebuild r2'.Rewrite.rhs);
                  right = Subst.apply sub r1.Rewrite.rhs;
                })
              (Matching.unify s r2'.Rewrite.lhs))
      ctx1
end

let ref_tag = "%ref-"

let starts_with pre s =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

(* The variables of [t] renamed with [ref_tag], renamed with tag [k]. *)
let retag k t =
  let tag = Printf.sprintf "%%kb%d-" k in
  let rec go t =
    match Term.view t with
    | Term.Var v when starts_with ref_tag v.Term.v_name ->
      let n = String.length ref_tag in
      Term.var (tag ^ String.sub v.Term.v_name n (String.length v.Term.v_name - n)) v.Term.v_sort
    | Term.Var _ -> t
    | Term.App (o, args) -> Term.app_unchecked o (List.map go args)
  in
  go t

(* The tag the next renaming will draw, read off a self-overlap: its
   overlap term carries the renamed copy's variables.  Draws one tag. *)
let probe_rule =
  let p = Signature.declare sg "kb-probe" [ g ] g ~attrs:[] in
  Rewrite.rule ~label:"kb-probe" (Term.app p [ Term.app p [ x ] ]) x

let drawn_tag () =
  match Completion.overlaps probe_rule probe_rule with
  | [ o ] -> (
    match
      List.find_map
        (fun (v : Term.var) ->
          let n = v.Term.v_name in
          if starts_with "%kb" n then
            int_of_string_opt (String.sub n 3 (String.index n '-' - 3))
          else None)
        (Term.vars o.Completion.peak)
    with
    | Some k -> k
    | None -> Alcotest.fail "probe overlap carries no renamed variable")
  | os -> Alcotest.failf "probe rule: %d overlaps, expected 1" (List.length os)

let same_overlaps what (expected : Completion.overlap list) (got : Completion.overlap list) =
  let same (a : Completion.overlap) (b : Completion.overlap) =
    a.Completion.outer == b.Completion.outer
    && a.Completion.inner == b.Completion.inner
    && Term.equal a.Completion.peak b.Completion.peak
    && Term.equal a.Completion.left b.Completion.left
    && Term.equal a.Completion.right b.Completion.right
  in
  if not (List.length expected = List.length got && List.for_all2 same expected got) then
    Alcotest.failf "%s: %d overlaps differ from the unfiltered reference's %d" (what ())
      (List.length got) (List.length expected)

let check_overlaps name (rules : Rewrite.rule list) =
  let arr = Array.of_list rules in
  let renamed = Array.map (Ref.rename ref_tag) arr in
  let first = drawn_tag () in
  let calls = ref 0 and found = ref 0 in
  Array.iter
    (fun (r1 : Rewrite.rule) ->
      let ctx1 = Ref.contexts r1.Rewrite.lhs in
      Array.iteri
        (fun j (r2 : Rewrite.rule) ->
          let what () = Printf.sprintf "%s: %s into %s" name r2.Rewrite.label r1.Rewrite.label in
          let expected = Ref.overlaps ctx1 renamed.(j) r1 r2 in
          same_overlaps (fun () -> what () ^ " (shared copy)") expected
            (Completion.overlaps ~renamed2:renamed.(j) r1 r2);
          found := !found + List.length expected;
          let tag = first + 1 + !calls in
          incr calls;
          same_overlaps what
            (List.map
               (fun (o : Completion.overlap) ->
                 {
                   o with
                   Completion.peak = retag tag o.Completion.peak;
                   left = retag tag o.Completion.left;
                   right = retag tag o.Completion.right;
                 })
               expected)
            (Completion.overlaps r1 r2))
        arr)
    arr;
  Alcotest.(check int) (name ^ ": one tag per call") (first + !calls + 1) (drawn_tag ());
  !found

let spec_modules path =
  let src = In_channel.with_open_bin path In_channel.input_all in
  let program = Cafeobj.Parser.parse_string src in
  let env = Cafeobj.Eval.create () in
  List.iter (fun (phrase, _) -> ignore (Cafeobj.Eval.eval env phrase)) program;
  List.filter_map
    (fun (phrase, _) ->
      match phrase with
      | Cafeobj.Parser.TModule (n, _) -> Cafeobj.Eval.find_module env n
      | _ -> None)
    program

let spec_files () =
  let dir =
    match List.find_opt Sys.file_exists [ "../specs"; "../../specs"; "specs"; "../../../specs" ] with
    | Some d -> d
    | None -> Alcotest.fail "specs directory not found"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cafe")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_overlaps_differential () =
  let found =
    check_overlaps "generated TLS"
      (Cafeobj.Spec.all_rules (Tls.Model.spec Tls.Model.Original))
  in
  Alcotest.(check bool) "generated TLS has overlaps" true (found > 0);
  List.iter
    (fun path ->
      List.iter
        (fun spec ->
          let rules = Cafeobj.Spec.all_rules spec in
          let name = Filename.basename path ^ ":" ^ Cafeobj.Spec.name spec in
          let found = check_overlaps name rules in
          Alcotest.(check bool) (name ^ " has overlaps") true (found > 0))
        (spec_modules path))
    (spec_files ())

let tests =
  [
    "lpo subterm", `Quick, test_lpo_subterm;
    "lpo precedence", `Quick, test_lpo_precedence;
    "lpo orients group axioms", `Quick, test_lpo_orients_group_axioms;
    "lpo irreflexive/antisymmetric", `Quick, test_lpo_irreflexive_antisym;
    "lpo unorientable comm", `Quick, test_lpo_unorientable;
    "terminating check", `Quick, test_terminating_check;
    "critical pairs assoc/unit", `Quick, test_critical_pairs_assoc_unit;
    "self overlap skips root", `Quick, test_self_overlap_skips_root;
    "assoc self overlap", `Quick, test_assoc_self_overlap;
    "search precedence group", `Quick, test_search_precedence_group;
    "search precedence hint", `Quick, test_search_precedence_hint;
    "group completion succeeds", `Quick, test_group_completion_succeeds;
    "group theorems", `Quick, test_group_theorems;
    "group non-theorems", `Quick, test_group_non_theorems;
    "unorientable failure", `Quick, test_unorientable_failure;
    "rule limit", `Quick, test_rule_limit;
    "overlaps skip matches unfiltered", `Quick, test_overlaps_differential;
  ]
  @ qcheck_cases

let suite = "completion", tests
