(* The hash-consed kernel: interning invariants (maximal sharing, precomputed
   metadata, AC-canonicity flag), the generation-stamped normal-form memo,
   and shared-memo determinism under the sched pool. *)

open Kernel

let nat = Sort.visible "HcNat"
let sg = Signature.create ()
let zero = Signature.declare sg "hc0" [] nat ~attrs:[ Signature.Ctor ]
let succ = Signature.declare sg "hcS" [ nat ] nat ~attrs:[ Signature.Ctor ]
let plus = Signature.declare sg "hcP" [ nat; nat ] nat ~attrs:[]
let union = Signature.declare sg "hcU" [ nat; nat ] nat ~attrs:[ Signature.Ac ]
let pair = Signature.declare sg "hcC" [ nat; nat ] nat ~attrs:[ Signature.Comm ]
let opaque = Signature.declare sg "hcA" [] nat ~attrs:[]

let rec church n = if n <= 0 then Term.const zero else Term.app succ [ church (n - 1) ]

(* ------------------------------------------------------------------ *)
(* Skeletons: a term description that can be built twice, independently,
   so physical equality of the two builds is a real test of interning. *)

type sk =
  | Z
  | V of string
  | S of sk
  | P of sk * sk
  | U of sk * sk
  | C of sk * sk

let rec build = function
  | Z -> Term.const zero
  | V n -> Term.var n nat
  | S a -> Term.app succ [ build a ]
  | P (a, b) -> Term.app plus [ build a; build b ]
  | U (a, b) -> Term.app union [ build a; build b ]
  | C (a, b) -> Term.app pair [ build a; build b ]

let gen_sk =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then
             oneof [ return Z; return (V "X"); return (V "Y") ]
           else
             frequency
               [
                 1, return Z;
                 1, oneof [ return (V "X"); return (V "Y") ];
                 2, map (fun a -> S a) (self (n / 2));
                 2, map2 (fun a b -> P (a, b)) (self (n / 2)) (self (n / 2));
                 3, map2 (fun a b -> U (a, b)) (self (n / 2)) (self (n / 2));
                 2, map2 (fun a b -> C (a, b)) (self (n / 2)) (self (n / 2));
               ]))

let arb_sk = QCheck.make ~print:(fun sk -> Term.to_string (build sk)) gen_sk

let prop_build_interns =
  QCheck.Test.make ~name:"build t == build t (maximal sharing)" ~count:500 arb_sk
    (fun sk ->
      let t1 = build sk and t2 = build sk in
      t1 == t2 && Term.equal t1 t2 && Term.compare t1 t2 = 0
      && Term.hash t1 = Term.hash t2 && Term.id t1 = Term.id t2)

(* Reference recursions for the precomputed fields. *)
let rec size_spec t =
  match Term.view t with
  | Term.Var _ -> 1
  | Term.App (_, args) -> List.fold_left (fun n a -> n + size_spec a) 1 args

let rec depth_spec t =
  match Term.view t with
  | Term.Var _ -> 1
  | Term.App (_, args) -> 1 + List.fold_left (fun n a -> max n (depth_spec a)) 0 args

let rec ground_spec t =
  match Term.view t with
  | Term.Var _ -> false
  | Term.App (_, args) -> List.for_all ground_spec args

let prop_precomputed_fields =
  QCheck.Test.make ~name:"size/depth/is_ground agree with recomputation" ~count:500
    arb_sk (fun sk ->
      let t = build sk in
      Term.size t = size_spec t
      && Term.depth t = depth_spec t
      && Term.is_ground t = ground_spec t)

let prop_subterm_ids_decrease =
  QCheck.Test.make ~name:"children interned before parents (id order)" ~count:500
    arb_sk (fun sk ->
      let t = build sk in
      match Term.view t with
      | Term.Var _ -> true
      | Term.App (_, args) -> List.for_all (fun a -> Term.id a < Term.id t) args)

let prop_ac_idempotent =
  QCheck.Test.make ~name:"Ac.normalize idempotent and flag-consistent" ~count:500
    arb_sk (fun sk ->
      let t = build sk in
      let n = Ac.normalize t in
      Ac.normalize n == n
      && Term.ac_canonical n
      && Term.ac_canonical t = (n == t))

(* Order independence: folding the same multiset of AC arguments in any
   order canonicalizes to the same interned term. *)
let prop_ac_order_independent =
  QCheck.Test.make ~name:"Ac canonical form is order-independent" ~count:300
    QCheck.(list_of_size Gen.(1 -- 6) (int_bound 5))
    (fun ns ->
      let args = List.map church ns in
      let comb l =
        match l with
        | [] -> church 0
        | x :: rest -> List.fold_left (fun acc a -> Term.app union [ acc; a ]) x rest
      in
      let left = comb args in
      let right = comb (List.rev args) in
      Ac.normalize left == Ac.normalize right)

(* ------------------------------------------------------------------ *)
(* Memo behavior *)

let plus_rules () =
  let x = Term.var "X" nat and y = Term.var "Y" nat in
  [
    Rewrite.rule ~label:"hc-plus-z" (Term.app plus [ Term.const zero; y ]) y;
    Rewrite.rule ~label:"hc-plus-s"
      (Term.app plus [ Term.app succ [ x ]; y ])
      (Term.app succ [ Term.app plus [ x; y ] ]);
  ]

let test_memo_hits () =
  let sys = Rewrite.make (plus_rules ()) in
  let t = Term.app plus [ church 8; church 5 ] in
  let n1 = Rewrite.normalize sys t in
  Alcotest.(check bool) "normal form" true (Term.equal n1 (church 13));
  let s1 = Rewrite.memo_stats sys in
  Alcotest.(check bool) "first run misses" true (s1.Rewrite.misses > 0);
  Alcotest.(check bool) "entries cached" true (s1.Rewrite.entries > 0);
  let n2 = Rewrite.normalize sys t in
  let s2 = Rewrite.memo_stats sys in
  Alcotest.(check bool) "second run result shared" true (n1 == n2);
  Alcotest.(check bool) "second run hits" true (s2.Rewrite.hits > s1.Rewrite.hits);
  Alcotest.(check int) "no new misses" s1.Rewrite.misses s2.Rewrite.misses

let test_memo_generation_tamper () =
  (* Bumping the generation must invalidate every cached normal form: the
     lookups that used to hit now miss, though the entries are still in the
     tables. *)
  let sys = Rewrite.make (plus_rules ()) in
  let t = Term.app plus [ church 6; church 6 ] in
  let n1 = Rewrite.normalize sys t in
  ignore (Rewrite.normalize sys t : Term.t);
  let before = Rewrite.memo_stats sys in
  Rewrite.invalidate_memo sys;
  let after_invalidate = Rewrite.memo_stats sys in
  Alcotest.(check int) "generation bumped"
    (before.Rewrite.generation + 1) after_invalidate.Rewrite.generation;
  let n2 = Rewrite.normalize sys t in
  let after = Rewrite.memo_stats sys in
  Alcotest.(check bool) "same normal form recomputed" true (n1 == n2);
  Alcotest.(check bool) "stale entries miss" true
    (after.Rewrite.misses > before.Rewrite.misses);
  Alcotest.(check bool) "entries survived (stale)" true (after.Rewrite.entries > 0)

let test_no_stale_nf_across_branch () =
  (* A branched proof environment adds equations; terms the base system
     considered normal must re-reduce under the branch even though the base
     memo is warm (Rewrite.extend allocates a fresh memo for the derived
     system). *)
  let a = Term.const opaque in
  let sys = Rewrite.make (plus_rules ()) in
  let t = Term.app plus [ a; church 3 ] in
  let nf_base = Rewrite.normalize sys t in
  (* [a] is opaque: plus cannot reduce it away. *)
  Alcotest.(check bool) "base nf stuck on opaque" true
    (Term.equal nf_base (Term.app plus [ a; church 3 ]));
  let branch =
    Rewrite.extend sys [ Rewrite.rule ~label:"hc-branch-a" a (church 2) ]
  in
  let nf_branch = Rewrite.normalize branch t in
  Alcotest.(check bool) "branch sees through the assumption" true
    (Term.equal nf_branch (church 5));
  (* And the base system is untouched. *)
  Alcotest.(check bool) "base unchanged" true
    (Term.equal (Rewrite.normalize sys t) nf_base)

let test_shared_memo_parallel () =
  (* Parallel workers normalizing through one shared memo must agree with a
     sequential run on a fresh system ("--jobs 1"). *)
  let inputs =
    List.concat_map
      (fun i -> List.map (fun j -> Term.app plus [ church i; church j ]) [ 0; 3; 7; 11 ])
      [ 0; 1; 2; 5; 9; 12 ]
  in
  let seq_sys = Rewrite.make (plus_rules ()) in
  let expected = List.map (Rewrite.normalize seq_sys) inputs in
  let par_sys = Rewrite.make (plus_rules ()) in
  let results =
    Sched.Pool.with_pool ~jobs:4 (fun pool ->
        Sched.Pool.parallel_map pool (Rewrite.normalize par_sys) inputs)
  in
  List.iter2
    (fun e r -> Alcotest.(check bool) "parallel == sequential" true (Term.equal e r))
    expected results;
  let s = Rewrite.memo_stats par_sys in
  Alcotest.(check bool) "shared memo used" true (s.Rewrite.entries > 0)

let test_intern_table_len () =
  (* The intern table is weak, so exact counts are racy (a GC can collect
     entries between two reads).  What must hold: terms we keep alive are
     counted, and re-interning an alive term yields the same record rather
     than a second entry. *)
  let probes =
    List.init 64 (fun i -> Term.var (Printf.sprintf "%%hc-probe-%d" i) nat)
  in
  Alcotest.(check bool) "live terms are counted" true
    (Term.intern_table_len () >= List.length probes);
  List.iteri
    (fun i v ->
      Alcotest.(check bool) "re-intern shares" true
        (Term.var (Printf.sprintf "%%hc-probe-%d" i) nat == v))
    probes

let test_uncached_matches_memoized () =
  let sys = Rewrite.make (plus_rules ()) in
  let t = Term.app plus [ church 9; Term.app plus [ church 4; church 2 ] ] in
  let memo_nf = Rewrite.normalize sys t in
  let uncached_nf = Rewrite.normalize_uncached sys t in
  Alcotest.(check bool) "same nf" true (Term.equal memo_nf uncached_nf);
  (* The uncached path must not have touched the shared memo for [t]'s
     subterms beyond what normalize already stored. *)
  let entries = (Rewrite.memo_stats sys).Rewrite.entries in
  ignore (Rewrite.normalize_uncached sys t : Term.t);
  Alcotest.(check int) "uncached leaves memo alone" entries
    (Rewrite.memo_stats sys).Rewrite.entries

let qcheck_cases =
  List.map
    (QCheck_alcotest.to_alcotest ?verbose:None ?long:None)
    [
      prop_build_interns;
      prop_precomputed_fields;
      prop_subterm_ids_decrease;
      prop_ac_idempotent;
      prop_ac_order_independent;
    ]

let suite =
  ( "hashcons",
    [
      Alcotest.test_case "memo hit accounting" `Quick test_memo_hits;
      Alcotest.test_case "generation tamper invalidates memo" `Quick
        test_memo_generation_tamper;
      Alcotest.test_case "no stale nf across branch" `Quick
        test_no_stale_nf_across_branch;
      Alcotest.test_case "shared memo parallel == sequential" `Quick
        test_shared_memo_parallel;
      Alcotest.test_case "intern table length" `Quick test_intern_table_len;
      Alcotest.test_case "uncached path matches memoized" `Quick
        test_uncached_matches_memoized;
    ]
    @ qcheck_cases )
