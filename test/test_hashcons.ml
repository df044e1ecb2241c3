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

(* ------------------------------------------------------------------ *)
(* Intern keys and the id-keyed term table *)

(* [Term.hash] orders AC arguments and is read by every serialized order
   (sets, canonical forms, state keys, certificates), so it must not move:
   the values below are goldens.  It is an ordering hash, not a table
   key: [hash (s (s 0))] and [hash 0] agree below the sign bit. *)
let test_ordering_hash_pinned () =
  let x = Term.var "X" nat and z = Term.const zero in
  let s1 = Term.app succ [ z ] in
  let ss = Term.app succ [ s1 ] in
  List.iter
    (fun (what, t, h) -> Alcotest.(check int) what h (Term.hash t))
    [
      "variable", x, 3782792666611113351;
      "constant", z, 44535112856503551;
      "s(s(0))", ss, -4567150905570884353;
      "binary", Term.app plus [ x; s1 ], 4079469961789098791;
      "AC", Term.app union [ z; x ], -4405291044718999974;
      "Bool if", Term.ite (Term.eq x z) s1 z, -3057076236672791293;
    ];
  Alcotest.(check int) "s(s(0)) cancels to 0 below the sign bit"
    (Term.hash z land max_int) (Term.hash ss land max_int)

(* Numerals of a fresh sort: every even one has one ordering hash and
   every odd one another, so keyed by that hash they would share two
   buckets of a [Term.Tbl] and two intern shards. *)
let test_numerals_spread () =
  let sn = Sort.visible "HcSpread" in
  let z = Signature.declare sg "hcSp0" [] sn ~attrs:[ Signature.Ctor ] in
  let s = Signature.declare sg "hcSpS" [ sn ] sn ~attrs:[ Signature.Ctor ] in
  let n = 5_000 in
  Gc.full_major ();
  let before = Term.intern_shard_stats () in
  let nums = Array.make n (Term.const z) in
  for k = 1 to n - 1 do
    nums.(k) <- Term.app s [ nums.(k - 1) ]
  done;
  let after = Term.intern_shard_stats () in
  let tbl = Term.Tbl.create 16 in
  Array.iter (fun t -> Term.Tbl.replace tbl t ()) nums;
  Alcotest.(check int) "all numerals distinct" n (Term.Tbl.length tbl);
  let st = Term.Tbl.stats tbl in
  Alcotest.(check bool)
    (Printf.sprintf "Term.Tbl max bucket %d <= 16" st.Hashtbl.max_bucket_length)
    true
    (st.Hashtbl.max_bucket_length <= 16);
  let gain = Array.mapi (fun i a -> a - before.(i)) after in
  let gained = Array.fold_left (fun c g -> if g > 0 then c + 1 else c) 0 gain in
  let most = Array.fold_left max 0 gain in
  Alcotest.(check bool)
    (Printf.sprintf "%d shards gained >= 200" gained)
    true (gained >= 200);
  Alcotest.(check bool)
    (Printf.sprintf "largest shard gain %d <= 100" most)
    true (most <= 100);
  (* keep the numerals alive until the counts are taken *)
  Alcotest.(check bool) "numerals alive" true (Term.size nums.(n - 1) = n)

(* Two pool domains intern the same 50 000 terms in opposite orders,
   each dropping two transient terms per kept one and forcing a full
   major GC between batches, so that shards rebuild while entries die
   under them.  Whoever interns a term first, both get the one record. *)
let test_concurrent_intern_gc () =
  let nums = Array.init 250 church in
  let dim_a = 250 and dim_b = 200 in
  let n = dim_a * dim_b and batch = 5_000 in
  let build i = Term.app plus [ nums.(i mod dim_a); nums.(i / dim_a) ] in
  let run backwards =
    let out = Array.make n (Term.const zero) in
    for j = 0 to n - 1 do
      let i = if backwards then n - 1 - j else j in
      let t = build i in
      ignore (Term.app succ [ t ] : Term.t);
      ignore (Term.app union [ t; nums.(i / dim_a) ] : Term.t);
      out.(i) <- t;
      if (j + 1) mod batch = 0 then Gc.full_major ()
    done;
    out
  in
  let fwd, bwd =
    match
      Sched.Pool.with_pool ~jobs:2 (fun pool ->
          Sched.Pool.parallel_map pool run [ false; true ])
    with
    | [ fwd; bwd ] -> fwd, bwd
    | _ -> assert false
  in
  let shared = ref 0 and ordered = ref 0 in
  for i = 0 to n - 1 do
    let t = fwd.(i) in
    if t == bwd.(i) && t == build i then incr shared;
    match Term.view t with
    | Term.App (_, args) ->
      if List.for_all (fun a -> Term.id a < Term.id t) args then incr ordered
    | Term.Var _ -> ()
  done;
  Alcotest.(check int) "equal structure, one record" n !shared;
  Alcotest.(check int) "ids increase from children to parents" n !ordered

(* Round after round, two fresh domains intern terms beside the main
   domain and terminate, as pool workers and a test's daemon domain do,
   while the GC runs under them, so shards are rebuilt on domains that
   then terminate.  Such a shard's new weak array must come from a domain
   that outlives it (see [Term]'s [Alloc]): under OCaml 5.1 a table whose
   terminating domains allocated their own arrays faulted at random on a
   freed key, about one run in a dozen of the full suite.  At this size
   the fault is too rare to show in one run; the test checks that the
   path works and keeps the table consistent. *)
let test_terminating_domains_intern () =
  let cs = Array.init 64 (fun k -> Term.app succ [ church k ]) in
  let keep = Array.make 4096 (Term.const zero) in
  let work seed n =
    let rnd = Random.State.make [| seed |] in
    for i = 1 to n do
      let a = cs.(Random.State.int rnd 64) and b = cs.(Random.State.int rnd 64) in
      let t = Term.app plus [ a; Term.app plus [ b; Term.app succ [ a ] ] ] in
      let t = Term.app plus [ t; Term.app succ [ Term.app succ [ t ] ] ] in
      if i mod 7 = 0 then keep.(Random.State.int rnd 4096) <- t;
      if i mod 2_500 = 0 then ignore (Gc.major_slice 0 : int)
    done
  in
  for round = 1 to 20 do
    let ds =
      List.init 2 (fun k -> Domain.spawn (fun () -> work ((round * 10) + k) 10_000))
    in
    work ((round * 10) + 5) 5_000;
    List.iter Domain.join ds
  done;
  Gc.full_major ();
  let ok =
    Array.for_all
      (fun t ->
        match Term.view t with
        | Term.App (f, args) -> Term.app f args == t
        | Term.Var _ -> true)
      keep
  in
  Alcotest.(check bool) "kept terms re-intern to themselves" true ok

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
      Alcotest.test_case "ordering hash pinned" `Quick test_ordering_hash_pinned;
      Alcotest.test_case "numerals spread over table and shards" `Quick
        test_numerals_spread;
      Alcotest.test_case "two domains intern through GC and rebuilds" `Quick
        test_concurrent_intern_gc;
      Alcotest.test_case "terminating domains intern through GC" `Quick
        test_terminating_domains_intern;
    ]
    @ qcheck_cases )
