(* State keys and symmetry canonization of the concrete models, pinned.

   The models print each state's key, and the canonizer picks the orbit
   minimum of the printed keys over the interchangeable fresh values, so a
   single moved key byte can change which image represents an orbit, and
   with it the states the search stores.  The model checker merges states
   by keys of interned terms, which must make the same states equal as
   the printed keys (checked below).  Two oracles:

   - golden digests: the md5 of the newline-joined keys, raw and canonized,
     of a fixed set of states, recorded with the [Format]-based term
     printer and the plain orbit minimum below, so they pin the bytes
     those produced;
   - that plain orbit minimum, kept here as the reference canonizer: every
     permutation of the pool, a remap that re-interns every node, no
     skipping of duplicate images, the strict [<] on key strings.  The
     models' [canon] must return a state whose key equals the reference's.

   The states: a few levels of raw states of NSL, NSPK and both TLS styles
   (shallow: no session and no leaked key yet), five levels of TLS (where
   canonization moves more than a third of them), and, under Paulson's Oops
   rule, the first state of a complete handshake together with its
   successors (sessions on both sides, and leaked session keys), once as
   the scenario draws its rands and once with the rands drawn in another
   order, which canonization must undo.  A property runs the canonizer
   on random lists of terms, where pool constants also occur only below
   the top of a term, and a last one checks the comparison the canonizer
   makes as an image's key is emitted, chunk by chunk, against
   [String.compare] of the joined chunks. *)

(* ------------------------------------------------------------------ *)
(* Reference canonizer                                                 *)

let rec ref_permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map
          (fun p -> x :: p)
          (ref_permutations (List.filter (fun y -> not (Kernel.Term.equal y x)) l)))
      l

(* Rebuilds every application node, changed or not. *)
let ref_remap_term map t =
  let open Kernel in
  let rec go t =
    match Term.view t with
    | Term.Var _ -> t
    | Term.App (_, []) -> (
      match List.find_opt (fun (c, _) -> Term.equal c t) map with
      | Some (_, d) -> d
      | None -> t)
    | Term.App (o, args) -> Term.app_unchecked o (List.map go args)
  in
  go t

let ref_canon pool ~remap ~key =
  if List.length pool < 2 then fun st -> st
  else
    let maps = List.map (List.combine pool) (ref_permutations pool) in
    fun st ->
      let best = ref st and best_key = ref (key st) in
      List.iter
        (fun map ->
          let st' = remap (ref_remap_term map) st in
          let k' = key st' in
          if String.compare k' !best_key < 0 then begin
            best := st';
            best_key := k'
          end)
        maps;
      !best

(* ------------------------------------------------------------------ *)
(* The pinned states                                                   *)

type group =
  | Group : {
      g_name : string;
      g_key : 's -> string;
      g_ident : 's -> Mc.key;
      g_canon : 's -> 's;
      g_collapse : 's -> 's;
      g_ref : 's -> 's;
      g_states : 's list;
    }
      -> group

let tls_group name scen states =
  let sys = Tls.Concrete.system scen in
  let honest =
    List.filter
      (fun r -> not (List.exists (Kernel.Term.equal r) scen.Tls.Concrete.intruder_rands))
      scen.Tls.Concrete.rands
  in
  let pool =
    Analysis.Symmetry.orbit_elems
      (Tls.Concrete.symmetries scen.Tls.Concrete.style)
      ~candidates:honest
  in
  Group
    {
      g_name = name;
      g_key = Tls.Concrete.printed_key;
      g_ident = sys.Mc.key;
      g_canon = (Tls.Concrete.reduction scen).Mc.canon;
      g_collapse = Tls.Concrete.remap_state (fun _ -> List.hd honest);
      g_ref = ref_canon pool ~remap:Tls.Concrete.remap_state ~key:Tls.Concrete.printed_key;
      g_states = states sys;
    }

let nspk_group name scen =
  let sys = Nspk.system scen in
  let pool =
    Analysis.Symmetry.orbit_elems
      (Nspk.symmetries scen.Nspk.variant)
      ~candidates:scen.Nspk.nonces
  in
  Group
    {
      g_name = name;
      g_key = Nspk.printed_key;
      g_ident = sys.Mc.key;
      g_canon = (Nspk.reduction scen).Mc.canon;
      g_collapse = Nspk.remap_state (fun _ -> List.hd scen.Nspk.nonces);
      g_ref = ref_canon pool ~remap:Nspk.remap_state ~key:Nspk.printed_key;
      g_states = Test_mc_reduction.sample_states sys ~depth:3 ~limit:300;
    }

(* The first complete handshake under Oops, and its successors. *)
let oops_states scen sys =
  match
    Mc.reachable ~max_states:20_000 ~max_depth:7 sys
      ~goal:(Tls.Concrete.handshake_complete scen)
  with
  | Some (_, st) -> st :: List.map snd (sys.Mc.next st)
  | None -> Alcotest.fail "no complete handshake under oops"

let groups_l =
  lazy
    (let tls = Tls.Concrete.default_scenario () in
     let shallow sys = Test_mc_reduction.sample_states sys ~depth:2 ~limit:60 in
     let oops = { tls with Tls.Concrete.oops = true } in
     [
       nspk_group "nsl" (Nspk.default_scenario Nspk.Lowe_fixed);
       nspk_group "nspk" (Nspk.default_scenario Nspk.Classic);
       tls_group "tls" tls shallow;
       tls_group "tls-cf2first" { tls with Tls.Concrete.style = Tls.Model.Cf2First } shallow;
       tls_group "tls-deep" tls (Test_mc_reduction.sample_states ~depth:5 ~limit:400);
       tls_group "tls-oops" oops (oops_states oops);
       (let swapped =
          match tls.Tls.Concrete.rands with
          | [ ra; rb; rc; rd; ri ] -> { oops with Tls.Concrete.rands = [ rc; rd; ra; rb; ri ] }
          | _ -> Alcotest.fail "unexpected rand pool"
        in
        tls_group "tls-oops-swapped" swapped (oops_states swapped));
     ])

(* ------------------------------------------------------------------ *)
(* Golden keys                                                         *)

let digest keys = Digest.to_hex (Digest.string (String.concat "\n" keys))

(* name, states, md5 of the raw keys, md5 of the canonized keys *)
let golden =
  [
    "nsl", 300, "3e50e622ddd96f318f586ded27df3dab", "825970cab1dab430ab6fde86f4019cdc";
    "nspk", 300, "88cc33a8aad20b4df28e70c5b0d2a98f", "d9c792df6a48b52ea9eb80af7e2ed700";
    "tls", 60, "da594f7d964f9089ac9332e40b8b33f7", "da594f7d964f9089ac9332e40b8b33f7";
    "tls-cf2first", 60, "da594f7d964f9089ac9332e40b8b33f7", "da594f7d964f9089ac9332e40b8b33f7";
    "tls-deep", 400, "aab3f3f56acefd32f667e6f98d449f26", "e37aff35ab1c9094a366d64d262f6fcb";
    "tls-oops", 24, "0bfe1fbd79048e01d40d2dabe35c93ac", "0bfe1fbd79048e01d40d2dabe35c93ac";
    (* the same states with the honest rands drawn in another order:
       canonization maps them back onto the states above *)
    "tls-oops-swapped", 24, "c04d3771ad98ee70deee9bbefd6db670", "0bfe1fbd79048e01d40d2dabe35c93ac";
  ]

let test_golden_keys () =
  List.iter2
    (fun (Group g) (name, n, raw, canon) ->
      Alcotest.(check string) "group" name g.g_name;
      Alcotest.(check int) (name ^ " states") n (List.length g.g_states);
      Alcotest.(check string) (name ^ " raw keys") raw
        (digest (List.map g.g_key g.g_states));
      Alcotest.(check string) (name ^ " canonized keys") canon
        (digest (List.map (fun s -> g.g_key (g.g_canon s)) g.g_states)))
    (Lazy.force groups_l) golden

(* The same digests computed by two pool domains at once: the printed-term
   memo of the keys is per domain, and both domains canonize through the
   same closures, each filling its own term-image memo.  Each task waits
   for the other to start, so the two run on distinct domains. *)
let test_golden_keys_two_domains () =
  let groups = Lazy.force groups_l in
  let started = Atomic.make 0 in
  let digests () =
    Atomic.incr started;
    let t0 = Unix.gettimeofday () in
    while Atomic.get started < 2 && Unix.gettimeofday () -. t0 < 30. do
      Domain.cpu_relax ()
    done;
    ( (Domain.self () :> int),
      List.map
        (fun (Group g) ->
          ( digest (List.map g.g_key g.g_states),
            digest (List.map (fun s -> g.g_key (g.g_canon s)) g.g_states) ))
        groups )
  in
  Sched.Pool.with_pool ~jobs:2 @@ fun pool ->
  match Sched.Pool.parallel_map pool digests [ (); () ] with
  | [ (d1, r1); (d2, r2) ] ->
    Alcotest.(check bool) "two domains" true (d1 <> d2);
    List.iter
      (fun r ->
        List.iter2
          (fun (raw', canon') (name, _, raw, canon) ->
            Alcotest.(check string) (name ^ " raw keys") raw raw';
            Alcotest.(check string) (name ^ " canonized keys") canon canon')
          r golden)
      [ r1; r2 ]
  | _ -> Alcotest.fail "two results expected"

(* The golden digests cover the session-table and Oops parts of the key:
   the witness holds sessions, and some successor has leaked a key. *)
let test_oops_states_cover_sessions () =
  match List.find (fun (Group g) -> g.g_name = "tls-oops") (Lazy.force groups_l) with
  | Group g ->
    let has sub k =
      let n = String.length sub and m = String.length k in
      let rec at i = i + n <= m && (String.sub k i n = sub || at (i + 1)) in
      at 0
    in
    let keys = List.map g.g_key g.g_states in
    Alcotest.(check bool) "witness holds sessions" false
      (String.ends_with ~suffix:"|ss:" (List.hd keys));
    Alcotest.(check bool) "a successor leaks a session key" true
      (List.exists (fun k -> not (has "|oops:|ss:" k)) keys)

(* ------------------------------------------------------------------ *)
(* The model checker's keys against the printed keys                   *)

(* [Mc] merges states by their keys of interned terms, the reference
   orbit minimum and the golden digests read the printed keys: the two
   must make the same states equal.  Checked on every state of each group,
   its canonical image, and its image with every term [remap_state]
   touches collapsed onto one value, where sections repeat one term and
   only the section boundaries tell states apart.  The default NSPK
   scenario has two honest nonces, so no responder runs twice on one
   message 1; with three, within four steps, it does, and collapsed, the
   responders' runs [[r; r]] and [[r]] followed by the finished runs [[r]]
   differ only where the finished runs begin. *)
let check_keys_agree name ~ident ~printed states =
  let by_printed = Hashtbl.create 1024 and by_ident = Hashtbl.create 1024 in
  let ids k =
    String.concat "," (Array.to_list (Array.map (fun t -> string_of_int (Kernel.Term.id t)) k))
  in
  List.iteri
    (fun i s ->
      let p = printed s and k = ids (ident s) in
      (match Hashtbl.find_opt by_printed p with
      | Some k' when not (String.equal k k') ->
        Alcotest.failf "%s state %d: its printed key is another state's, its key is not:\n%s" name
          i p
      | Some _ -> ()
      | None -> Hashtbl.add by_printed p k);
      match Hashtbl.find_opt by_ident k with
      | Some p' when not (String.equal p p') ->
        Alcotest.failf "%s state %d: its key is another state's, its printed key is not:\n%s\n%s"
          name i p p'
      | Some _ -> ()
      | None -> Hashtbl.add by_ident k p)
    states;
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d states, some equal" name (List.length states))
    true
    (Hashtbl.length by_printed < List.length states)

let test_keys_agree_with_printed () =
  List.iter
    (fun (Group g) ->
      check_keys_agree g.g_name ~ident:g.g_ident ~printed:g.g_key
        (List.concat_map (fun s -> [ s; g.g_canon s; g.g_collapse s ]) g.g_states))
    (Lazy.force groups_l);
  List.iter
    (fun (name, variant) ->
      let scen = Nspk.default_scenario variant in
      let scen =
        {
          scen with
          Nspk.nonces = scen.Nspk.nonces @ scen.Nspk.intruder_nonces;
          intruder_nonces = [];
        }
      in
      let sys = Nspk.system scen in
      let collapse = Nspk.remap_state (fun _ -> List.hd scen.Nspk.nonces) in
      let states = ref [] in
      ignore
        (Test_mc_reduction.ref_search ~max_depth:4
           ~on_state:(fun s -> states := s :: collapse s :: !states)
           ~printed_key:Nspk.printed_key sys ~props:[]);
      check_keys_agree (name ^ ", three honest nonces") ~ident:sys.Mc.key
        ~printed:Nspk.printed_key !states)
    [ "nspk", Nspk.Classic; "nsl", Nspk.Lowe_fixed ]

(* ------------------------------------------------------------------ *)
(* Canonizer against the reference                                     *)

let test_canon_matches_reference () =
  List.iter
    (fun (Group g) ->
      List.iteri
        (fun i s ->
          Alcotest.(check string)
            (Printf.sprintf "%s state %d" g.g_name i)
            (g.g_key (g.g_ref s))
            (g.g_key (g.g_canon s)))
        g.g_states)
    (Lazy.force groups_l)

(* The canonizer on states that are plain lists of terms over a pool of
   four constants and one other constant: random pool sizes, pool
   constants nested at any depth, images that repeat. *)
let prop_canonizer_on_term_lists =
  let open Kernel in
  let srt = Sort.visible "CanonElem" in
  let sg = Signature.create () in
  let const n = Term.const (Signature.declare sg n [] srt ~attrs:[]) in
  let pool = List.map const [ "p1"; "p2"; "p3"; "p4" ] and other = const "q" in
  let f = Signature.declare sg "f" [ srt ] srt ~attrs:[] in
  let g = Signature.declare sg "g" [ srt; srt ] srt ~attrs:[] in
  let gen =
    QCheck.Gen.(
      let term =
        sized_size (int_bound 4)
        @@ fix (fun self n ->
               let leaf = oneofl (other :: pool) in
               if n = 0 then leaf
               else
                 frequency
                   [
                     1, leaf;
                     2, map (fun t -> Term.app f [ t ]) (self (n - 1));
                     2, map2 (fun a b -> Term.app g [ a; b ]) (self (n - 1)) (self (n - 1));
                   ])
      in
      pair (int_range 0 4) (list_size (int_bound 5) term))
  in
  let key st = String.concat "\n" (List.map Term.to_string st) in
  let emit f st = List.iteri (fun i t -> if i > 0 then f "\n"; f (Term.to_string t)) st in
  let print (n, st) = Printf.sprintf "pool %d: %s" n (key st) in
  QCheck.Test.make ~name:"canonizer matches the reference on term lists" ~count:500
    (QCheck.make ~print gen)
    (fun (n, st) ->
      let pool = List.filteri (fun i _ -> i < n) pool in
      let canon =
        Analysis.Symmetry.canonizer pool ~iter_terms:List.iter ~remap:List.map ~emit
      in
      String.equal (key (canon st)) (key (ref_canon pool ~remap:List.map ~key st)))

(* The canonizer compares each image's key, as the model emits it chunk
   by chunk, against the best key so far.  That must be [String.compare]
   of the joined chunks: random splits (empty chunks included) of strings
   over the separators the keys use, against an unrelated string, the
   same string, one byte changed, a proper prefix, or an extension. *)
let prop_compare_emitted =
  let gen =
    QCheck.Gen.(
      let str = string_size ~gen:(oneofl [ 'a'; 'b'; '\n'; '|'; ','; '\xff' ]) (int_bound 10) in
      let* s = str in
      let len = String.length s in
      let* k =
        oneof
          [
            str;
            return s;
            map2
              (fun i c ->
                if len = 0 then String.make 1 c
                else String.mapi (fun j x -> if j = i mod len then c else x) s)
              nat (oneofl [ 'a'; '|'; '\xff' ]);
            map (fun n -> String.sub s 0 (n mod (len + 1))) nat;
            map (fun t -> s ^ t) str;
          ]
      in
      let* cuts = list_size (int_bound 6) (int_bound len) in
      let cuts = List.sort compare cuts in
      let chunks, last =
        List.fold_left
          (fun (acc, from) cut -> (String.sub s from (cut - from) :: acc, cut))
          ([], 0) cuts
      in
      return (List.rev (String.sub s last (len - last) :: chunks), k))
  in
  let print (chunks, k) =
    Printf.sprintf "chunks [%s] against %S" (String.concat "; " (List.map (Printf.sprintf "%S") chunks)) k
  in
  QCheck.Test.make ~name:"emitted keys compare as their joined strings" ~count:2000
    (QCheck.make ~print gen)
    (fun (chunks, k) ->
      Int.equal
        (Analysis.Symmetry.compare_emitted List.iter chunks k)
        (String.compare (String.concat "" chunks) k))

let tests =
  [
    "golden state keys", `Quick, test_golden_keys;
    "golden state keys from two domains", `Quick, test_golden_keys_two_domains;
    "oops states cover sessions and leaks", `Quick, test_oops_states_cover_sessions;
    "canon matches the reference orbit minimum", `Quick, test_canon_matches_reference;
    "keys equal exactly when printed keys are", `Quick, test_keys_agree_with_printed;
    QCheck_alcotest.to_alcotest prop_canonizer_on_term_lists;
    QCheck_alcotest.to_alcotest prop_compare_emitted;
  ]

let suite = "mc-keys", tests
