(* Tests of the generic Dolev-Yao knowledge engine on a toy algebra of
   pairs, symmetric encryption and hashing. *)

type item =
  | Atom of string
  | Pair of item * item
  | Enc of item * item  (** Enc (key, body) *)
  | Hash of item

module Algebra = struct
  type t = item

  let compare = compare

  let analyze ~knows = function
    | Atom _ -> []
    | Pair (a, b) -> [ a; b ]
    | Enc (k, body) -> if knows k then [ body ] else []
    | Hash _ -> []

  let components = function
    | Atom _ -> None
    | Pair (a, b) -> Some [ a; b ]
    | Enc (k, body) -> Some [ k; body ]
    | Hash x -> Some [ x ]
end

module K = Dolevyao.Make (Algebra)

(* The reference closure: the full pass the engine made before it became
   incremental, re-analyzing every known item in every round.  [K.learn]
   must reach the same set whichever way the items are split over calls. *)
module S = Set.Make (Algebra)

let reference_closure items =
  let rec go k =
    let knows item = S.mem item k in
    let fresh =
      S.fold
        (fun item acc ->
          List.fold_left
            (fun acc sub -> if S.mem sub k then acc else S.add sub acc)
            acc (Algebra.analyze ~knows item))
        k S.empty
    in
    if S.is_empty fresh then k else go (S.union k fresh)
  in
  S.elements (go (S.of_list items))

let k = Atom "k"
let secret = Atom "secret"
let nonce = Atom "nonce"

let test_analysis_of_pairs () =
  let kn = K.learn K.empty [ Pair (nonce, Pair (k, Atom "x")) ] in
  Alcotest.(check bool) "nonce" true (K.knows kn nonce);
  Alcotest.(check bool) "k" true (K.knows kn k);
  Alcotest.(check bool) "x" true (K.knows kn (Atom "x"));
  Alcotest.(check bool) "secret unknown" false (K.knows kn secret)

let test_decryption_needs_key () =
  let kn = K.learn K.empty [ Enc (k, secret) ] in
  Alcotest.(check bool) "no key, no secret" false (K.knows kn secret);
  let kn = K.learn kn [ k ] in
  Alcotest.(check bool) "key arrives, closure reopens ciphertext" true
    (K.knows kn secret)

let test_decryption_key_inside_other_ciphertext () =
  (* k is itself encrypted under k2; learning k2 must cascade. *)
  let kn = K.learn K.empty [ Enc (k, secret); Enc (Atom "k2", k) ] in
  Alcotest.(check bool) "nothing yet" false (K.knows kn secret);
  let kn = K.learn kn [ Atom "k2" ] in
  Alcotest.(check bool) "cascaded decryption" true (K.knows kn secret)

let test_key_arrives_two_calls_later () =
  (* The ciphertext waits through an unrelated call; its key then arrives
     inside another ciphertext, whose own key is already known. *)
  let k2 = Atom "k2" in
  let kn = K.learn K.empty [ Enc (k, secret) ] in
  let kn = K.learn kn [ k2 ] in
  Alcotest.(check bool) "still sealed" false (K.knows kn secret);
  let kn = K.learn kn [ Enc (k2, k) ] in
  Alcotest.(check bool) "key learned" true (K.knows kn k);
  Alcotest.(check bool) "ciphertext opened" true (K.knows kn secret);
  Alcotest.(check bool) "same set as the full pass" true
    (K.items kn = reference_closure [ Enc (k, secret); k2; Enc (k2, k) ])

let test_synthesis () =
  let kn = K.learn K.empty [ k; nonce ] in
  Alcotest.(check bool) "can rebuild pair" true
    (K.derivable kn (Pair (nonce, k)));
  Alcotest.(check bool) "can encrypt" true (K.derivable kn (Enc (k, nonce)));
  Alcotest.(check bool) "can hash" true (K.derivable kn (Hash nonce));
  Alcotest.(check bool) "cannot invent atoms" false
    (K.derivable kn (Pair (nonce, secret)))

let test_hash_one_way () =
  let kn = K.learn K.empty [ Hash secret ] in
  Alcotest.(check bool) "hash known" true (K.knows kn (Hash secret));
  Alcotest.(check bool) "preimage not derivable" false (K.derivable kn secret)

let test_replay_vs_construction () =
  (* A ciphertext under an unknown key can be replayed (it is known) even
     though it could not be constructed. *)
  let kn = K.learn K.empty [ Enc (secret, nonce) ] in
  Alcotest.(check bool) "replayable" true (K.derivable kn (Enc (secret, nonce)));
  Alcotest.(check bool) "but a variant is not" false
    (K.derivable kn (Enc (secret, k)))

let test_monotone_and_idempotent () =
  let base = [ Enc (k, secret); k; Pair (nonce, Atom "x") ] in
  let kn1 = K.learn K.empty base in
  let kn2 = K.learn kn1 [] in
  Alcotest.(check int) "learn [] is identity" 0 (K.compare kn1 kn2);
  let kn3 = K.learn kn1 base in
  Alcotest.(check int) "relearning is idempotent" 0 (K.compare kn1 kn3);
  Alcotest.(check bool) "size sane" true (K.size kn1 >= List.length base)

let gen_item =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then map (fun i -> Atom (Printf.sprintf "a%d" (i mod 5))) small_nat
        else
          frequency
            [
              2, map (fun i -> Atom (Printf.sprintf "a%d" (i mod 5))) small_nat;
              2, map2 (fun a b -> Pair (a, b)) (self (n / 2)) (self (n / 2));
              2, map2 (fun a b -> Enc (a, b)) (self (n / 2)) (self (n / 2));
              1, map (fun a -> Hash a) (self (n / 2));
            ]))

let arb_item = QCheck.make gen_item

let prop_known_implies_derivable =
  QCheck.Test.make ~name:"knows implies derivable" ~count:200
    (QCheck.pair arb_item (QCheck.list_of_size (QCheck.Gen.return 3) arb_item))
    (fun (x, learned) ->
      let kn = K.learn K.empty (x :: learned) in
      K.derivable kn x)

let prop_learning_is_monotone =
  QCheck.Test.make ~name:"learning is monotone" ~count:200
    (QCheck.pair arb_item (QCheck.list_of_size (QCheck.Gen.return 4) arb_item))
    (fun (x, learned) ->
      let kn1 = K.learn K.empty learned in
      let kn2 = K.learn kn1 [ x ] in
      List.for_all (K.knows kn2) (K.items kn1))

let prop_split_learning =
  QCheck.Test.make ~name:"learning in two calls equals one call and the full pass"
    ~count:300
    (QCheck.pair (QCheck.list_of_size QCheck.Gen.(0 -- 10) arb_item) QCheck.small_nat)
    (fun (learned, cut) ->
      let cut = cut mod (List.length learned + 1) in
      let prefix = List.filteri (fun i _ -> i < cut) learned in
      let suffix = List.filteri (fun i _ -> i >= cut) learned in
      let split = K.learn (K.learn K.empty prefix) suffix in
      let whole = K.learn K.empty learned in
      K.compare split whole = 0 && K.items whole = reference_closure learned)

let tests =
  [
    "analysis of pairs", `Quick, test_analysis_of_pairs;
    "decryption needs key", `Quick, test_decryption_needs_key;
    "cascaded decryption", `Quick, test_decryption_key_inside_other_ciphertext;
    "key arrives two calls later", `Quick, test_key_arrives_two_calls_later;
    "synthesis", `Quick, test_synthesis;
    "hash one-way", `Quick, test_hash_one_way;
    "replay vs construction", `Quick, test_replay_vs_construction;
    "monotone and idempotent", `Quick, test_monotone_and_idempotent;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ?verbose:None ?long:None)
      [ prop_known_implies_derivable; prop_learning_is_monotone; prop_split_learning ]

let suite = "dolevyao", tests
