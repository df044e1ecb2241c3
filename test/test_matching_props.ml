(* Randomized laws for substitution, matching, unification and AC matching:
   the soundness core the whole proof machinery rides on. *)

open Kernel

let nat = Sort.visible "MpNat"
let sg = Signature.create ()
let zero = Signature.declare sg "mp0" [] nat ~attrs:[ Signature.Ctor ]
let succ = Signature.declare sg "mpS" [ nat ] nat ~attrs:[ Signature.Ctor ]
let plus = Signature.declare sg "mpP" [ nat; nat ] nat ~attrs:[]
let union = Signature.declare sg "mpU" [ nat; nat ] nat ~attrs:[ Signature.Ac ]
let vx = { Term.v_name = "X"; v_sort = nat }
let vy = { Term.v_name = "Y"; v_sort = nat }
let vz = { Term.v_name = "Z"; v_sort = nat }
let tvx = Term.var "X" nat
let tvy = Term.var "Y" nat
let tvz = Term.var "Z" nat

let rec ground n =
  if n <= 0 then Term.const zero else Term.app succ [ ground (n - 1) ]

(* Random patterns over {0, S, P, U} and the variables [vars]. *)
let pattern_over vars =
  QCheck.Gen.(
    fix (fun self n ->
        if n <= 0 then oneof (List.map return vars @ [ return (Term.const zero) ])
        else
          frequency
            [
              2, oneof (List.map return vars);
              1, return (Term.const zero);
              2, map (fun t -> Term.app succ [ t ]) (self (n / 2));
              2, map2 (fun a b -> Term.app plus [ a; b ]) (self (n / 2)) (self (n / 2));
              2, map2 (fun a b -> Term.app union [ a; b ]) (self (n / 2)) (self (n / 2));
            ]))

let gen_pattern = QCheck.Gen.sized (pattern_over [ tvx; tvy ])
let arb_pattern = QCheck.make ~print:Term.to_string gen_pattern

let arb_grounding =
  QCheck.make
    QCheck.Gen.(pair (int_bound 5) (int_bound 5))

let instantiate (nx, ny) pat =
  Subst.apply (Subst.of_list [ vx, ground nx; vy, ground ny ]) pat

let prop_match_own_instance =
  QCheck.Test.make ~name:"a pattern matches its own instances" ~count:300
    (QCheck.pair arb_pattern arb_grounding) (fun (pat, g) ->
      let subject = instantiate g pat in
      match Matching.match_ pat subject with
      | Some sub -> Term.equal (Subst.apply sub pat) subject
      | None -> false)

let prop_match_is_sound =
  QCheck.Test.make ~name:"every matcher reconstructs the subject" ~count:300
    (QCheck.pair arb_pattern arb_grounding) (fun (pat, g) ->
      let subject = instantiate g pat in
      match Matching.match_ pat subject with
      | None -> true
      | Some sub -> Term.equal (Subst.apply sub pat) subject)

let prop_unify_sound =
  QCheck.Test.make ~name:"unifiers unify" ~count:300
    (QCheck.pair arb_pattern arb_pattern) (fun (t1, t2) ->
      match Matching.unify t1 t2 with
      | None -> true
      | Some sub -> Term.equal (Subst.apply sub t1) (Subst.apply sub t2))

let prop_unify_reflexive =
  QCheck.Test.make ~name:"every term unifies with itself" ~count:300 arb_pattern
    (fun t -> Matching.unify t t <> None)

let prop_ac_matchers_sound =
  QCheck.Test.make ~name:"AC matchers reconstruct modulo AC" ~count:200
    (QCheck.pair arb_pattern arb_grounding) (fun (pat, g) ->
      let subject = instantiate g pat in
      List.for_all
        (fun sub -> Ac.ac_equal (Subst.apply sub pat) subject)
        (Ac.match_ pat subject))

let prop_ac_match_finds_instances =
  QCheck.Test.make ~name:"AC matching finds shuffled instances" ~count:200
    (QCheck.pair arb_pattern arb_grounding) (fun (pat, g) ->
      let subject = Ac.normalize (instantiate g pat) in
      Ac.match_ pat subject <> [])

(* ------------------------------------------------------------------ *)
(* Reference AC matcher                                                *)

(* AC matching by full enumeration: every placement of a rigid pattern,
   every sub-multiset for a variable, bound or not, and duplicates pruned
   only at the end.  [Ac.match_] skips repeated arguments and places bound
   variables directly, and must still return exactly this list, order
   included: the rewriter's [Ac.match_first] takes the head.  The search
   is exponential in the repeated arguments, so it runs on a budget of
   steps, and [match_] is [None] once the budget is spent. *)
module Ref_ac = struct
  exception Out_of_fuel

  let fuel = ref 0

  let spend n =
    fuel := !fuel - n;
    if !fuel < 0 then raise Out_of_fuel

  let select xs =
    let rec go before = function
      | [] -> []
      | x :: after -> (x, List.rev_append before after) :: go (x :: before) after
    in
    go [] xs

  let rec submultisets = function
    | [] -> [ [], [] ]
    | x :: xs ->
      List.concat_map
        (fun (inside, outside) -> [ x :: inside, outside; inside, x :: outside ])
        (submultisets xs)

  let nonempty_submultisets xs =
    spend (1 lsl min 30 (List.length xs));
    List.filter (fun (inside, _) -> inside <> []) (submultisets xs)

  let rec match_term sub pat subject k =
    spend 1;
    match Term.view pat, Term.view subject with
    | Term.Var v, _ -> (
      if not (Sort.equal v.Term.v_sort (Term.sort subject)) then []
      else
        match Subst.find sub v with
        | Some t -> if Ac.ac_equal t subject then k sub else []
        | None -> k (Subst.bind sub v subject))
    | Term.App (po, _), Term.App (so, _)
      when Signature.is_ac po && Signature.op_equal po so ->
      match_ac sub po (Ac.flatten po pat) (Ac.flatten so subject) k
    | Term.App (po, [ p1; p2 ]), Term.App (so, [ s1; s2 ])
      when Signature.is_comm po && Signature.op_equal po so ->
      match_list sub [ p1; p2 ] [ s1; s2 ] k @ match_list sub [ p1; p2 ] [ s2; s1 ] k
    | Term.App (po, pargs), Term.App (so, sargs)
      when Signature.op_equal po so && List.length pargs = List.length sargs ->
      match_list sub pargs sargs k
    | Term.App _, (Term.App _ | Term.Var _) -> []

  and match_list sub pats subjects k =
    match pats, subjects with
    | [], [] -> k sub
    | p :: ps, s :: ss -> match_term sub p s (fun sub' -> match_list sub' ps ss k)
    | _, _ -> []

  and match_ac sub op pats subjects k =
    let rigid, flex =
      List.partition
        (fun p -> match Term.view p with Term.Var _ -> false | Term.App _ -> true)
        pats
    in
    let rec place_rigid sub rigid remaining k =
      match rigid with
      | [] -> distribute sub flex remaining k
      | p :: ps ->
        List.concat_map
          (fun (s, rest) -> match_term sub p s (fun sub' -> place_rigid sub' ps rest k))
          (select remaining)
    and distribute sub flex remaining k =
      match flex with
      | [] -> if remaining = [] then k sub else []
      | [ v ] -> bind_var sub v remaining k
      | v :: vs ->
        List.concat_map
          (fun (inside, outside) ->
            bind_var sub v inside (fun sub' -> distribute sub' vs outside k))
          (nonempty_submultisets remaining)
    and bind_var sub v pieces k =
      match pieces with
      | [] -> []
      | _ -> match_term sub v (Ac.normalize (Ac.rebuild op pieces)) k
    in
    if List.length pats > List.length subjects then [] else place_rigid sub rigid subjects k

  let dedup subs =
    let key sub =
      List.map
        (fun ((v : Term.var), t) -> v.v_name, Term.id (Ac.normalize t))
        (Subst.bindings sub)
    in
    let seen = Hashtbl.create 8 in
    List.filter
      (fun sub ->
        let k = key sub in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      subs

  let match_ pat subject =
    fuel := 1_000_000;
    match match_term Subst.empty (Ac.normalize pat) (Ac.normalize subject) (fun s -> [ s ]) with
    | subs -> Some (dedup subs)
    | exception Out_of_fuel -> None
end

let same_matchers subs subs' =
  let same_binding ((v : Term.var), t) ((v' : Term.var), t') =
    String.equal v.v_name v'.v_name && Term.equal t t'
  in
  List.equal
    (fun s s' -> List.equal same_binding (Subst.bindings s) (Subst.bindings s'))
    subs subs'

(* Small patterns: the reference enumerates every duplicate placement, so
   larger ones can run away in it.  A third variable matters: a bound
   variable's split decides the order in which a later unbound one is
   offered the rest, and with two variables no unbound one is left. *)
let prop_ac_match_matches_reference =
  QCheck.Test.make ~name:"AC matchers equal the reference enumeration's" ~count:2000
    (QCheck.pair
       (QCheck.make ~print:Term.to_string
          QCheck.Gen.(sized_size (int_bound 26) (pattern_over [ tvx; tvy; tvz ])))
       (QCheck.make QCheck.Gen.(triple (int_bound 3) (int_bound 3) (int_bound 3))))
    (fun (pat, (nx, ny, nz)) ->
      let subject =
        Subst.apply (Subst.of_list [ vx, ground nx; vy, ground ny; vz, ground nz ]) pat
      in
      let subs = Ac.match_ pat subject in
      match Ref_ac.match_ pat subject with
      | Some subs' -> same_matchers subs subs'
      | None ->
        (* too big for the reference: the matchers must still be sound *)
        subs <> []
        && List.for_all (fun sub -> Ac.ac_equal (Subst.apply sub pat) subject) subs)

(* The case that ran away (QCHECK_SEED=61211645, "AC matchers reconstruct
   modulo AC", case 100): 239 nodes, 57 of them nested [mpU], grounded at
   (0, 0), so the subject repeats [mp0] and its successors across many AC
   arguments.  Written in prefix with one letter per operator: U = mpU,
   P = mpP, S = mpS, 0 = mp0, and the variables X and Y. *)
let runaway_pattern =
  "UYUPUPUSSP0UPUSSXSP00SXPSSPYXUSPYY0SPXPUUPP0UXYSUYYSUSYYUPYUSXPX00U0SUSPYYUYUXYUU\
   P0UXSYSPUUUYSU0XSSPX0UYY0SPUPX0UPSUXP0YYP0XPSPPSSXYX0SUUYUP0PPSUUXXXPUUY0SXSPXXSP\
   PXX0UUXYUU0U0UUXX0SXUU0UUY0XS0PS0U0UPUYPUPPSP0XUP0XU0Y0USUXPXYSSXYS0SUUY0XSSY"

let parse_prefix code =
  let pos = ref 0 in
  let rec term () =
    let c = code.[!pos] in
    incr pos;
    match c with
    | 'U' -> let a = term () in let b = term () in Term.app union [ a; b ]
    | 'P' -> let a = term () in let b = term () in Term.app plus [ a; b ]
    | 'S' -> Term.app succ [ term () ]
    | '0' -> Term.const zero
    | 'X' -> tvx
    | 'Y' -> tvy
    | c -> invalid_arg (Printf.sprintf "parse_prefix: %c" c)
  in
  let t = term () in
  if !pos <> String.length code then invalid_arg "parse_prefix: trailing input";
  t

let test_ac_runaway_case () =
  let pat = parse_prefix runaway_pattern in
  let rec count p t =
    (if p t then 1 else 0)
    +
    match Term.view t with
    | Term.App (_, args) -> List.fold_left (fun n a -> n + count p a) 0 args
    | Term.Var _ -> 0
  in
  Alcotest.(check int) "pattern nodes" 239 (count (fun _ -> true) pat);
  Alcotest.(check int) "AC nodes" 57
    (count
       (fun t ->
         match Term.view t with
         | Term.App (o, _) -> Signature.op_equal o union
         | Term.Var _ -> false)
       pat);
  let subject = instantiate (0, 0) pat in
  let subs = Ac.match_ pat subject in
  Alcotest.(check bool) "some matcher" true (subs <> []);
  List.iter
    (fun sub ->
      Alcotest.(check bool) "reconstructs modulo AC" true
        (Ac.ac_equal (Subst.apply sub pat) subject))
    subs

let prop_subst_apply_ground_fixpoint =
  QCheck.Test.make ~name:"substitution fixes ground terms" ~count:200
    arb_grounding (fun (nx, ny) ->
      let t = Term.app plus [ ground nx; ground ny ] in
      Term.equal (Subst.apply (Subst.of_list [ vx, ground 1 ]) t) t)

let tests =
  List.map
    (QCheck_alcotest.to_alcotest ?verbose:None ?long:None)
    [
      prop_match_own_instance;
      prop_match_is_sound;
      prop_unify_sound;
      prop_unify_reflexive;
      prop_ac_matchers_sound;
      prop_ac_match_finds_instances;
      prop_subst_apply_ground_fixpoint;
      prop_ac_match_matches_reference;
    ]
  @ [ "AC runaway case (seed 61211645)", `Quick, test_ac_runaway_case ]

let suite = "matching-properties", tests
