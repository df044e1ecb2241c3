(* Differential suite for the boolean ring: [Kernel.Boolring] against a
   reference ring kept only here — the fold-based product (each monomial
   product xor-merged into an accumulator) and the [map_atoms]-based
   [assign] it replaced.  The algebraic normal form is unique, so both must
   produce the same polynomial for every input, compared under
   [Boolring.equal] and through [Boolring.to_term].  Random formulas range
   over seven atoms — four boolean constants and three equality atoms, each
   written in both orientations, plus a reflexive equality — and every
   builtin connective, including [iff] and a [Bool]-sorted [if_then_else].
   [assign] and [of_term] are also checked against truth tables.
   [Ref.of_term] expands every [if] as [c·(a⊕b) ⊕ b] over its expanded
   branches, while the kernel expands each branch of an atom-conditioned
   [if] with the atom fixed; hypothesis towers shaped like the
   independence analyzer's exercise that difference. *)

open Kernel
module B = Signature.Builtin

let dsort = Sort.visible "BrD"
let sg = Signature.create ()
let bconst name = Term.const (Signature.declare sg name [] Sort.bool ~attrs:[])
let dconst name = Term.const (Signature.declare sg name [] dsort ~attrs:[ Signature.Ctor ])
let da = dconst "brA"
let db = dconst "brB"
let dc = dconst "brC"

(* Leaves: both orientations of every equality atom, and [a = a], which
   collapses to true. *)
let leaves =
  [ bconst "brP"; bconst "brQ"; bconst "brR"; bconst "brS" ]
  @ List.concat_map (fun (x, y) -> [ Term.eq x y; Term.eq y x ]) [ da, db; db, dc; da, dc ]
  @ [ Term.eq da da ]

(* ------------------------------------------------------------------ *)
(* The reference ring *)

module Ref = struct
  type monomial = Term.t list
  type t = monomial list

  let tru : t = [ [] ]
  let fls : t = []
  let mono_compare = List.compare Term.ac_compare

  let canonical_atom t =
    match Term.view t with
    | Term.App (o, [ a; b ]) when B.is_eq o ->
      let c = Term.ac_compare a b in
      if c = 0 then None else if c < 0 then Some t else Some (Term.app_unchecked o [ b; a ])
    | Term.App _ | Term.Var _ -> Some t

  let atom t = match canonical_atom t with None -> tru | Some a -> [ [ a ] ]

  let rec xor_ (p : t) (q : t) : t =
    match p, q with
    | [], q -> q
    | p, [] -> p
    | m :: p', n :: q' ->
      let c = mono_compare m n in
      if c = 0 then xor_ p' q' else if c < 0 then m :: xor_ p' q else n :: xor_ p q'

  let mono_mul (m : monomial) (n : monomial) : monomial =
    let rec merge m n =
      match m, n with
      | [], n -> n
      | m, [] -> m
      | a :: m', b :: n' ->
        let c = Term.ac_compare a b in
        if c = 0 then a :: merge m' n'
        else if c < 0 then a :: merge m' n
        else b :: merge m n'
    in
    merge m n

  let and_ (p : t) (q : t) : t =
    List.fold_left
      (fun acc m -> List.fold_left (fun acc n -> xor_ acc [ mono_mul m n ]) acc q)
      fls p

  let not_ p = xor_ tru p
  let or_ p q = xor_ (xor_ p q) (and_ p q)
  let implies_ p q = not_ (xor_ (and_ p q) p)
  let iff_ p q = not_ (xor_ p q)

  let rec of_term t =
    match Term.view t with
    | Term.App (o, []) when Signature.op_equal o B.tt -> tru
    | Term.App (o, []) when Signature.op_equal o B.ff -> fls
    | Term.App (o, [ a ]) when Signature.op_equal o B.not_ -> not_ (of_term a)
    | Term.App (o, [ a; b ]) when Signature.op_equal o B.and_ -> and_ (of_term a) (of_term b)
    | Term.App (o, [ a; b ]) when Signature.op_equal o B.or_ -> or_ (of_term a) (of_term b)
    | Term.App (o, [ a; b ]) when Signature.op_equal o B.xor -> xor_ (of_term a) (of_term b)
    | Term.App (o, [ a; b ]) when Signature.op_equal o B.implies ->
      implies_ (of_term a) (of_term b)
    | Term.App (o, [ a; b ]) when Signature.op_equal o B.iff -> iff_ (of_term a) (of_term b)
    | Term.App (o, [ c; a; b ]) when B.is_if o && Sort.equal (Term.sort t) Sort.bool ->
      let c = of_term c and a = of_term a and b = of_term b in
      xor_ (xor_ (and_ c a) (and_ c b)) b
    | Term.App _ | Term.Var _ -> atom t

  let mono_to_term = function
    | [] -> Term.tt
    | a :: rest -> List.fold_left Term.and_ a rest

  let to_term = function
    | [] -> Term.ff
    | m :: rest ->
      List.fold_left (fun acc n -> Term.xor acc (mono_to_term n)) (mono_to_term m) rest

  let map_atoms f (p : t) : t =
    List.fold_left
      (fun acc m -> xor_ acc (List.fold_left (fun q a -> and_ q (f a)) tru m))
      fls p

  let assign p at value =
    let at = match canonical_atom at with None -> at | Some a -> a in
    map_atoms (fun a -> if Term.equal a at then if value then tru else fls else [ [ a ] ]) p
end

(* ------------------------------------------------------------------ *)
(* Truth tables *)

(* The seven canonical atoms; a valuation is a bit mask over them. *)
let canon_atoms =
  List.sort_uniq Term.ac_compare (List.filter_map Ref.canonical_atom leaves)

let atom_bit a =
  let rec go i = function
    | [] -> Alcotest.failf "not a fixture atom: %s" (Term.to_string a)
    | b :: rest -> if Term.equal a b then i else go (i + 1) rest
  in
  go 0 canon_atoms

let rec eval mask t =
  let bin o = Signature.op_equal o in
  match Term.view t with
  | Term.App (o, []) when bin o B.tt -> true
  | Term.App (o, []) when bin o B.ff -> false
  | Term.App (o, [ a ]) when bin o B.not_ -> not (eval mask a)
  | Term.App (o, [ a; b ]) when bin o B.and_ -> eval mask a && eval mask b
  | Term.App (o, [ a; b ]) when bin o B.or_ -> eval mask a || eval mask b
  | Term.App (o, [ a; b ]) when bin o B.xor -> eval mask a <> eval mask b
  | Term.App (o, [ a; b ]) when bin o B.implies -> (not (eval mask a)) || eval mask b
  | Term.App (o, [ a; b ]) when bin o B.iff -> eval mask a = eval mask b
  | Term.App (o, [ c; a; b ]) when B.is_if o ->
    if eval mask c then eval mask a else eval mask b
  | Term.App _ | Term.Var _ -> (
    match Ref.canonical_atom t with
    | None -> true
    | Some a -> mask land (1 lsl atom_bit a) <> 0)

let valuations = List.init (1 lsl List.length canon_atoms) Fun.id

(* [mask] with the atom [at] (any orientation) forced to [value]. *)
let force mask at value =
  match Ref.canonical_atom at with
  | None -> mask
  | Some a ->
    let bit = 1 lsl atom_bit a in
    if value then mask lor bit else mask land lnot bit

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_leaf = QCheck.Gen.(oneofl ((Term.tt :: Term.ff :: leaves) @ leaves))
let gen_atom = QCheck.Gen.oneofl leaves

let gen_formula =
  QCheck.Gen.(
    sized_size (int_bound 24)
    @@ fix (fun self n ->
           if n <= 0 then gen_leaf
           else
             let sub = self (n / 2) in
             frequency
               [
                 1, gen_leaf;
                 1, map Term.not_ (self (n - 1));
                 2, map2 Term.and_ sub sub;
                 2, map2 Term.or_ sub sub;
                 1, map2 Term.xor sub sub;
                 1, map2 Term.implies sub sub;
                 1, map2 Term.iff sub sub;
                 2, map3 Term.ite (self (n / 3)) (self (n / 3)) (self (n / 3));
               ]))

let arb_formula = QCheck.make ~print:Term.to_string gen_formula
let arb_pair = QCheck.pair arb_formula arb_formula

let arb_assign =
  QCheck.make
    ~print:(fun (f, at, v) ->
      Printf.sprintf "%s  [%s := %b]" (Term.to_string f) (Term.to_string at) v)
    QCheck.Gen.(triple gen_formula gen_atom bool)

(* Hypothesis towers as [Indep.join_under] builds them:
   [if h_n then … (if h_1 then core else x) … else x] over one shared else
   variable.  Conditions are atoms (equality atoms in both orientations and
   the reflexive one among them), negated atoms and compound formulas; the
   core is a formula over the same leaves, so it reuses the tower's
   atoms. *)
let tower_else = Term.var "br!else" Sort.bool

let gen_condition =
  QCheck.Gen.(
    frequency
      [
        4, gen_atom;
        2, map Term.not_ gen_atom;
        1, map2 Term.and_ gen_atom gen_atom;
        1, map2 Term.or_ gen_atom (map Term.not_ gen_atom);
        1, map2 Term.xor gen_atom gen_atom;
      ])

let tower hyps core = List.fold_left (fun acc h -> Term.ite h acc tower_else) core hyps

let gen_tower =
  QCheck.Gen.(map2 tower (list_size (int_bound 10) gen_condition) gen_formula)

let arb_tower = QCheck.make ~print:Term.to_string gen_tower

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Identical under [equal] and under [to_term]. *)
let agrees (p : Boolring.t) (r : Ref.t) =
  let rt = Ref.to_term r in
  Term.equal (Boolring.to_term p) rt && Boolring.equal p (Boolring.of_term rt)

let prop_of_term =
  QCheck.Test.make ~name:"of_term matches the reference" ~count:400 arb_formula (fun f ->
      agrees (Boolring.of_term f) (Ref.of_term f))

let prop_binary name op ref_op =
  QCheck.Test.make ~name:(name ^ " matches the reference") ~count:300 arb_pair (fun (f, g) ->
      agrees
        (op (Boolring.of_term f) (Boolring.of_term g))
        (ref_op (Ref.of_term f) (Ref.of_term g)))

let prop_assign =
  QCheck.Test.make ~name:"assign matches the reference" ~count:400 arb_assign
    (fun (f, at, v) ->
      agrees (Boolring.assign (Boolring.of_term f) at v) (Ref.assign (Ref.of_term f) at v))

let prop_of_term_truth =
  QCheck.Test.make ~name:"of_term agrees with truth tables" ~count:200 arb_formula (fun f ->
      let p = Boolring.to_term (Boolring.of_term f) in
      List.for_all (fun mask -> eval mask p = eval mask f) valuations)

let prop_assign_truth =
  QCheck.Test.make ~name:"assign agrees with truth tables" ~count:300 arb_assign
    (fun (f, at, v) ->
      let p = Boolring.to_term (Boolring.assign (Boolring.of_term f) at v) in
      List.for_all (fun mask -> eval mask p = eval (force mask at v) f) valuations)

let prop_of_term_tower =
  QCheck.Test.make ~name:"of_term matches the reference on hypothesis towers" ~count:300
    arb_tower (fun t -> agrees (Boolring.of_term t) (Ref.of_term t))

(* A non-Bool atom is refused wherever it sits — also in a branch whose
   condition an enclosing [if] has already fixed, which the expansion
   never uses but must still convert. *)
let test_non_bool_atom () =
  let p = List.hd leaves and q = List.nth leaves 1 in
  let hidden = Term.app_unchecked B.and_ [ q; da ] in
  let dead_branch = Term.ite p (Term.ite p q hidden) tower_else in
  List.iter
    (fun (what, t) ->
      match Boolring.of_term t with
      | _ -> Alcotest.failf "%s: no Invalid_argument" what
      | exception Invalid_argument _ -> ())
    [ "bare", da; "under a connective", hidden; "in a dead branch", dead_branch ]

let test_fixture_atoms () =
  Alcotest.(check int) "seven distinct atoms" 7 (List.length canon_atoms);
  let ab = Term.eq da db and ba = Term.eq db da in
  Alcotest.(check bool) "both orientations, one atom" true
    (Boolring.equal (Boolring.of_term ab) (Boolring.of_term ba));
  Alcotest.(check bool) "reflexive equality is true" true
    (Boolring.is_true (Boolring.of_term (Term.eq da da)))

let suite =
  ( "boolring",
    [
      "fixture atoms", `Quick, test_fixture_atoms;
      "non-Bool atom raises", `Quick, test_non_bool_atom;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [
          prop_of_term;
          prop_of_term_tower;
          prop_binary "and_" Boolring.and_ Ref.and_;
          prop_binary "or_" Boolring.or_ Ref.or_;
          prop_binary "implies_" Boolring.implies_ Ref.implies_;
          prop_binary "iff_" Boolring.iff_ Ref.iff_;
          prop_assign;
          prop_of_term_truth;
          prop_assign_truth;
        ] )
