module B = Signature.Builtin

(* A polynomial is an xor-sum of monomials; a monomial is a product (set) of
   atoms.  Both levels are kept sorted and duplicate-free, so polynomials are
   canonical: [] is false, [[]] (the empty product) is true. *)
type monomial = Term.t list

type t = monomial list

let tru : t = [ [] ]
let fls : t = []

(* Atom and monomial order: [Term.ac_compare] (hash-major), not the raw id
   order — polynomial layout leaks into rebuilt terms ([to_term]), and with
   a weak intern table ids are not stable over time, so an id-based order
   would make boolean normal forms depend on allocation history. *)
let mono_compare = List.compare Term.ac_compare

(* Canonical atom: orient equality atoms by term order; reflexive equalities
   collapse to true. *)
let canonical_atom t =
  match Term.view t with
  | Term.App (o, [ a; b ]) when B.is_eq o ->
    let c = Term.ac_compare a b in
    if c = 0 then None
    else if c < 0 then Some t
    else Some (Term.app_unchecked o [ b; a ])
  | Term.App _ | Term.Var _ -> Some t

let atom t =
  if not (Sort.equal (Term.sort t) Sort.bool) then
    invalid_arg "Boolring.atom: non-boolean term";
  match canonical_atom t with None -> tru | Some a -> [ [ a ] ]

(* xor = symmetric difference of sorted monomial lists (mod-2 sum). *)
let rec xor_ (p : t) (q : t) : t =
  match p, q with
  | [], q -> q
  | p, [] -> p
  | m :: p', n :: q' ->
    let c = mono_compare m n in
    if c = 0 then xor_ p' q'
    else if c < 0 then m :: xor_ p' q
    else n :: xor_ p q'

(* Product of two monomials: union of atom sets. *)
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

(* Mod-2 sum of a multiset of monomials: sort, then cancel equal pairs
   ([x xor x = false]).  The sort is the only super-linear step. *)
let sum (ms : monomial list) : t =
  let rec cancel acc = function
    | m :: (n :: rest' as rest) ->
      if mono_compare m n = 0 then cancel acc rest' else cancel (m :: acc) rest
    | [ m ] -> List.rev (m :: acc)
    | [] -> List.rev acc
  in
  cancel [] (List.sort mono_compare ms)

let and_ (p : t) (q : t) : t =
  match p, q with
  | [], _ | _, [] -> fls
  | [ [] ], r | r, [ [] ] -> r
  | _ -> sum (List.concat_map (fun m -> List.map (mono_mul m) q) p)

let not_ p = xor_ tru p
let or_ p q = xor_ (xor_ p q) (and_ p q)
let implies_ p q = not_ (xor_ (and_ p q) p)
let iff_ p q = not_ (xor_ p q)
let is_true p = p = tru
let is_false p = p = fls
let equal (p : t) (q : t) = List.compare mono_compare p q = 0

(* [of_term] carries [env], the atoms fixed by the enclosing [if]s, and
   returns the polynomial of [t] with those atoms substituted.  An [if]
   whose condition is one atom [x] (or its negation) is expanded as
   [x·(a|x:=1) ⊕ (1⊕x)·(b|x:=0)]: each branch is converted with [x] fixed,
   so a tower of such [if]s never multiplies out a branch the tower's own
   atoms would collapse.  Any other condition [c] gives [c·(a⊕b) ⊕ b]. *)
let of_term t =
  let rec go env t =
    match Term.view t with
    | Term.App (o, []) when Signature.op_equal o B.tt -> tru
    | Term.App (o, []) when Signature.op_equal o B.ff -> fls
    | Term.App (o, [ a ]) when Signature.op_equal o B.not_ -> not_ (go env a)
    | Term.App (o, [ a; b ]) when Signature.op_equal o B.and_ ->
      and_ (go env a) (go env b)
    | Term.App (o, [ a; b ]) when Signature.op_equal o B.or_ ->
      or_ (go env a) (go env b)
    | Term.App (o, [ a; b ]) when Signature.op_equal o B.xor ->
      xor_ (go env a) (go env b)
    | Term.App (o, [ a; b ]) when Signature.op_equal o B.implies ->
      implies_ (go env a) (go env b)
    | Term.App (o, [ a; b ]) when Signature.op_equal o B.iff ->
      iff_ (go env a) (go env b)
    | Term.App (o, [ c; a; b ]) when B.is_if o && Sort.equal (Term.sort t) Sort.bool -> (
      let split x on_true on_false =
        let p1 = go ((x, true) :: env) on_true
        and p0 = go ((x, false) :: env) on_false in
        xor_ (and_ [ [ x ] ] (xor_ p1 p0)) p0
      in
      match go env c with
      | [ [ x ] ] -> split x a b
      | [ []; [ x ] ] -> split x b a
      | c ->
        let a = go env a and b = go env b in
        xor_ (and_ c (xor_ a b)) b)
    | Term.App _ | Term.Var _ -> (
      match atom t with
      | [ [ x ] ] as p -> (
        match List.assq_opt x env with Some v -> if v then tru else fls | None -> p)
      | p -> p)
  in
  go [] t

let mono_to_term = function
  | [] -> Term.tt
  | a :: rest -> List.fold_left Term.and_ a rest

let to_term = function
  | [] -> Term.ff
  | m :: rest -> List.fold_left (fun acc n -> Term.xor acc (mono_to_term n)) (mono_to_term m) rest

let atoms_of (p : t) =
  let set = List.fold_left (fun s m -> List.fold_left (fun s a -> Term.Set.add a s) s m) Term.Set.empty p in
  Term.Set.elements set

let atoms t = atoms_of (of_term t)

(* [at := false] drops the monomials containing [at], which leaves the list
   canonical; [at := true] strips [at] from them, which can reorder and
   duplicate monomials, so the result is re-summed. *)
let assign p at value =
  let at = match canonical_atom at with None -> at | Some a -> a in
  if value then sum (List.map (List.filter (fun a -> not (Term.equal a at))) p)
  else List.filter (fun m -> not (List.exists (Term.equal at) m)) p

let tautology t = is_true (of_term t)
let count_monomials (p : t) = List.length p

let pp ppf p = Term.pp ppf (to_term p)

(* Constant folding only: terminating, linear, and safe to mix with large
   data-level rule sets (no distribution, so no term-size explosion).  The
   prover handles the full propositional reasoning on polynomials. *)
let const_rules () =
  let b = Sort.bool in
  let x = Term.var "X" b in
  let r label lhs rhs = Rewrite.rule ~label lhs rhs in
  let open Term in
  [
    r "not-true" (not_ tt) ff;
    r "not-false" (not_ ff) tt;
    r "not-not" (not_ (not_ x)) x;
    r "and-unit" (and_ tt x) x;
    r "and-zero" (and_ ff x) ff;
    r "or-unit" (or_ ff x) x;
    r "or-zero" (or_ tt x) tt;
    r "xor-unit" (xor ff x) x;
    r "xor-one" (xor tt x) (not_ x);
    r "implies-true-left" (implies tt x) x;
    r "implies-false-left" (implies ff x) tt;
    r "implies-true-right" (implies x tt) tt;
    r "iff-true" (iff tt x) x;
    r "iff-false" (iff ff x) (not_ x);
  ]

let rewrite_rules () =
  let b = Sort.bool in
  let x = Term.var "X" b and y = Term.var "Y" b and z = Term.var "Z" b in
  let r label lhs rhs = Rewrite.rule ~label lhs rhs in
  let open Term in
  [
    r "not-def" (not_ x) (xor x tt);
    r "or-def" (or_ x y) (xor (xor (and_ x y) x) y);
    r "implies-def" (implies x y) (xor (xor (and_ x y) x) tt);
    r "iff-def" (iff x y) (xor (xor x y) tt);
    r "if-bool" (ite x y z) (xor (xor (and_ x y) (and_ x z)) z);
    r "xor-false" (xor x ff) x;
    r "xor-nil" (xor x x) ff;
    r "xor-nil-ext" (xor x (xor x z)) z;
    r "and-true" (and_ x tt) x;
    r "and-true-ext" (and_ x (and_ tt z)) (and_ x z);
    r "and-false" (and_ x ff) ff;
    r "and-false-ext" (and_ x (and_ ff z)) ff;
    r "and-idem" (and_ x x) x;
    r "and-idem-ext" (and_ x (and_ x z)) (and_ x z);
    r "distrib" (and_ x (xor y z)) (xor (and_ x y) (and_ x z));
  ]
