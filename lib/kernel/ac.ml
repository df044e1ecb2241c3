(* Backtracking effort of the AC matcher: one bump per candidate placement
   of a rigid pattern and per sub-multiset assignment to a variable
   pattern.  A hot counter here is how the hotspot report shows when AC
   search (not plain rewriting) dominates a red. *)
let c_backtracks = Telemetry.Probe.counter "kernel.ac.backtracks"

let rec flatten op t =
  match Term.view t with
  | Term.App (o, [ l; r ]) when Signature.op_equal o op ->
    flatten op l @ flatten op r
  | Term.App _ | Term.Var _ -> [ t ]

let rebuild op args =
  match List.rev args with
  | [] -> invalid_arg "Ac.rebuild: empty argument list"
  | last :: rest ->
    List.fold_left (fun acc t -> Term.app_unchecked op [ t; acc ]) last rest

let rec normalize t =
  (* Interned terms carry their canonicity: the common already-canonical
     case is a single flag read (the [canonical] field is computed at
     intern time to agree with this function). *)
  if Term.ac_canonical t then t
  else
    match Term.view t with
    | Term.Var _ -> t
    | Term.App (o, [ _; _ ]) when Signature.is_ac o ->
      let args = flatten o t |> List.map normalize |> List.sort Term.ac_compare in
      rebuild o args
    | Term.App (o, [ a; b ]) when Signature.is_comm o ->
      let a = normalize a and b = normalize b in
      if Term.ac_compare a b <= 0 then Term.app_unchecked o [ a; b ]
      else Term.app_unchecked o [ b; a ]
    | Term.App (o, args) -> Term.app_unchecked o (List.map normalize args)

let ac_equal t1 t2 = Term.equal (normalize t1) (normalize t2)

(* AC matching by backtracking over multiset assignments.

   [select xs] enumerates ways to pick one element out of [xs], returning the
   element and the remainder.  An element physically equal to one picked
   before is passed over: its remainder is the same multiset, so every
   matcher down that branch repeats one found earlier, and [dedup] would
   drop it. *)
let select xs =
  let rec go before = function
    | [] -> []
    | x :: after ->
      if List.memq x before then go (x :: before) after
      else (x, List.rev_append before after) :: go (x :: before) after
  in
  go [] xs

(* [remove_each xs from] takes, for each element of [xs] in turn, the last
   element of [from] physically equal to it out of [from]; [None] when one
   is missing. *)
let remove_each xs from =
  let rec remove_last x = function
    | [] -> None
    | y :: ys -> (
      match remove_last x ys with
      | Some ys' -> Some (y :: ys')
      | None -> if y == x then Some ys else None)
  in
  List.fold_left (fun acc x -> Option.bind acc (remove_last x)) (Some from) xs

(* Enumerate the non-empty sub-multisets of [xs] as (subset, rest). *)
let rec submultisets = function
  | [] -> [ [], [] ]
  | x :: xs ->
    List.concat_map
      (fun (inside, outside) -> [ x :: inside, outside; inside, x :: outside ])
      (submultisets xs)

let nonempty_submultisets xs =
  List.filter (fun (inside, _) -> inside <> []) (submultisets xs)

let rec match_term sub pat subject k =
  match Term.view pat, Term.view subject with
  | Term.Var v, _ -> (
    if not (Sort.equal v.Term.v_sort (Term.sort subject)) then []
    else
      match Subst.find sub v with
      | Some t -> if ac_equal t subject then k sub else []
      | None -> k (Subst.bind sub v subject))
  | Term.App (po, _), Term.App (so, _)
    when Signature.is_ac po && Signature.op_equal po so ->
    match_ac sub po (flatten po pat) (flatten so subject) k
  | Term.App (po, [ p1; p2 ]), Term.App (so, [ s1; s2 ])
    when Signature.is_comm po && Signature.op_equal po so ->
    match_list sub [ p1; p2 ] [ s1; s2 ] k
    @ match_list sub [ p1; p2 ] [ s2; s1 ] k
  | Term.App (po, pargs), Term.App (so, sargs)
    when Signature.op_equal po so && List.length pargs = List.length sargs ->
    match_list sub pargs sargs k
  | Term.App _, (Term.App _ | Term.Var _) -> []

and match_list sub pats subjects k =
  match pats, subjects with
  | [], [] -> k sub
  | p :: ps, s :: ss ->
    match_term sub p s (fun sub' -> match_list sub' ps ss k)
  | _, _ -> []

and match_ac sub op pats subjects k =
  (* Match rigid (non-variable) patterns first, then distribute the leftover
     subject arguments among the variable patterns. *)
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
        (fun (s, rest) ->
          Telemetry.Probe.incr c_backtracks;
          match_term sub p s (fun sub' -> place_rigid sub' ps rest k))
        (select remaining)
  and distribute sub flex remaining k =
    match flex with
    | [] -> if remaining = [] then k sub else []
    | [ v ] -> bind_var sub v remaining k
    | v :: vs -> (
      match Term.view v with
      | Term.Var x when Option.is_some (Subst.find sub x) -> (
        (* A bound variable takes exactly its value's arguments.  Of the
           sub-multisets that hold them, the enumeration below reaches
           first the one taking the last occurrence of each, and the later
           ones only repeat its matchers: go there directly. *)
        Telemetry.Probe.incr c_backtracks;
        match remove_each (flatten op (normalize (Subst.apply sub v))) remaining with
        | Some outside -> distribute sub vs outside k
        | None -> [])
      | Term.Var _ | Term.App _ ->
        List.concat_map
          (fun (inside, outside) ->
            Telemetry.Probe.incr c_backtracks;
            bind_var sub v inside (fun sub' -> distribute sub' vs outside k))
          (nonempty_submultisets remaining))
  and bind_var sub v pieces k =
    match pieces with
    | [] -> []
    | _ ->
      let value = normalize (rebuild op pieces) in
      match_term sub v value k
  in
  if List.length pats > List.length subjects then []
  else place_rigid sub rigid subjects k

let dedup subs =
  let key sub =
    List.map
      (fun ((v : Term.var), t) -> v.v_name, Term.id (normalize t))
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
  dedup (match_term Subst.empty (normalize pat) (normalize subject) (fun s -> [ s ]))

let match_first pat subject =
  match match_ pat subject with [] -> None | s :: _ -> Some s
