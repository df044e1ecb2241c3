open Kernel

type join_status =
  | Syntactic
  | Semantic
  | Undecided
  | Unjoinable of Term.t * Term.t

(* A join certificate: how each side of the divergence was reduced, and how
   the two reducts were reconciled — syntactic identity, boolean-ring
   identity, or a Shannon split on an [if] condition with a certificate per
   branch.  Replayed by the engine-independent [Certify] checker. *)
type jtail = Tsyn | Tring | Tsplit of Term.t * jcert * jcert
and jcert = { jc_left : Rewrite.deriv; jc_right : Rewrite.deriv; jc_tail : jtail }

type pair_report = {
  overlap : Completion.overlap;
  status : join_status;
  cert : jcert option;
}

type result = {
  certified : bool;
  total : int;
  syntactic : int;
  semantic : int;
  reports : pair_report list;
  certs : (Completion.overlap * jcert) list;
  diagnostics : Diagnostic.t list;
}

let norm sys t =
  try Some (Rewrite.normalize sys t) with Rewrite.Limit_exceeded _ -> None

let norm_traced sys t =
  try Some (Rewrite.normalize_traced sys t)
  with Rewrite.Limit_exceeded _ -> None

let bool_equal l r =
  Sort.equal (Term.sort l) Sort.bool
  && Sort.equal (Term.sort r) Sort.bool
  && try Boolring.equal (Boolring.of_term l) (Boolring.of_term r)
    with Invalid_argument _ -> false

(* A boolean condition to case-split on: the condition of some [if]
   application.  Splitting it to [true]/[false] lets the if-simplification
   rules collapse the conditional — exactly what a proof passage does by
   hand.  A variable condition ranges over the free Bool constructors
   [true]/[false], so substituting both is a sound, complete case split;
   application conditions are preferred since collapsing them may also
   unblock recognizer rules. *)
let split_candidate t =
  let conds =
    List.filter_map
      (fun s ->
        match Term.view s with
        | Term.App (o, [ c; _; _ ]) when Signature.Builtin.is_if o -> Some c
        | _ -> None)
      (Term.subterms t)
  in
  match
    List.find_opt
      (fun c -> match Term.view c with Term.App _ -> true | Term.Var _ -> false)
      conds
  with
  | Some _ as c -> c
  | None -> ( match conds with c :: _ -> Some c | [] -> None)

(* Joinability of one divergence, innermost-first:
   1. both sides normalize to the same term — syntactically joinable;
   2. both sides are boolean and equal in the boolean ring (Hsiang):
      semantically joinable — [Boolring.of_term] interprets [if]/[and]/…,
      so e.g. nested conditionals in different orders are identified;
   3. otherwise case-split on an [if] condition (Shannon expansion) and
      require both branches to join, up to [fuel] splits. *)
let rec join sys fuel l r =
  match norm sys l, norm sys r with
  | None, _ | _, None -> Undecided
  | Some l', Some r' ->
    if Term.equal l' r' then Syntactic
    else if bool_equal l' r' then Semantic
    else if fuel <= 0 then Undecided
    else (
      match
        (match split_candidate l' with
        | Some _ as c -> c
        | None -> split_candidate r')
      with
      | None -> Unjoinable (l', r')
      | Some c ->
        let branch v =
          join sys (fuel - 1)
            (Term.replace ~old:c ~by:(Term.bool_ v) l')
            (Term.replace ~old:c ~by:(Term.bool_ v) r')
        in
        combine (branch true) (branch false))

and combine a b =
  match a, b with
  | Unjoinable _, _ -> a
  | _, Unjoinable _ -> b
  | Undecided, _ | _, Undecided -> Undecided
  | (Syntactic | Semantic), (Syntactic | Semantic) -> Semantic

let join_terms = join

(* [join], but additionally building the replayable certificate.  Kept as a
   separate function so the common (untraced) linter path pays no
   derivation-recording cost. *)
let rec join_cert sys fuel l r =
  match norm_traced sys l, norm_traced sys r with
  | None, _ | _, None -> (Undecided, None)
  | Some (l', dl), Some (r', dr) ->
    let leaf tail = Some { jc_left = dl; jc_right = dr; jc_tail = tail } in
    if Term.equal l' r' then (Syntactic, leaf Tsyn)
    else if bool_equal l' r' then (Semantic, leaf Tring)
    else if fuel <= 0 then (Undecided, None)
    else (
      match
        (match split_candidate l' with
        | Some _ as c -> c
        | None -> split_candidate r')
      with
      | None -> (Unjoinable (l', r'), None)
      | Some c ->
        let branch v =
          join_cert sys (fuel - 1)
            (Term.replace ~old:c ~by:(Term.bool_ v) l')
            (Term.replace ~old:c ~by:(Term.bool_ v) r')
        in
        let st, ct = branch true in
        let sf, cf = branch false in
        let status = combine st sf in
        let cert =
          match ct, cf with
          | Some ct, Some cf -> leaf (Tsplit (c, ct, cf))
          | _ -> None
        in
        (status, cert))

let chunks size xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n >= size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

let check ?pool ?(budget = 20_000) ?(fuel = 8) ?(certify = false) spec =
  let name = Cafeobj.Spec.name spec in
  let rules = Cafeobj.Spec.all_rules spec in
  let overlaps = Completion.all_critical_pairs rules in
  let total = List.length overlaps in
  let base = Rewrite.make rules in
  let run_chunk os =
    (* Each chunk forks a private system: [Rewrite.system] carries a
       mutable memo table and step counter, so sharing one across pool
       workers would race.  The fork shares the base's compiled rules. *)
    let sys = Rewrite.fork base in
    Rewrite.set_step_limit sys budget;
    List.map
      (fun (o : Completion.overlap) ->
        let status, cert =
          if certify then join_cert sys fuel o.Completion.left o.Completion.right
          else
            (join sys fuel o.Completion.left o.Completion.right, None)
        in
        { overlap = o; status; cert })
      os
  in
  let chunked = chunks (max 8 (total / 64)) overlaps in
  let reports =
    List.concat
      (match pool with
      | Some pool when List.length chunked > 1 -> Sched.Pool.parallel_map pool run_chunk chunked
      | _ -> List.map run_chunk chunked)
  in
  let syntactic =
    List.length (List.filter (fun p -> p.status = Syntactic) reports)
  in
  let semantic = List.length (List.filter (fun p -> p.status = Semantic) reports) in
  let diag (p : pair_report) =
    let o = p.overlap in
    let labels =
      Printf.sprintf "%s/%s" o.Completion.outer.Rewrite.label
        o.Completion.inner.Rewrite.label
    in
    let pos =
      Cafeobj.Spec.pos_of spec ("eq:" ^ o.Completion.outer.Rewrite.label)
    in
    match p.status with
    | Syntactic | Semantic -> None
    | Undecided ->
      Some
        (Diagnostic.make ?pos ~severity:Diagnostic.Warning ~checker:"confluence"
           ~code:"undecided-join" ~spec:name
           (Format.asprintf
              "critical pair of rules %s undecided within budget (peak %a)" labels
              Term.pp o.Completion.peak))
    | Unjoinable (l, r) ->
      Some
        (Diagnostic.make ?pos ~severity:Diagnostic.Error ~checker:"confluence"
           ~code:"unjoinable-pair" ~spec:name
           (Format.asprintf
              "critical pair of rules %s is not joinable: %a reduces to both %a and %a"
              labels Term.pp o.Completion.peak Term.pp l Term.pp r))
  in
  let diagnostics = List.filter_map diag reports in
  let certs =
    List.filter_map
      (fun p -> Option.map (fun c -> (p.overlap, c)) p.cert)
      reports
  in
  let reports = List.filter (fun p -> p.status <> Syntactic) reports in
  {
    certified = syntactic + semantic = total;
    total;
    syntactic;
    semantic;
    reports;
    certs;
    diagnostics;
  }
