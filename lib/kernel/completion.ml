module StringSet = Set.Make (String)

type failure = {
  reason : string;
  unorientable : (Term.t * Term.t) option;
}

type result =
  | Completed of Rewrite.rule list
  | Failed of failure

(* All subterm occurrences of [t] with their one-hole rebuild functions,
   pre-order (root first). *)
let rec contexts t =
  let here = t, fun x -> x in
  match Term.view t with
  | Term.Var _ -> [ here ]
  | Term.App (o, args) ->
    let sub =
      List.concat
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
    in
    here :: sub

(* One process-wide tag counter: pool domains rename concurrently (the
   independence analysis calls [overlaps] from every worker), so each call
   draws its tag with one atomic fetch-and-add. *)
let tag_counter = Atomic.make 0
let draw_tag () = Atomic.fetch_and_add tag_counter 1 + 1

let rename_apart (r : Rewrite.rule) =
  let tag = Printf.sprintf "%%kb%d-" (draw_tag ()) in
  let sub =
    Subst.of_list
      (List.map
         (fun (v : Term.var) -> v, Term.var (tag ^ v.v_name) v.v_sort)
         (Term.vars r.Rewrite.lhs))
  in
  Rewrite.rule ~label:r.Rewrite.label
    (Subst.apply sub r.Rewrite.lhs)
    (Subst.apply sub r.Rewrite.rhs)

type overlap = {
  outer : Rewrite.rule;  (** the rule whose left-hand side hosts the overlap *)
  inner : Rewrite.rule;  (** the rule rewriting inside (possibly [outer] itself) *)
  peak : Term.t;  (** the instantiated overlap term both sides rewrite *)
  left : Term.t;  (** peak rewritten by [inner] at the overlap position *)
  right : Term.t;  (** peak rewritten by [outer] at the root *)
}

(* Overlaps of [r2]'s lhs (renamed apart) into non-variable positions of
   [r1]'s lhs.  The root overlap of a rule with (a copy of) itself is the
   trivial one and is skipped; every other self-overlap — e.g. the classic
   associativity overlap — is genuine and kept.

   [renamed2] lets a caller rename [r2] once and reuse the copy across many
   [r1] partners: under the hash-consed kernel each [rename_apart] interns a
   fresh copy of the rule's whole term DAG (the fresh tag makes every
   subterm containing a variable new), so renaming per pair floods the
   intern table.  A shared copy is sound because its tag came from the
   global counter, so it cannot collide with variables of any rule that
   existed before it was made.

   [Matching.unify] compares operators by name ([Signature.op_equal]) and
   arity, and only ever binds variables, so [r2]'s lhs can unify with a
   position of [r1]'s lhs only if their operator skeletons agree wherever
   both have an operator.  When no position passes that test the answer
   is [] and nothing is renamed — the usual case for a pair of observer
   equations [o(a(S,P),Q)], which differ in the observer or the action.
   The skip still draws the tag [rename_apart] would have drawn, so every
   later renaming gets the variable names it gets without the skip. *)
let rec compatible s t =
  match Term.view s, Term.view t with
  | Term.Var _, _ | _, Term.Var _ -> true
  | Term.App (o1, a1), Term.App (o2, a2) ->
    Signature.op_equal o1 o2 && compatible_args a1 a2

and compatible_args a1 a2 =
  match a1, a2 with
  | [], [] -> true
  | x :: a1, y :: a2 -> compatible x y && compatible_args a1 a2
  | _ :: _, [] | [], _ :: _ -> false

let rec some_position lhs2 t =
  match Term.view t with
  | Term.Var _ -> false
  | Term.App (_, args) -> compatible t lhs2 || List.exists (some_position lhs2) args

let overlaps ?renamed2 (r1 : Rewrite.rule) (r2 : Rewrite.rule) =
  if not (some_position r2.Rewrite.lhs r1.Rewrite.lhs) then begin
    if Option.is_none renamed2 then ignore (draw_tag ());
    []
  end
  else
    let same =
      Term.equal r1.Rewrite.lhs r2.Rewrite.lhs && Term.equal r1.Rewrite.rhs r2.Rewrite.rhs
    in
    let orig2 = r2 in
    let r2 = match renamed2 with Some r -> r | None -> rename_apart r2 in
    List.filter_map
      (fun (s, rebuild) ->
        match Term.view s with
        | Term.Var _ -> None
        | Term.App _ ->
          let at_root = Term.equal s r1.Rewrite.lhs in
          if same && at_root then None
          else
            Option.map
              (fun sub ->
                {
                  outer = r1;
                  inner = orig2;
                  peak = Subst.apply sub r1.Rewrite.lhs;
                  left = Subst.apply sub (rebuild r2.Rewrite.rhs);
                  right = Subst.apply sub r1.Rewrite.rhs;
                })
              (Matching.unify s r2.Rewrite.lhs))
      (contexts r1.Rewrite.lhs)

let critical_pairs r1 r2 =
  List.map (fun o -> o.left, o.right) (overlaps r1 r2)

(* All critical pairs of a rule set: every unordered rule pair in both
   orientations, plus each rule overlapped with (a renamed copy of) itself.
   Pairs are pre-filtered by head-operator occurrence — unifying two
   applications requires equal head operators, so a rule can only overlap
   into an lhs that mentions its head operator. *)
let all_critical_pairs (rules : Rewrite.rule list) =
  let arr = Array.of_list rules in
  let n = Array.length arr in
  let head (r : Rewrite.rule) =
    match Term.view r.Rewrite.lhs with
    | Term.App (o, _) -> o.Signature.name
    | Term.Var _ -> ""
  in
  let heads_in =
    Array.map
      (fun (r : Rewrite.rule) ->
        List.fold_left
          (fun set t ->
            match Term.view t with
            | Term.App (o, _) -> StringSet.add o.Signature.name set
            | Term.Var _ -> set)
          StringSet.empty
          (Term.subterms r.Rewrite.lhs))
      arr
  in
  let renamed = Array.map rename_apart arr in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i do
      let r1 = arr.(i) and r2 = arr.(j) in
      if j > i && StringSet.mem (head r1) heads_in.(j) then
        acc := overlaps ~renamed2:renamed.(i) r2 r1 @ !acc;
      if StringSet.mem (head r2) heads_in.(i) then
        acc := overlaps ~renamed2:renamed.(j) r1 r2 @ !acc
    done
  done;
  !acc

let joinable rules t1 t2 =
  let sys = Rewrite.make rules in
  Term.equal (Rewrite.normalize sys t1) (Rewrite.normalize sys t2)

let complete ?(max_rules = 64) ~prec equations =
  let counter = ref 0 in
  let mk_rule lhs rhs =
    incr counter;
    Rewrite.rule ~label:(Printf.sprintf "kb-%d" !counter) lhs rhs
  in
  (* [rules] is kept interreduced lazily: right-hand sides are normalized
     when the rule is created; stale rules still rewrite correctly, they
     are merely redundant. *)
  let rec go rules agenda =
    match agenda with
    | [] -> Completed rules
    | (t1, t2) :: agenda -> (
      let sys = Rewrite.make rules in
      let n1 = Rewrite.normalize sys t1 and n2 = Rewrite.normalize sys t2 in
      if Term.equal n1 n2 then go rules agenda
      else if List.length rules >= max_rules then
        Failed { reason = "rule limit exceeded"; unorientable = None }
      else
        match Order.orients ~prec (n1, n2) with
        | `No ->
          Failed { reason = "unorientable equation"; unorientable = Some (n1, n2) }
        | (`Lr | `Rl) as dir ->
          let lhs, rhs = match dir with `Lr -> n1, n2 | `Rl -> n2, n1 in
          let rule = mk_rule lhs rhs in
          (* Interreduce: any existing rule whose left-hand side the new
             rule rewrites is dropped and its equation requeued — it will
             come back simplified or join away. *)
          let newsys = Rewrite.make [ rule ] in
          let kept, requeued =
            List.partition
              (fun (r : Rewrite.rule) ->
                Term.equal (Rewrite.normalize newsys r.Rewrite.lhs) r.Rewrite.lhs)
              rules
          in
          let requeued =
            List.map (fun (r : Rewrite.rule) -> r.Rewrite.lhs, r.Rewrite.rhs) requeued
          in
          (* Self-overlaps of the new rule once, then both orientations
             against every kept rule (the old [rule :: kept] traversal
             computed the self-pairs twice). *)
          let fresh_pairs =
            critical_pairs rule rule
            @ List.concat_map
                (fun r -> critical_pairs rule r @ critical_pairs r rule)
                kept
          in
          go (kept @ [ rule ]) (agenda @ requeued @ fresh_pairs))
  in
  go [] equations
