open Kernel

type transition = {
  t_name : string;
  t_reads : string list;
  t_writes : string list;
  t_dead : bool;
}

type result = {
  transitions : transition list;
  edges : (string * string) list;
  diagnostics : Diagnostic.t list;
}

(* One observer equation [obs(action(S, xs), ys) = rhs]. *)
type obs_eq = {
  oe_rule : Rewrite.rule;
  oe_obs : Signature.op;
  oe_action : Signature.op;
  oe_state : Term.var;
  oe_params : Term.t list;  (** the observer's own parameters [ys] *)
}

let recognize_rule (r : Rewrite.rule) =
  match Term.view r.Rewrite.lhs with
  | Term.App (obs, inner :: ys) -> (
    match Term.view inner with
    | Term.App (act, s :: _) when act.Signature.sort.Sort.hidden -> (
      match Term.view s with
      | Term.Var v when v.Term.v_sort.Sort.hidden ->
        Some { oe_rule = r; oe_obs = obs; oe_action = act; oe_state = v; oe_params = ys }
      | _ -> None)
    | _ -> None)
  | _ -> None

(* The frame of an observer equation: the observer re-applied to the
   pre-state with the same parameters. *)
let frame oe =
  Term.app_unchecked oe.oe_obs (Term.var oe.oe_state.Term.v_name oe.oe_state.Term.v_sort :: oe.oe_params)

let observers eqs =
  List.fold_left
    (fun acc oe ->
      if List.exists (Signature.op_equal oe.oe_obs) acc then acc
      else oe.oe_obs :: acc)
    [] eqs
  |> List.rev

(* Observers [o'(S, ...)] read anywhere inside [t]. *)
let reads_of ~observers ~state t =
  List.filter_map
    (fun sub ->
      match Term.view sub with
      | Term.App (o, s :: _)
        when List.exists (Signature.op_equal o) observers && Term.equal s state
        -> Some o.Signature.name
      | _ -> None)
    (Term.subterms t)

let check spec =
  let name = Cafeobj.Spec.name spec in
  let rules = Cafeobj.Spec.all_rules spec in
  let own = Cafeobj.Spec.own_rules spec in
  let pos_of (r : Rewrite.rule) =
    Cafeobj.Spec.pos_of spec ("eq:" ^ r.Rewrite.label)
  in
  let obs_eqs = List.filter_map recognize_rule own in
  let observers = observers obs_eqs in
  let diags = ref [] in
  let diag ?pos severity code msg =
    diags :=
      Diagnostic.make ?pos ~severity ~checker:"flow" ~code ~spec:name msg
      :: !diags
  in
  (* --- per-action footprints ------------------------------------- *)
  let actions =
    List.fold_left
      (fun acc oe ->
        if List.exists (Signature.op_equal oe.oe_action) acc then acc
        else oe.oe_action :: acc)
      [] obs_eqs
    |> List.rev
  in
  let safe_reduce t =
    try Cafeobj.Spec.reduce spec t with Kernel.Rewrite.Limit_exceeded _ -> t
  in
  let transitions =
    List.map
      (fun (act : Signature.op) ->
        let eqs =
          List.filter (fun oe -> Signature.op_equal oe.oe_action act) obs_eqs
        in
        let reads = ref [] and writes = ref [] in
        List.iter
          (fun oe ->
            let state =
              Term.var oe.oe_state.Term.v_name oe.oe_state.Term.v_sort
            in
            let rhs = oe.oe_rule.Rewrite.rhs in
            let r = reads_of ~observers ~state rhs in
            let r =
              match oe.oe_rule.Rewrite.cond with
              | Some c -> r @ reads_of ~observers ~state c
              | None -> r
            in
            reads := !reads @ r;
            if not (Term.equal rhs (frame oe)) then begin
              (* a guard that rewrites to false makes the equation a
                 frame in disguise *)
              let live =
                match Term.view rhs with
                | Term.App (o, [ c; t; _e ]) when Signature.Builtin.is_if o ->
                  if Term.equal (safe_reduce c) Term.ff then begin
                    if not (Term.equal t (frame oe)) then
                      diag ?pos:(pos_of oe.oe_rule) Diagnostic.Warning
                        "dead-guard"
                        (Printf.sprintf
                           "guard of rule %s always rewrites to false — its effect on %s is unreachable"
                           oe.oe_rule.Rewrite.label oe.oe_obs.Signature.name);
                    false
                  end
                  else true
                | _ -> true
              in
              if live then writes := oe.oe_obs.Signature.name :: !writes
            end)
          eqs;
        let dedup l = List.sort_uniq String.compare l in
        let t_writes = dedup !writes in
        let t_dead = t_writes = [] && eqs <> [] in
        if t_dead then begin
          let pos =
            List.find_map (fun oe -> pos_of oe.oe_rule) eqs
          in
          diag ?pos Diagnostic.Warning "dead-transition"
            (Printf.sprintf
               "transition %s changes no observer — it can never affect the state"
               act.Signature.name)
        end;
        {
          t_name = act.Signature.name;
          t_reads = dedup !reads;
          t_writes;
          t_dead;
        })
      actions
  in
  (* --- duplicate transitions ------------------------------------- *)
  let eqs_of (act : Signature.op) =
    List.filter (fun oe -> Signature.op_equal oe.oe_action act) obs_eqs
  in
  let action_shape (act : Signature.op) =
    let eqs =
      eqs_of act
      |> List.sort (fun a b ->
             String.compare a.oe_obs.Signature.name b.oe_obs.Signature.name)
    in
    (* the action symbol itself is erased: only its arguments, the
       observer parameters and the right-hand side are compared *)
    List.concat_map
      (fun oe ->
        let lhs_args =
          match Term.view oe.oe_rule.Rewrite.lhs with
          | Term.App (_, inner :: ys) -> (
            match Term.view inner with
            | Term.App (_, args) -> args @ ys
            | _ -> inner :: ys)
          | _ -> []
        in
        Horn.canonicalize (lhs_args @ [ oe.oe_rule.Rewrite.rhs ]))
      eqs
  in
  let rec dup_scan = function
    | [] -> ()
    | a :: rest ->
      List.iter
        (fun b ->
          if
            List.length (action_shape a) > 0
            && (try List.for_all2 Term.equal (action_shape a) (action_shape b)
                with Invalid_argument _ -> false)
          then begin
            let pos = List.find_map (fun oe -> pos_of oe.oe_rule) (eqs_of a) in
            diag ?pos Diagnostic.Info "duplicate-transition"
              (Printf.sprintf "transitions %s and %s have identical behaviour"
                 a.Signature.name b.Signature.name)
          end)
        rest;
      dup_scan rest
  in
  dup_scan actions;
  (* --- innermost-unreachable rules ------------------------------- *)
  let unconditional =
    List.filter (fun (r : Rewrite.rule) -> r.Rewrite.cond = None) rules
  in
  List.iter
    (fun (r : Rewrite.rule) ->
      let proper_subs =
        match Term.view r.Rewrite.lhs with
        | Term.App (_, args) ->
          List.concat_map Term.subterms args
          |> List.filter (fun t ->
                 match Term.view t with Term.Var _ -> false | _ -> true)
        | _ -> []
      in
      let blocker =
        List.find_map
          (fun sub ->
            List.find_map
              (fun (r2 : Rewrite.rule) ->
                if r2 == r then None
                else if Matching.match_ r2.Rewrite.lhs sub <> None then Some r2
                else None)
              unconditional)
          proper_subs
      in
      match blocker with
      | Some r2 ->
        diag ?pos:(pos_of r) Diagnostic.Warning "unreachable-rule"
          (Printf.sprintf
             "rule %s can never fire: its left-hand side contains a redex of rule %s, which the innermost strategy reduces first"
             r.Rewrite.label r2.Rewrite.label)
      | None -> ())
    own;
  (* --- dependency graph ------------------------------------------ *)
  let edges =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if
              a.t_name <> b.t_name
              && List.exists (fun w -> List.mem w b.t_reads) a.t_writes
            then Some (a.t_name, b.t_name)
            else None)
          transitions)
      transitions
  in
  (* Deterministic output: transitions by action name, edges sorted and
     deduplicated, so reports, dot renderings and downstream analyses do
     not depend on declaration order. *)
  let transitions =
    List.sort (fun a b -> String.compare a.t_name b.t_name) transitions
  in
  let edges = List.sort_uniq compare edges in
  { transitions; edges; diagnostics = List.rev !diags }

let dot r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph flow {\n";
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\"%s;\n" t.t_name
           (if t.t_dead then " [style=dashed]" else "")))
    r.transitions;
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf (Printf.sprintf "  \"%s\" -> \"%s\";\n" a b))
    r.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
