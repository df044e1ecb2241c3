open Kernel
module Sexp = Certify.Sexp

(* ------------------------------------------------------------------ *)
(* Public types                                                        *)
(* ------------------------------------------------------------------ *)

type target =
  | Obs of string  (** commutation of one observer over the two orders *)
  | Enabled of string  (** the named action stays enabled after the other *)

type claim = {
  cl_target : target;
  cl_via : string option;  (** collector predicate used as the view, if any *)
  cl_left : Term.t;
  cl_right : Term.t;
  cl_status : Confluence.join_status;
}

type verdict = Independent | Dependent of string

type pair = {
  p_a : string;
  p_b : string;
  p_overlaps : int;  (** critical-pair overlaps between the two rule sets *)
  p_hyps : Term.t list;  (** co-enabledness hypotheses *)
  p_claims : claim list;
  p_verdict : verdict;
}

type result = {
  r_spec : string;
  r_actions : string list;
  r_pairs : pair list;
  r_independent : int;
  r_total : int;
  r_diagnostics : Diagnostic.t list;
}

(* ------------------------------------------------------------------ *)
(* Action extraction                                                   *)
(* ------------------------------------------------------------------ *)

(* One transition of the OTS, recovered from its observer equations.
   [act_issue] is set when the equations do not have the regular
   generated shape (non-variable parameters, inconsistent guards):
   such an action is never claimed independent of anything. *)
type action = {
  act_op : Signature.op;
  act_state : Term.var;
  act_params : Term.var list;
  act_cond : Term.t;  (** enabling guard over the state variable and params *)
  act_writes : string list;  (** observers whose value can change *)
  act_eqs : Flow.obs_eq list;
  act_issue : string option;
}

type ctx = {
  cx_spec : Cafeobj.Spec.t;
  cx_actions : action list;
  cx_observers : (Signature.op * Term.t list) list;
      (** observer op, renamed sample parameters *)
  cx_collectors : (string * (Signature.op * Sort.t) list) list;
      (** observer name -> boolean view predicates over its result sort *)
  cx_fuel : int;
  cx_budget : int;
}

let var_term (v : Term.var) = Term.var v.Term.v_name v.Term.v_sort

(* Rename every variable of [t] not in [keep] by prefixing [pfx] — used to
   rename the two actions' parameters apart before composing them. *)
let rename_vars pfx ~keep t =
  let rec go t =
    match Term.view t with
    | Term.Var v ->
      if
        List.exists
          (fun (k : Term.var) -> String.equal k.Term.v_name v.Term.v_name)
          keep
      then t
      else Term.var (pfx ^ v.Term.v_name) v.Term.v_sort
    | Term.App (o, args) -> Term.app_unchecked o (List.map go args)
  in
  go t

let subst_var (v : Term.var) ~by t =
  let rec go t =
    match Term.view t with
    | Term.Var w ->
      if String.equal w.Term.v_name v.Term.v_name && Sort.equal w.Term.v_sort v.Term.v_sort
      then by
      else t
    | Term.App (o, args) -> Term.app_unchecked o (List.map go args)
  in
  go t

let group_by_action obs_eqs =
  List.fold_left
    (fun acc (oe : Flow.obs_eq) ->
      let name = oe.Flow.oe_action.Signature.name in
      match List.assoc_opt name acc with
      | Some eqs ->
        (name, oe :: eqs) :: List.remove_assoc name acc
      | None -> (name, [ oe ]) :: acc)
    [] obs_eqs
  |> List.map (fun (n, eqs) -> (n, List.rev eqs))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let extract_action (eqs : Flow.obs_eq list) =
  let oe0 = List.hd eqs in
  let inner_args (oe : Flow.obs_eq) =
    match Term.view oe.Flow.oe_rule.Rewrite.lhs with
    | Term.App (_, inner :: _) -> (
      match Term.view inner with
      | Term.App (_, _ :: xs) -> Some xs
      | _ -> None)
    | _ -> None
  in
  let args0 = Option.value ~default:[] (inner_args oe0) in
  let issue = ref None in
  let note why = if !issue = None then issue := Some why in
  (* every equation of the action must apply it to the same parameters *)
  List.iter
    (fun oe ->
      match inner_args oe with
      | Some xs
        when (try List.for_all2 Term.equal xs args0 with Invalid_argument _ -> false)
        -> ()
      | _ -> note "inconsistent action parameters across equations")
    eqs;
  let params =
    List.filter_map
      (fun t ->
        match Term.view t with
        | Term.Var v -> Some v
        | Term.App _ -> note "non-variable action parameter"; None)
      args0
  in
  List.iter
    (fun (oe : Flow.obs_eq) ->
      if not (String.equal oe.Flow.oe_state.Term.v_name oe0.Flow.oe_state.Term.v_name)
      then note "inconsistent state variable across equations")
    eqs;
  let conds =
    List.filter_map
      (fun (oe : Flow.obs_eq) ->
        match Term.view oe.Flow.oe_rule.Rewrite.rhs with
        | Term.App (o, [ c; _; e ])
          when Signature.Builtin.is_if o && Term.equal e (Flow.frame oe) ->
          Some c
        | _ -> None)
      eqs
    |> List.sort_uniq Term.compare
  in
  let cond =
    match conds with
    | [] -> Term.tt
    | [ c ] -> c
    | _ -> note "inconsistent guards across equations"; Term.tt
  in
  let writes =
    List.filter_map
      (fun (oe : Flow.obs_eq) ->
        if Term.equal oe.Flow.oe_rule.Rewrite.rhs (Flow.frame oe) then None
        else Some oe.Flow.oe_obs.Signature.name)
      eqs
    |> List.sort_uniq String.compare
  in
  {
    act_op = oe0.Flow.oe_action;
    act_state = oe0.Flow.oe_state;
    act_params = params;
    act_cond = cond;
    act_writes = writes;
    act_eqs = eqs;
    act_issue = !issue;
  }

let context ?(fuel = 24) ?(budget = 20_000) spec =
  let obs_eqs = List.filter_map Flow.recognize_rule (Cafeobj.Spec.own_rules spec) in
  if obs_eqs = [] then None
  else begin
    let actions = List.map (fun (_, eqs) -> extract_action eqs) (group_by_action obs_eqs) in
    let observers =
      List.fold_left
        (fun acc (oe : Flow.obs_eq) ->
          if List.mem_assoc oe.Flow.oe_obs.Signature.name acc then acc
          else
            (oe.Flow.oe_obs.Signature.name,
             (oe.Flow.oe_obs, List.map (rename_vars "z!" ~keep:[]) oe.Flow.oe_params))
            :: acc)
        [] obs_eqs
      |> List.rev |> List.map snd
    in
    (* Boolean view predicates: every (visible, result-sort) -> Bool
       operator of the data signature is an observation through which a
       hidden-sorted collection value can be told apart.  Commutation is
       checked through all of them (hidden-algebra behavioural
       equivalence), which matches the executable checker exactly: its
       states store collections extensionally. *)
    let all_ops = Cafeobj.Spec.all_ops spec in
    let collectors =
      List.map
        (fun ((o : Signature.op), _) ->
          let views =
            List.filter_map
              (fun (p : Signature.op) ->
                match p.Signature.arity with
                | [ s1; s2 ]
                  when Sort.equal p.Signature.sort Sort.bool
                       && Sort.equal s2 o.Signature.sort
                       && (not s1.Sort.hidden)
                       && not (Signature.Builtin.is_builtin p) ->
                  Some (p, s1)
                | _ -> None)
              all_ops
          in
          (o.Signature.name, views))
        observers
    in
    Some
      {
        cx_spec = spec;
        cx_actions = actions;
        cx_observers = observers;
        cx_collectors = collectors;
        cx_fuel = fuel;
        cx_budget = budget;
      }
  end

(* ------------------------------------------------------------------ *)
(* Joinability under co-enabledness hypotheses                         *)
(* ------------------------------------------------------------------ *)

(* [join_under sys fuel hyps l r]: are [l] and [r] joinable whenever every
   hypothesis holds?  Both sides are wrapped in the same conditional
   tower [if h then . else x fi] over a shared fresh variable [x]: when
   some hypothesis is false both towers collapse to [x], and when all
   hold they collapse to [l] / [r] — so plain joinability of the wrapped
   terms is exactly conditional joinability.  The boolean ring decides
   boolean instances wholesale; other sorts fall back to Shannon splits
   inside {!Confluence.join_terms}. *)
let join_under sys fuel hyps l r =
  if Term.equal l r then Confluence.Syntactic
  else begin
    let else_ = Term.var "indep!else" (Term.sort l) in
    let wrap t = List.fold_left (fun acc h -> Term.ite h acc else_) t hyps in
    Confluence.join_terms sys fuel (wrap l) (wrap r)
  end

let joined = function
  | Confluence.Syntactic | Confluence.Semantic -> true
  | Confluence.Undecided | Confluence.Unjoinable _ -> false

(* ------------------------------------------------------------------ *)
(* One pair                                                            *)
(* ------------------------------------------------------------------ *)

let find_action cx name =
  List.find_opt (fun a -> String.equal a.act_op.Signature.name name) cx.cx_actions

let analyze_pair sys cx a b =
  let pname = (a.act_op.Signature.name, b.act_op.Signature.name) in
  let dependent why claims hyps overlaps =
    {
      p_a = fst pname;
      p_b = snd pname;
      p_overlaps = overlaps;
      p_hyps = hyps;
      p_claims = List.rev claims;
      p_verdict = Dependent why;
    }
  in
  match (a.act_issue, b.act_issue) with
  | Some why, _ | _, Some why -> dependent ("unanalyzable: " ^ why) [] [] 0
  | None, None ->
    let sv = a.act_state in
    let s = var_term sv in
    let rename_act pfx (act : action) t =
      let t = rename_vars pfx ~keep:[ act.act_state ] t in
      if String.equal act.act_state.Term.v_name sv.Term.v_name then t
      else subst_var act.act_state ~by:s t
    in
    let pa = List.map (fun (v : Term.var) -> Term.var ("l!" ^ v.Term.v_name) v.Term.v_sort) a.act_params in
    let pb = List.map (fun (v : Term.var) -> Term.var ("r!" ^ v.Term.v_name) v.Term.v_sort) b.act_params in
    let post_a st = Term.app_unchecked a.act_op (st :: pa) in
    let post_b st = Term.app_unchecked b.act_op (st :: pb) in
    let cond_a = rename_act "l!" a a.act_cond in
    let cond_b = rename_act "r!" b b.act_cond in
    (* Hypotheses as individual atoms, not whole conjunctions: a Shannon
       split on an atom then reaches the same atom inside the other
       order's (monotonically expanded) guard, where a split on the
       conjunction would leave it opaque. *)
    let rec flat t =
      match Term.view t with
      | Term.App (o, [ x; y ]) when Signature.op_equal o Signature.Builtin.and_ ->
        flat x @ flat y
      | _ -> if Term.equal t Term.tt then [] else [ t ]
    in
    let hyps = flat cond_a @ flat cond_b in
    (* 1. critical-pair overlaps between the two rule sets must join *)
    let rules_a = List.map (fun oe -> oe.Flow.oe_rule) a.act_eqs in
    let rules_b = List.map (fun oe -> oe.Flow.oe_rule) b.act_eqs in
    let overlaps =
      List.concat_map
        (fun ra -> List.concat_map (fun rb -> Completion.overlaps ra rb) rules_b)
        rules_a
      @
      if a.act_op == b.act_op then []
      else
        List.concat_map
          (fun rb -> List.concat_map (fun ra -> Completion.overlaps rb ra) rules_a)
          rules_b
    in
    let n_overlaps = List.length overlaps in
    let bad_overlap =
      List.find_opt
        (fun (o : Completion.overlap) ->
          not (joined (Confluence.join_terms sys cx.cx_fuel o.Completion.left o.Completion.right)))
        overlaps
    in
    (match bad_overlap with
    | Some o ->
      dependent
        (Printf.sprintf "overlap[%s/%s]" o.Completion.outer.Rewrite.label
           o.Completion.inner.Rewrite.label)
        [] hyps n_overlaps
    | None ->
      let claims = ref [] in
      let claim target via l r =
        let status = join_under sys cx.cx_fuel hyps l r in
        claims := { cl_target = target; cl_via = via; cl_left = l; cl_right = r; cl_status = status } :: !claims;
        joined status
      in
      (* 2. neither action disables the other (both enabled at S) *)
      let stable_after outer_post (inner : action) cond_inner =
        claim (Enabled inner.act_op.Signature.name) None
          (subst_var sv ~by:outer_post cond_inner)
          Term.tt
      in
      if not (stable_after (post_a s) b cond_b) then
        dependent (Printf.sprintf "enabled[%s]" b.act_op.Signature.name) !claims hyps n_overlaps
      else if not (stable_after (post_b s) a cond_a) then
        dependent (Printf.sprintf "enabled[%s]" a.act_op.Signature.name) !claims hyps n_overlaps
      else begin
        (* 3. every observer one of them writes commutes over the two
           orders — directly, or through every boolean view of its
           result sort *)
        let s_ab = post_b (post_a s) (* a fired first *) in
        let s_ba = post_a (post_b s) (* b fired first *) in
        let touched =
          List.filter
            (fun ((o : Signature.op), _) ->
              List.mem o.Signature.name a.act_writes
              || List.mem o.Signature.name b.act_writes)
            cx.cx_observers
        in
        let check_obs ((o : Signature.op), zs) =
          let l = Term.app_unchecked o (s_ab :: zs) in
          let r = Term.app_unchecked o (s_ba :: zs) in
          let direct = join_under sys cx.cx_fuel hyps l r in
          if joined direct then begin
            claims :=
              { cl_target = Obs o.Signature.name; cl_via = None; cl_left = l;
                cl_right = r; cl_status = direct }
              :: !claims;
            None
          end
          else begin
            match List.assoc o.Signature.name cx.cx_collectors with
            | [] ->
              claims :=
                { cl_target = Obs o.Signature.name; cl_via = None; cl_left = l;
                  cl_right = r; cl_status = direct }
                :: !claims;
              Some (Printf.sprintf "commute[%s]" o.Signature.name)
            | views ->
              List.find_map
                (fun ((p : Signature.op), elt_sort) ->
                  let x = Term.var "w!x" elt_sort in
                  let vl = Term.app_unchecked p [ x; l ] in
                  let vr = Term.app_unchecked p [ x; r ] in
                  if claim (Obs o.Signature.name) (Some p.Signature.name) vl vr
                  then None
                  else
                    Some
                      (Printf.sprintf "commute[%s]/via[%s]" o.Signature.name
                         p.Signature.name))
                views
          end
        in
        match List.find_map check_obs touched with
        | Some why -> dependent why !claims hyps n_overlaps
        | None ->
          {
            p_a = fst pname;
            p_b = snd pname;
            p_overlaps = n_overlaps;
            p_hyps = hyps;
            p_claims = List.rev !claims;
            p_verdict = Independent;
          }
      end)

(* ------------------------------------------------------------------ *)
(* Whole-spec analysis                                                 *)
(* ------------------------------------------------------------------ *)

let chunks size xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n >= size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

let analyze ?pool ?(fuel = 24) ?(budget = 20_000) ?focus spec =
  match context ~fuel ~budget spec with
  | None -> None
  | Some cx ->
    let names = List.map (fun a -> a.act_op.Signature.name) cx.cx_actions in
    let wanted a b =
      match focus with
      | None -> true
      | Some fs -> List.mem a.act_op.Signature.name fs || List.mem b.act_op.Signature.name fs
    in
    let rec all_pairs = function
      | [] -> []
      | a :: rest ->
        List.filter_map (fun b -> if wanted a b then Some (a, b) else None) (a :: rest)
        @ all_pairs rest
    in
    let pairs = all_pairs cx.cx_actions in
    let base = Rewrite.make (Cafeobj.Spec.all_rules spec) in
    let run_chunk ps =
      (* private rewrite system per chunk: it carries a mutable memo
         table and step counter, so sharing one across workers races;
         the fork shares the base's compiled rules *)
      let sys = Rewrite.fork base in
      Rewrite.set_step_limit sys budget;
      List.map (fun (a, b) -> analyze_pair sys cx a b) ps
    in
    let chunked = chunks (max 4 (List.length pairs / 64)) pairs in
    let results =
      List.concat
        (match pool with
        | Some pool when List.length chunked > 1 ->
          Sched.Pool.parallel_map pool run_chunk chunked
        | _ -> List.map run_chunk chunked)
    in
    let independent =
      List.length (List.filter (fun p -> p.p_verdict = Independent) results)
    in
    let total = List.length results in
    let name = Cafeobj.Spec.name spec in
    let diagnostics =
      [
        Diagnostic.make ~severity:Diagnostic.Info ~checker:"independence"
          ~code:"independent-pairs" ~spec:name
          (Printf.sprintf
             "%d of %d action pairs proved independent (%d commutation claims)"
             independent total
             (List.fold_left
                (fun n p ->
                  if p.p_verdict = Independent then n + List.length p.p_claims else n)
                0 results));
      ]
    in
    Some
      {
        r_spec = name;
        r_actions = names;
        r_pairs = results;
        r_independent = independent;
        r_total = total;
        r_diagnostics = diagnostics;
      }

let independent_pairs r =
  List.filter_map
    (fun p -> if p.p_verdict = Independent then Some (p.p_a, p.p_b) else None)
    r.r_pairs

let is_independent r a b =
  List.exists
    (fun p ->
      p.p_verdict = Independent
      && ((String.equal p.p_a a && String.equal p.p_b b)
          || (String.equal p.p_a b && String.equal p.p_b a)))
    r.r_pairs

(* [certified_ample r candidates]: the candidates that are provably
   independent of *every* action of the spec (including themselves) —
   exactly the admission condition for an ample/flooding set. *)
let certified_ample r candidates =
  List.filter
    (fun c ->
      List.mem c r.r_actions
      && List.for_all (fun g -> is_independent r c g) r.r_actions)
    candidates

(* ------------------------------------------------------------------ *)
(* Certificate: emission                                               *)
(* ------------------------------------------------------------------ *)

let rec term_sexp t =
  match Term.view t with
  | Term.Var v ->
    Sexp.List [ Sexp.Atom "?"; Sexp.Atom v.Term.v_name; Sexp.Atom v.Term.v_sort.Sort.name ]
  | Term.App (o, []) -> Sexp.Atom o.Signature.name
  | Term.App (o, args) ->
    Sexp.List (Sexp.Atom o.Signature.name :: List.map term_sexp args)

let claim_sexp c =
  let target =
    match c.cl_target with
    | Obs o -> Sexp.List [ Sexp.Atom "obs"; Sexp.Atom o ]
    | Enabled a -> Sexp.List [ Sexp.Atom "enabled"; Sexp.Atom a ]
  in
  let via = match c.cl_via with
    | None -> []
    | Some p -> [ Sexp.List [ Sexp.Atom "via"; Sexp.Atom p ] ]
  in
  Sexp.List
    ([ Sexp.Atom "claim"; target ] @ via
     @ [ Sexp.List [ Sexp.Atom "left"; term_sexp c.cl_left ];
         Sexp.List [ Sexp.Atom "right"; term_sexp c.cl_right ] ])

let certificate r =
  let pair p =
    Sexp.List
      ([ Sexp.Atom "pair";
         Sexp.List [ Sexp.Atom "a"; Sexp.Atom p.p_a ];
         Sexp.List [ Sexp.Atom "b"; Sexp.Atom p.p_b ];
         Sexp.List (Sexp.Atom "hyps" :: List.map term_sexp p.p_hyps) ]
       @ List.map claim_sexp p.p_claims)
  in
  Sexp.List
    (Sexp.Atom "indep-cert"
     :: Sexp.List [ Sexp.Atom "spec"; Sexp.Atom r.r_spec ]
     :: List.filter_map
          (fun p -> if p.p_verdict = Independent then Some (pair p) else None)
          r.r_pairs)

(* ------------------------------------------------------------------ *)
(* Certificate: replay                                                 *)
(* ------------------------------------------------------------------ *)

(* The generated OTS declares its action and observer operators on a raw
   signature, not through [Spec.declare_op], so they are reachable only
   through the rules' terms: index every operator occurring anywhere in
   the rule set (plus the booleans).  Polymorphic builtins ([if], [=])
   share a name across sorts, so resolution is by name *and* argument
   sorts. *)
let op_index spec =
  let tbl : (string, Signature.op) Hashtbl.t = Hashtbl.create 128 in
  let add (o : Signature.op) =
    (* dedup by profile, not by [op_equal]: that compares names only, and
       an action may legitimately share its name with a data constructor
       (TLS's [cert]) — resolution tells them apart by argument sorts *)
    if
      not
        (List.exists
           (fun o' -> o' == o || Signature.same_profile o' o)
           (Hashtbl.find_all tbl o.Signature.name))
    then Hashtbl.add tbl o.Signature.name o
  in
  List.iter add
    Signature.Builtin.[ tt; ff; not_; and_; or_; xor; implies; iff ];
  List.iter add (Cafeobj.Spec.all_ops spec);
  let scan t =
    List.iter
      (fun s -> match Term.view s with Term.App (o, _) -> add o | Term.Var _ -> ())
      (Term.subterms t)
  in
  List.iter
    (fun (r : Rewrite.rule) ->
      scan r.Rewrite.lhs;
      scan r.Rewrite.rhs;
      Option.iter scan r.Rewrite.cond)
    (Cafeobj.Spec.all_rules spec);
  tbl

exception Reject of string

let parse_term ops sx =
  let rec go sx =
    match sx with
    | Sexp.List [ Sexp.Atom "?"; Sexp.Atom n; Sexp.Atom srt ] ->
      if not (Sort.mem srt) then raise (Reject ("unknown-sort[" ^ srt ^ "]"));
      Term.var n (Sort.find srt)
    | Sexp.Atom n -> resolve n []
    | Sexp.List (Sexp.Atom n :: args) -> resolve n (List.map go args)
    | _ -> raise (Reject "malformed-term")
  and resolve n args =
    let candidates = Hashtbl.find_all ops n in
    match
      List.find_opt
        (fun (o : Signature.op) ->
          List.length o.Signature.arity = List.length args
          && List.for_all2
               (fun s a -> Sort.equal s (Term.sort a))
               o.Signature.arity args)
        candidates
    with
    | Some o -> Term.app_unchecked o args
    | None -> raise (Reject ("unknown-op[" ^ n ^ "]"))
  in
  go sx

let target_string = function Obs o -> "obs:" ^ o | Enabled a -> "enabled:" ^ a

(* Replay a certificate against [spec]: every claimed pair is re-analyzed
   from the spec's own rules — parameters renamed apart the same way, the
   co-enabledness hypotheses re-derived (a forged hypothesis cannot
   weaken the check), every overlap re-joined and every commutation and
   stability claim re-executed as two rewrite sequences that must land on
   identical (or boolean-ring identical) normal forms.  The certificate's
   recorded terms must match the recomputed obligations exactly.  On
   failure the result is a breadcrumb path into the certificate. *)
let check ?(fuel = 24) ?(budget = 20_000) spec sexp =
  match context ~fuel ~budget spec with
  | None -> Error "spec has no transition rules"
  | Some cx ->
    let ops = op_index spec in
    let sys = Rewrite.make (Cafeobj.Spec.all_rules spec) in
    Rewrite.set_step_limit sys budget;
    let pairs_seen = ref 0 and claims_seen = ref 0 in
    let field name = function
      | Sexp.List [ Sexp.Atom k; Sexp.Atom v ] when String.equal k name -> Some v
      | _ -> None
    in
    let check_pair crumb items =
      let fail why = raise (Reject (crumb ^ "/" ^ why)) in
      let a_name =
        match List.find_map (field "a") items with
        | Some n -> n | None -> fail "missing-action-a"
      in
      let b_name =
        match List.find_map (field "b") items with
        | Some n -> n | None -> fail "missing-action-b"
      in
      let crumb = Printf.sprintf "%s[%s,%s]" crumb a_name b_name in
      let fail why = raise (Reject (crumb ^ "/" ^ why)) in
      let a = match find_action cx a_name with
        | Some a -> a | None -> fail ("unknown-action[" ^ a_name ^ "]")
      in
      let b = match find_action cx b_name with
        | Some b -> b | None -> fail ("unknown-action[" ^ b_name ^ "]")
      in
      let computed = analyze_pair sys cx a b in
      (match computed.p_verdict with
      | Independent -> ()
      | Dependent why -> fail why);
      (* recorded hypotheses must be the recomputed enabling guards *)
      let cert_hyps =
        match
          List.find_map
            (function
              | Sexp.List (Sexp.Atom "hyps" :: hs) ->
                Some (List.map (fun h -> try parse_term ops h with Reject w -> fail ("hyps/" ^ w)) hs)
              | _ -> None)
            items
        with
        | Some hs -> hs
        | None -> fail "missing-hyps"
      in
      if
        not
          (try List.for_all2 Term.equal cert_hyps computed.p_hyps
           with Invalid_argument _ -> false)
      then fail "hyps/term-mismatch";
      (* every recorded claim must be a recomputed obligation, verbatim *)
      let cert_claims =
        List.filter_map
          (function
            | Sexp.List (Sexp.Atom "claim" :: parts) -> Some parts
            | _ -> None)
          items
      in
      let parse_claim parts =
        let target =
          match
            List.find_map
              (function
                | Sexp.List [ Sexp.Atom "obs"; Sexp.Atom o ] -> Some (Obs o)
                | Sexp.List [ Sexp.Atom "enabled"; Sexp.Atom a ] -> Some (Enabled a)
                | _ -> None)
              parts
          with
          | Some t -> t | None -> fail "claim/missing-target"
        in
        let via = List.find_map (field "via") parts in
        let side name =
          match
            List.find_map
              (function
                | Sexp.List [ Sexp.Atom k; t ] when String.equal k name -> Some t
                | _ -> None)
              parts
          with
          | Some t -> (
            try parse_term ops t
            with Reject w ->
              fail (Printf.sprintf "claim[%s]/%s/%s" (target_string target) name w))
          | None -> fail (Printf.sprintf "claim[%s]/missing-%s" (target_string target) name)
        in
        (target, via, side "left", side "right")
      in
      let parsed = List.map parse_claim cert_claims in
      (* the analysis emits claims in a fixed order, so the comparison is
         positional: count, targets, views and both terms must all agree *)
      if List.length parsed <> List.length computed.p_claims then
        fail "claim-count-mismatch";
      List.iter2
        (fun (t, v, l, r) (c : claim) ->
          let crumb_c =
            Printf.sprintf "claim[%s%s]" (target_string c.cl_target)
              (match c.cl_via with None -> "" | Some p -> "/via:" ^ p)
          in
          if t <> c.cl_target || v <> c.cl_via then fail (crumb_c ^ "/claim-mismatch");
          if not (Term.equal l c.cl_left && Term.equal r c.cl_right) then
            fail (crumb_c ^ "/term-mismatch");
          incr claims_seen)
        parsed computed.p_claims;
      incr pairs_seen
    in
    (try
       match sexp with
       | Sexp.List (Sexp.Atom "indep-cert" :: rest) ->
         let spec_name =
           match List.find_map (field "spec") rest with
           | Some n -> n
           | None -> raise (Reject "missing-spec")
         in
         if not (String.equal spec_name (Cafeobj.Spec.name spec)) then
           raise
             (Reject
                (Printf.sprintf "spec-mismatch[%s<>%s]" spec_name
                   (Cafeobj.Spec.name spec)));
         List.iter
           (function
             | Sexp.List (Sexp.Atom "pair" :: items) -> check_pair "pairs/pair" items
             | Sexp.List (Sexp.Atom "spec" :: _) -> ()
             | _ -> raise (Reject "malformed-entry"))
           rest;
         Ok (!pairs_seen, !claims_seen)
       | _ -> Error "not-an-indep-cert"
     with Reject why -> Error why)

(* ------------------------------------------------------------------ *)
(* Graphviz                                                            *)
(* ------------------------------------------------------------------ *)

(* The flow dependency graph with the statically proved independencies
   overlaid as undirected dashed green edges. *)
let dot (flow : Flow.result) r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph flow {\n";
  List.iter
    (fun (t : Flow.transition) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\"%s;\n" t.Flow.t_name
           (if t.Flow.t_dead then " [style=dashed]" else "")))
    flow.Flow.transitions;
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf (Printf.sprintf "  \"%s\" -> \"%s\";\n" a b))
    flow.Flow.edges;
  List.iter
    (fun p ->
      if p.p_verdict = Independent && String.compare p.p_a p.p_b <= 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "  \"%s\" -> \"%s\" [dir=none, style=dashed, color=forestgreen, constraint=false];\n"
             p.p_a p.p_b))
    r.r_pairs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
