open Kernel
module Spec = Cafeobj.Spec

type query = {
  q_name : string;
  q_pred : string;
  q_pattern : Term.t;
  q_honest : Term.var list;
}

type options = {
  network : string;
  depth : int;
  max_facts : int;
  expansion : int;
  queries : query list;
}

let default_options =
  { network = "nw"; depth = 16; max_facts = 20_000; expansion = 4; queries = [] }

type leak = { l_query : query; l_fact : Horn.fact; l_secret : Term.t }

type verdict =
  | Secure
  | Leak of leak
  | Inconclusive
  | Not_applicable of string

type result = {
  r_verdict : verdict;
  r_clauses : int;
  r_facts : int;
  r_rounds : int;
  r_resolutions : int;
  r_queries : query list;
}

(* ------------------------------------------------------------------ *)
(* Recognizing the OTS view of a spec *)

(* One defining rule of a collector predicate [m(x, container)]. *)
type coll_rule = {
  cr_rule : Rewrite.rule;
  cr_elem : Term.t;  (* first argument pattern, usually a variable *)
  cr_container : Term.t;  (* [nil] or [cons(hd, tail)] *)
}

type view = {
  v_spec : Spec.t;
  v_hidden : Sort.t;
  v_net : Signature.op;
  v_nil : Signature.op;
  v_cons : Signature.op;
  v_observers : Signature.op list;
  v_stored : Signature.op list;  (* observers written with non-frame values *)
  v_members : Signature.op list;  (* plain membership collectors *)
  v_gleaners : (Signature.op * coll_rule list) list;
  v_shapes : (Signature.op * Signature.op) list;
      (* shape predicate -> the constructor it accepts *)
  v_obs_eqs : Flow.obs_eq list;
}

let ctors_of spec srt =
  List.filter
    (fun (o : Signature.op) ->
      Signature.is_ctor o && Sort.equal o.Signature.sort srt)
    (Spec.all_ops spec)

(* The container sort's nil/cons pair: the unique nullary constructor and
   the unique binary constructor recursing in its last argument. *)
let chain_ctors spec srt =
  let cs = ctors_of spec srt in
  let nils = List.filter (fun (o : Signature.op) -> o.Signature.arity = []) cs in
  let conses =
    List.filter
      (fun (o : Signature.op) ->
        match o.Signature.arity with
        | [ _; s ] -> Sort.equal s srt
        | _ -> false)
      cs
  in
  match (nils, conses) with [ n ], [ c ] -> Some (n, c) | _ -> None

let rec flat op t =
  match Term.view t with
  | Term.App (o, [ a; b ]) when Signature.op_equal o op -> flat op a @ flat op b
  | _ -> [ t ]

let conjuncts t = flat Signature.Builtin.and_ t
let disjuncts t = flat Signature.Builtin.or_ t

(* Collector rules over containers of sort [nsort] built by [nil]/[cons]. *)
let collector_rules rules ~nil ~cons =
  let classify (r : Rewrite.rule) =
    match Term.view r.Rewrite.lhs with
    | Term.App (m, [ e; c ])
      when (not (Signature.Builtin.is_builtin m))
           && Sort.equal m.Signature.sort Sort.bool -> (
      match Term.view c with
      | Term.App (o, [])
        when Signature.op_equal o nil ->
        Some (m, { cr_rule = r; cr_elem = e; cr_container = c })
      | Term.App (o, [ _; _ ])
        when Signature.op_equal o cons ->
        Some (m, { cr_rule = r; cr_elem = e; cr_container = c })
      | _ -> None)
    | _ -> None
  in
  List.fold_left
    (fun acc r ->
      match classify r with
      | None -> acc
      | Some (m, cr) -> (
        match List.assq_opt m acc with
        | Some l ->
          l := !l @ [ cr ];
          acc
        | None -> acc @ [ (m, ref [ cr ]) ]))
    [] rules
  |> List.map (fun (m, l) -> (m, !l))

(* A collector is a plain membership predicate when every cons rule says
   exactly [(x == hd) or m(x, tail)] with [hd] a variable — it reveals
   nothing beyond the element itself. *)
let is_member (rules : coll_rule list) =
  let cons_rules =
    List.filter
      (fun cr ->
        match Term.view cr.cr_container with
        | Term.App (_, [ _; _ ]) -> true
        | _ -> false)
      rules
  in
  cons_rules <> []
  && List.for_all
       (fun cr ->
         match Term.view cr.cr_container with
         | Term.App (_, [ hd; tail ]) -> (
           match Term.view hd with
           | Term.Var _ ->
             let tail_vars = Term.vars tail in
             let recursive d =
               List.exists (fun v -> List.mem v tail_vars) (Term.vars d)
             in
             let nonrec_ =
               List.filter
                 (fun d -> not (recursive d))
                 (disjuncts cr.cr_rule.Rewrite.rhs)
             in
             List.for_all
               (fun d ->
                 match Term.view d with
                 | Term.App (o, [ a; b ]) when Signature.Builtin.is_eq o ->
                   (Term.equal a cr.cr_elem && Term.equal b hd)
                   || (Term.equal a hd && Term.equal b cr.cr_elem)
                 | _ -> false)
               nonrec_
           | _ -> false)
         | _ -> true)
       cons_rules

(* Shape predicates: unary boolean tests accepting exactly one
   constructor, recognized from their [p(c(x1..xn)) = true] rules
   (CafeOBJ's [ch?], [sh?], ... message discriminators). *)
let shape_preds rules =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Rewrite.rule) ->
      if r.Rewrite.cond = None && Term.equal r.Rewrite.rhs Term.tt then
        match Term.view r.Rewrite.lhs with
        | Term.App (p, [ arg ])
          when (not (Signature.Builtin.is_builtin p))
               && Sort.equal p.Signature.sort Sort.bool -> (
          match Term.view arg with
          | Term.App (c, args)
            when Signature.is_ctor c
                 && List.for_all
                      (fun a ->
                        match Term.view a with Term.Var _ -> true | _ -> false)
                      args ->
            let prev =
              Option.value ~default:[]
                (Hashtbl.find_opt tbl p.Signature.index)
            in
            Hashtbl.replace tbl p.Signature.index ((p, c) :: prev)
          | _ -> ())
        | _ -> ())
    rules;
  Hashtbl.fold
    (fun _ entries acc ->
      match entries with
      | [ ((_, _) as e) ] -> e :: acc
      | _ -> acc  (* ambiguous: accepts several constructors *))
    tbl []
  |> List.sort (fun ((a : Signature.op), _) ((b : Signature.op), _) ->
         Int.compare a.Signature.index b.Signature.index)

(* The if-then-else leaves of [t] with their path conditions. *)
let leaves_of t =
  let rec go conds t acc =
    match Term.view t with
    | Term.App (o, [ c; th; el ]) when Signature.Builtin.is_if o ->
      go (c :: conds) th (go conds el acc)
    | _ -> (List.rev conds, t) :: acc
  in
  List.rev (go [] t [])

(* Is [t] a read [o(S, ...)] of observer [o] on the pre-state? *)
let read_of ~observers ~state t =
  match Term.view t with
  | Term.App (o, s :: _)
    when Term.equal s state && List.exists (Signature.op_equal o) observers ->
    Some o
  | _ -> None

let recognize ~network spec =
  let rules = Spec.all_rules spec in
  let obs_eqs = List.filter_map Flow.recognize_rule (Spec.own_rules spec) in
  if obs_eqs = [] then Error "no observational transition rules"
  else
    let observers = Flow.observers obs_eqs in
    match
      List.find_opt
        (fun (o : Signature.op) -> String.equal o.Signature.name network)
        observers
    with
    | None -> Error (Printf.sprintf "no network observer %S" network)
    | Some net -> (
      let nsort = net.Signature.sort in
      match chain_ctors spec nsort with
      | None ->
        Error
          (Printf.sprintf "network sort %s has no nil/cons constructor pair"
             nsort.Sort.name)
      | Some (nil, cons) ->
        let collectors = collector_rules rules ~nil ~cons in
        let members =
          List.filter_map
            (fun (m, rs) -> if is_member rs then Some m else None)
            collectors
        in
        let gleaners =
          List.filter
            (fun ((m : Signature.op), _) ->
              not (List.exists (Signature.op_equal m) members))
            collectors
        in
        let hidden =
          match net.Signature.arity with
          | s :: _ -> s
          | [] -> Sort.hidden "?"
        in
        (* observers some equation stores a non-frame value into *)
        let stored =
          List.filter
            (fun (o : Signature.op) ->
              (not (Signature.op_equal o net))
              && List.exists
                   (fun (oe : Flow.obs_eq) ->
                     Signature.op_equal oe.oe_obs o
                     && List.exists
                          (fun (_, leaf) ->
                            (not (Term.equal leaf (Flow.frame oe)))
                            && read_of ~observers
                                 ~state:
                                   (Term.var oe.oe_state.Term.v_name
                                      oe.oe_state.Term.v_sort)
                                 leaf
                               = None)
                          (leaves_of oe.oe_rule.Rewrite.rhs))
                   obs_eqs)
            observers
        in
        Ok
          {
            v_spec = spec;
            v_hidden = hidden;
            v_net = net;
            v_nil = nil;
            v_cons = cons;
            v_observers = observers;
            v_stored = stored;
            v_members = members;
            v_gleaners = gleaners;
            v_shapes = shape_preds rules;
            v_obs_eqs = obs_eqs;
          })

(* ------------------------------------------------------------------ *)
(* Guard compilation *)

let safe_reduce spec t =
  try Spec.reduce spec t with Rewrite.Limit_exceeded _ -> t

(* Compilation context for one clause. *)
type cctx = {
  cc_view : view;
  cc_state : Term.t option;  (* the pre-state variable, when in a transition *)
  cc_tail : Term.t option;  (* the recursion tail, when in a collector rule *)
  mutable cc_theta : Subst.t;
  mutable cc_premises : (string * Term.t) list;  (* reversed *)
  mutable cc_residual : (Term.t * Term.t) list;  (* reversed *)
  mutable cc_feasible : bool;
  mutable cc_fresh : int;
}

let cc_make view ?state ?tail () =
  {
    cc_view = view;
    cc_state = state;
    cc_tail = tail;
    cc_theta = Subst.empty;
    cc_premises = [];
    cc_residual = [];
    cc_feasible = true;
    cc_fresh = 0;
  }

let cc_fresh_var ctx prefix srt =
  ctx.cc_fresh <- ctx.cc_fresh + 1;
  Term.var (Printf.sprintf "%%%s%d" prefix ctx.cc_fresh) srt

(* Is [t] the network the guard may draw messages from: [nw(S)] on the
   pre-state, or the recursion tail of the collector rule being
   compiled? *)
let net_container ctx t =
  (match ctx.cc_tail with Some tl -> Term.equal t tl | None -> false)
  ||
  match (Term.view t, ctx.cc_state) with
  | Term.App (o, [ s ]), Some state ->
    Signature.op_equal o ctx.cc_view.v_net && Term.equal s state
  | _ -> false

let is_collector ctx (m : Signature.op) =
  List.exists (Signature.op_equal m) ctx.cc_view.v_members
  || List.exists
       (fun ((g : Signature.op), _) -> Signature.op_equal g m)
       ctx.cc_view.v_gleaners

let premise_pred ctx (m : Signature.op) =
  if List.exists (Signature.op_equal m) ctx.cc_view.v_members then "net"
  else "glean:" ^ m.Signature.name

(* Compile the guard conjuncts of one rule branch into premises, eager
   bindings and residual constraints.  Positive membership of the network
   becomes a premise; equalities are solved eagerly when they unify and
   kept as residual constraints otherwise; negative and otherwise
   unclassifiable atoms are dropped (over-approximation) — except that a
   guard normalizing to [false] kills the branch. *)
let compile ctx pending =
  let rec pass pending =
    let again = ref [] in
    let progressed = ref false in
    let residual a b = again := (a, b) :: !again in
    List.iter
      (fun c ->
        if ctx.cc_feasible then begin
          let c = safe_reduce ctx.cc_view.v_spec (Subst.apply ctx.cc_theta c) in
          if Term.equal c Term.tt then progressed := true
          else if Term.equal c Term.ff then ctx.cc_feasible <- false
          else
            match Term.view c with
            | Term.App (o, [ _; _ ])
              when Signature.op_equal o Signature.Builtin.and_ ->
              progressed := true;
              List.iter (fun d -> again := (d, Term.tt) :: !again) (conjuncts c)
            | Term.App (m, [ e; cont ])
              when is_collector ctx m && net_container ctx cont ->
              progressed := true;
              ctx.cc_premises <- (premise_pred ctx m, e) :: ctx.cc_premises
            | Term.App (o, [ a; b ]) when Signature.Builtin.is_eq o -> (
              match Matching.unify a b with
              | Some s ->
                progressed := true;
                ctx.cc_theta <- Horn.compose ctx.cc_theta s
              | None ->
                if Horn.ctor_rigid a && Horn.ctor_rigid b then
                  ctx.cc_feasible <- false
                else residual a b)
            | Term.App (p, [ arg ])
              when List.exists
                     (fun ((q : Signature.op), _) -> Signature.op_equal q p)
                     ctx.cc_view.v_shapes -> (
              let _, ctor =
                List.find
                  (fun ((q : Signature.op), _) -> Signature.op_equal q p)
                  ctx.cc_view.v_shapes
              in
              match Term.view arg with
              | Term.Var v ->
                (* refine the variable by the accepted constructor *)
                progressed := true;
                let args =
                  List.map
                    (fun s -> cc_fresh_var ctx "s" s)
                    ctor.Signature.arity
                in
                ctx.cc_theta <-
                  Horn.compose ctx.cc_theta
                    (Subst.of_list [ (v, Term.app_unchecked ctor args) ])
              | Term.App (c', _) when Signature.is_ctor c' ->
                if Signature.op_equal c' ctor then progressed := true
                else ctx.cc_feasible <- false
              | _ -> residual c Term.tt)
            | Term.App (o, [ _ ])
              when Signature.op_equal o Signature.Builtin.not_ ->
              (* negative guards (freshness, disequality) are dropped *)
              progressed := true
            | _ ->
              (* leave the whole atom as a [c = true] constraint: the
                 saturation engine's constructor expansion can still
                 discharge it (e.g. shape predicates) *)
              residual c Term.tt
        end)
      pending;
    if ctx.cc_feasible && !progressed && !again <> [] then
      pass (List.rev_map (fun (a, b) ->
                if Term.equal b Term.tt then a else Term.eq a b)
              !again)
    else ctx.cc_residual <- !again @ ctx.cc_residual
  in
  pass pending

(* Replace observer reads on the pre-state by fresh variables, adding a
   [stored:<o>] premise when the observer is a store (its content comes
   from somewhere) and leaving the variable unconstrained otherwise (the
   read could be anything — over-approximation). *)
let replace_reads ctx t =
  match ctx.cc_state with
  | None -> t
  | Some state ->
    let memo = Hashtbl.create 4 in
    let rec go t =
      match read_of ~observers:ctx.cc_view.v_observers ~state t with
      | Some o -> (
        match Hashtbl.find_opt memo (Term.id t) with
        | Some w -> w
        | None ->
          let w = cc_fresh_var ctx "r" (Term.sort t) in
          Hashtbl.add memo (Term.id t) w;
          if List.exists (Signature.op_equal o) ctx.cc_view.v_stored then
            ctx.cc_premises <-
              ("stored:" ^ o.Signature.name, w) :: ctx.cc_premises;
          w)
      | None -> (
        match Term.view t with
        | Term.Var _ -> t
        | Term.App (o, args) -> Term.app_unchecked o (List.map go args))
    in
    go t

(* Assemble the clause once compilation succeeded. *)
let finish ctx ~label ~head ~carrier =
  if not ctx.cc_feasible then None
  else begin
    let apply t =
      replace_reads ctx
        (safe_reduce ctx.cc_view.v_spec (Subst.apply ctx.cc_theta t))
    in
    let head = (fst head, apply (snd head)) in
    let residual =
      List.rev_map
        (fun (a, b) ->
          (apply a, safe_reduce ctx.cc_view.v_spec (Subst.apply ctx.cc_theta b)))
        ctx.cc_residual
    in
    (* premises recorded before this point already carry theta of their
       time; re-apply the final theta for the late bindings *)
    let premises = List.rev_map (fun (p, e) -> (p, apply e)) ctx.cc_premises in
    let carrier = Option.map (fun c -> Subst.apply ctx.cc_theta c) carrier in
    Some
      {
        Horn.c_label = label;
        c_head = head;
        c_premises = premises;
        c_constraints = residual;
        c_carrier = carrier;
      }
  end

(* ------------------------------------------------------------------ *)
(* Clause generation *)

(* Unfold a [cons(m1, cons(m2, ... base))] chain into its elements. *)
let rec chain_elems ~cons t =
  match Term.view t with
  | Term.App (o, [ m; rest ]) when Signature.op_equal o cons ->
    m :: chain_elems ~cons rest
  | _ -> []

let transition_clauses view =
  List.concat_map
    (fun (oe : Flow.obs_eq) ->
      let r = oe.oe_rule in
      let state = Term.var oe.oe_state.Term.v_name oe.oe_state.Term.v_sort in
      let frame = Flow.frame oe in
      let is_net = Signature.op_equal oe.oe_obs view.v_net in
      let is_store =
        List.exists (Signature.op_equal oe.oe_obs) view.v_stored
      in
      if not (is_net || is_store) then []
      else
        List.concat_map
          (fun (conds, leaf) ->
            if Term.equal leaf frame then []
            else if read_of ~observers:view.v_observers ~state leaf <> None
            then []
            else begin
              let conds =
                match r.Rewrite.cond with Some c -> conds @ [ c ] | None -> conds
              in
              let heads =
                if is_net then
                  List.map (fun m -> ("net", m)) (chain_elems ~cons:view.v_cons leaf)
                else begin
                  (* store observers: element-wise for chain-sorted stores
                     (freshness sets), whole-value otherwise (sessions) *)
                  let pred = "stored:" ^ oe.oe_obs.Signature.name in
                  match chain_ctors view.v_spec oe.oe_obs.Signature.sort with
                  | Some (_, cons) when chain_elems ~cons leaf <> [] ->
                    List.map (fun e -> (pred, e)) (chain_elems ~cons leaf)
                  | _ -> [ (pred, leaf) ]
                end
              in
              List.concat_map
                (fun (i, head) ->
                  let ctx = cc_make view ~state () in
                  compile ctx conds;
                  let label =
                    if List.length heads > 1 then
                      Printf.sprintf "%s#%d" r.Rewrite.label i
                    else r.Rewrite.label
                  in
                  Option.to_list
                    (finish ctx ~label ~head ~carrier:(Some r.Rewrite.lhs)))
                (List.mapi (fun i h -> (i + 1, h)) heads)
            end)
          (leaves_of r.Rewrite.rhs))
    view.v_obs_eqs

let gleaning_clauses view =
  List.concat_map
    (fun ((g : Signature.op), (rules : coll_rule list)) ->
      let pred = "glean:" ^ g.Signature.name in
      List.concat_map
        (fun cr ->
          let r = cr.cr_rule in
          match Term.view cr.cr_container with
          | Term.App (_, []) ->
            (* base case: knowledge the intruder starts with *)
            List.concat_map
              (fun (i, d) ->
                let ctx = cc_make view () in
                compile ctx [ d ];
                let label = Printf.sprintf "%s/base%d" r.Rewrite.label i in
                Option.to_list
                  (finish ctx ~label ~head:(pred, cr.cr_elem) ~carrier:None))
              (List.mapi (fun i d -> (i + 1, d)) (disjuncts r.Rewrite.rhs))
          | Term.App (_, [ hd; tail ]) ->
            let tail_vars = Term.vars tail in
            let recursive d =
              List.exists (fun v -> List.mem v tail_vars) (Term.vars d)
            in
            List.concat_map
              (fun (i, d) ->
                if recursive d then []
                else begin
                  let ctx = cc_make view ~tail () in
                  ctx.cc_premises <- [ ("net", hd) ];
                  compile ctx [ d ];
                  let label = Printf.sprintf "%s/%d" r.Rewrite.label i in
                  Option.to_list
                    (finish ctx ~label ~head:(pred, cr.cr_elem) ~carrier:None)
                end)
              (List.mapi (fun i d -> (i + 1, d)) (disjuncts r.Rewrite.rhs))
          | _ -> [])
        rules)
    view.v_gleaners

let translate view = transition_clauses view @ gleaning_clauses view

(* ------------------------------------------------------------------ *)
(* Queries *)

let intruder_of view =
  List.find_opt
    (fun (o : Signature.op) ->
      String.equal o.Signature.name "intruder" && o.Signature.arity = [])
    (Spec.all_ops view.v_spec)

(* A gleaner deserves a default secrecy query when its element sort has a
   single constructor combining principals with an unforgeable sort —
   one the intruder can never synthesize, i.e. a secret (the TLS
   pre-master secret [pms : Prin Prin Secret]).  A sort is unforgeable
   when it is not the principal sort and none of its constructors takes
   arguments: named constants (concrete scenario nonces, for instance)
   don't let the intruder cover a fresh honest value, but a structured
   constructor would. *)
let default_queries view =
  match intruder_of view with
  | None -> []
  | Some intr ->
    let psort = intr.Signature.sort in
    List.filter_map
      (fun ((g : Signature.op), _) ->
        match g.Signature.arity with
        | [ esort; _ ] -> (
          match ctors_of view.v_spec esort with
          | [ c ] ->
            let vars =
              List.mapi
                (fun i s -> Term.var (Printf.sprintf "Q%d" (i + 1)) s)
                c.Signature.arity
            in
            let honest =
              List.filter_map
                (fun t ->
                  match Term.view t with
                  | Term.Var v when Sort.equal v.Term.v_sort psort -> Some v
                  | _ -> None)
                vars
            in
            let has_secret =
              List.exists
                (fun s ->
                  (not (Sort.equal s psort))
                  && List.for_all
                       (fun (o : Signature.op) -> o.Signature.arity = [])
                       (ctors_of view.v_spec s))
                c.Signature.arity
            in
            if honest <> [] && has_secret then
              Some
                {
                  q_name = g.Signature.name;
                  q_pred = "glean:" ^ g.Signature.name;
                  q_pattern = Term.app_unchecked c vars;
                  q_honest = honest;
                }
            else None
          | _ -> None)
        | _ -> None)
      view.v_gleaners

let find_leak view outcome q =
  let intr = intruder_of view in
  let intruder_term =
    match intr with Some o -> Some (Term.const o) | None -> None
  in
  let candidates = Horn.facts_of outcome q.q_pred in
  (* prefer replayable (uncut) facts *)
  let candidates =
    List.filter (fun (f : Horn.fact) -> not f.Horn.f_cut) candidates
    @ List.filter (fun (f : Horn.fact) -> f.Horn.f_cut) candidates
  in
  List.find_map
    (fun (f : Horn.fact) ->
      let arg =
        Horn.map_vars
          (fun v -> Term.var (v.Term.v_name ^ "!f") v.Term.v_sort)
          f.Horn.f_arg
      in
      match Matching.unify arg q.q_pattern with
      | None -> None
      | Some s ->
        let honest_ok =
          List.for_all
            (fun v ->
              match (Subst.find s v, intruder_term) with
              | Some t, Some intr -> not (Term.equal t intr)
              | _ -> true)
            q.q_honest
        in
        if honest_ok then
          Some { l_query = q; l_fact = f; l_secret = Subst.apply s q.q_pattern }
        else None)
    candidates

(* ------------------------------------------------------------------ *)
(* Analysis entry point *)

let c_clauses = Telemetry.Probe.counter ~mode:`Max "secrecy.horn_clauses"
let c_facts = Telemetry.Probe.counter ~mode:`Max "secrecy.facts"
let c_rounds = Telemetry.Probe.counter "secrecy.saturation_rounds"
let c_resolutions = Telemetry.Probe.counter "secrecy.resolutions"

let analyze ?(opts = default_options) spec =
  Telemetry.Probe.with_span ~always:true ~cat:"secrecy" "secrecy.analyze"
  @@ fun () ->
  match recognize ~network:opts.network spec with
  | Error msg ->
    {
      r_verdict = Not_applicable msg;
      r_clauses = 0;
      r_facts = 0;
      r_rounds = 0;
      r_resolutions = 0;
      r_queries = [];
    }
  | Ok view ->
    let clauses = translate view in
    let queries =
      if opts.queries <> [] then opts.queries else default_queries view
    in
    let normalize t = safe_reduce spec t in
    let constructors srt = ctors_of spec srt in
    let outcome =
      Telemetry.Probe.with_span ~always:true ~cat:"secrecy" "secrecy.saturate"
      @@ fun () ->
      Horn.saturate ~depth:opts.depth ~max_facts:opts.max_facts
        ~expansion:opts.expansion ~normalize ~constructors clauses
    in
    Telemetry.Probe.record_max c_clauses (List.length clauses);
    Telemetry.Probe.record_max c_facts outcome.Horn.stats.Horn.facts_total;
    Telemetry.Probe.add c_rounds outcome.Horn.stats.Horn.rounds;
    Telemetry.Probe.add c_resolutions outcome.Horn.stats.Horn.resolutions;
    let verdict =
      if queries = [] then
        Not_applicable "no secrecy query (none given, none derivable)"
      else
        match List.find_map (find_leak view outcome) queries with
        | Some l -> Leak l
        | None -> if outcome.Horn.saturated then Secure else Inconclusive
    in
    {
      r_verdict = verdict;
      r_clauses = List.length clauses;
      r_facts = outcome.Horn.stats.Horn.facts_total;
      r_rounds = outcome.Horn.stats.Horn.rounds;
      r_resolutions = outcome.Horn.stats.Horn.resolutions;
      r_queries = queries;
    }

let verdict_name r =
  match r.r_verdict with
  | Secure -> "secure"
  | Leak _ -> "leaks"
  | Inconclusive -> "inconclusive"
  | Not_applicable _ -> "n/a"

let clauses ?(network = default_options.network) spec =
  Result.map translate (recognize ~network spec)

(* ------------------------------------------------------------------ *)
(* Lint checker *)

type check = { result : result; diagnostics : Diagnostic.t list }

let derivation_labels (f : Horn.fact) =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let rec go (f : Horn.fact) =
    List.iter (fun (g, _) -> go g) f.Horn.f_parents;
    if not (Hashtbl.mem seen f.Horn.f_clause.Horn.c_label) then begin
      Hashtbl.add seen f.Horn.f_clause.Horn.c_label ();
      out := f.Horn.f_clause.Horn.c_label :: !out
    end
  in
  go f;
  List.rev !out

let check spec =
  let r = analyze spec in
  let name = Spec.name spec in
  let diagnostics =
    match r.r_verdict with
    | Leak l ->
      let chain = String.concat " -> " (derivation_labels l.l_fact) in
      (* clause labels carry [/i] / [#i] disjunct suffixes on top of the
         underlying rule label *)
      let rule_label l =
        match String.index_opt l '/' with
        | Some i -> String.sub l 0 i
        | None -> (
          match String.index_opt l '#' with
          | Some i -> String.sub l 0 i
          | None -> l)
      in
      let pos =
        Spec.pos_of spec
          ("eq:" ^ rule_label l.l_fact.Horn.f_clause.Horn.c_label)
      in
      [
        Diagnostic.make ?pos ~severity:Diagnostic.Error ~checker:"secrecy"
          ~code:"secret-leaks" ~spec:name
          (Printf.sprintf
             "secret %s is derivable by the intruder (query %s; derivation: %s)%s"
             (Term.to_string l.l_secret) l.l_query.q_name chain
             (if l.l_fact.Horn.f_cut then
                " — abstract derivation (depth cut), may not replay"
              else ""));
      ]
    | Inconclusive ->
      [
        Diagnostic.make ~severity:Diagnostic.Warning ~checker:"secrecy"
          ~code:"saturation-budget" ~spec:name
          (Printf.sprintf
             "saturation stopped at %d facts before reaching a fixpoint — verdict inconclusive"
             r.r_facts);
      ]
    | Secure | Not_applicable _ -> []
  in
  { result = r; diagnostics }

(* ------------------------------------------------------------------ *)
(* Witness s-expressions *)

module Sexp = Certify.Sexp

let rec term_sexp t =
  match Term.view t with
  | Term.Var v ->
    Sexp.List [ Sexp.Atom "?"; Sexp.Atom v.Term.v_name; Sexp.Atom v.Term.v_sort.Sort.name ]
  | Term.App (o, []) -> Sexp.Atom o.Signature.name
  | Term.App (o, args) ->
    Sexp.List (Sexp.Atom o.Signature.name :: List.map term_sexp args)

let rec step_sexp (f : Horn.fact) =
  Sexp.List
    ([
       Sexp.Atom "step";
       Sexp.List [ Sexp.Atom "pred"; Sexp.Atom f.Horn.f_pred ];
       Sexp.List [ Sexp.Atom "fact"; term_sexp f.Horn.f_arg ];
       Sexp.List [ Sexp.Atom "rule"; Sexp.Atom f.Horn.f_clause.Horn.c_label ];
     ]
    @ (if f.Horn.f_cut then [ Sexp.List [ Sexp.Atom "cut"; Sexp.Atom "true" ] ]
       else [])
    @ List.map
        (fun (g, inst) ->
          Sexp.List [ Sexp.Atom "via"; term_sexp inst; step_sexp g ])
        f.Horn.f_parents)

let witness_sexp ~spec leak =
  Sexp.List
    [
      Sexp.Atom "secrecy-witness";
      Sexp.List [ Sexp.Atom "spec"; Sexp.Atom spec ];
      Sexp.List [ Sexp.Atom "query"; Sexp.Atom leak.l_query.q_name ];
      Sexp.List [ Sexp.Atom "secret"; term_sexp leak.l_secret ];
      step_sexp leak.l_fact;
    ]

(* ------------------------------------------------------------------ *)
(* Concrete replay *)

type replay = {
  rp_ok : bool;
  rp_checks : int;
  rp_cert_ok : bool;
  rp_obligations : int;
  rp_error : string option;
}

exception Replay_failed of string

let replay spec leak =
  match recognize ~network:default_options.network spec with
  | Error msg ->
    {
      rp_ok = false;
      rp_checks = 0;
      rp_cert_ok = false;
      rp_obligations = 0;
      rp_error = Some msg;
    }
  | Ok view -> (
    let branch = Spec.branch spec "secrecy-replay" in
    let st0 =
      Term.const (Spec.declare_op branch "%st0" [] view.v_hidden ~attrs:[])
    in
    let fresh_consts = Hashtbl.create 8 in
    let fresh_const prefix srt =
      let key = prefix ^ "/" ^ srt.Sort.name in
      match Hashtbl.find_opt fresh_consts key with
      | Some t -> t
      | None ->
        let t =
          Term.const
            (Spec.declare_op branch
               (Printf.sprintf "%%%s-%s" prefix
                  (String.lowercase_ascii srt.Sort.name))
               [] srt ~attrs:[])
        in
        Hashtbl.add fresh_consts key t;
        t
    in
    (* smallest ground constructor term of a sort, else a fresh witness
       constant declared in the replay branch *)
    let inhab_memo = Hashtbl.create 8 in
    let inhabit srt =
      if srt.Sort.hidden then st0
      else
        match Hashtbl.find_opt inhab_memo srt.Sort.name with
        | Some t -> t
        | None ->
          let rec build fuel srt =
            if fuel = 0 then None
            else
              List.find_map
                (fun (c : Signature.op) ->
                  let args =
                    List.map (fun s -> build (fuel - 1) s) c.Signature.arity
                  in
                  if List.for_all Option.is_some args then
                    Some
                      (Term.app_unchecked c
                         (List.map Option.get args))
                  else None)
                (List.sort
                   (fun (a : Signature.op) (b : Signature.op) ->
                     Int.compare
                       (List.length a.Signature.arity)
                       (List.length b.Signature.arity))
                   (ctors_of spec srt))
          in
          let t =
            match build 4 srt with Some t -> t | None -> fresh_const "w" srt
          in
          Hashtbl.add inhab_memo srt.Sort.name t;
          t
    in
    let honest_vars = Hashtbl.create 4 in
    let ground ?(honest = false) t =
      Horn.map_vars
        (fun v ->
          if v.Term.v_sort.Sort.hidden then st0
          else if honest || Hashtbl.mem honest_vars (v.Term.v_name, v.Term.v_sort.Sort.name)
          then fresh_const ("h-" ^ v.Term.v_name) v.Term.v_sort
          else inhabit v.Term.v_sort)
        t
    in
    (* the root instance: the fact under the leak unifier, honest
       variables pinned to fresh (non-intruder) constants *)
    let renamed_arg =
      Horn.map_vars
        (fun v -> Term.var (v.Term.v_name ^ "!f") v.Term.v_sort)
        leak.l_fact.Horn.f_arg
    in
    let mu =
      match Matching.unify renamed_arg leak.l_query.q_pattern with
      | Some s -> s
      | None -> Subst.empty
    in
    List.iter
      (fun (h : Term.var) ->
        let img =
          match Subst.find mu h with
          | Some t -> t
          | None -> Term.var h.Term.v_name h.Term.v_sort
        in
        List.iter
          (fun (v : Term.var) ->
            Hashtbl.replace honest_vars (v.Term.v_name, v.Term.v_sort.Sort.name) ())
          (Term.vars img))
      leak.l_query.q_honest;
    let root_instance =
      ground
        (Horn.map_vars
           (fun v ->
             let v' = Term.var (v.Term.v_name ^ "!f") v.Term.v_sort in
             match Term.view v' with
             | Term.Var vv -> (
               match Subst.find mu vv with Some t -> t | None -> v')
             | _ -> v')
           leak.l_fact.Horn.f_arg)
    in
    let checks = ref 0 in
    let visited = Hashtbl.create 16 in
    let find_member_for srt =
      List.find_opt
        (fun (m : Signature.op) ->
          match m.Signature.arity with
          | [ e; _ ] -> Sort.equal e srt
          | _ -> false)
        view.v_members
    in
    let glean_op name =
      List.find_opt
        (fun ((g : Signature.op), _) -> String.equal g.Signature.name name)
        view.v_gleaners
      |> Option.map fst
    in
    let net_of elems =
      List.fold_right
        (fun m acc -> Term.app_unchecked view.v_cons [ m; acc ])
        elems (Term.const view.v_nil)
    in
    (* default assumptions: every observer of the pre-state reads its
       empty/initial value unless a stored premise pins it *)
    let base_assumption (o : Signature.op) =
      match o.Signature.arity with
      | _ :: params ->
        let lhs =
          Term.app_unchecked o
            (st0
            :: List.mapi
                 (fun i s -> Term.var (Printf.sprintf "%%P%d" (i + 1)) s)
                 params)
        in
        let rhs =
          match chain_ctors spec o.Signature.sort with
          | Some (nil, _) -> Some (Term.const nil)
          | None -> (
            match
              List.find_opt
                (fun (c : Signature.op) -> c.Signature.arity = [])
                (ctors_of spec o.Signature.sort)
            with
            | Some c -> Some (Term.const c)
            | None -> None)
        in
        Option.map (fun r -> (lhs, r)) rhs
      | [] -> None
    in
    let rec play (f : Horn.fact) instance =
      let key = (f.Horn.f_id, Term.id instance) in
      if not (Hashtbl.mem visited key) then begin
        Hashtbl.add visited key ();
        if f.Horn.f_cut then
          raise (Replay_failed "derivation crosses the depth cut");
        let sigma =
          match Matching.match_ f.Horn.f_arg instance with
          | Some s -> s
          | None ->
            raise
              (Replay_failed
                 (Printf.sprintf "fact %s does not cover required instance %s"
                    (Term.to_string f.Horn.f_arg)
                    (Term.to_string instance)))
        in
        let inst_of pat = ground (Subst.apply sigma pat) in
        let children =
          List.map (fun (g, pat) -> (g, inst_of pat)) f.Horn.f_parents
        in
        List.iter (fun (g, inst) -> play g inst) children;
        let net_children =
          List.filter_map
            (fun ((g : Horn.fact), inst) ->
              if String.equal g.Horn.f_pred "net" then Some inst else None)
            children
        in
        let stored_children =
          List.filter_map
            (fun ((g : Horn.fact), inst) ->
              match String.index_opt g.Horn.f_pred ':' with
              | Some i when String.length g.Horn.f_pred > i
                            && String.equal (String.sub g.Horn.f_pred 0 i) "stored"
                ->
                Some
                  ( String.sub g.Horn.f_pred (i + 1)
                      (String.length g.Horn.f_pred - i - 1),
                    inst )
              | _ -> None)
            children
        in
        incr checks;
        let is_glean =
          String.length f.Horn.f_pred > 6
          && String.equal (String.sub f.Horn.f_pred 0 6) "glean:"
        in
        if not is_glean then begin
          match f.Horn.f_carrier with
          | Some carrier ->
            (* transition step: re-fire the observer equation *)
            let carrier_inst = inst_of carrier in
            let assumptions =
              List.filter_map
                (fun (o : Signature.op) ->
                  if Signature.op_equal o view.v_net then
                    match o.Signature.arity with
                    | [ _ ] ->
                      Some
                        (Term.app_unchecked o [ st0 ], net_of net_children)
                    | _ -> None
                  else
                    match
                      List.find_opt
                        (fun (n, _) -> String.equal n o.Signature.name)
                        stored_children
                    with
                    | Some (_, inst) -> (
                      match o.Signature.arity with
                      | _ :: params ->
                        Some
                          ( Term.app_unchecked o
                              (st0
                              :: List.mapi
                                   (fun i s ->
                                     Term.var
                                       (Printf.sprintf "%%P%d" (i + 1))
                                       s)
                                   params),
                            inst )
                      | [] -> None)
                    | None -> base_assumption o)
                view.v_observers
            in
            let reduced = Spec.reduce_in branch ~assumptions carrier_inst in
            let ok =
              if String.equal f.Horn.f_pred "net" then
                (* the emitted message must be on the post-state network *)
                match find_member_for (Term.sort instance) with
                | Some m ->
                  Term.equal
                    (Spec.reduce_in branch ~assumptions
                       (Term.app_unchecked m [ instance; carrier_inst ]))
                    Term.tt
                | None ->
                  List.exists (Term.equal instance)
                    (chain_elems ~cons:view.v_cons reduced)
                  || Term.equal reduced instance
              else
                (* stored value: whole cell or chain element *)
                Term.equal reduced instance
                || List.exists (Term.equal instance)
                     (match chain_ctors spec (Term.sort reduced) with
                     | Some (_, cons) -> chain_elems ~cons reduced
                     | None -> [])
            in
            if not ok then
              raise
                (Replay_failed
                   (Printf.sprintf
                      "step %s: %s did not produce %s (got %s)"
                      f.Horn.f_clause.Horn.c_label
                      (Term.to_string carrier_inst)
                      (Term.to_string instance)
                      (Term.to_string reduced)))
          | None ->
            raise
              (Replay_failed
                 (Printf.sprintf "step %s: no carrier to replay"
                    f.Horn.f_clause.Horn.c_label))
        end
        else begin
          (* gleaning step: the collector must accept the instance over
             the materialized network *)
          match glean_op (String.sub f.Horn.f_pred 6
                            (String.length f.Horn.f_pred - 6))
          with
          | Some g ->
            let n = net_of net_children in
            let r =
              Spec.reduce branch (Term.app_unchecked g [ instance; n ])
            in
            if not (Term.equal r Term.tt) then
              raise
                (Replay_failed
                   (Printf.sprintf
                      "gleaning %s(%s, %s) reduced to %s, not true"
                      g.Signature.name (Term.to_string instance)
                      (Term.to_string n) (Term.to_string r)))
          | None ->
            raise
              (Replay_failed
                 ("unknown gleaning predicate " ^ f.Horn.f_pred))
        end
      end
    in
    let tr = Rewrite.tracer () in
    let outcome =
      Rewrite.with_tracer tr @@ fun () ->
      match play leak.l_fact root_instance with
      | () -> Ok ()
      | exception Replay_failed msg -> Error msg
      | exception Rewrite.Limit_exceeded _ -> Error "rewrite limit exceeded"
    in
    let b = Certgen.create () in
    Certgen.add_obligations b (Rewrite.obligations tr);
    let cert_res = Certgen.check (Certgen.cert b) in
    let cert_ok = cert_res.Certgen.errors = [] in
    match outcome with
    | Ok () ->
      {
        rp_ok = cert_ok;
        rp_checks = !checks;
        rp_cert_ok = cert_ok;
        rp_obligations = cert_res.Certgen.obligations;
        rp_error = None;
      }
    | Error msg ->
      {
        rp_ok = false;
        rp_checks = !checks;
        rp_cert_ok = cert_ok;
        rp_obligations = cert_res.Certgen.obligations;
        rp_error = Some msg;
      })
