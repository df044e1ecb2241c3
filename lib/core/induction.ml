open Kernel

type invariant = {
  inv_name : string;
  inv_params : (string * Sort.t) list;
  inv_body : Term.t -> Term.t list -> Term.t;
}

type hint = {
  hint_action : string;
  hint_instances : Term.t -> inv_args:Term.t list -> act_args:Term.t list -> Term.t list;
}

type case_result = {
  case_name : string;
  outcome : Prover.outcome;
  duration : float;
}

type result = {
  res_invariant : string;
  cases : case_result list;
  proved : bool;
}

type env = {
  spec : Cafeobj.Spec.t;
  env_ots : Ots.t;
  recognizer_suffix : string;
  mutable fresh_counter : int;
  record_ctors : (string, Signature.op option) Hashtbl.t;
      (** each sort's constructor by sort name, [None] when it has
          several; built by [make_env], shared by every branch and never
          written after *)
}

(* Read once, from the base spec: fresh constants are never
   constructors, so no later declaration changes the answer. *)
let ctors_by_sort spec =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (o : Signature.op) ->
      if Signature.is_ctor o then begin
        let sort = o.Signature.sort.Sort.name in
        Hashtbl.replace tbl sort (if Hashtbl.mem tbl sort then None else Some o)
      end)
    (Cafeobj.Spec.all_ops spec);
  tbl

let make_env ?(recognizer_suffix = "?") ~spec ~ots () =
  {
    spec;
    env_ots = ots;
    recognizer_suffix;
    fresh_counter = 0;
    record_ctors = ctors_by_sort spec;
  }

(* A record sort has exactly one constructor, with at least one argument
   (rules out open sorts populated by scenario constants).  An arbitrary
   value of such a sort is, by no-junk, an application of that constructor
   to arbitrary values — so fresh constants of record sorts are expanded
   eagerly: an arbitrary [EncPms] is [epms(pk(p#), pms(a#, b#, s#))].  This
   is what lets the paper's proof passages reason about the components of
   received quantities. *)
let record_ctor env sort =
  match Hashtbl.find_opt env.record_ctors sort.Sort.name with
  | Some (Some c) when c.Signature.arity <> [] -> Some c
  | Some _ | None -> None

let rec fresh_at_depth env depth sort =
  match if depth <= 0 then None else record_ctor env sort with
  | Some c -> Term.app c (List.map (fresh_at_depth env (depth - 1)) c.Signature.arity)
  | None ->
    env.fresh_counter <- env.fresh_counter + 1;
    let name =
      Printf.sprintf "%s#%d"
        (String.lowercase_ascii sort.Sort.name)
        env.fresh_counter
    in
    Term.const (Cafeobj.Spec.declare_op env.spec name [] sort ~attrs:[])

let fresh_const env sort = fresh_at_depth env 8 sort

let ctor_of_recognizer env (op : Signature.op) =
  let name = op.Signature.name in
  let suffix = env.recognizer_suffix in
  let sl = String.length suffix and nl = String.length name in
  if nl > sl && String.equal (String.sub name (nl - sl) sl) suffix then
    match Cafeobj.Spec.find_op env.spec (String.sub name 0 (nl - sl)) with
    | Some ctor when Signature.is_ctor ctor -> Some ctor
    | Some _ | None -> None
  else None

let prover_ctx env =
  {
    Prover.system = Cafeobj.Spec.system env.spec;
    fresh = fresh_const env;
    ctor_of_recognizer = ctor_of_recognizer env;
  }

(* Monotonic, like every duration in the telemetry layer: wall-clock time
   can step backwards under NTP and would mis-report a case's duration. *)
let timed f =
  let t0 = Telemetry.Probe.now_ns () in
  let r = f () in
  r, float_of_int (Telemetry.Probe.now_ns () - t0) /. 1e9

let base_case ?config env inv =
  let ctx = prover_ctx env in
  let args = List.map (fun (_, s) -> fresh_const env s) inv.inv_params in
  let goal = inv.inv_body (Ots.init_state env.env_ots) args in
  let outcome, duration =
    timed (fun () -> Prover.prove ?config ctx ~hyps:[] ~goal)
  in
  { case_name = "init"; outcome; duration }

let prove_case ?config env ~hints inv ~action =
  let ctx = prover_ctx env in
  let act = Ots.action env.env_ots action in
  let s = fresh_const env env.env_ots.Ots.hidden in
  let inv_args = List.map (fun (_, srt) -> fresh_const env srt) inv.inv_params in
  let act_args = List.map (fun (_, srt) -> fresh_const env srt) act.Ots.act_params in
  let s' = Term.app act.Ots.act_op (s :: act_args) in
  let ih = inv.inv_body s inv_args in
  let extra =
    List.concat_map
      (fun h ->
        if String.equal h.hint_action action || String.equal h.hint_action "*"
        then h.hint_instances s ~inv_args ~act_args
        else [])
      hints
  in
  let goal = inv.inv_body s' inv_args in
  let outcome, duration =
    timed (fun () -> Prover.prove ?config ctx ~hyps:(ih :: extra) ~goal)
  in
  { case_name = action; outcome; duration }

(* One proof case = one branch: a child spec whose fresh constants, memo
   table and step counter are private, so cases are independent — they can
   run on separate pool domains, and their results (fresh-constant
   numbering included) do not depend on which cases ran before them.
   The record-constructor table is shared: nothing writes it after
   [make_env]. *)
let branch_env env label =
  { env with spec = Cafeobj.Spec.branch env.spec label; fresh_counter = 0 }

let prove_derived ?config env ~hyps inv =
  Telemetry.Probe.with_span ~always:true ~cat:"case"
    (inv.inv_name ^ "@derived")
  @@ fun () ->
  let env = branch_env env ("derived@" ^ inv.inv_name) in
  let ctx = prover_ctx env in
  let s = fresh_const env env.env_ots.Ots.hidden in
  let args = List.map (fun (_, srt) -> fresh_const env srt) inv.inv_params in
  let goal = inv.inv_body s args in
  let outcome, duration =
    timed (fun () -> Prover.prove ?config ctx ~hyps:(hyps s args) ~goal)
  in
  let case = { case_name = "derived"; outcome; duration } in
  {
    res_invariant = inv.inv_name;
    cases = [ case ];
    proved = (match outcome with Prover.Proved _ -> true | _ -> false);
  }

let prove_invariant ?config ?pool env ~hints inv =
  let case_names =
    None
    :: List.map
         (fun (a : Ots.action) -> Some a.Ots.act_op.Signature.name)
         env.env_ots.Ots.actions
  in
  let run_case case =
    let label =
      Printf.sprintf "%s@%s" inv.inv_name
        (Option.value ~default:"init" case)
    in
    (* One span per proof case, attributed to whichever pool domain the
       work-stealing scheduler ran it on. *)
    Telemetry.Probe.with_span ~always:true ~cat:"case" label @@ fun () ->
    let env' = branch_env env label in
    match case with
    | None -> base_case ?config env' inv
    | Some action -> prove_case ?config env' ~hints inv ~action
  in
  let cases =
    match pool with
    | None -> List.map run_case case_names
    | Some p -> Sched.Pool.parallel_map p run_case case_names
  in
  let proved =
    List.for_all
      (fun c -> match c.outcome with Prover.Proved _ -> true | _ -> false)
      cases
  in
  { res_invariant = inv.inv_name; cases; proved }

let system env = Cafeobj.Spec.system env.spec
let ots env = env.env_ots
