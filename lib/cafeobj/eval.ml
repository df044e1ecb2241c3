open Kernel

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type scope = {
  spec : Spec.t;
  mutable vars : (string * Sort.t) list;
}

type env = {
  modules : (string, scope) Hashtbl.t;
  mutable last : scope option;
  mutable opened : scope option;
  mutable scratch_counter : int;
  mutable eq_counter : int;
  mutable tracing : bool;
  mutable uncached : bool;
  mutable indexing : bool;
}

let create () =
  {
    modules = Hashtbl.create 16;
    last = None;
    opened = None;
    scratch_counter = 0;
    eq_counter = 0;
    tracing = false;
    uncached = false;
    indexing = true;
  }

let set_tracing env on = env.tracing <- on
let set_uncached env on = env.uncached <- on
let set_indexing env on = env.indexing <- on

let find_module env name =
  Option.map (fun sc -> sc.spec) (Hashtbl.find_opt env.modules name)

type reduction = {
  input : Term.t;
  normal_form : Term.t;
  steps : int;
  trace : Trace.step list option;
}

type output =
  | Defined of string
  | Reduced of reduction
  | Opened of string
  | Closed
  | Shown of string

(* ------------------------------------------------------------------ *)
(* Term elaboration *)

let sort_named name =
  if Sort.mem name then Sort.find name else fail "unknown sort %s" name

let rec elaborate sc (t : Parser.term) : Term.t =
  match t with
  | Parser.TTrue -> Term.tt
  | Parser.TFalse -> Term.ff
  | Parser.TNot t -> Term.not_ (elaborate sc t)
  | Parser.TBin (op, l, r) ->
    let l = elaborate sc l and r = elaborate sc r in
    (match op with
    | "and" -> Term.and_ l r
    | "or" -> Term.or_ l r
    | "xor" -> Term.xor l r
    | "implies" -> Term.implies l r
    | "iff" -> Term.iff l r
    | other -> fail "unknown connective %s" other)
  | Parser.TEq (l, r) ->
    let l = elaborate sc l and r = elaborate sc r in
    (try Term.eq l r with Invalid_argument m -> fail "%s" m)
  | Parser.TIf (c, t, e) ->
    let c = elaborate sc c and t = elaborate sc t and e = elaborate sc e in
    (try Term.ite c t e with Invalid_argument m -> fail "%s" m)
  | Parser.TIdent name -> (
    match List.assoc_opt name sc.vars with
    | Some sort -> Term.var name sort
    | None -> (
      match Spec.find_op sc.spec name with
      | Some op when op.Signature.arity = [] -> Term.const op
      | Some _ -> fail "operator %s expects arguments" name
      | None -> fail "unknown identifier %s" name))
  | Parser.TApp (name, targs) -> (
    match Spec.find_op sc.spec name with
    | None -> fail "unknown operator %s" name
    | Some op ->
      let args = List.map (elaborate sc) targs in
      (try Term.app op args with Invalid_argument m -> fail "%s" m))

(* ------------------------------------------------------------------ *)
(* Declarations *)

let attr_of = function
  | "ctor" -> Signature.Ctor
  | "assoc" -> Signature.Ac
  | "comm" -> Signature.Comm
  | a -> fail "unknown attribute %s" a

(* Declarations are evaluated with their source position: the position is
   recorded in the spec (keys ["sort:..."], ["op:..."], ["eq:<label>"]) so
   later diagnostics — the linter's, or a late [Rewrite.rule] variable
   check — can cite the offending line, and any error raised while
   elaborating the declaration is prefixed with it. *)
let eval_decl env sc ({ Parser.decl = d; dpos } : Parser.ldecl) =
  let record key = Spec.record_pos sc.spec key (dpos.Lexer.line, dpos.Lexer.col) in
  let located f =
    try f () with
    | Error m -> raise (Error (Printf.sprintf "line %d, col %d: %s" dpos.Lexer.line dpos.Lexer.col m))
    | Invalid_argument m ->
      raise (Error (Printf.sprintf "line %d, col %d: %s" dpos.Lexer.line dpos.Lexer.col m))
  in
  located @@ fun () ->
  match d with
  | Parser.DImport _ -> ()  (* imports are resolved at module creation *)
  | Parser.DSorts names ->
    List.iter
      (fun n ->
        record ("sort:" ^ n);
        ignore (Spec.declare_sort sc.spec n))
      names
  | Parser.DHSort name ->
    record ("sort:" ^ name);
    ignore (Spec.declare_hsort sc.spec name)
  | Parser.DOp { op_name; arity; sort; attrs } ->
    record ("op:" ^ op_name);
    let arity = List.map sort_named arity in
    let sort = sort_named sort in
    let attrs = List.map attr_of attrs in
    ignore (Spec.declare_op sc.spec op_name arity sort ~attrs)
  | Parser.DVars (names, sort) ->
    let sort = sort_named sort in
    sc.vars <- sc.vars @ List.map (fun n -> n, sort) names
  | Parser.DEq (lhs, rhs) ->
    env.eq_counter <- env.eq_counter + 1;
    let label = Printf.sprintf "%s-eq-%d" (Spec.name sc.spec) env.eq_counter in
    record ("eq:" ^ label);
    let lhs = elaborate sc lhs and rhs = elaborate sc rhs in
    Spec.add_eq sc.spec ~label lhs rhs
  | Parser.DCeq (lhs, rhs, cond) ->
    env.eq_counter <- env.eq_counter + 1;
    let label = Printf.sprintf "%s-ceq-%d" (Spec.name sc.spec) env.eq_counter in
    record ("eq:" ^ label);
    let lhs = elaborate sc lhs
    and rhs = elaborate sc rhs
    and cond = elaborate sc cond in
    Spec.add_ceq sc.spec ~label lhs rhs ~cond

(* Free-constructor semantics: after elaborating a module, every sort that
   received [ctor] operators gets its recognizers and no-confusion equality
   theory, as in Section 4.2 of the paper. *)
let finalize_ctors sc =
  let ctor_sorts =
    List.filter_map
      (fun (o : Signature.op) ->
        if Signature.is_ctor o then Some o.Signature.sort else None)
      (Spec.own_ops sc.spec)
  in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (s : Sort.t) ->
      if not (Hashtbl.mem seen s.Sort.name) then begin
        Hashtbl.add seen s.Sort.name ();
        Datatype.finalize_sort sc.spec s
      end)
    ctor_sorts

let imports_of env decls =
  List.filter_map
    (fun (ld : Parser.ldecl) ->
      match ld.Parser.decl with
      | Parser.DImport name -> (
        match Hashtbl.find_opt env.modules name with
        | Some sc -> Some sc.spec
        | None -> fail "unknown module %s" name)
      | _ -> None)
    decls

let scope_for_red env in_module =
  match in_module with
  | Some name -> (
    match Hashtbl.find_opt env.modules name with
    | Some sc -> sc
    | None -> fail "unknown module %s" name)
  | None -> (
    match env.opened with
    | Some sc -> sc
    | None -> (
      match env.last with
      | Some sc -> sc
      | None -> fail "no module to reduce in"))

let eval ?(step_limit = Rewrite.default_step_limit) ?(deadline_s = 0.) env
    (phrase : Parser.toplevel) =
  match phrase with
  | Parser.TModule (name, decls) ->
    let spec = Spec.create ~imports:(imports_of env decls) name in
    let sc = { spec; vars = [] } in
    List.iter (eval_decl env sc) decls;
    finalize_ctors sc;
    (* [if_then_else] is available at every sort the module declares. *)
    List.iter (Builtins.add_if_rules spec) (Sort.bool :: Spec.sorts spec);
    Hashtbl.replace env.modules name sc;
    env.last <- Some sc;
    Defined name
  | Parser.TRed (in_module, t) ->
    let sc = scope_for_red env in_module in
    let input = elaborate sc t in
    let sys = Spec.system sc.spec in
    (* [Spec.system] is cached per spec; re-assert the env's flag and this
       call's limits each red so flipping the flag mid-session takes
       effect, and no earlier red's limits stay behind on the system. *)
    Rewrite.set_indexing sys env.indexing;
    Rewrite.set_step_limit sys step_limit;
    Rewrite.set_deadline sys deadline_s;
    let before = Rewrite.steps sys in
    if env.tracing then begin
      let normal_form, deriv = Rewrite.normalize_traced sys input in
      Reduced
        {
          input;
          normal_form;
          steps = Rewrite.steps sys - before;
          trace = Some (Trace.linearize deriv);
        }
    end
    else
      let normal_form =
        if env.uncached then Rewrite.normalize_uncached sys input
        else Rewrite.normalize sys input
      in
      Reduced { input; normal_form; steps = Rewrite.steps sys - before; trace = None }
  | Parser.TOpen name -> (
    match Hashtbl.find_opt env.modules name with
    | None -> fail "unknown module %s" name
    | Some target ->
      env.scratch_counter <- env.scratch_counter + 1;
      let spec =
        Spec.create ~imports:[ target.spec ]
          (Printf.sprintf "%%scratch-%d" env.scratch_counter)
      in
      env.opened <- Some { spec; vars = target.vars };
      Opened name)
  | Parser.TClose ->
    env.opened <- None;
    Closed
  | Parser.TDecl d -> (
    match env.opened with
    | Some sc ->
      eval_decl env sc d;
      Defined (Spec.name sc.spec)
    | None -> fail "declarations outside a module require an open module")
  | Parser.TShow name -> (
    match Hashtbl.find_opt env.modules name with
    | None -> fail "unknown module %s" name
    | Some sc -> Shown (Format.asprintf "%a" Spec.pp sc.spec))

let eval_string env src =
  List.map (fun (phrase, _pos) -> eval env phrase) (Parser.parse_string src)

let reduce_string env src =
  let outputs = eval_string env src in
  match
    List.filter_map (function Reduced r -> Some r | _ -> None) outputs
    |> List.rev
  with
  | r :: _ -> r
  | [] -> fail "no reduction performed"

let pp_output ppf = function
  | Defined name -> Format.fprintf ppf "defined module %s" name
  | Reduced r -> (
    Format.fprintf ppf "@[<v2>reduce %a@," Term.pp r.input;
    (match r.trace with
    | None | Some [] -> ()
    | Some steps -> Format.fprintf ppf "%a@," Trace.pp_steps steps);
    Format.fprintf ppf "result: %a (%d rewrites)@]" Term.pp r.normal_form r.steps)
  | Opened name -> Format.fprintf ppf "opened %s" name
  | Closed -> Format.pp_print_string ppf "closed"
  | Shown text -> Format.pp_print_string ppf text
