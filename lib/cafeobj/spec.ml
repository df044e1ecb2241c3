open Kernel

type t = {
  name : string;
  imports : t list;
  signature : Signature.t;
  mutable own_sorts : Sort.t list;
  mutable equations : Rewrite.rule list;  (** reverse order *)
  cached_system : Rewrite.system option Atomic.t;
      (** filled once, atomically: branches on every pool domain read the
          base's *)
  positions : (string, int * int) Hashtbl.t;
      (** source positions keyed by ["eq:<label>"], ["op:<name>"],
          ["sort:<name>"] *)
}

(* The builtin BOOL module implicitly imported everywhere: constant folding
   only, so that it composes with arbitrary data-level rule sets without
   blow-up.  The complete Hsiang system (paper, Section 2.1) is available
   separately as [Builtins.hsiang_spec]. *)
let rec bool_spec =
  lazy
    (let m = create_raw ~imports:[] "BOOL" in
     m.own_sorts <- [ Sort.bool ];
     m.equations <- List.rev (Boolring.const_rules ());
     m)

and create_raw ~imports name =
  {
    name;
    imports;
    signature = Signature.create ();
    own_sorts = [];
    equations = [];
    cached_system = Atomic.make None;
    positions = Hashtbl.create 16;
  }

let create ?(bool = true) ?(imports = []) name =
  let imports = if bool then imports @ [ Lazy.force bool_spec ] else imports in
  create_raw ~imports name

(* A branch is a child module importing [base]: it sees every sort,
   operator and rule of the base, while its own declarations (typically the
   fresh constants of one proof case) land in its private signature and its
   [system] — a fork of the base's — carries a private memo table and step
   counter.  This is what makes proof cases independent enough to run on
   separate domains — the base spec is only ever read. *)
let branch base name = create_raw ~imports:[ base ] name

let name m = m.name
let imports m = m.imports

let invalidate m = Atomic.set m.cached_system None

let record_pos m key pos =
  if not (Hashtbl.mem m.positions key) then Hashtbl.add m.positions key pos

let rec pos_of m key =
  match Hashtbl.find_opt m.positions key with
  | Some _ as r -> r
  | None -> List.find_map (fun i -> pos_of i key) m.imports

let declare_sort m sort_name =
  let s = Sort.visible sort_name in
  if not (List.exists (Sort.equal s) m.own_sorts) then
    m.own_sorts <- m.own_sorts @ [ s ];
  s

let declare_hsort m sort_name =
  let s = Sort.hidden sort_name in
  if not (List.exists (Sort.equal s) m.own_sorts) then
    m.own_sorts <- m.own_sorts @ [ s ];
  s

(* Declaring an operator alone cannot change the rewrite relation (rules
   are added separately), so the cached system stays valid — proof
   campaigns declare thousands of fresh constants and must not pay a system
   rebuild for each. *)
let declare_op m op_name arity sort ~attrs =
  Signature.declare m.signature op_name arity sort ~attrs

let builtin_by_name op_name =
  let module B = Signature.Builtin in
  List.find_opt
    (fun (o : Signature.op) -> String.equal o.Signature.name op_name)
    [ B.tt; B.ff; B.not_; B.and_; B.or_; B.xor; B.implies; B.iff ]

let rec find_op m op_name =
  match Signature.find_opt m.signature op_name with
  | Some _ as r -> r
  | None -> (
    match List.find_map (fun i -> find_op i op_name) m.imports with
    | Some _ as r -> r
    | None -> builtin_by_name op_name)

let sorts m = m.own_sorts
let own_ops m = Signature.ops m.signature

(* Deduplicated by name, which is what [Signature.op_equal] compares. *)
let all_ops m =
  let seen = Hashtbl.create 256 in
  let acc = ref [] in
  let rec collect m =
    List.iter
      (fun (o : Signature.op) ->
        if not (Hashtbl.mem seen o.Signature.name) then begin
          Hashtbl.add seen o.Signature.name ();
          acc := o :: !acc
        end)
      (own_ops m);
    List.iter collect m.imports
  in
  collect m;
  List.rev !acc

let add_rule m rule =
  invalidate m;
  m.equations <- rule :: m.equations

let add_eq m ~label lhs rhs = add_rule m (Rewrite.rule ~label lhs rhs)

let add_ceq m ~label lhs rhs ~cond =
  add_rule m (Rewrite.rule ~label ~cond lhs rhs)

let own_rules m = List.rev m.equations

let all_rules m =
  let seen = Hashtbl.create 64 in
  let keep (r : Rewrite.rule) =
    if Hashtbl.mem seen r.Rewrite.label then false
    else begin
      Hashtbl.add seen r.Rewrite.label ();
      true
    end
  in
  let rec collect m =
    List.filter keep (own_rules m) @ List.concat_map collect m.imports
  in
  collect m

(* A module with no equations of its own and a single import — every
   [branch] — has exactly its import's rules, so it forks the import's
   compiled system instead of compiling them again.  Two domains may both
   build a missing system; the first to publish it wins and the other
   adopts the winner's, so every branch forks the same base. *)
let rec system m =
  match Atomic.get m.cached_system with
  | Some sys -> sys
  | None ->
    let sys =
      match m.equations, m.imports with
      | [], [ base ] -> Rewrite.fork (system base)
      | _ -> Rewrite.make (all_rules m)
    in
    if Atomic.compare_and_set m.cached_system None (Some sys) then sys
    else system m

let reduce m t = Rewrite.normalize (system m) t

let reduce_in m ~assumptions t =
  let rules =
    List.mapi
      (fun i (lhs, rhs) ->
        Rewrite.rule ~label:(Printf.sprintf "assumption-%d" i) lhs rhs)
      assumptions
  in
  Rewrite.normalize (Rewrite.extend (system m) rules) t

let pp ppf m =
  Format.fprintf ppf "@[<v2>mod %s {" m.name;
  List.iter
    (fun i -> Format.fprintf ppf "@,pr(%s)" i.name)
    m.imports;
  List.iter (fun s -> Format.fprintf ppf "@,[%a]" Sort.pp s) m.own_sorts;
  List.iter (fun o -> Format.fprintf ppf "@,%a ." Signature.pp_op o) (own_ops m);
  List.iter (fun r -> Format.fprintf ppf "@,%a ." Rewrite.pp_rule r) (own_rules m);
  Format.fprintf ppf "@]@,}"
