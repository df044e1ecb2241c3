type var = { v_name : string; v_sort : Sort.t }

(* Hash-consed terms: every structurally distinct term exists exactly once,
   so equality is pointer equality, comparison is id comparison and
   hash/size/depth/groundness/AC-canonicity are precomputed at interning
   time.  The [node] layer is the old structural view; [view] exposes it
   for pattern matching. *)
type t = {
  node : node;
  id : int;  (* unique per structurally-distinct term, process-wide *)
  hash : int;  (* structural hash, stable across processes *)
  term_size : int;
  term_depth : int;
  ground : bool;
  canonical : bool;  (* [Ac.normalize t == t]; see [canonical_of] *)
}

and node =
  | Var of var
  | App of Signature.op * t list

let view t = t.node

(* ------------------------------------------------------------------ *)
(* The intern table.

   Sharded like a striped lock: the shard index comes from the structural
   hash, each shard guards a private hashtable with its own mutex.  Terms
   are built bottom-up, so a node's children are already interned when the
   node itself is — one-level ("shallow") keys with children compared by
   pointer are therefore complete structural keys.  The pattern follows
   the thread-safe [Sort] intern table; sharding keeps the proof pool's
   domains off each other's locks. *)

let combine h x = (h * 0x01000193) lxor (x land max_int)

let node_hash = function
  | Var v ->
    combine (combine 0x811c9dc5 (Hashtbl.hash v.v_name)) (Hashtbl.hash v.v_sort.Sort.name)
  | App (o, args) ->
    List.fold_left
      (fun h a -> combine h a.hash)
      (combine 0x9e3779b9 (Hashtbl.hash o.Signature.name))
      args

(* Operators are interned by full profile, not identity: branched proof
   environments re-declare constants of the same name into private
   signatures, and those must denote one term.  Name alone is too coarse —
   the paper overloads names across sorts (the TLS model has both an
   action [cert] and a message-payload constructor [cert]), and collapsing
   those would smuggle one operator's sort onto the other's term. *)
let op_profile_equal (o1 : Signature.op) (o2 : Signature.op) =
  String.equal o1.Signature.name o2.Signature.name
  && Signature.same_profile o1 o2

let node_equal n1 n2 =
  match n1, n2 with
  | Var v1, Var v2 -> String.equal v1.v_name v2.v_name && Sort.equal v1.v_sort v2.v_sort
  | App (o1, a1), App (o2, a2) ->
    op_profile_equal o1 o2
    &&
    let rec phys_eq l1 l2 =
      match l1, l2 with
      | [], [] -> true
      | x :: l1, y :: l2 -> x == y && phys_eq l1 l2
      | _, _ -> false
    in
    phys_eq a1 a2
  | Var _, App _ | App _, Var _ -> false

(* Weak shards: the intern table must not keep terms alive — a proof
   campaign builds hundreds of millions of transient terms, and a strong
   table would root them all, growing the major heap (and every later GC
   mark phase) without bound.  Entries vanish once the last outside
   reference dies; a parent's node holds its children strongly, so
   children outlive their parents. *)
module WTbl = Weak.Make (struct
  type nonrec t = t

  let equal t1 t2 = node_equal t1.node t2.node
  let hash t = t.hash
end)

type shard = { lock : Mutex.t; tbl : WTbl.t }

let shard_count = 256
let shards = Array.init shard_count (fun _ -> { lock = Mutex.create (); tbl = WTbl.create 512 })
let next_id = Atomic.make 0

let intern_table_len () =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let n = WTbl.count s.tbl in
      Mutex.unlock s.lock;
      acc + n)
    0 shards

let intern_shard_stats () =
  Array.map
    (fun s ->
      Mutex.lock s.lock;
      let n = WTbl.count s.tbl in
      Mutex.unlock s.lock;
      n)
    shards

(* AC argument order: hash-major with a structural tie-break — never the
   id.  Ids are not stable over time (the intern table is weak: a term can
   die and be re-interned with a fresh id), so an id-dependent order would
   make canonical forms depend on allocation history; a sequential and a
   parallel run over the same terms must agree exactly.  The hash resolves
   almost every comparison in O(1); the structural walk only runs on
   collisions.  [compare 0] implies [node_equal], hence the same interned
   record — the order is total and consistent with equality. *)
let rec structural_compare t1 t2 =
  if t1 == t2 then 0
  else
    match t1.node, t2.node with
    | Var _, App _ -> -1
    | App _, Var _ -> 1
    | Var v1, Var v2 ->
      let c = String.compare v1.v_name v2.v_name in
      if c <> 0 then c else String.compare v1.v_sort.Sort.name v2.v_sort.Sort.name
    | App (o1, a1), App (o2, a2) ->
      let c = String.compare o1.Signature.name o2.Signature.name in
      if c <> 0 then c
      else
        let c = String.compare o1.Signature.sort.Sort.name o2.Signature.sort.Sort.name in
        if c <> 0 then c
        else
          let rec args l1 l2 =
            match l1, l2 with
            | [], [] -> 0
            | [], _ :: _ -> -1
            | _ :: _, [] -> 1
            | x :: l1, y :: l2 ->
              let c = structural_compare x y in
              if c <> 0 then c else args l1 l2
          in
          args a1 a2

let ac_compare t1 t2 =
  let c = Int.compare t1.hash t2.hash in
  if c <> 0 then c else structural_compare t1 t2

(* [canonical_of] decides, from the children's flags alone, whether this
   term is its own AC/Comm canonical form — i.e. whether [Ac.normalize]
   would return it unchanged.  For an AC node [o(l, r)] with canonical
   children that holds exactly when the term is a right-comb ([l] is not
   [o]-headed) whose leaves are sorted ([l <=] the first leaf of [r];
   [r]'s own flag covers the rest).  This turns PR 3's already-canonical
   fast path into a single field read. *)
let canonical_of node =
  match node with
  | Var _ -> true
  | App (o, [ l; r ]) when Signature.is_ac o ->
    let o_headed t =
      match t.node with
      | App (o', [ _; _ ]) -> Signature.op_equal o' o
      | App _ | Var _ -> false
    in
    let first_leaf t =
      match t.node with
      | App (o', [ a; _ ]) when Signature.op_equal o' o -> a
      | App _ | Var _ -> t
    in
    l.canonical && r.canonical && (not (o_headed l)) && ac_compare l (first_leaf r) <= 0
  | App (o, [ a; b ]) when Signature.is_comm o ->
    a.canonical && b.canonical && ac_compare a b <= 0
  | App (_, args) -> List.for_all (fun a -> a.canonical) args

(* [merge] returns the interned representative: the candidate is inserted
   when new, dropped in favour of the existing record otherwise.  A dropped
   candidate wastes one id, so ids are sparse but still strictly increasing
   from children to parents. *)
let intern node =
  let h = node_hash node in
  let s = shards.(h land (shard_count - 1)) in
  let cand =
    {
      node;
      id = Atomic.fetch_and_add next_id 1;
      hash = h;
      term_size =
        (match node with
        | Var _ -> 1
        | App (_, args) -> List.fold_left (fun n a -> n + a.term_size) 1 args);
      term_depth =
        (match node with
        | Var _ -> 1
        | App (_, args) -> 1 + List.fold_left (fun n a -> max n a.term_depth) 0 args);
      ground =
        (match node with
        | Var _ -> false
        | App (_, args) -> List.for_all (fun a -> a.ground) args);
      canonical = canonical_of node;
    }
  in
  Mutex.lock s.lock;
  match WTbl.merge s.tbl cand with
  | t ->
    Mutex.unlock s.lock;
    t
  | exception e ->
    Mutex.unlock s.lock;
    raise e

(* ------------------------------------------------------------------ *)
(* Construction *)

let var v_name v_sort = intern (Var { v_name; v_sort })

let sort t =
  match t.node with
  | Var v -> v.v_sort
  | App (o, _) -> o.Signature.sort

(* Trusted constructor: skips the arity/sort checks.  For kernel internals
   (substitution, AC rebuilds, rewriting) that reassemble nodes from
   already-checked pieces. *)
let app_unchecked op args = intern (App (op, args))

let app op args =
  let arity = op.Signature.arity in
  if List.length arity <> List.length args then
    invalid_arg
      (Printf.sprintf "Term.app: %s expects %d arguments, got %d"
         op.Signature.name (List.length arity) (List.length args));
  List.iter2
    (fun s a ->
      if not (Sort.equal s (sort a)) then
        invalid_arg
          (Printf.sprintf "Term.app: %s: argument of sort %s where %s expected"
             op.Signature.name (sort a).Sort.name s.Sort.name))
    arity args;
  app_unchecked op args

let const op = app op []

module B = Signature.Builtin

let tt = const B.tt
let ff = const B.ff
let bool_ b = if b then tt else ff
let not_ t = app B.not_ [ t ]
let and_ t1 t2 = app B.and_ [ t1; t2 ]
let or_ t1 t2 = app B.or_ [ t1; t2 ]
let xor t1 t2 = app B.xor [ t1; t2 ]
let implies t1 t2 = app B.implies [ t1; t2 ]
let iff t1 t2 = app B.iff [ t1; t2 ]

let conj = function [] -> tt | t :: ts -> List.fold_left and_ t ts
let disj = function [] -> ff | t :: ts -> List.fold_left or_ t ts

let eq t1 t2 =
  let s1 = sort t1 and s2 = sort t2 in
  if not (Sort.equal s1 s2) then
    invalid_arg
      (Printf.sprintf "Term.eq: sorts %s and %s differ" s1.Sort.name
         s2.Sort.name);
  app (B.eq s1) [ t1; t2 ]

let ite c t e = app (B.if_ (sort t)) [ c; t; e ]

let var_equal v1 v2 =
  String.equal v1.v_name v2.v_name && Sort.equal v1.v_sort v2.v_sort

(* Maximal sharing makes structural equality pointer equality and the
   structural order an id comparison. *)
let equal t1 t2 = t1 == t2
let compare t1 t2 = Int.compare t1.id t2.id
let hash t = t.hash
let id t = t.id

let vars t =
  let rec go acc t =
    match t.node with
    | Var v -> if List.exists (var_equal v) acc then acc else v :: acc
    | App (_, args) -> List.fold_left go acc args
  in
  List.rev (go [] t)

let is_ground t = t.ground
let size t = t.term_size
let depth t = t.term_depth
let ac_canonical t = t.canonical

let subterms t =
  let rec go acc t =
    let acc = t :: acc in
    match t.node with Var _ -> acc | App (_, args) -> List.fold_left go acc args
  in
  List.rev (go [] t)

let rec occurs ~inside t =
  inside == t
  ||
  match inside.node with
  | Var _ -> false
  | App (_, args) -> List.exists (fun a -> occurs ~inside:a t) args

(* [map_args f args] is [List.map f args], physically [args] when [f]
   returns every element unchanged — the unchanged path allocates nothing. *)
let rec map_args f args =
  match args with
  | [] -> args
  | a :: rest ->
    let a' = f a in
    let rest' = map_args f rest in
    if a' == a && rest' == rest then args else a' :: rest'

let map_children f t =
  match t.node with
  | Var _ -> t
  | App (o, args) ->
    let args' = map_args f args in
    if args' == args then t else app_unchecked o args'

let rec replace ~old ~by t = if t == old then by else map_children (replace ~old ~by) t

let rename map t =
  match map with
  | [] -> t
  | _ ->
    let rec go t =
      match t.node with
      | App (_, []) -> ( match List.assq_opt t map with Some d -> d | None -> t)
      | Var _ | App _ -> map_children go t
    in
    go t

let rec add_to_buffer b t =
  match t.node with
  | Var v ->
    Buffer.add_string b v.v_name;
    Buffer.add_char b ':';
    Buffer.add_string b v.v_sort.Sort.name
  | App (o, []) -> Buffer.add_string b o.Signature.name
  | App (o, a :: args) ->
    Buffer.add_string b o.Signature.name;
    Buffer.add_char b '(';
    add_to_buffer b a;
    List.iter
      (fun a ->
        Buffer.add_string b ", ";
        add_to_buffer b a)
      args;
    Buffer.add_char b ')'

let to_string t =
  match t.node with
  | App (o, []) -> o.Signature.name
  | Var _ | App _ ->
    let b = Buffer.create 64 in
    add_to_buffer b t;
    Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Sets and maps order by [ac_compare], not the raw id order: iteration
   order leaks — model-checker state keys serialize sets, the prover
   case-splits over [Boolring.atoms] — and with a weak intern table ids
   are not stable over time, so an id-ordered set would make those
   consumers depend on allocation history. *)
module Ord = struct
  type nonrec t = t

  let compare = ac_compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
