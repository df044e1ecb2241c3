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

   Terms are built bottom-up, so a node's children are already interned
   when the node itself is — one-level ("shallow") keys with children
   compared by pointer are therefore complete structural keys.

   The table is not keyed by the structural [hash].  That hash orders AC
   arguments (see [ac_compare]), so it must be a pure function of
   structure, and it folds each child in with an xor that cancels:
   [hash (s (s x))] and [hash x] agree below the sign bit, so every even
   Peano numeral shares one hash and every odd one another.  The key
   folds the children's ids into the node's hash instead, through a
   63-bit splitmix finalizer: [key = mix (... mix (mix h + id1) ... + idn)]
   (Filliâtre and Conchon's type-safe hash-consing keys nodes by their
   children's tags the same way).  Equal nodes have physically equal
   children, hence equal keys; a live entry holds its children, so their
   ids cannot change under it.

   Sharded like a striped lock: each of the 256 shards is an
   open-addressing table guarded by its own mutex, which keeps the proof
   pool's domains off each other's locks.  The shard comes from the key's
   high bits (54-61) and the slot within the shard from its low 32.  Were
   they the same bits, every key a shard receives would agree on them, and
   the shard would fill only the few slots they select. *)

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

(* Splitmix64's finalizer, its multipliers cut to OCaml's 63-bit [int]
   (still odd, so every step is a bijection). *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

(* Non-negative, so that [-1] can mark an empty slot. *)
let node_key h = function
  | Var _ -> mix h land max_int
  | App (_, args) -> List.fold_left (fun k a -> mix (k + a.id)) (mix h) args land max_int

(* Weak shards: the intern table must not keep terms alive — a proof
   campaign builds hundreds of millions of transient terms, and a strong
   table would root them all, growing the major heap (and every later GC
   mark phase) without bound.  Entries vanish once the last outside
   reference dies; a parent's node holds its children strongly, so
   children outlive their parents.

   A shard probes linearly through a weak array of slots beside an array
   of their keys ([-1]: never filled).  A slot whose term died keeps its
   key, and probes walk past it.  Once filled slots, live or dead, pass
   half the capacity, the shard is rebuilt from its live entries at
   three times their count, so it shrinks as well as grows.  The
   rebuild copies with [Weak.check] and [Weak.blit], never
   [Weak.get]: a term returned by [get] is reachable again, and during a
   marking phase that keeps a dying term alive for another major
   cycle. *)
type shard = {
  lock : Mutex.t;
  mutable slots : t Weak.t;
  mutable keys : int array;
  mutable filled : int;  (* slots with a key, live or dead *)
}

(* A shard starts at, and never shrinks below, [shard_min] slots: room
   for the few thousand terms a process interns while it starts up, which
   would otherwise rebuild every shard three times over (each rebuild
   allocating its weak array in the major heap), for 256 KiB in all. *)
let shard_bits = 8
let shard_count = 1 lsl shard_bits
let shard_min = 64

let shards =
  Array.init shard_count (fun _ ->
      {
        lock = Mutex.create ();
        slots = Weak.create shard_min;
        keys = Array.make shard_min (-1);
        filled = 0;
      })

let next_id = Atomic.make 0

(* Every weak array the table keeps comes from a domain that outlives it:
   the main domain, or else one allocator domain.  Under the OCaml 5.1.1
   runtime, weak arrays allocated by a domain that has since terminated
   can be left holding freed keys, and a later [Weak.check] or
   [Weak.blit] on one faults in the runtime's [caml_ephe_clean]
   (EXPERIMENTS.md E24: a stand-alone program faults within seconds when
   its rebuilt arrays come from domains it respawns, and never when they
   come from the main domain or from a domain that lives on).  Pool
   workers, and the domains a test runs a daemon on, terminate; so a
   shard rebuilt on any domain but the main one takes its new array from
   the allocator.  That domain is spawned on the first such rebuild,
   lives as long as the process, and only ever waits for the next
   request. *)
module Alloc = struct
  let lock = Mutex.create ()
  let wake = Condition.create ()
  let request = ref 0 (* the size asked for; 0 while none is pending *)
  let reply : t Weak.t option ref = ref None
  let client = Mutex.create () (* one request in flight *)
  let started = ref false

  let serve () =
    Mutex.lock lock;
    while true do
      if !request = 0 then Condition.wait wake lock
      else begin
        reply := Some (Weak.create !request);
        request := 0;
        Condition.broadcast wake
      end
    done

  let weak n =
    if Domain.is_main_domain () then Weak.create n
    else
      Mutex.protect client @@ fun () ->
      Mutex.protect lock @@ fun () ->
      if not !started then begin
        ignore (Domain.spawn serve);
        started := true
      end;
      request := n;
      Condition.broadcast wake;
      let rec await () =
        match !reply with
        | Some w ->
          reply := None;
          w
        | None ->
          Condition.wait wake lock;
          await ()
      in
      await ()
end

let shard_live s =
  let n = ref 0 in
  for i = 0 to Weak.length s.slots - 1 do
    if Weak.check s.slots i then incr n
  done;
  !n

(* The slot of key [k] in a shard of [cap] slots: its low 32 bits scaled
   to [cap] by a multiply and a shift, so [cap] need not be a power of
   two and a shard can be rebuilt at exactly three times its live count. *)
let slot_of k cap = ((k land 0xffff_ffff) * cap) lsr 32
let next_slot i cap = if i + 1 = cap then 0 else i + 1

let rebuild s =
  let cap = max shard_min (3 * shard_live s) in
  let slots = Alloc.weak cap and keys = Array.make cap (-1) in
  let filled = ref 0 in
  Array.iteri
    (fun i k ->
      if k >= 0 && Weak.check s.slots i then begin
        let j = ref (slot_of k cap) in
        while keys.(!j) >= 0 do
          j := next_slot !j cap
        done;
        keys.(!j) <- k;
        Weak.blit s.slots i slots !j 1;
        incr filled
      end)
    s.keys;
  s.slots <- slots;
  s.keys <- keys;
  s.filled <- !filled

let intern_shard_stats () =
  Array.map (fun s -> Mutex.protect s.lock (fun () -> shard_live s)) shards

let intern_table_len () = Array.fold_left ( + ) 0 (intern_shard_stats ())

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

let fresh node h =
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

(* The interned representative of [node]: the live entry with its key
   and structure if there is one, a fresh record in the first empty slot
   of the probe otherwise.  The record is built, and its id drawn, only
   on a miss, while the shard is locked; ids are therefore still strictly
   increasing from children to parents. *)
let find_or_add s node h k =
  let cap = Array.length s.keys in
  let rec probe i =
    let ki = s.keys.(i) in
    if ki < 0 then begin
      let t = fresh node h in
      s.keys.(i) <- k;
      Weak.set s.slots i (Some t);
      s.filled <- s.filled + 1;
      if 2 * s.filled > cap then rebuild s;
      t
    end
    else if ki = k then
      match Weak.get s.slots i with
      | Some t when node_equal t.node node -> t
      | Some _ | None -> probe (next_slot i cap)
    else probe (next_slot i cap)
  in
  probe (slot_of k cap)

let intern node =
  let h = node_hash node in
  let k = node_key h node in
  let s = shards.(k lsr (62 - shard_bits)) in
  Mutex.lock s.lock;
  match find_or_add s node h k with
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
let id_hash t = mix t.id

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
  let hash = id_hash
end)
