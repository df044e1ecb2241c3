open Kernel
module Sexp = Certify.Sexp

type cls = {
  c_sort : Sort.t;
  c_elems : Signature.op list;  (** interchangeable constants, sorted by name *)
}

type result = {
  y_spec : string;
  y_classes : cls list;
  y_pinned : (Signature.op * string) list;
      (** constants that break some rule's invariance, with the label of
          the first breaking rule *)
}

(* The rule set as a hash set of (lhs, rhs, cond) identity triples — terms
   are hash-consed, so membership of a mapped rule is O(1). *)
let rule_set rules =
  let tbl = Hashtbl.create (2 * List.length rules) in
  List.iter
    (fun (r : Rewrite.rule) ->
      let key =
        ( Term.id r.Rewrite.lhs,
          Term.id r.Rewrite.rhs,
          Option.map Term.id r.Rewrite.cond )
      in
      Hashtbl.replace tbl key ())
    rules;
  tbl

(* [invariant rules set c d] — every rule, with [c] and [d] swapped, is
   again a rule (labels ignored: [distinct_constants] emits the symmetric
   axioms under per-pair labels).  Returns the first breaking rule. *)
let breaks rules set c d =
  let c = Term.const c and d = Term.const d in
  let swap = Term.rename [ c, d; d, c ] in
  List.find_opt
    (fun (r : Rewrite.rule) ->
      let lhs = swap r.Rewrite.lhs in
      let rhs = swap r.Rewrite.rhs in
      let cond = Option.map swap r.Rewrite.cond in
      not (Hashtbl.mem set (Term.id lhs, Term.id rhs, Option.map Term.id cond)))
    rules

let constants_by_sort spec =
  List.filter
    (fun (o : Signature.op) ->
      o.Signature.arity = []
      && (not o.Signature.sort.Sort.hidden)
      && (not (Sort.equal o.Signature.sort Sort.bool))
      && not (Signature.Builtin.is_builtin o))
    (Cafeobj.Spec.all_ops spec)
  |> List.fold_left
       (fun acc (o : Signature.op) ->
         let key = o.Signature.sort.Sort.name in
         match List.assoc_opt key acc with
         | Some os -> (key, o :: os) :: List.remove_assoc key acc
         | None -> (key, [ o ]) :: acc)
       []
  |> List.map (fun (s, os) ->
         (s, List.sort (fun (a : Signature.op) b ->
                  String.compare a.Signature.name b.Signature.name)
               os))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let analyze spec =
  let rules = Cafeobj.Spec.all_rules spec in
  let set = rule_set rules in
  let classes = ref [] and pinned = ref [] in
  List.iter
    (fun (_sort_name, consts) ->
      match consts with
      | [] | [ _ ] -> ()
      | (c0 : Signature.op) :: _ ->
        (* union-find over the constants of one sort: c ~ d when every
           rule is invariant under the transposition (c d).  Invariance
           under transpositions generates the full symmetric group on
           each resulting class. *)
        let n = List.length consts in
        let arr = Array.of_list consts in
        let parent = Array.init n (fun i -> i) in
        let rec find i = if parent.(i) = i then i else find parent.(i) in
        let union i j =
          let ri = find i and rj = find j in
          if ri <> rj then parent.(max ri rj) <- min ri rj
        in
        let first_break = Array.make n None in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            match breaks rules set arr.(i) arr.(j) with
            | None -> union i j
            | Some r ->
              let note k =
                if first_break.(k) = None then
                  first_break.(k) <- Some r.Rewrite.label
              in
              note i; note j
          done
        done;
        let groups = Hashtbl.create 8 in
        Array.iteri
          (fun i c ->
            let r = find i in
            Hashtbl.replace groups r
              (c :: (try Hashtbl.find groups r with Not_found -> [])))
          arr;
        let this_sort = c0.Signature.sort in
        Hashtbl.iter
          (fun root members ->
            match members with
            | [ (lone : Signature.op) ] ->
              let why =
                match first_break.(root) with Some l -> l | None -> "singleton"
              in
              pinned := (lone, why) :: !pinned
            | _ ->
              classes :=
                {
                  c_sort = this_sort;
                  c_elems =
                    List.sort
                      (fun (a : Signature.op) b ->
                        String.compare a.Signature.name b.Signature.name)
                      members;
                }
                :: !classes)
          groups)
    (constants_by_sort spec);
  {
    y_spec = Cafeobj.Spec.name spec;
    y_classes =
      List.sort
        (fun a b ->
          compare
            (a.c_sort.Sort.name, List.map (fun (o : Signature.op) -> o.Signature.name) a.c_elems)
            (b.c_sort.Sort.name, List.map (fun (o : Signature.op) -> o.Signature.name) b.c_elems))
        !classes;
    y_pinned =
      List.sort
        (fun ((a : Signature.op), _) (b, _) ->
          String.compare a.Signature.name b.Signature.name)
        !pinned;
  }

(* [orbit_elems r ~candidates]: the subset of candidate constant terms
   that lie together in a single symmetry class — the safe canonization
   pool for a scenario drawing interchangeable values from [candidates]. *)
let orbit_elems r ~candidates =
  let name_of t =
    match Term.view t with Term.App (o, []) -> Some o.Signature.name | _ -> None
  in
  let best =
    List.map
      (fun c ->
        let names = List.map (fun (o : Signature.op) -> o.Signature.name) c.c_elems in
        List.filter
          (fun t -> match name_of t with Some n -> List.mem n names | None -> false)
          candidates)
      r.y_classes
  in
  match List.sort (fun a b -> compare (List.length b) (List.length a)) best with
  | pool :: _ when List.length pool >= 2 -> pool
  | _ -> []

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (fun y -> y != x) l)))
      l

exception Decided of int

(* [compare_emitted emit st k] is [String.compare] of the key [emit]
   prints for [st] (the concatenation of its chunks) against [k], decided
   at the first byte that differs: the rest of the key is never printed. *)
let compare_emitted emit st k =
  let n = String.length k and pos = ref 0 in
  let chunk c =
    let p = !pos and m = String.length c in
    let common = min m (n - p) in
    for i = 0 to common - 1 do
      let a = String.unsafe_get c i and b = String.unsafe_get k (p + i) in
      if a <> b then raise_notrace (Decided (if a < b then -1 else 1))
    done;
    (* [k] is a proper prefix of the image's key *)
    if m > common then raise_notrace (Decided 1);
    pos := p + m
  in
  match emit chunk st with
  | () -> if !pos < n then -1 else 0
  | exception Decided r -> r

(* One-byte chunks (the keys' separators) go in through [Buffer.add_char],
   which is inlined; [Buffer.add_string] blits through a C call. *)
let emitted_key emit st =
  let b = Buffer.create 256 in
  emit
    (fun c ->
      if String.length c = 1 then Buffer.add_char b (String.unsafe_get c 0)
      else Buffer.add_string b c)
    st;
  Buffer.contents b

(* Orbit minimization: the representative is the first image, in the
   order of [permutations pool], with the smallest key — idempotent by
   construction.  Permutations that agree on the pool constants occurring
   in the state give the same image, so each distinct image is remapped
   and compared once, and the identity's image (the state itself) never
   is: neither can beat an earlier candidate under the strict [<].  An
   image is compared as it prints, against the best key so far, and
   stops at its first differing byte; the best key is printed in full
   only when a later image has to be compared against it.

   Terms are renamed through a memo, one table per permutation, that maps
   a term to its image under the whole permutation, not under the map
   restricted to the constants of the state at hand.  For a term [remap]
   touches the two images are equal: [iter_terms] covers that term, so
   every pool constant in it occurs in the state, and there the two maps
   agree.  An image therefore holds for every state the term occurs in,
   and a state's images cost lookups.  The memo belongs to the closure,
   one set of tables per domain that calls it (pool workers canonize
   under [Mc.par_bfs ~reduction]), and is freed with it. *)
let canonizer pool ~iter_terms ~remap ~emit =
  if List.length pool < 2 then fun st -> st
  else
    (* each permutation as the pairs it moves *)
    let perms =
      Array.of_list
        (List.map
           (fun p -> List.filter (fun (c, d) -> c != d) (List.combine pool p))
           (permutations pool))
    in
    let same m1 m2 = List.equal (fun (c, d) (c', d') -> c == c' && d == d') m1 m2 in
    let memos = Atomic.make [] in
    let rec own_memo () =
      let self = (Domain.self () :> int) in
      let seen = Atomic.get memos in
      match List.find_opt (fun (d, _) -> Int.equal d self) seen with
      | Some (_, memo) -> memo
      | None ->
        let memo = Array.map (fun _ -> Term.Tbl.create 64) perms in
        if Atomic.compare_and_set memos seen ((self, memo) :: seen) then memo
        else own_memo ()
    in
    fun st ->
      let memo = own_memo () in
      let occurring = ref [] in
      let rec scan t =
        match Term.view t with
        | Term.App (_, []) ->
          if List.memq t pool && not (List.memq t !occurring) then
            occurring := t :: !occurring
        | Term.App (_, args) -> List.iter scan args
        | Term.Var _ -> ()
      in
      iter_terms scan st;
      (* [best_key] is [None] until an image is compared against [best] *)
      let best = ref st and best_key = ref None and tried = ref [] in
      Array.iteri
        (fun i perm ->
          match List.filter (fun (c, _) -> List.memq c !occurring) perm with
          | [] -> ()
          | map when List.exists (same map) !tried -> ()
          | map ->
            tried := map :: !tried;
            let images = memo.(i) in
            let image t =
              match Term.Tbl.find_opt images t with
              | Some t' -> t'
              | None ->
                let t' = Term.rename perm t in
                Term.Tbl.add images t t';
                t'
            in
            let st' = remap image st in
            let k =
              match !best_key with
              | Some k -> k
              | None ->
                let k = emitted_key emit !best in
                best_key := Some k;
                k
            in
            if compare_emitted emit st' k < 0 then begin
              best := st';
              best_key := None
            end)
        perms;
      !best

(* ------------------------------------------------------------------ *)
(* Certificate                                                         *)
(* ------------------------------------------------------------------ *)

let certificate r =
  Sexp.List
    (Sexp.Atom "symmetry-cert"
     :: Sexp.List [ Sexp.Atom "spec"; Sexp.Atom r.y_spec ]
     :: List.map
          (fun c ->
            Sexp.List
              [
                Sexp.Atom "class";
                Sexp.List [ Sexp.Atom "sort"; Sexp.Atom c.c_sort.Sort.name ];
                Sexp.List
                  (Sexp.Atom "elems"
                   :: List.map
                        (fun (o : Signature.op) -> Sexp.Atom o.Signature.name)
                        c.c_elems);
              ])
          r.y_classes)

exception Reject of string

(* Replay: re-verify, for every claimed class, that each transposition of
   its elements leaves the rule set invariant.  (Transpositions of
   adjacent representatives suffice to generate the class's symmetric
   group, but all pairs are cheap and stricter.) *)
let check spec sexp =
  let rules = Cafeobj.Spec.all_rules spec in
  let set = rule_set rules in
  let consts =
    List.filter
      (fun (o : Signature.op) -> o.Signature.arity = [])
      (Cafeobj.Spec.all_ops spec)
  in
  let classes_seen = ref 0 in
  let check_class crumb parts =
    let fail why = raise (Reject (crumb ^ "/" ^ why)) in
    let sort_name =
      match
        List.find_map
          (function
            | Sexp.List [ Sexp.Atom "sort"; Sexp.Atom s ] -> Some s
            | _ -> None)
          parts
      with
      | Some s -> s | None -> fail "missing-sort"
    in
    let crumb = Printf.sprintf "%s[%s]" crumb sort_name in
    let fail why = raise (Reject (crumb ^ "/" ^ why)) in
    let elems =
      match
        List.find_map
          (function
            | Sexp.List (Sexp.Atom "elems" :: es) ->
              Some
                (List.map
                   (function Sexp.Atom n -> n | _ -> fail "malformed-elem")
                   es)
            | _ -> None)
          parts
      with
      | Some es -> es | None -> fail "missing-elems"
    in
    let resolve n =
      match
        List.find_opt
          (fun (o : Signature.op) ->
            String.equal o.Signature.name n
            && String.equal o.Signature.sort.Sort.name sort_name)
          consts
      with
      | Some o -> o
      | None -> fail ("unknown-constant[" ^ n ^ "]")
    in
    let ops = List.map resolve elems in
    let rec all_pairs = function
      | [] -> ()
      | c :: rest ->
        List.iter
          (fun d ->
            match breaks rules set c d with
            | None -> ()
            | Some r ->
              fail
                (Printf.sprintf "swap[%s,%s]/rule[%s]" c.Signature.name
                   d.Signature.name r.Rewrite.label))
          rest;
        all_pairs rest
    in
    all_pairs ops;
    incr classes_seen
  in
  try
    match sexp with
    | Sexp.List (Sexp.Atom "symmetry-cert" :: rest) ->
      let spec_name =
        match
          List.find_map
            (function
              | Sexp.List [ Sexp.Atom "spec"; Sexp.Atom n ] -> Some n
              | _ -> None)
            rest
        with
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
          | Sexp.List (Sexp.Atom "class" :: parts) -> check_class "classes/class" parts
          | Sexp.List (Sexp.Atom "spec" :: _) -> ()
          | _ -> raise (Reject "malformed-entry"))
        rest;
      Ok !classes_seen
    | _ -> Error "not-a-symmetry-cert"
  with Reject why -> Error why

(* ------------------------------------------------------------------ *)
(* The static basis of a model checker's reduction *)

type basis = {
  b_ample : string list;
  b_indep : Indep.result option;
  b_sym : result;
}

let reduction_basis ~classes spec_of =
  let memo = Hashtbl.create 2 in
  fun k ->
    match Hashtbl.find_opt memo k with
    | Some b -> b
    | None ->
      let classes = classes k and spec = spec_of k in
      let focus = List.concat_map snd classes in
      let indep = Indep.analyze ~focus spec in
      let ample =
        match indep with
        | None -> []
        | Some r ->
          let certified = Indep.certified_ample r focus in
          List.filter_map
            (fun (rule, acts) ->
              if List.for_all (fun a -> List.mem a certified) acts then Some rule
              else None)
            classes
      in
      let b = { b_ample = ample; b_indep = indep; b_sym = analyze spec } in
      Hashtbl.replace memo k b;
      b

let reducer b ~por ~symmetry ~candidates ~iter_terms ~remap ~emit =
  ( (if por then fun rule -> List.mem rule b.b_ample else fun _ -> false),
    if symmetry then
      canonizer (orbit_elems b.b_sym ~candidates) ~iter_terms ~remap ~emit
    else fun st -> st )
