module type ALGEBRA = sig
  type t

  val compare : t -> t -> int
  val analyze : knows:(t -> bool) -> t -> t list
  val components : t -> t list option
end

module Make (A : ALGEBRA) = struct
  module S = Set.Make (A)

  (* A closed set and its guarded items: those whose last analysis asked
     [knows] about an item the set lacked, so a larger set may open them
     further.  Every other item's analysis saw only [true] answers, which
     a larger set keeps, so it is never repeated. *)
  type knowledge = { closed : S.t; guarded : A.t list }

  let empty = { closed = S.empty; guarded = [] }
  let knows k item = S.mem item k.closed

  (* Extend a closed set to the least closed superset holding [items].
     Each round analyzes, against the set as it stood at the round's
     start, only the items new to the set and the guarded ones; it ends
     the closure when it finds nothing new.  With [A.analyze] monotone in
     [knows], this is the fixpoint that re-analyzing every item in every
     round reaches.  Termination: analysis only ever returns (strict)
     sub-items in the intended algebras, and the set grows monotonically. *)
  let learn k items =
    let fresh =
      List.fold_left
        (fun acc i -> if S.mem i k.closed then acc else S.add i acc)
        S.empty items
    in
    let rec round set fresh guarded =
      let missed = ref false in
      let knows item = S.mem item set || (missed := true; false) in
      let found = ref S.empty and still = ref [] in
      let analyze item =
        missed := false;
        List.iter
          (fun sub -> if not (S.mem sub set) then found := S.add sub !found)
          (A.analyze ~knows item);
        if !missed then still := item :: !still
      in
      S.iter analyze fresh;
      List.iter analyze guarded;
      if S.is_empty !found then { closed = set; guarded = !still }
      else round (S.union set !found) !found !still
    in
    if S.is_empty fresh then k
    else round (S.union k.closed fresh) fresh k.guarded

  (* Synthesis against the closed set.  A cycle in [components] is
     treated as non-derivable: [path] holds the items being derived. *)
  let derivable k item =
    let rec go path item =
      S.mem item k.closed
      || (not (List.exists (fun p -> A.compare p item = 0) path))
         &&
         match A.components item with
         | None -> false
         | Some parts -> List.for_all (go (item :: path)) parts
    in
    go [] item

  let items k = S.elements k.closed
  let size k = S.cardinal k.closed
  let compare k1 k2 = S.compare k1.closed k2.closed
end
