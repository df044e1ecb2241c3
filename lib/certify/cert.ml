(* Certificate AST + S-expression (de)serialization.  See the .mli for the
   documented grammar.  The encoder hash-conses every node (ops, terms,
   rules, rule sets, derivations) into id-indexed tables, so certificates
   are DAG-compact regardless of how much sharing the producer achieved.
   Each physically distinct node is walked once: derivations are memoized
   by their [d_id], terms, rules and rule sets by physical identity, so a
   rule is interned once, not once per step naming it.  Encoding is
   therefore linear in the number of physically distinct nodes.  The
   decoder only ever resolves ids that are already defined (references
   point backwards), which makes cyclic certificates unrepresentable. *)

type flag = Ac | Comm | Tt | Ff | Not | And | Or | Xor | Implies | Iff | If | Eq

type op = {
  op_name : string;
  op_arity : string list;
  op_sort : string;
  op_flags : flag list;
}

type term = V of { v_name : string; v_sort : string } | A of op * term list

type rule = { r_label : string; r_lhs : term; r_rhs : term; r_cond : term option }
type rset = { rs_parent : rset option; rs_rules : rule list }

type deriv = { d_id : int; d_in : term; d_out : term; d_node : dnode }

and dnode =
  | Triv
  | App of { children : deriv list; perm : int list option; step : step option }

and step = {
  s_rule : rule;
  s_sub : (string * string * term) list;
  s_cond : deriv option;
  s_next : deriv;
}

type red = {
  red_name : string;
  red_rset : rset;
  red_in : term;
  red_out : term;
  red_deriv : deriv;
}

type lpo = { lpo_prec : op list; lpo_rules : rule list }

type jtail = Jsyn | Jring | Jsplit of term * jcert * jcert
and jcert = { jc_left : deriv; jc_right : deriv; jc_tail : jtail }

type join = {
  j_label : string;
  j_rset : rset;
  j_peak : term;
  j_left : term;
  j_right : term;
  j_cert : jcert;
}

type t = { reds : red list; lpo : lpo option; joins : join list }

(* Node identities come from one process-wide counter, so two derivations
   built anywhere (any builder, any domain) never share an id. *)
let deriv_ids = Atomic.make 0

let deriv ~d_in ~d_out d_node =
  { d_id = Atomic.fetch_and_add deriv_ids 1; d_in; d_out; d_node }

(* ------------------------------------------------------------------ *)
(* Flags *)

let flag_name = function
  | Ac -> "ac"
  | Comm -> "comm"
  | Tt -> "tt"
  | Ff -> "ff"
  | Not -> "not"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Implies -> "implies"
  | Iff -> "iff"
  | If -> "if"
  | Eq -> "eq"

let flag_of_name = function
  | "ac" -> Some Ac
  | "comm" -> Some Comm
  | "tt" -> Some Tt
  | "ff" -> Some Ff
  | "not" -> Some Not
  | "and" -> Some And
  | "or" -> Some Or
  | "xor" -> Some Xor
  | "implies" -> Some Implies
  | "iff" -> Some Iff
  | "if" -> Some If
  | "eq" -> Some Eq
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Encoding *)

(* Memo tables that cut DAG re-walks.  Terms and derivations share
   subtrees, and a campaign's reds and joins name rule sets whose parent
   chains all end in one flat base set of about a thousand rules; without
   a rule-set memo every red and join re-walks its whole chain, and
   without a rule memo every step re-interns its rule.

   Derivations carry an id, so their memo is keyed by it.  Rules and rule
   sets are keyed by physical identity.  So are terms, but [Hashtbl.hash]
   of a term spends its bounded budget on the head [op] record, which
   every term with that head shares; the term memo hashes operator and
   variable names two levels deep instead. *)
module Itbl = Hashtbl.Make (Int)

module Phys = Hashtbl.Make (struct
  type t = Obj.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let rec shape_hash depth = function
  | V { v_name; _ } -> Hashtbl.hash v_name
  | A (o, args) ->
    let h = Hashtbl.hash o.op_name in
    if depth = 0 then h else mix_shapes (depth - 1) h args

and mix_shapes depth h = function
  | [] -> h
  | a :: rest -> mix_shapes depth ((h * 65599) + shape_hash depth a) rest

module Term_phys = Hashtbl.Make (struct
  type t = term

  let equal = ( == )
  let hash = shape_hash 2
end)

type 'k interner = {
  keys : ('k, int) Hashtbl.t;
  mutable entries : Sexp.t list;  (** reversed *)
  mutable next : int;
}

let interner () = { keys = Hashtbl.create 256; entries = []; next = 0 }

let intern it key mk =
  match Hashtbl.find_opt it.keys key with
  | Some id -> id
  | None ->
    let id = it.next in
    it.next <- id + 1;
    Hashtbl.replace it.keys key id;
    it.entries <- mk id :: it.entries;
    id

let entries it = List.rev it.entries

let atom_int n = Sexp.Atom (string_of_int n)

let to_sexp (cert : t) : Sexp.t =
  let ops = interner () in
  let terms = interner () in
  let rules = interner () in
  let rsets = interner () in
  let derivs = interner () in
  let term_phys : int Term_phys.t = Term_phys.create 4096 in
  let rule_phys : int Phys.t = Phys.create 256 in
  let rset_phys : int Phys.t = Phys.create 256 in
  let deriv_memo : int Itbl.t = Itbl.create 4096 in
  let op_id (o : op) =
    intern ops
      (o.op_name, o.op_arity, o.op_sort, o.op_flags)
      (fun id ->
        Sexp.List
          ([
             Sexp.Atom "op";
             atom_int id;
             Sexp.Atom o.op_name;
             Sexp.List (List.map (fun s -> Sexp.Atom s) o.op_arity);
             Sexp.Atom o.op_sort;
           ]
          @ List.map (fun f -> Sexp.Atom (flag_name f)) o.op_flags))
  in
  let rec term_id (t : term) =
    match Term_phys.find_opt term_phys t with
    | Some id -> id
    | None ->
      let id =
        match t with
        | V { v_name; v_sort } ->
          intern terms
            ("v", v_name, v_sort, [])
            (fun id ->
              Sexp.List
                [
                  Sexp.Atom "t";
                  atom_int id;
                  Sexp.Atom "v";
                  Sexp.Atom v_name;
                  Sexp.Atom v_sort;
                ])
        | A (o, args) ->
          let oid = op_id o in
          let aids = List.map term_id args in
          intern terms
            ("a", string_of_int oid, "", aids)
            (fun id ->
              Sexp.List
                ([ Sexp.Atom "t"; atom_int id; Sexp.Atom "a"; atom_int oid ]
                @ List.map atom_int aids))
      in
      Term_phys.replace term_phys t id;
      id
  in
  let rule_id (r : rule) =
    match Phys.find_opt rule_phys (Obj.repr r) with
    | Some id -> id
    | None ->
      let lid = term_id r.r_lhs and rid = term_id r.r_rhs in
      let cid = Option.map term_id r.r_cond in
      let id =
        intern rules
          (r.r_label, lid, rid, cid)
          (fun id ->
            Sexp.List
              ([
                 Sexp.Atom "rule";
                 atom_int id;
                 Sexp.Atom r.r_label;
                 atom_int lid;
                 atom_int rid;
               ]
              @ match cid with None -> [] | Some c -> [ atom_int c ]))
      in
      Phys.replace rule_phys (Obj.repr r) id;
      id
  in
  let rec rset_id (rs : rset) =
    match Phys.find_opt rset_phys (Obj.repr rs) with
    | Some id -> id
    | None ->
      let pid = match rs.rs_parent with None -> -1 | Some p -> rset_id p in
      let rids = List.map rule_id rs.rs_rules in
      let id =
        intern rsets (pid, rids) (fun id ->
            Sexp.List
              ([ Sexp.Atom "rs"; atom_int id; atom_int pid ] @ List.map atom_int rids))
      in
      Phys.replace rset_phys (Obj.repr rs) id;
      id
  in
  let rec deriv_id (d : deriv) =
    match Itbl.find_opt deriv_memo d.d_id with
    | Some id -> id
    | None ->
      let id =
        match d.d_node with
        | Triv ->
          let tid = term_id d.d_in in
          intern derivs
            [ -1; tid ]
            (fun id ->
              Sexp.List [ Sexp.Atom "d"; atom_int id; Sexp.Atom "triv"; atom_int tid ])
        | App { children; perm; step } ->
          let iid = term_id d.d_in and oid = term_id d.d_out in
          let cids = List.map deriv_id children in
          let perm_part =
            match perm with
            | None -> []
            | Some p -> [ Sexp.List (Sexp.Atom "perm" :: List.map atom_int p) ]
          in
          let step_part, step_key =
            match step with
            | None -> ([], [])
            | Some s ->
              let rid = rule_id s.s_rule in
              let sub =
                List.map
                  (fun (n, srt, t) ->
                    let tid = term_id t in
                    (Sexp.List [ Sexp.Atom n; Sexp.Atom srt; atom_int tid ], tid))
                  s.s_sub
              in
              let cond = Option.map deriv_id s.s_cond in
              let nid = deriv_id s.s_next in
              ( [
                  Sexp.List
                    ([ Sexp.Atom "step"; atom_int rid ]
                    @ [ Sexp.List (Sexp.Atom "sub" :: List.map fst sub) ]
                    @ (match cond with
                      | None -> []
                      | Some c -> [ Sexp.List [ Sexp.Atom "cond"; atom_int c ] ])
                    @ [ atom_int nid ]);
                ],
                (-4 :: rid :: nid :: List.map snd sub)
                @ [ (match cond with None -> -1 | Some c -> c) ] )
          in
          (* all ids are >= 0, so the negative markers make the variable-
             length sections of the key unambiguous *)
          let key =
            (-2 :: iid :: oid :: cids)
            @ (match perm with None -> [ -1 ] | Some p -> -3 :: p)
            @ (match step_key with [] -> [ -5 ] | k -> k)
          in
          intern derivs key (fun id ->
              Sexp.List
                ([
                   Sexp.Atom "d";
                   atom_int id;
                   Sexp.Atom "app";
                   atom_int iid;
                   atom_int oid;
                   Sexp.List (List.map atom_int cids);
                 ]
                @ perm_part @ step_part))
      in
      Itbl.replace deriv_memo d.d_id id;
      id
  in
  let reds =
    List.map
      (fun r ->
        let rsid = rset_id r.red_rset in
        let iid = term_id r.red_in and oid = term_id r.red_out in
        let did = deriv_id r.red_deriv in
        Sexp.List
          [
            Sexp.Atom "red";
            Sexp.Atom r.red_name;
            atom_int rsid;
            atom_int iid;
            atom_int oid;
            atom_int did;
          ])
      cert.reds
  in
  let lpo =
    match cert.lpo with
    | None -> []
    | Some l ->
      let prec = List.map op_id l.lpo_prec in
      let rids = List.map rule_id l.lpo_rules in
      [
        Sexp.List
          [
            Sexp.Atom "lpo";
            Sexp.List (Sexp.Atom "prec" :: List.map atom_int prec);
            Sexp.List (Sexp.Atom "rules" :: List.map atom_int rids);
          ];
      ]
  in
  let rec jcert_sx (jc : jcert) =
    let l = deriv_id jc.jc_left and r = deriv_id jc.jc_right in
    let tail =
      match jc.jc_tail with
      | Jsyn -> Sexp.Atom "syn"
      | Jring -> Sexp.Atom "ring"
      | Jsplit (c, jt, jf) ->
        Sexp.List [ Sexp.Atom "split"; atom_int (term_id c); jcert_sx jt; jcert_sx jf ]
    in
    Sexp.List [ Sexp.Atom "j"; atom_int l; atom_int r; tail ]
  in
  let joins =
    List.map
      (fun j ->
        Sexp.List
          [
            Sexp.Atom "join";
            Sexp.Atom j.j_label;
            atom_int (rset_id j.j_rset);
            atom_int (term_id j.j_peak);
            atom_int (term_id j.j_left);
            atom_int (term_id j.j_right);
            jcert_sx j.j_cert;
          ])
      cert.joins
  in
  Sexp.List
    ([
       Sexp.Atom "eqcert";
       Sexp.List [ Sexp.Atom "version"; atom_int 1 ];
       Sexp.List (Sexp.Atom "ops" :: entries ops);
       Sexp.List (Sexp.Atom "terms" :: entries terms);
       Sexp.List (Sexp.Atom "rules" :: entries rules);
       Sexp.List (Sexp.Atom "rsets" :: entries rsets);
       Sexp.List (Sexp.Atom "derivs" :: entries derivs);
       Sexp.List (Sexp.Atom "reds" :: reds);
     ]
    @ lpo
    @ [ Sexp.List (Sexp.Atom "joins" :: joins) ])

let to_string cert = Sexp.to_string (to_sexp cert)

(* ------------------------------------------------------------------ *)
(* Decoding *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let as_int ctx = function
  | Sexp.Atom a -> (
    match int_of_string_opt a with
    | Some n -> n
    | None -> bad "%s: expected integer, got %S" ctx a)
  | Sexp.List _ -> bad "%s: expected integer, got a list" ctx

let as_atom ctx = function
  | Sexp.Atom a -> a
  | Sexp.List _ -> bad "%s: expected atom, got a list" ctx

(* Growable id-indexed store; references must point at already-defined
   entries, so a certificate cannot contain forward or cyclic references. *)
type 'a store = { what : string; mutable arr : 'a array; mutable len : int }

let store what = { what; arr = [||]; len = 0 }

let store_add st id v =
  if id <> st.len then bad "%s: id %d out of order (expected %d)" st.what id st.len;
  if Array.length st.arr = st.len then begin
    let cap = max 64 (2 * Array.length st.arr) in
    let arr = Array.make cap v in
    Array.blit st.arr 0 arr 0 st.len;
    st.arr <- arr
  end;
  st.arr.(st.len) <- v;
  st.len <- st.len + 1

let store_get st id =
  if id < 0 || id >= st.len then bad "%s: unknown id %d" st.what id;
  st.arr.(id)

let of_sexp (sx : Sexp.t) : (t, string) result =
  try
    let sections =
      match sx with
      | Sexp.List (Sexp.Atom "eqcert" :: rest) -> rest
      | _ -> bad "certificate: expected (eqcert ...)"
    in
    let ops = store "op" in
    let terms = store "term" in
    let rules = store "rule" in
    let rsets = store "rset" in
    let derivs = store "deriv" in
    let reds = ref [] in
    let lpo = ref None in
    let joins = ref [] in
    let dec_op = function
      | Sexp.List
          (Sexp.Atom "op" :: id :: name :: Sexp.List arity :: sort :: flags) ->
        let id = as_int "op id" id in
        let flags =
          List.map
            (fun f ->
              let a = as_atom "op flag" f in
              match flag_of_name a with
              | Some f -> f
              | None -> bad "op %d: unknown flag %S" id a)
            flags
        in
        store_add ops id
          {
            op_name = as_atom "op name" name;
            op_arity = List.map (as_atom "op arity sort") arity;
            op_sort = as_atom "op sort" sort;
            op_flags = flags;
          }
      | _ -> bad "ops: malformed entry"
    in
    let dec_term = function
      | Sexp.List [ Sexp.Atom "t"; id; Sexp.Atom "v"; name; sort ] ->
        let id = as_int "term id" id in
        store_add terms id
          (V { v_name = as_atom "var name" name; v_sort = as_atom "var sort" sort })
      | Sexp.List (Sexp.Atom "t" :: id :: Sexp.Atom "a" :: oid :: args) ->
        let id = as_int "term id" id in
        let o = store_get ops (as_int "term op id" oid) in
        let args = List.map (fun a -> store_get terms (as_int "term arg id" a)) args in
        store_add terms id (A (o, args))
      | _ -> bad "terms: malformed entry"
    in
    let dec_rule = function
      | Sexp.List (Sexp.Atom "rule" :: id :: label :: lhs :: rhs :: rest) ->
        let id = as_int "rule id" id in
        let cond =
          match rest with
          | [] -> None
          | [ c ] -> Some (store_get terms (as_int "rule cond id" c))
          | _ -> bad "rule %d: too many fields" id
        in
        store_add rules id
          {
            r_label = as_atom "rule label" label;
            r_lhs = store_get terms (as_int "rule lhs id" lhs);
            r_rhs = store_get terms (as_int "rule rhs id" rhs);
            r_cond = cond;
          }
      | _ -> bad "rules: malformed entry"
    in
    let dec_rset = function
      | Sexp.List (Sexp.Atom "rs" :: id :: parent :: rids) ->
        let id = as_int "rset id" id in
        let parent =
          match as_int "rset parent" parent with
          | -1 -> None
          | p -> Some (store_get rsets p)
        in
        let rs_rules =
          List.map (fun r -> store_get rules (as_int "rset rule id" r)) rids
        in
        store_add rsets id { rs_parent = parent; rs_rules }
      | _ -> bad "rsets: malformed entry"
    in
    let dec_step = function
      | Sexp.List (Sexp.Atom "step" :: rid :: Sexp.List (Sexp.Atom "sub" :: binds) :: rest) ->
        let s_rule = store_get rules (as_int "step rule id" rid) in
        let s_sub =
          List.map
            (function
              | Sexp.List [ n; s; tid ] ->
                ( as_atom "binding var" n,
                  as_atom "binding sort" s,
                  store_get terms (as_int "binding term id" tid) )
              | _ -> bad "step: malformed binding")
            binds
        in
        let s_cond, rest =
          match rest with
          | Sexp.List [ Sexp.Atom "cond"; did ] :: rest ->
            (Some (store_get derivs (as_int "cond deriv id" did)), rest)
          | _ -> (None, rest)
        in
        let s_next =
          match rest with
          | [ nid ] -> store_get derivs (as_int "step next deriv id" nid)
          | _ -> bad "step: malformed tail"
        in
        { s_rule; s_sub; s_cond; s_next }
      | _ -> bad "step: malformed"
    in
    let dec_deriv = function
      | Sexp.List [ Sexp.Atom "d"; id; Sexp.Atom "triv"; tid ] ->
        let id = as_int "deriv id" id in
        let t = store_get terms (as_int "deriv term id" tid) in
        store_add derivs id (deriv ~d_in:t ~d_out:t Triv)
      | Sexp.List
          (Sexp.Atom "d" :: id :: Sexp.Atom "app" :: iid :: oid :: Sexp.List cids :: rest)
        ->
        let id = as_int "deriv id" id in
        let d_in = store_get terms (as_int "deriv input id" iid) in
        let d_out = store_get terms (as_int "deriv output id" oid) in
        let children =
          List.map (fun c -> store_get derivs (as_int "child deriv id" c)) cids
        in
        let perm, rest =
          match rest with
          | Sexp.List (Sexp.Atom "perm" :: ps) :: rest ->
            (Some (List.map (as_int "perm index") ps), rest)
          | _ -> (None, rest)
        in
        let step =
          match rest with [] -> None | [ s ] -> Some (dec_step s) | _ -> bad "deriv %d: malformed" id
        in
        store_add derivs id (deriv ~d_in ~d_out (App { children; perm; step }))
      | _ -> bad "derivs: malformed entry"
    in
    let dec_red = function
      | Sexp.List [ Sexp.Atom "red"; name; rsid; iid; oid; did ] ->
        reds :=
          {
            red_name = as_atom "red name" name;
            red_rset = store_get rsets (as_int "red rset id" rsid);
            red_in = store_get terms (as_int "red input id" iid);
            red_out = store_get terms (as_int "red output id" oid);
            red_deriv = store_get derivs (as_int "red deriv id" did);
          }
          :: !reds
      | _ -> bad "reds: malformed entry"
    in
    let dec_lpo = function
      | [ Sexp.List (Sexp.Atom "prec" :: ps); Sexp.List (Sexp.Atom "rules" :: rs) ] ->
        lpo :=
          Some
            {
              lpo_prec = List.map (fun p -> store_get ops (as_int "prec op id" p)) ps;
              lpo_rules =
                List.map (fun r -> store_get rules (as_int "lpo rule id" r)) rs;
            }
      | _ -> bad "lpo: malformed section"
    in
    let rec dec_jcert = function
      | Sexp.List [ Sexp.Atom "j"; l; r; tail ] ->
        let jc_left = store_get derivs (as_int "join left deriv id" l) in
        let jc_right = store_get derivs (as_int "join right deriv id" r) in
        let jc_tail =
          match tail with
          | Sexp.Atom "syn" -> Jsyn
          | Sexp.Atom "ring" -> Jring
          | Sexp.List [ Sexp.Atom "split"; c; jt; jf ] ->
            Jsplit
              ( store_get terms (as_int "split cond id" c),
                dec_jcert jt,
                dec_jcert jf )
          | _ -> bad "join: malformed tail"
        in
        { jc_left; jc_right; jc_tail }
      | _ -> bad "join: malformed certificate"
    in
    let dec_join = function
      | Sexp.List [ Sexp.Atom "join"; label; rsid; peak; left; right; jc ] ->
        joins :=
          {
            j_label = as_atom "join label" label;
            j_rset = store_get rsets (as_int "join rset id" rsid);
            j_peak = store_get terms (as_int "join peak id" peak);
            j_left = store_get terms (as_int "join left id" left);
            j_right = store_get terms (as_int "join right id" right);
            j_cert = dec_jcert jc;
          }
          :: !joins
      | _ -> bad "joins: malformed entry"
    in
    List.iter
      (function
        | Sexp.List [ Sexp.Atom "version"; v ] ->
          let v = as_int "version" v in
          if v <> 1 then bad "unsupported certificate version %d" v
        | Sexp.List (Sexp.Atom "ops" :: es) -> List.iter dec_op es
        | Sexp.List (Sexp.Atom "terms" :: es) -> List.iter dec_term es
        | Sexp.List (Sexp.Atom "rules" :: es) -> List.iter dec_rule es
        | Sexp.List (Sexp.Atom "rsets" :: es) -> List.iter dec_rset es
        | Sexp.List (Sexp.Atom "derivs" :: es) -> List.iter dec_deriv es
        | Sexp.List (Sexp.Atom "reds" :: es) -> List.iter dec_red es
        | Sexp.List (Sexp.Atom "lpo" :: es) -> dec_lpo es
        | Sexp.List (Sexp.Atom "joins" :: es) -> List.iter dec_join es
        | _ -> bad "certificate: unknown section")
      sections;
    Ok { reds = List.rev !reds; lpo = !lpo; joins = List.rev !joins }
  with Bad msg -> Error msg

let of_string s =
  match Sexp.parse_one s with
  | Error e -> Error e
  | Ok sx -> of_sexp sx

(* ------------------------------------------------------------------ *)
(* Structural equality (round-trip tests) *)

let rec term_equal a b =
  a == b
  ||
  match a, b with
  | V a, V b -> String.equal a.v_name b.v_name && String.equal a.v_sort b.v_sort
  | A (oa, aa), A (ob, ab) ->
    op_equal oa ob
    && List.length aa = List.length ab
    && List.for_all2 term_equal aa ab
  | _ -> false

and op_equal a b =
  a == b
  || String.equal a.op_name b.op_name
     && a.op_arity = b.op_arity && String.equal a.op_sort b.op_sort
     && a.op_flags = b.op_flags

let rule_equal a b =
  a == b
  || String.equal a.r_label b.r_label
     && term_equal a.r_lhs b.r_lhs && term_equal a.r_rhs b.r_rhs
     && Option.equal term_equal a.r_cond b.r_cond

let rec rset_equal a b =
  a == b
  || Option.equal rset_equal a.rs_parent b.rs_parent
     && List.length a.rs_rules = List.length b.rs_rules
     && List.for_all2 rule_equal a.rs_rules b.rs_rules

let rec deriv_equal a b =
  a == b
  || term_equal a.d_in b.d_in && term_equal a.d_out b.d_out
     &&
     match a.d_node, b.d_node with
     | Triv, Triv -> true
     | App a, App b ->
       List.length a.children = List.length b.children
       && List.for_all2 deriv_equal a.children b.children
       && a.perm = b.perm
       && Option.equal step_equal a.step b.step
     | _ -> false

and step_equal a b =
  rule_equal a.s_rule b.s_rule
  && List.length a.s_sub = List.length b.s_sub
  && List.for_all2
       (fun (n1, s1, t1) (n2, s2, t2) ->
         String.equal n1 n2 && String.equal s1 s2 && term_equal t1 t2)
       a.s_sub b.s_sub
  && Option.equal deriv_equal a.s_cond b.s_cond
  && deriv_equal a.s_next b.s_next

let red_equal a b =
  String.equal a.red_name b.red_name
  && rset_equal a.red_rset b.red_rset
  && term_equal a.red_in b.red_in
  && term_equal a.red_out b.red_out
  && deriv_equal a.red_deriv b.red_deriv

let lpo_equal a b =
  List.length a.lpo_prec = List.length b.lpo_prec
  && List.for_all2 op_equal a.lpo_prec b.lpo_prec
  && List.length a.lpo_rules = List.length b.lpo_rules
  && List.for_all2 rule_equal a.lpo_rules b.lpo_rules

let rec jcert_equal a b =
  deriv_equal a.jc_left b.jc_left
  && deriv_equal a.jc_right b.jc_right
  &&
  match a.jc_tail, b.jc_tail with
  | Jsyn, Jsyn | Jring, Jring -> true
  | Jsplit (c1, t1, f1), Jsplit (c2, t2, f2) ->
    term_equal c1 c2 && jcert_equal t1 t2 && jcert_equal f1 f2
  | _ -> false

let join_equal a b =
  String.equal a.j_label b.j_label
  && rset_equal a.j_rset b.j_rset
  && term_equal a.j_peak b.j_peak
  && term_equal a.j_left b.j_left
  && term_equal a.j_right b.j_right
  && jcert_equal a.j_cert b.j_cert

let equal a b =
  List.length a.reds = List.length b.reds
  && List.for_all2 red_equal a.reds b.reds
  && Option.equal lpo_equal a.lpo b.lpo
  && List.length a.joins = List.length b.joins
  && List.for_all2 join_equal a.joins b.joins
