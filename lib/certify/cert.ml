(* Certificate AST and its one-pass codec.  See the .mli for the
   documented grammar.  The encoder hash-conses every node (ops, terms,
   rules, rule sets, derivations) into id-indexed sections, writing each
   entry into its section's text as soon as it gets its id, so
   certificates are DAG-compact regardless of how much sharing the
   producer achieved.  Each physically distinct node is walked once, so
   encoding is linear in the number of physically distinct nodes.  The
   decoder reads the text once through {!Sexp}'s reader, straight into
   id-indexed stores, and only ever resolves ids that are already defined
   (references point backwards), which makes cyclic certificates
   unrepresentable.  Neither side builds an S-expression tree. *)

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

let flag_names =
  [ Ac, "ac"; Comm, "comm"; Tt, "tt"; Ff, "ff"; Not, "not"; And, "and"; Or, "or";
    Xor, "xor"; Implies, "implies"; Iff, "iff"; If, "if"; Eq, "eq" ]

let flag_name f = List.assoc f flag_names
let flag_of_name s = List.find_map (fun (f, n) -> if n = s then Some f else None) flag_names

(* ------------------------------------------------------------------ *)
(* Memo tables keyed by physical identity *)

(* [Hashtbl.hash] of a node spends its bounded budget on the first record
   it meets: a term's head [op], which every term with that head shares,
   or a rule's whole left-hand side.  So each table hashes a cheap field
   that spreads: terms by operator and variable names two levels deep,
   rules by label and the shape of their left-hand side, rule sets by
   their first rule, derivations by their id.  The term hash allocates
   nothing: it runs on every term lookup of the encoder and the checker. *)
let rec shape_hash depth = function
  | V { v_name; _ } -> Hashtbl.hash v_name
  | A (o, args) ->
    let h = Hashtbl.hash o.op_name in
    if depth = 0 then h else mix_shapes (depth - 1) h args

and mix_shapes depth h = function
  | [] -> h
  | a :: rest -> mix_shapes depth ((h * 65599) + shape_hash depth a) rest

let rule_hash r = (Hashtbl.hash r.r_label * 65599) + shape_hash 1 r.r_lhs

module Phys (H : sig
  type t

  val hash : t -> int
end) =
struct
  include Hashtbl.Make (struct
    include H

    let equal = ( == )
  end)

  (* [memo tbl x f] is [x]'s entry, made by [f x] on the first visit *)
  let memo tbl x f =
    match find tbl x with
    | v -> v
    | exception Not_found ->
      let v = f x in
      replace tbl x v;
      v
end

module Term_phys = Phys (struct type t = term let hash = shape_hash 2 end)
module Rule_phys = Phys (struct type t = rule let hash = rule_hash end)

module Rset_phys = Phys (struct
  type t = rset

  let hash rs = match rs.rs_rules with r :: _ -> rule_hash r | [] -> 0
end)

module Deriv_phys = Phys (struct type t = deriv let hash d = d.d_id end)
module Op_phys = Phys (struct type t = op let hash o = Hashtbl.hash o.op_name end)

(* ------------------------------------------------------------------ *)
(* Encoding *)

(* Splitmix64's finalizer, its multipliers cut to OCaml's 63-bit [int]. *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

(* Content keys: int lists, strings entering through a numbering of their
   own, hashed by mixing every element. *)
module Key = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash k = List.fold_left (fun h x -> mix (h + x)) 0 k
end)

(* One id table of the certificate: a key seen for the first time gets the
   next id, and its entry is written to [text] at once. *)
type section = { ids : int Key.t; text : Buffer.t; mutable next : int }

let section () = { ids = Key.create 1024; text = Buffer.create 65536; next = 0 }

let intern sec key write =
  match Key.find sec.ids key with
  | id -> id
  | exception Not_found ->
    let id = sec.next in
    sec.next <- id + 1;
    Key.add sec.ids key id;
    Buffer.add_char sec.text ' ';
    write sec.text id;
    id

(* Writers: [ints] and [atoms] put a space before each element; [list]
   writes a parenthesized list. *)
let int b n = Buffer.add_string b (string_of_int n)
let ints b = List.iter (fun n -> Buffer.add_char b ' '; int b n)
let atoms b = List.iter (fun x -> Buffer.add_char b ' '; Sexp.add_atom b x)

let list b f xs =
  Buffer.add_string b " (";
  List.iteri (fun i x -> if i > 0 then Buffer.add_char b ' '; f b x) xs;
  Buffer.add_char b ')'

let head b tag id = Buffer.add_char b '('; Buffer.add_string b tag; ints b [ id ]
let close b = Buffer.add_char b ')'

let to_string (cert : t) =
  let ops = section () and terms = section () and rules = section () in
  let rsets = section () and derivs = section () in
  let strings = Hashtbl.create 256 in
  let sid s =
    match Hashtbl.find strings s with
    | i -> i
    | exception Not_found ->
      Hashtbl.add strings s (Hashtbl.length strings);
      Hashtbl.length strings - 1
  in
  let op_memo = Op_phys.create 256 and term_memo = Term_phys.create 4096 in
  let rule_memo = Rule_phys.create 256 and rset_memo = Rset_phys.create 256 in
  let deriv_memo = Deriv_phys.create 4096 in
  (* Ids follow the order of first visits, children before parents. *)
  let op_entry o =
    let flags = List.map flag_name o.op_flags in
    let key = List.map sid (o.op_name :: o.op_sort :: o.op_arity @ flags) in
    intern ops (List.length o.op_arity :: key) (fun b id ->
        head b "op" id;
        atoms b [ o.op_name ];
        list b Sexp.add_atom o.op_arity;
        atoms b (o.op_sort :: flags);
        close b)
  in
  let op_id o = Op_phys.memo op_memo o op_entry in
  let rec term_id t = Term_phys.memo term_memo t term_entry
  and term_entry = function
    | V { v_name; v_sort } ->
      intern terms [ -1; sid v_name; sid v_sort ] (fun b id ->
          head b "t" id; atoms b [ "v"; v_name; v_sort ]; close b)
    | A (o, args) ->
      let oid = op_id o in
      let aids = List.map term_id args in
      intern terms (oid :: aids) (fun b id ->
          head b "t" id; atoms b [ "a" ]; ints b (oid :: aids); close b)
  in
  let rule_entry r =
    let lid = term_id r.r_lhs in
    let rid = term_id r.r_rhs in
    let cid = Option.map term_id r.r_cond in
    intern rules [ sid r.r_label; lid; rid; Option.value cid ~default:(-1) ] (fun b id ->
        head b "rule" id; atoms b [ r.r_label ]; ints b (lid :: rid :: Option.to_list cid); close b)
  in
  let rule_id r = Rule_phys.memo rule_memo r rule_entry in
  let rec rset_id rs = Rset_phys.memo rset_memo rs rset_entry
  and rset_entry rs =
    let pid = match rs.rs_parent with None -> -1 | Some p -> rset_id p in
    let rids = List.map rule_id rs.rs_rules in
    intern rsets (pid :: rids) (fun b id -> head b "rs" id; ints b (pid :: rids); close b)
  in
  let rec deriv_id d = Deriv_phys.memo deriv_memo d deriv_entry
  and deriv_entry d =
    match d.d_node with
    | Triv ->
      let tid = term_id d.d_in in
      intern derivs [ -1; tid ] (fun b id -> head b "d" id; atoms b [ "triv" ]; ints b [ tid ]; close b)
    | App { children; perm; step } ->
      let iid = term_id d.d_in in
      let oid = term_id d.d_out in
      let cids = List.map deriv_id children in
      let step =
        Option.map
          (fun s ->
            let rid = rule_id s.s_rule in
            let tids = List.map (fun (_, _, t) -> term_id t) s.s_sub in
            let cond = Option.map deriv_id s.s_cond in
            (s, rid, tids, cond, deriv_id s.s_next))
          step
      in
      (* all ids are >= 0, so the negative markers make the variable-
         length parts of the key unambiguous; a step is keyed by its
         bindings' images, not their names *)
      let key =
        (-2 :: iid :: oid :: cids)
        @ (match perm with None -> [ -1 ] | Some p -> -3 :: p)
        @
        match step with
        | None -> [ -5 ]
        | Some (_, rid, tids, cond, nid) ->
          (-4 :: rid :: nid :: tids) @ [ Option.value cond ~default:(-1) ]
      in
      intern derivs key (fun b id ->
          head b "d" id;
          atoms b [ "app" ];
          ints b [ iid; oid ];
          list b int cids;
          Option.iter (fun p -> Buffer.add_string b " (perm"; ints b p; close b) perm;
          Option.iter
            (fun (s, rid, tids, cond, nid) ->
              Buffer.add_string b " (step";
              ints b [ rid ];
              Buffer.add_string b " (sub";
              List.iter2
                (fun (n, srt, _) tid ->
                  Buffer.add_string b " (";
                  Sexp.add_atom b n;
                  atoms b [ srt ];
                  ints b [ tid ];
                  close b)
                s.s_sub tids;
              close b;
              Option.iter (fun c -> Buffer.add_string b " (cond"; ints b [ c ]; close b) cond;
              ints b [ nid ];
              close b)
            step;
          close b)
  in
  let reds = Buffer.create 65536 in
  List.iter
    (fun r ->
      let rsid = rset_id r.red_rset in
      let iid = term_id r.red_in in
      let oid = term_id r.red_out in
      let did = deriv_id r.red_deriv in
      Buffer.add_string reds " (red";
      atoms reds [ r.red_name ];
      ints reds [ rsid; iid; oid; did ];
      close reds)
    cert.reds;
  let lpo =
    Option.map
      (fun l ->
        let prec = List.map op_id l.lpo_prec in
        (prec, List.map rule_id l.lpo_rules))
      cert.lpo
  in
  (* Ids keep the order they have always had, which pinned certificate
     digests depend on: a join visits its certificate first (inside a
     split: the false branch, the true branch, then the condition), then
     its right, left and peak terms, then its rule set. *)
  let rec jcert jc =
    let l = deriv_id jc.jc_left in
    let r = deriv_id jc.jc_right in
    let tail =
      match jc.jc_tail with
      | Jsyn -> "syn"
      | Jring -> "ring"
      | Jsplit (c, jt, jf) ->
        let f = jcert jf in
        let t = jcert jt in
        Printf.sprintf "(split %d %s %s)" (term_id c) t f
    in
    Printf.sprintf "(j %d %d %s)" l r tail
  in
  let joins = Buffer.create 65536 in
  List.iter
    (fun j ->
      let jc = jcert j.j_cert in
      let right = term_id j.j_right in
      let left = term_id j.j_left in
      let peak = term_id j.j_peak in
      Buffer.add_string joins " (join";
      atoms joins [ j.j_label ];
      ints joins [ rset_id j.j_rset; peak; left; right ];
      Buffer.add_char joins ' ';
      Buffer.add_string joins jc;
      close joins)
    cert.joins;
  let lpo =
    match lpo with
    | None -> []
    | Some (prec, rids) ->
      let b = Buffer.create 4096 in
      Buffer.add_string b " (prec";
      ints b prec;
      Buffer.add_string b ") (rules";
      ints b rids;
      close b;
      [ "lpo", b ]
  in
  let parts =
    [ "ops", ops.text; "terms", terms.text; "rules", rules.text; "rsets", rsets.text;
      "derivs", derivs.text; "reds", reds ]
    @ lpo @ [ "joins", joins ]
  in
  let out = Buffer.create (List.fold_left (fun n (_, b) -> n + Buffer.length b + 16) 32 parts) in
  Buffer.add_string out "(eqcert (version 1)";
  List.iter
    (fun (name, b) ->
      Buffer.add_string out " (";
      Buffer.add_string out name;
      Buffer.add_buffer out b;
      close out)
    parts;
  close out;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Decoding *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

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

(* The text is read once, front to back, each entry going straight into
   its store. *)
let of_string text =
  Sexp.read_one text @@ fun r ->
  let ops = store "op" and terms = store "term" and rules = store "rule" in
  let rsets = store "rset" and derivs = store "deriv" in
  let reds = ref [] and lpo = ref None and joins = ref [] in
  (* Readers of one field.  [m] is the error for an entry that ends, or
     holds the wrong kind of item, where the field belongs. *)
  let int m what =
    match Sexp.peek r with
    | Sexp.Word -> (
      match Sexp.int r with
      | Some n -> n
      | None -> bad "%s: expected integer, got %S" what (Sexp.atom r))
    | Sexp.Open -> bad "%s: expected integer, got a list" what
    | _ -> raise (Bad m)
  in
  let atom m what =
    match Sexp.peek r with
    | Sexp.Word -> Sexp.atom r
    | Sexp.Open -> bad "%s: expected atom, got a list" what
    | _ -> raise (Bad m)
  in
  let word m = match Sexp.peek r with Sexp.Word -> Sexp.atom r | _ -> raise (Bad m) in
  let open_ m = match Sexp.peek r with Sexp.Open -> Sexp.open_list r | _ -> raise (Bad m) in
  let enter m kw = open_ m; if word m <> kw then raise (Bad m) in
  let at_close () =
    match Sexp.peek r with Sexp.Close -> Sexp.close_list r; true | _ -> false
  in
  let leave m = if not (at_close ()) then raise (Bad m) in
  let items f =
    let rec go acc = if at_close () then List.rev acc else go (f () :: acc) in
    go []
  in
  let id_in st m what = store_get st (int m what) in
  let dec_op () =
    let m = "ops: malformed entry" in
    enter m "op";
    let id = int m "op id" in
    let op_name = atom m "op name" in
    open_ m;
    let op_arity = items (fun () -> atom m "op arity sort") in
    let op_sort = atom m "op sort" in
    let op_flags =
      items (fun () ->
          let a = atom m "op flag" in
          match flag_of_name a with Some f -> f | None -> bad "op %d: unknown flag %S" id a)
    in
    store_add ops id { op_name; op_arity; op_sort; op_flags }
  in
  let dec_term () =
    let m = "terms: malformed entry" in
    enter m "t";
    let id = int m "term id" in
    match word m with
    | "v" ->
      let v_name = atom m "var name" in
      let v_sort = atom m "var sort" in
      leave m;
      store_add terms id (V { v_name; v_sort })
    | "a" ->
      let o = id_in ops m "term op id" in
      store_add terms id (A (o, items (fun () -> id_in terms m "term arg id")))
    | _ -> raise (Bad m)
  in
  let dec_rule () =
    let m = "rules: malformed entry" in
    enter m "rule";
    let id = int m "rule id" in
    let r_label = atom m "rule label" in
    let r_lhs = id_in terms m "rule lhs id" in
    let r_rhs = id_in terms m "rule rhs id" in
    let r_cond = if at_close () then None else Some (id_in terms m "rule cond id") in
    if Option.is_some r_cond && not (at_close ()) then bad "rule %d: too many fields" id;
    store_add rules id { r_label; r_lhs; r_rhs; r_cond }
  in
  let dec_rset () =
    let m = "rsets: malformed entry" in
    enter m "rs";
    let id = int m "rset id" in
    let rs_parent = match int m "rset parent" with -1 -> None | p -> Some (store_get rsets p) in
    let rs_rules = items (fun () -> id_in rules m "rset rule id") in
    store_add rsets id { rs_parent; rs_rules }
  in
  (* after [(step] *)
  let dec_step () =
    let m = "step: malformed" in
    let s_rule = id_in rules m "step rule id" in
    enter m "sub";
    let s_sub =
      items (fun () ->
          let m = "step: malformed binding" in
          open_ m;
          let n = atom m "binding var" in
          let s = atom m "binding sort" in
          let t = id_in terms m "binding term id" in
          leave m;
          (n, s, t))
    in
    let m = "step: malformed tail" in
    let s_cond =
      match Sexp.peek r with
      | Sexp.Open ->
        enter m "cond";
        let d = id_in derivs m "cond deriv id" in
        leave m;
        Some d
      | _ -> None
    in
    let s_next = id_in derivs m "step next deriv id" in
    leave m;
    { s_rule; s_sub; s_cond; s_next }
  in
  let dec_deriv () =
    let m = "derivs: malformed entry" in
    enter m "d";
    let id = int m "deriv id" in
    match word m with
    | "triv" ->
      let t = id_in terms m "deriv term id" in
      leave m;
      store_add derivs id (deriv ~d_in:t ~d_out:t Triv)
    | "app" ->
      let d_in = id_in terms m "deriv input id" in
      let d_out = id_in terms m "deriv output id" in
      open_ m;
      let children = items (fun () -> id_in derivs m "child deriv id") in
      (* then an optional (perm ...) and an optional (step ...) *)
      let next () = if at_close () then None else (open_ "step: malformed"; Some (word "step: malformed")) in
      let perm, kw =
        match next () with
        | Some "perm" ->
          let p = items (fun () -> int m "perm index") in
          (Some p, next ())
        | kw -> (None, kw)
      in
      let step =
        match kw with
        | None -> None
        | Some "step" ->
          let s = dec_step () in
          if not (at_close ()) then bad "deriv %d: malformed" id;
          Some s
        | Some _ -> raise (Bad "step: malformed")
      in
      store_add derivs id (deriv ~d_in ~d_out (App { children; perm; step }))
    | _ -> raise (Bad m)
  in
  let dec_red () =
    let m = "reds: malformed entry" in
    enter m "red";
    let red_name = atom m "red name" in
    let red_rset = id_in rsets m "red rset id" in
    let red_in = id_in terms m "red input id" in
    let red_out = id_in terms m "red output id" in
    let red_deriv = id_in derivs m "red deriv id" in
    leave m;
    reds := { red_name; red_rset; red_in; red_out; red_deriv } :: !reds
  in
  (* after [(lpo] *)
  let dec_lpo () =
    let m = "lpo: malformed section" in
    enter m "prec";
    let lpo_prec = items (fun () -> id_in ops m "prec op id") in
    enter m "rules";
    let lpo_rules = items (fun () -> id_in rules m "lpo rule id") in
    leave m;
    lpo := Some { lpo_prec; lpo_rules }
  in
  let rec dec_jcert () =
    let m = "join: malformed certificate" in
    enter m "j";
    let jc_left = id_in derivs m "join left deriv id" in
    let jc_right = id_in derivs m "join right deriv id" in
    let jc_tail =
      match Sexp.peek r with
      | Sexp.Open ->
        let m = "join: malformed tail" in
        enter m "split";
        let c = id_in terms m "split cond id" in
        let jt = dec_jcert () in
        let jf = dec_jcert () in
        leave m;
        Jsplit (c, jt, jf)
      | _ -> (
        match word m with
        | "syn" -> Jsyn
        | "ring" -> Jring
        | _ -> raise (Bad "join: malformed tail"))
    in
    leave m;
    { jc_left; jc_right; jc_tail }
  in
  let dec_join () =
    let m = "joins: malformed entry" in
    enter m "join";
    let j_label = atom m "join label" in
    let j_rset = id_in rsets m "join rset id" in
    let j_peak = id_in terms m "join peak id" in
    let j_left = id_in terms m "join left id" in
    let j_right = id_in terms m "join right id" in
    let j_cert = dec_jcert () in
    leave m;
    joins := { j_label; j_rset; j_peak; j_left; j_right; j_cert } :: !joins
  in
  let entries f = while not (at_close ()) do f () done in
  try
    enter "certificate: expected (eqcert ...)" "eqcert";
    let unknown = "certificate: unknown section" in
    while not (at_close ()) do
      open_ unknown;
      match word unknown with
      | "version" ->
        let v = int unknown "version" in
        leave unknown;
        if v <> 1 then bad "unsupported certificate version %d" v
      | "ops" -> entries dec_op
      | "terms" -> entries dec_term
      | "rules" -> entries dec_rule
      | "rsets" -> entries dec_rset
      | "derivs" -> entries dec_deriv
      | "reds" -> entries dec_red
      | "lpo" -> dec_lpo ()
      | "joins" -> entries dec_join
      | _ -> raise (Bad unknown)
    done;
    Ok { reds = List.rev !reds; lpo = !lpo; joins = List.rev !joins }
  with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Structural equality (round-trip tests) *)

let rec term_equal a b =
  a == b
  ||
  match a, b with
  | V a, V b -> a.v_name = b.v_name && a.v_sort = b.v_sort
  | A (oa, aa), A (ob, ab) -> op_equal oa ob && List.equal term_equal aa ab
  | _ -> false

and op_equal a b =
  a == b
  || a.op_name = b.op_name && a.op_arity = b.op_arity && a.op_sort = b.op_sort
     && a.op_flags = b.op_flags

let rule_equal a b =
  a == b
  || a.r_label = b.r_label && term_equal a.r_lhs b.r_lhs && term_equal a.r_rhs b.r_rhs
     && Option.equal term_equal a.r_cond b.r_cond

let rec rset_equal a b =
  a == b
  || Option.equal rset_equal a.rs_parent b.rs_parent
     && List.equal rule_equal a.rs_rules b.rs_rules

let rec deriv_equal a b =
  a == b
  || term_equal a.d_in b.d_in && term_equal a.d_out b.d_out
     &&
     match a.d_node, b.d_node with
     | Triv, Triv -> true
     | App a, App b ->
       List.equal deriv_equal a.children b.children
       && a.perm = b.perm
       && Option.equal step_equal a.step b.step
     | _ -> false

and step_equal a b =
  rule_equal a.s_rule b.s_rule
  && List.equal
       (fun (n1, s1, t1) (n2, s2, t2) -> n1 = n2 && s1 = s2 && term_equal t1 t2)
       a.s_sub b.s_sub
  && Option.equal deriv_equal a.s_cond b.s_cond
  && deriv_equal a.s_next b.s_next

let rec jcert_equal a b =
  deriv_equal a.jc_left b.jc_left
  && deriv_equal a.jc_right b.jc_right
  &&
  match a.jc_tail, b.jc_tail with
  | Jsyn, Jsyn | Jring, Jring -> true
  | Jsplit (c1, t1, f1), Jsplit (c2, t2, f2) ->
    term_equal c1 c2 && jcert_equal t1 t2 && jcert_equal f1 f2
  | _ -> false

let equal a b =
  List.equal
    (fun a b ->
      a.red_name = b.red_name && rset_equal a.red_rset b.red_rset
      && term_equal a.red_in b.red_in && term_equal a.red_out b.red_out
      && deriv_equal a.red_deriv b.red_deriv)
    a.reds b.reds
  && Option.equal
       (fun a b ->
         List.equal op_equal a.lpo_prec b.lpo_prec
         && List.equal rule_equal a.lpo_rules b.lpo_rules)
       a.lpo b.lpo
  && List.equal
       (fun a b ->
         a.j_label = b.j_label && rset_equal a.j_rset b.j_rset
         && term_equal a.j_peak b.j_peak && term_equal a.j_left b.j_left
         && term_equal a.j_right b.j_right && jcert_equal a.j_cert b.j_cert)
       a.joins b.joins
