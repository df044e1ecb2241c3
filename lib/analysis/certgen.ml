(* Bridge from the engine to the certificate world: converts traced
   derivations, the LPO search result and confluence join certificates into
   a [Certify.Cert.t].  This module is on the UNTRUSTED side of the trust
   boundary — a bug here produces a certificate the independent checker
   rejects, never one it wrongly accepts. *)

open Kernel
module C = Certify.Cert

(* Tables keyed by physical identity, each hashing fields that spread:
   an op by its creation index, a rule or an applied derivation by the
   ids of the two terms it relates. *)
module Phys (H : sig
  type t

  val hash : t -> int
end) =
Hashtbl.Make (struct
  include H

  let equal = ( == )
end)

let mix2 a b = (Term.id_hash a * 31) + Term.id_hash b

module Op_phys = Phys (struct
  type t = Signature.op

  let hash (o : t) = o.Signature.index
end)

module Rule_phys = Phys (struct
  type t = Rewrite.rule

  let hash (r : t) = mix2 r.Rewrite.lhs r.Rewrite.rhs
end)

module Dapp_phys = Phys (struct
  type t = Rewrite.deriv

  let hash (d : t) = mix2 d.Rewrite.d_in d.Rewrite.d_out
end)

type t = {
  ops : C.op Op_phys.t;  (* engine op -> cert op *)
  terms : C.term Term.Tbl.t;  (* structural: equal engine terms share one cert term *)
  rules : C.rule Rule_phys.t;  (* engine rule -> cert rule *)
  rsets : (int, C.rset) Hashtbl.t;  (* sys uid -> cert rule set *)
  trivs : C.deriv Term.Tbl.t;  (* a zero-step derivation is determined by its term *)
  derivs : C.deriv Dapp_phys.t;  (* engine app node -> cert deriv (keeps DAG sharing) *)
  mutable reds : C.red list;  (* reversed *)
  mutable next_red : int;
  mutable lpo : C.lpo option;
  mutable joins : C.join list;  (* reversed *)
}

let create () =
  {
    ops = Op_phys.create 256;
    terms = Term.Tbl.create 4096;
    rules = Rule_phys.create 256;
    rsets = Hashtbl.create 16;
    trivs = Term.Tbl.create 4096;
    derivs = Dapp_phys.create 4096;
    reds = [];
    next_red = 0;
    lpo = None;
    joins = [];
  }

let flags_of (o : Signature.op) =
  let module B = Signature.Builtin in
  List.concat
    [
      (if Signature.is_ac o then [ C.Ac ] else []);
      (if Signature.is_comm o then [ C.Comm ] else []);
      (if Signature.op_equal o B.tt then [ C.Tt ] else []);
      (if Signature.op_equal o B.ff then [ C.Ff ] else []);
      (if Signature.op_equal o B.not_ then [ C.Not ] else []);
      (if Signature.op_equal o B.and_ then [ C.And ] else []);
      (if Signature.op_equal o B.or_ then [ C.Or ] else []);
      (if Signature.op_equal o B.xor then [ C.Xor ] else []);
      (if Signature.op_equal o B.implies then [ C.Implies ] else []);
      (if Signature.op_equal o B.iff then [ C.Iff ] else []);
      (if B.is_if o then [ C.If ] else []);
      (if B.is_eq o then [ C.Eq ] else []);
    ]

let op b (o : Signature.op) =
  match Op_phys.find_opt b.ops o with
  | Some co -> co
  | None ->
    let co =
      {
        C.op_name = o.Signature.name;
        op_arity = List.map (fun (s : Sort.t) -> s.Sort.name) o.Signature.arity;
        op_sort = o.Signature.sort.Sort.name;
        op_flags = flags_of o;
      }
    in
    Op_phys.replace b.ops o co;
    co

let rec term b (t : Term.t) =
  match Term.Tbl.find_opt b.terms t with
  | Some ct -> ct
  | None ->
    let ct =
      match Term.view t with
      | Term.Var v -> C.V { v_name = v.Term.v_name; v_sort = v.Term.v_sort.Sort.name }
      | Term.App (o, args) -> C.A (op b o, List.map (term b) args)
    in
    Term.Tbl.replace b.terms t ct;
    ct

let rule b (r : Rewrite.rule) =
  match Rule_phys.find_opt b.rules r with
  | Some cr -> cr
  | None ->
    let cr =
      {
        C.r_label = r.Rewrite.label;
        r_lhs = term b r.Rewrite.lhs;
        r_rhs = term b r.Rewrite.rhs;
        r_cond = Option.map (term b) r.Rewrite.cond;
      }
    in
    Rule_phys.replace b.rules r cr;
    cr

let rec rset b (si : Rewrite.sys_info) =
  match Hashtbl.find_opt b.rsets si.Rewrite.si_uid with
  | Some rs -> rs
  | None ->
    let rs =
      {
        C.rs_parent = Option.map (rset b) si.Rewrite.si_parent;
        rs_rules = List.map (rule b) si.Rewrite.si_added;
      }
    in
    Hashtbl.replace b.rsets si.Rewrite.si_uid rs;
    rs

let sub_bindings b (s : Subst.t) =
  List.map
    (fun ((v : Term.var), img) -> (v.Term.v_name, v.Term.v_sort.Sort.name, term b img))
    (Subst.bindings s)

let rec deriv b (d : Rewrite.deriv) =
  match d.Rewrite.d_node with
  | Rewrite.Triv -> (
    match Term.Tbl.find_opt b.trivs d.Rewrite.d_in with
    | Some cd -> cd
    | None ->
      let t = term b d.Rewrite.d_in in
      let cd = C.deriv ~d_in:t ~d_out:t C.Triv in
      Term.Tbl.replace b.trivs d.Rewrite.d_in cd;
      cd)
  | Rewrite.Dapp { children; perm; step } -> (
    match Dapp_phys.find_opt b.derivs d with
    | Some cd -> cd
    | None ->
      let node =
        C.App
          {
            children = List.map (deriv b) children;
            perm;
            step =
              Option.map
                (fun (s : Rewrite.rstep) ->
                  {
                    C.s_rule = rule b s.Rewrite.rs_rule;
                    s_sub = sub_bindings b s.Rewrite.rs_sub;
                    s_cond = Option.map (deriv b) s.Rewrite.rs_cond;
                    s_next = deriv b s.Rewrite.rs_next;
                  })
                step;
          }
      in
      let cd = C.deriv ~d_in:(term b d.Rewrite.d_in) ~d_out:(term b d.Rewrite.d_out) node in
      Dapp_phys.replace b.derivs d cd;
      cd)

let add_obligation b (ob : Rewrite.obligation) =
  let n = b.next_red in
  b.next_red <- n + 1;
  let d = deriv b ob.Rewrite.ob_deriv in
  b.reds <-
    {
      C.red_name = Printf.sprintf "r%d" n;
      red_rset = rset b ob.Rewrite.ob_info;
      red_in = term b ob.Rewrite.ob_input;
      red_out = d.C.d_out;
      red_deriv = d;
    }
    :: b.reds

let add_obligations b obs = List.iter (add_obligation b) obs

let add_lpo b ~precedence rules =
  b.lpo <-
    Some
      { C.lpo_prec = List.map (op b) precedence; lpo_rules = List.map (rule b) rules }

let add_join b ~rs (ov : Completion.overlap) (jc : Confluence.jcert) =
  let rec conv (jc : Confluence.jcert) =
    {
      C.jc_left = deriv b jc.Confluence.jc_left;
      jc_right = deriv b jc.Confluence.jc_right;
      jc_tail =
        (match jc.Confluence.jc_tail with
        | Confluence.Tsyn -> C.Jsyn
        | Confluence.Tring -> C.Jring
        | Confluence.Tsplit (c, jt, jf) -> C.Jsplit (term b c, conv jt, conv jf));
    }
  in
  b.joins <-
    {
      C.j_label =
        Printf.sprintf "%s/%s" ov.Completion.outer.Rewrite.label
          ov.Completion.inner.Rewrite.label;
      j_rset = rs;
      j_peak = term b ov.Completion.peak;
      j_left = term b ov.Completion.left;
      j_right = term b ov.Completion.right;
      j_cert = conv jc;
    }
    :: b.joins

let add_joins b ~rules certs =
  (* Join derivations were produced by private systems over the spec's full
     rule list; their certificate scope is that flat rule set. *)
  let rs = { C.rs_parent = None; rs_rules = List.map (rule b) rules } in
  List.iter (fun (ov, jc) -> add_join b ~rs ov jc) certs

let cert b =
  { C.reds = List.rev b.reds; lpo = b.lpo; joins = List.rev b.joins }

(* ------------------------------------------------------------------ *)
(* A campaign's certificate: its traced reds plus the spec's static
   evidence, which depends on the spec alone. *)

type static = {
  precedence : Signature.op list option;
  joins : (Completion.overlap * Confluence.jcert) list;
}

let static_evidence ?pool spec =
  let term = Termination.check spec in
  {
    precedence =
      (if term.Termination.certified then
         Some term.Termination.search.Order.precedence
       else None);
    joins = (Confluence.check ?pool ~certify:true spec).Confluence.certs;
  }

let campaign spec (st : static) obligations =
  let b = create () in
  let rules = Cafeobj.Spec.all_rules spec in
  add_obligations b obligations;
  Option.iter (fun precedence -> add_lpo b ~precedence rules) st.precedence;
  add_joins b ~rules st.joins;
  cert b

(* ------------------------------------------------------------------ *)
(* Pool-chunked checking: four chunks of reds per pool domain, or one
   without a pool. *)

type check_result = {
  errors : Certify.Check.error list;
  obligations : int;
  steps_replayed : int;
}

let check ?pool (c : C.t) : check_result =
  let errors, steps_replayed =
    match pool with
    | None -> Certify.Check.replay ~chunks:1 ~map:List.map c
    | Some p ->
      Certify.Check.replay ~chunks:(Sched.Pool.jobs p * 4)
        ~map:(Sched.Pool.parallel_map p) c
  in
  {
    errors;
    obligations = List.length c.C.reds + List.length c.C.joins;
    steps_replayed;
  }
