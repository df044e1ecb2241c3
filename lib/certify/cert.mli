(** Proof-certificate AST and its S-expression wire format, encoded and
    decoded in one pass over the text: neither side builds a {!Sexp.t}
    tree.

    A certificate packages three kinds of obligations emitted by the
    rewriting engine, each independently replayable by {!Check}:

    - {b reds} — every [red] performed by a proof score: the input term,
      the claimed result, and a derivation recording each rule application
      (rule, matching substitution, condition discharge, AC permutation);
    - {b lpo} — the termination certificate: an operator precedence under
      which every listed rule orients left-to-right in the lexicographic
      path order;
    - {b joins} — one certificate per critical pair: how both sides of the
      divergence reduce and how the reducts were reconciled.

    {2 Grammar}

    Atoms are bare symbols or ["double-quoted"] strings; [;] comments run
    to end of line; [ID]s are non-negative integers.  Every reference
    points to an {e earlier} entry of the relevant table, so certificates
    are acyclic by construction.

    {v
cert  ::= (eqcert (version 1)
            (ops OP ...) (terms TM ...) (rules RULE ...) (rsets RS ...)
            (derivs DV ...) (reds RED ...) LPO? (joins JOIN ...))
OP    ::= (op ID NAME (SORT ...) SORT FLAG ...)  ; arity sorts, result sort
FLAG  ::= ac | comm | tt | ff | not | and | or | xor | implies | iff | if | eq
TM    ::= (t ID v NAME SORT)                     ; variable
        | (t ID a OPID TID ...)                  ; application
RULE  ::= (rule ID LABEL LHS-TID RHS-TID COND-TID?)
RS    ::= (rs ID PARENT RULEID ...)              ; PARENT = rs ID or -1
DV    ::= (d ID triv TID)                        ; zero-step: in = out
        | (d ID app IN-TID OUT-TID (CHILD-DID ...) PERM? STEP?)
PERM  ::= (perm INT ...)                         ; AC/Comm argument permutation
STEP  ::= (step RULEID (sub BIND ...) COND? NEXT-DID)
BIND  ::= (VNAME VSORT TID)
COND  ::= (cond DID)                             ; discharge down to true
RED   ::= (red NAME RSID IN-TID OUT-TID DID)
LPO   ::= (lpo (prec OPID ...) (rules RULEID ...)) ; prec: later = greater
JOIN  ::= (join LABEL RSID PEAK-TID LEFT-TID RIGHT-TID JC)
JC    ::= (j LDID RDID TAIL)
TAIL  ::= syn | ring | (split COND-TID JC JC)
    v}

    The encoder hash-conses every node into the id tables, so the format is
    DAG-compact: a sub-derivation shared by a thousand obligations is
    serialized once. *)

type flag = Ac | Comm | Tt | Ff | Not | And | Or | Xor | Implies | Iff | If | Eq

type op = {
  op_name : string;
  op_arity : string list;  (** argument sorts *)
  op_sort : string;  (** result sort *)
  op_flags : flag list;
      (** [Ac]/[Comm] attributes plus builtin roles ([Tt] … [Eq]) the
          checker's boolean ring needs to interpret *)
}

type term = V of { v_name : string; v_sort : string } | A of op * term list

type rule = { r_label : string; r_lhs : term; r_rhs : term; r_cond : term option }

(** The rules available to a derivation: a base set plus the branch-local
    assumption rules each proof passage added ([rs_parent] chains mirror
    [Rewrite.extend]). *)
type rset = { rs_parent : rset option; rs_rules : rule list }

(** A derivation node.  [d_id] is the node's identity, drawn from one
    process-wide counter by {!deriv}, the only way to build one: the
    encoder memoizes nodes by it (physical copies of one node get distinct
    ids and are merged by content), the checker ignores it. *)
type deriv = private { d_id : int; d_in : term; d_out : term; d_node : dnode }

and dnode =
  | Triv  (** zero steps; [d_in == d_out] *)
  | App of { children : deriv list; perm : int list option; step : step option }

and step = {
  s_rule : rule;
  s_sub : (string * string * term) list;  (** (var name, var sort, image) *)
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
  j_rset : rset;  (** the rule set both sides may reduce under *)
  j_peak : term;
  j_left : term;
  j_right : term;
  j_cert : jcert;
}

type t = { reds : red list; lpo : lpo option; joins : join list }

(** [deriv ~d_in ~d_out node] builds a derivation node with a fresh
    [d_id]. *)
val deriv : d_in:term -> d_out:term -> dnode -> deriv

(** Tables keyed by physical identity.  Each hashes a cheap field that
    spreads (the bounded [Hashtbl.hash] would spend its budget on the
    first record it meets, such as a term's head [op], which every term
    with that head shares): terms by operator and variable names two
    levels deep, rules by label and left-hand side, rule sets by their
    first rule, derivations by their [d_id]. *)
module Term_phys : Hashtbl.S with type key = term

module Rule_phys : Hashtbl.S with type key = rule
module Rset_phys : Hashtbl.S with type key = rset
module Deriv_phys : Hashtbl.S with type key = deriv

(** [to_string c] prints [c] in the grammar above, writing each entry as
    soon as the walk gives it an id. *)
val to_string : t -> string

(** [of_string s] reads [s] front to back straight into the id tables.  A
    lexical error reads [parse error at LINE:COL: ...]; anything but
    exactly one s-expression, a version other than 1, an unknown flag or
    section, an id out of order or a reference to an id not yet defined
    is an [Error] too. *)
val of_string : string -> (t, string) result

(** Structural equality (ignores sharing); for round-trip tests. *)
val equal : t -> t -> bool

val term_equal : term -> term -> bool
val op_equal : op -> op -> bool
val rule_equal : rule -> rule -> bool
val deriv_equal : deriv -> deriv -> bool
