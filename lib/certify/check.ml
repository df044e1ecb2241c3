(* The trusted replay kernel.  Everything here is reimplemented from the
   certificate's own term representation — no Rewrite, no Ac search, no
   strategy.  The checker never searches: it only verifies that recorded
   substitutions instantiate rules onto redexes, recorded permutations are
   permutations, recorded condition discharges end in [true], and recorded
   precedences orient rules under a ~30-line LPO. *)

module C = Cert
module IntSet = Set.Make (Int)

type error = { e_path : string; e_msg : string }

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.e_path e.e_msg

(* Memo tables keyed by physical identity (certificate ASTs are DAGs):
   [C.Term_phys], [C.Rule_phys], [C.Rset_phys] and [C.Deriv_phys]. *)

let bool_sort = "Bool"

(* ------------------------------------------------------------------ *)
(* Term operations (mirroring the engine's semantics, not its code)    *)

let sort_of = function C.V v -> v.v_sort | C.A (o, _) -> o.C.op_sort

let rec term_equal a b =
  a == b
  ||
  match a, b with
  | C.V a, C.V b -> String.equal a.v_name b.v_name && String.equal a.v_sort b.v_sort
  | C.A (oa, aa), C.A (ob, ab) ->
    (* operators compare by name, like the engine's [Term.compare] *)
    String.equal oa.C.op_name ob.C.op_name
    && List.length aa = List.length ab
    && List.for_all2 term_equal aa ab
  | _ -> false

let rec term_compare a b =
  if a == b then 0
  else
    match a, b with
    | C.V a, C.V b ->
      let c = String.compare a.v_name b.v_name in
      if c <> 0 then c else String.compare a.v_sort b.v_sort
    | C.V _, C.A _ -> -1
    | C.A _, C.V _ -> 1
    | C.A (oa, aa), C.A (ob, ab) ->
      let c = String.compare oa.C.op_name ob.C.op_name in
      if c <> 0 then c else List.compare term_compare aa ab

let has_flag f (o : C.op) = List.mem f o.C.op_flags
let is_ac o = has_flag C.Ac o
let is_comm o = has_flag C.Comm o

let rec vars acc = function
  | C.V v -> if List.mem (v.v_name, v.v_sort) acc then acc else (v.v_name, v.v_sort) :: acc
  | C.A (_, args) -> List.fold_left vars acc args

let term_vars t = vars [] t

(* Substitutions are the recorded association lists; application is plain
   simultaneous replacement (unbound variables stay). *)
let rec apply sub t =
  match t with
  | C.V v -> (
    match
      List.find_opt (fun (n, s, _) -> String.equal n v.v_name && String.equal s v.v_sort) sub
    with
    | Some (_, _, img) -> img
    | None -> t)
  | C.A (o, args) -> C.A (o, List.map (apply sub) args)

let rec flatten oname t =
  match t with
  | C.A (o, [ l; r ]) when String.equal o.C.op_name oname ->
    flatten oname l @ flatten oname r
  | _ -> [ t ]

let rebuild o args =
  match List.rev args with
  | [] -> invalid_arg "Check.rebuild: empty argument list"
  | last :: rest -> List.fold_left (fun acc t -> C.A (o, [ t; acc ])) last rest

(* AC/Comm canonical form, used to compare a redex with the instantiated
   left-hand side: both sides are canonicalized with the checker's own
   order, so no engine ordering convention is trusted and no search is
   performed. *)
let rec canon memo t =
  match C.Term_phys.find_opt memo t with
  | Some c -> c
  | None ->
    let c =
      match t with
      | C.V _ -> t
      | C.A (o, [ _; _ ]) when is_ac o ->
        let args =
          flatten o.C.op_name t |> List.map (canon memo) |> List.sort term_compare
        in
        rebuild o args
      | C.A (o, [ a; b ]) when is_comm o ->
        let a = canon memo a and b = canon memo b in
        if term_compare a b <= 0 then C.A (o, [ a; b ]) else C.A (o, [ b; a ])
      | C.A (o, args) -> C.A (o, List.map (canon memo) args)
    in
    C.Term_phys.replace memo t c;
    c

(* [Term.replace] mirror: replace every occurrence, no descent into
   replacements. *)
let rec replace ~old ~by t =
  if term_equal t old then by
  else match t with C.V _ -> t | C.A (o, args) -> C.A (o, List.map (replace ~old ~by) args)

(* ------------------------------------------------------------------ *)
(* Boolean ring (for [ring] join tails) — Hsiang normal form, mirroring
   the engine's [Boolring] on the certificate's own terms.              *)

exception Not_boolean

let mono_compare = List.compare term_compare

let rec bxor p q =
  match p, q with
  | [], q -> q
  | p, [] -> p
  | m :: p', n :: q' ->
    let c = mono_compare m n in
    if c = 0 then bxor p' q'
    else if c < 0 then m :: bxor p' q
    else n :: bxor p q'

let mono_mul m n =
  let rec merge m n =
    match m, n with
    | [], n -> n
    | m, [] -> m
    | a :: m', b :: n' ->
      let c = term_compare a b in
      if c = 0 then a :: merge m' n'
      else if c < 0 then a :: merge m' n
      else b :: merge m n'
  in
  merge m n

let band p q =
  List.fold_left
    (fun acc m -> List.fold_left (fun acc n -> bxor acc [ mono_mul m n ]) acc q)
    [] p

let btru = [ [] ]
let bnot p = bxor btru p

let batom t =
  if not (String.equal (sort_of t) bool_sort) then raise Not_boolean;
  match t with
  | C.A (o, [ a; b ]) when has_flag C.Eq o ->
    let c = term_compare a b in
    if c = 0 then btru
    else if c < 0 then [ [ t ] ]
    else [ [ C.A (o, [ b; a ]) ] ]
  | _ -> [ [ t ] ]

let rec poly_of t =
  match t with
  | C.A (o, []) when has_flag C.Tt o -> btru
  | C.A (o, []) when has_flag C.Ff o -> []
  | C.A (o, [ a ]) when has_flag C.Not o -> bnot (poly_of a)
  | C.A (o, [ a; b ]) when has_flag C.And o -> band (poly_of a) (poly_of b)
  | C.A (o, [ a; b ]) when has_flag C.Or o ->
    let a = poly_of a and b = poly_of b in
    bxor (bxor a b) (band a b)
  | C.A (o, [ a; b ]) when has_flag C.Xor o -> bxor (poly_of a) (poly_of b)
  | C.A (o, [ a; b ]) when has_flag C.Implies o ->
    let a = poly_of a and b = poly_of b in
    bnot (bxor (band a b) a)
  | C.A (o, [ a; b ]) when has_flag C.Iff o -> bnot (bxor (poly_of a) (poly_of b))
  | C.A (o, [ c; a; b ]) when has_flag C.If o && String.equal (sort_of t) bool_sort ->
    let c = poly_of c and a = poly_of a and b = poly_of b in
    bxor (bxor (band c a) (band c b)) b
  | _ -> batom t

let poly_equal l r =
  match poly_of l, poly_of r with
  | p, q -> List.compare mono_compare p q = 0
  | exception Not_boolean -> false

(* ------------------------------------------------------------------ *)
(* Independent LPO comparator                                          *)

let lpo ~prec s t =
  let rec gt s t =
    match s, t with
    | C.V _, _ -> false
    | C.A _, C.V v ->
      List.exists
        (fun (n, srt) -> String.equal n v.v_name && String.equal srt v.v_sort)
        (term_vars s)
    | C.A (f, ss), C.A (g, ts) ->
      List.exists (fun si -> ge si t) ss
      ||
      let c = prec f g in
      if c > 0 then List.for_all (gt s) ts
      else if c = 0 then lex ss ts && List.for_all (gt s) ts
      else false
  and ge s t = term_equal s t || gt s t
  and lex ss ts =
    match ss, ts with
    | s1 :: ss', t1 :: ts' -> if term_equal s1 t1 then lex ss' ts' else gt s1 t1
    | [], _ :: _ | _ :: _, [] | [], [] -> false
  in
  gt s t

(* ------------------------------------------------------------------ *)
(* The checker context                                                 *)

type t = {
  cert : C.t;
  canon_memo : C.term C.Term_phys.t;
  wf_memo : unit C.Term_phys.t;
  rule_memo : unit C.Rule_phys.t;
  deriv_memo : (IntSet.t, error) result C.Deriv_phys.t;
  rset_memo : IntSet.t C.Rset_phys.t;
  rule_ids : int C.Rule_phys.t;
  mutable next_rule_id : int;
  mutable steps_validated : int;
  mutable tt_term : C.term option;
  mutable ff_term : C.term option;
}

exception Reject of error

let reject path fmt =
  Format.kasprintf (fun m -> raise (Reject { e_path = path; e_msg = m })) fmt

let sub fmt = Printf.sprintf fmt

let rule_id ck r =
  match C.Rule_phys.find_opt ck.rule_ids r with
  | Some i -> i
  | None ->
    let i = ck.next_rule_id in
    ck.next_rule_id <- i + 1;
    C.Rule_phys.replace ck.rule_ids r i;
    i

let pp_term ppf t =
  let rec go ppf = function
    | C.V v -> Format.fprintf ppf "%s:%s" v.v_name v.v_sort
    | C.A (o, []) -> Format.pp_print_string ppf o.C.op_name
    | C.A (o, args) ->
      Format.fprintf ppf "%s(%a)" o.C.op_name
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',') go)
        args
  in
  go ppf t

(* ----- static well-formedness -------------------------------------- *)

(* Builtin roles are pinned to the fixed BOOL signature: a certificate
   cannot re-flag an arbitrary operator as [and] to bend the checker's
   boolean ring. *)
let check_op path (o : C.op) =
  let expect name arity sort =
    if
      not
        (String.equal o.C.op_name name
        && o.C.op_arity = arity
        && String.equal o.C.op_sort sort)
    then
      raise
        (Reject
           {
             e_path = path;
             e_msg =
               sub "operator %s mis-flagged as builtin %s" o.C.op_name name;
           })
  in
  let b = bool_sort in
  List.iter
    (function
      | C.Tt -> expect "true" [] b
      | C.Ff -> expect "false" [] b
      | C.Not -> expect "not" [ b ] b
      | C.And -> expect "and" [ b; b ] b
      | C.Or -> expect "or" [ b; b ] b
      | C.Xor -> expect "xor" [ b; b ] b
      | C.Implies -> expect "implies" [ b; b ] b
      | C.Iff -> expect "iff" [ b; b ] b
      | C.If ->
        if
          not
            (String.length o.C.op_name >= 3
            && String.sub o.C.op_name 0 3 = "if:"
            && match o.C.op_arity with
               | [ c; x; y ] -> String.equal c b && String.equal x y && String.equal x o.C.op_sort
               | _ -> false)
        then
          raise
            (Reject
               { e_path = path; e_msg = sub "operator %s mis-flagged as if" o.C.op_name })
      | C.Eq ->
        if
          not
            (String.length o.C.op_name >= 2
            && String.sub o.C.op_name 0 2 = "=:"
            && String.equal o.C.op_sort b
            && match o.C.op_arity with [ x; y ] -> String.equal x y | _ -> false)
        then
          raise
            (Reject
               { e_path = path; e_msg = sub "operator %s mis-flagged as eq" o.C.op_name })
      | C.Ac | C.Comm -> ())
    o.C.op_flags

let rec wf_term ck path t =
  if not (C.Term_phys.mem ck.wf_memo t) then begin
    (match t with
    | C.V _ -> ()
    | C.A (o, args) ->
      check_op path o;
      if (is_ac o || is_comm o) && List.length o.C.op_arity <> 2 then
        reject path "AC/Comm operator %s is not binary" o.C.op_name;
      if List.length args <> List.length o.C.op_arity then
        reject path "operator %s applied to %d arguments (arity %d)" o.C.op_name
          (List.length args) (List.length o.C.op_arity);
      List.iter2
        (fun a srt ->
          if not (String.equal (sort_of a) srt) then
            reject path "argument of %s has sort %s, expected %s" o.C.op_name
              (sort_of a) srt;
          wf_term ck path a)
        args o.C.op_arity;
      if has_flag C.Tt o then ck.tt_term <- Some t;
      if has_flag C.Ff o then ck.ff_term <- Some t);
    C.Term_phys.replace ck.wf_memo t ()
  end

let wf_rule ck path (r : C.rule) =
  if not (C.Rule_phys.mem ck.rule_memo r) then begin
    let path = sub "%s/rule %s" path r.C.r_label in
    wf_term ck path r.C.r_lhs;
    wf_term ck path r.C.r_rhs;
    if not (String.equal (sort_of r.C.r_lhs) (sort_of r.C.r_rhs)) then
      reject path "sides have different sorts (%s vs %s)" (sort_of r.C.r_lhs)
        (sort_of r.C.r_rhs);
    (match r.C.r_cond with
    | None -> ()
    | Some c ->
      wf_term ck path c;
      if not (String.equal (sort_of c) bool_sort) then
        reject path "condition has sort %s, expected Bool" (sort_of c));
    C.Rule_phys.replace ck.rule_memo r ()
  end

(* The set of rule ids available in a rule-set chain. *)
let rec rset_closure ck path (rs : C.rset) =
  match C.Rset_phys.find_opt ck.rset_memo rs with
  | Some s -> s
  | None ->
    let base =
      match rs.C.rs_parent with
      | None -> IntSet.empty
      | Some p -> rset_closure ck path p
    in
    let s =
      List.fold_left
        (fun s r ->
          wf_rule ck path r;
          IntSet.add (rule_id ck r) s)
        base rs.C.rs_rules
    in
    C.Rset_phys.replace ck.rset_memo rs s;
    s

(* ----- derivation replay ------------------------------------------- *)

let is_perm n p =
  List.length p = n
  &&
  let seen = Array.make n false in
  List.for_all
    (fun i ->
      i >= 0 && i < n
      &&
      if seen.(i) then false
      else begin
        seen.(i) <- true;
        true
      end)
    p

let nth_exn path xs i =
  match List.nth_opt xs i with
  | Some x -> x
  | None -> raise (Reject { e_path = path; e_msg = sub "index %d out of range" i })

let ac_equal ck a b = term_equal (canon ck.canon_memo a) (canon ck.canon_memo b)

let is_tt = function C.A (o, []) -> has_flag C.Tt o | _ -> false

let rec validate ck path (d : C.deriv) : IntSet.t =
  match C.Deriv_phys.find_opt ck.deriv_memo d with
  | Some (Ok used) -> used
  | Some (Error e) -> raise (Reject e)
  | None ->
    let result =
      try Ok (validate_uncached ck path d) with Reject e -> Error e
    in
    C.Deriv_phys.replace ck.deriv_memo d result;
    (match result with Ok used -> used | Error e -> raise (Reject e))

and validate_uncached ck path (d : C.deriv) : IntSet.t =
  wf_term ck path d.C.d_in;
  wf_term ck path d.C.d_out;
  match d.C.d_node with
  | C.Triv ->
    (* [Triv] claims zero steps, so input and output must coincide *)
    if not (term_equal d.C.d_in d.C.d_out) then
      reject path "trivial derivation with input %a distinct from output %a" pp_term
        d.C.d_in pp_term d.C.d_out;
    IntSet.empty
  | C.App { children; perm; step } ->
    let o, args =
      match d.C.d_in with
      | C.A (o, args) -> (o, args)
      | C.V _ -> reject path "app derivation over variable input %a" pp_term d.C.d_in
    in
    if List.length children <> List.length args then
      reject path "%d child derivations for %d arguments of %s" (List.length children)
        (List.length args) o.C.op_name;
    let used = ref IntSet.empty in
    List.iteri
      (fun i (c : C.deriv) ->
        let cpath = sub "%s/arg %d" path i in
        if not (term_equal c.C.d_in (nth_exn cpath args i)) then
          reject cpath "child derivation input %a is not argument %d of %a" pp_term
            c.C.d_in i pp_term d.C.d_in;
        used := IntSet.union !used (validate ck cpath c))
      children;
    let t' = C.A (o, List.map (fun (c : C.deriv) -> c.C.d_out) children) in
    let t'' =
      match perm with
      | None -> t'
      | Some p ->
        let ppath = sub "%s/perm" path in
        if is_ac o then begin
          let flat = flatten o.C.op_name t' in
          let n = List.length flat in
          if not (is_perm n p) then
            reject ppath "bogus AC permutation [%s] over %d arguments"
              (String.concat ";" (List.map string_of_int p))
              n;
          rebuild o (List.map (nth_exn ppath flat) p)
        end
        else if is_comm o then begin
          match t', p with
          | C.A (_, ([ _; _ ] as xs)), [ a; b ] when is_perm 2 [ a; b ] ->
            C.A (o, [ nth_exn ppath xs a; nth_exn ppath xs b ])
          | _ -> reject ppath "bogus Comm permutation"
        end
        else reject ppath "permutation on non-AC/Comm operator %s" o.C.op_name
    in
    (match step with
    | None ->
      if not (term_equal d.C.d_out t'') then
        reject path "stepless derivation output %a differs from computed %a" pp_term
          d.C.d_out pp_term t''
    | Some s ->
      let r = s.C.s_rule in
      let spath = sub "%s/step[%s]" path r.C.r_label in
      wf_rule ck path r;
      (* recorded substitution: sort-correct images *)
      List.iter
        (fun (n, srt, img) ->
          wf_term ck spath img;
          if not (String.equal (sort_of img) srt) then
            reject spath "substitution binds %s:%s to a term of sort %s" n srt
              (sort_of img))
        s.C.s_sub;
      let sigma_lhs = apply s.C.s_sub r.C.r_lhs in
      if not (term_equal t'' sigma_lhs || ac_equal ck t'' sigma_lhs) then
        reject spath "rule %s does not match the redex: instantiated lhs %a, redex %a"
          r.C.r_label pp_term sigma_lhs pp_term t'';
      (* condition discharge *)
      (match r.C.r_cond, s.C.s_cond with
      | None, None -> ()
      | Some c, Some dc ->
        let cpath = sub "%s/cond" spath in
        let sigma_c = apply s.C.s_sub c in
        if not (term_equal dc.C.d_in sigma_c) then
          reject cpath "condition derivation starts at %a, not the instantiated condition %a"
            pp_term dc.C.d_in pp_term sigma_c;
        used := IntSet.union !used (validate ck cpath dc);
        if not (is_tt dc.C.d_out) then
          reject cpath "condition of rule %s discharges to %a, not true" r.C.r_label
            pp_term dc.C.d_out
      | Some _, None ->
        reject spath "rule %s is conditional but the step records no condition discharge"
          r.C.r_label
      | None, Some _ ->
        reject spath "rule %s is unconditional but the step records a condition discharge"
          r.C.r_label);
      (* right-hand side normalization *)
      let npath = sub "%s/next" spath in
      let sigma_rhs = apply s.C.s_sub r.C.r_rhs in
      if not (term_equal s.C.s_next.C.d_in sigma_rhs) then
        reject npath "continuation starts at %a, not the instantiated rhs %a" pp_term
          s.C.s_next.C.d_in pp_term sigma_rhs;
      used := IntSet.union !used (validate ck npath s.C.s_next);
      if not (term_equal d.C.d_out s.C.s_next.C.d_out) then
        reject path "derivation output %a differs from continuation output %a" pp_term
          d.C.d_out pp_term s.C.s_next.C.d_out;
      ck.steps_validated <- ck.steps_validated + 1;
      used := IntSet.add (rule_id ck r) !used);
    !used

(* ----- obligations -------------------------------------------------- *)

let check_red ck (red : C.red) : error option =
  let path = sub "red %s" red.C.red_name in
  try
    let scope = rset_closure ck path red.C.red_rset in
    let d = red.C.red_deriv in
    if not (term_equal d.C.d_in red.C.red_in) then
      reject path "derivation input %a is not the obligation input %a" pp_term
        d.C.d_in pp_term red.C.red_in;
    if not (term_equal d.C.d_out red.C.red_out) then
      reject path "derivation output %a is not the claimed normal form %a" pp_term
        d.C.d_out pp_term red.C.red_out;
    let used = validate ck path d in
    if not (IntSet.subset used scope) then
      reject path "derivation uses %d rule(s) outside its rule set"
        (IntSet.cardinal (IntSet.diff used scope));
    None
  with Reject e -> Some e

let check_join ck (join : C.join) : error option =
  let path = sub "join %s" join.C.j_label in
  try
    let scope = rset_closure ck path join.C.j_rset in
    let used = ref IntSet.empty in
    let tt_ff path =
      match ck.tt_term, ck.ff_term with
      | Some t, Some f -> (t, f)
      | _ -> reject path "certificate declares no true/false constants for a split"
    in
    let rec go path l r (jc : C.jcert) =
      if not (term_equal jc.C.jc_left.C.d_in l) then
        reject path "left derivation starts at %a, not %a" pp_term jc.C.jc_left.C.d_in
          pp_term l;
      if not (term_equal jc.C.jc_right.C.d_in r) then
        reject path "right derivation starts at %a, not %a" pp_term
          jc.C.jc_right.C.d_in pp_term r;
      used := IntSet.union !used (validate ck (sub "%s/left" path) jc.C.jc_left);
      used := IntSet.union !used (validate ck (sub "%s/right" path) jc.C.jc_right);
      let l' = jc.C.jc_left.C.d_out and r' = jc.C.jc_right.C.d_out in
      match jc.C.jc_tail with
      | C.Jsyn ->
        if not (term_equal l' r') then
          reject path "sides reduce to distinct terms %a and %a" pp_term l' pp_term r'
      | C.Jring ->
        if not (poly_equal l' r') then
          reject path "sides %a and %a are not boolean-ring equal" pp_term l' pp_term
            r'
      | C.Jsplit (c, jt, jf) ->
        wf_term ck path c;
        if not (String.equal (sort_of c) bool_sort) then
          reject path "split condition %a is not boolean" pp_term c;
        let tt, ff = tt_ff path in
        go (sub "%s/true" path)
          (replace ~old:c ~by:tt l')
          (replace ~old:c ~by:tt r')
          jt;
        go (sub "%s/false" path)
          (replace ~old:c ~by:ff l')
          (replace ~old:c ~by:ff r')
          jf
    in
    wf_term ck path join.C.j_peak;
    go path join.C.j_left join.C.j_right join.C.j_cert;
    if not (IntSet.subset !used scope) then
      reject path "join uses %d rule(s) outside its rule set"
        (IntSet.cardinal (IntSet.diff !used scope));
    None
  with Reject e -> Some e

let check_lpo ck : error list =
  match ck.cert.C.lpo with
  | None -> []
  | Some l -> (
    try
      (* The precedence ranks operators by full profile, like the engine's
         [Order.op_key]: the TLS model overloads names across sorts.  A
         profile listed twice could smuggle in an inconsistent order, so
         duplicates are rejected. *)
      let op_key (o : C.op) =
        String.concat "," (o.C.op_name :: o.C.op_arity) ^ "->" ^ o.C.op_sort
      in
      let rank = Hashtbl.create 64 in
      List.iteri
        (fun i (o : C.op) ->
          check_op "lpo/prec" o;
          let k = op_key o in
          if Hashtbl.mem rank k then
            raise
              (Reject
                 {
                   e_path = "lpo/prec";
                   e_msg = sub "operator %s listed twice in the precedence" o.C.op_name;
                 });
          Hashtbl.replace rank k i)
        l.C.lpo_prec;
      let prec o1 o2 =
        match Hashtbl.find_opt rank (op_key o1), Hashtbl.find_opt rank (op_key o2) with
        | Some i, Some j -> compare i j
        | Some _, None -> 1
        | None, Some _ -> -1
        | None, None -> String.compare o1.C.op_name o2.C.op_name
      in
      List.filter_map
        (fun (r : C.rule) ->
          let path = sub "lpo/rule %s" r.C.r_label in
          try
            wf_rule ck "lpo" r;
            if not (lpo ~prec r.C.r_lhs r.C.r_rhs) then
              reject path "lhs %a is not LPO-greater than rhs %a under the certificate precedence"
                pp_term r.C.r_lhs pp_term r.C.r_rhs;
            (match r.C.r_cond with
            | Some c when not (lpo ~prec r.C.r_lhs c) ->
              reject path "lhs is not LPO-greater than the condition %a" pp_term c
            | _ -> ());
            None
          with Reject e -> Some e)
        l.C.lpo_rules
    with Reject e -> [ e ])

let create (cert : C.t) : t =
  {
    cert;
    canon_memo = C.Term_phys.create 4096;
    wf_memo = C.Term_phys.create 4096;
    rule_memo = C.Rule_phys.create 256;
    deriv_memo = C.Deriv_phys.create 4096;
    rset_memo = C.Rset_phys.create 64;
    rule_ids = C.Rule_phys.create 256;
    next_rule_id = 0;
    steps_validated = 0;
    tt_term = None;
    ff_term = None;
  }

let steps_validated ck = ck.steps_validated

let check_all ck : error list =
  let lpo_errs = check_lpo ck in
  let red_errs = List.filter_map (check_red ck) ck.cert.C.reds in
  let join_errs = List.filter_map (check_join ck) ck.cert.C.joins in
  lpo_errs @ red_errs @ join_errs

(* ------------------------------------------------------------------ *)
(* Chunked replay.  Each job gets its own checker (the memo tables are
   single-domain), so a chunk re-validates the sub-derivations it shares
   with another chunk: the verdict does not depend on the chunking, the
   step count does. *)

type job = Jlpo | Jred of C.red list | Jjoin of C.join list

let job_label = function
  | Jlpo -> "lpo"
  | Jred rs -> Printf.sprintf "reds[%d]" (List.length rs)
  | Jjoin js -> Printf.sprintf "joins[%d]" (List.length js)

let chunks_of n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let run_job cert job =
  let ck = create cert in
  let errs =
    match job with
    | Jlpo -> check_lpo ck
    | Jred rs -> List.filter_map (check_red ck) rs
    | Jjoin js -> List.filter_map (check_join ck) js
  in
  (errs, ck.steps_validated)

let replay ~chunks ~map (cert : C.t) =
  let nred = List.length cert.C.reds in
  let chunk = max 1 ((nred + chunks - 1) / chunks) in
  let jobs =
    (if cert.C.lpo = None then [] else [ Jlpo ])
    @ List.map (fun rs -> Jred rs) (chunks_of chunk cert.C.reds)
    @ match cert.C.joins with [] -> [] | js -> [ Jjoin js ]
  in
  let results = map (run_job cert) jobs in
  ( List.concat_map fst results,
    List.fold_left (fun acc (_, s) -> acc + s) 0 results )
