module Probe = Telemetry.Probe

type rule = {
  label : string;
  lhs : Term.t;
  rhs : Term.t;
  cond : Term.t option;
}

let var_subset small big =
  let inside = Term.vars big in
  List.for_all
    (fun (v : Term.var) ->
      List.exists
        (fun (w : Term.var) ->
          String.equal v.v_name w.v_name && Sort.equal v.v_sort w.v_sort)
        inside)
    (Term.vars small)

let rule ?cond ~label lhs rhs =
  (match Term.view lhs with
  | Term.Var _ -> invalid_arg (Printf.sprintf "Rewrite.rule %s: variable lhs" label)
  | Term.App _ -> ());
  if not (Sort.equal (Term.sort lhs) (Term.sort rhs)) then
    invalid_arg (Printf.sprintf "Rewrite.rule %s: sorts differ" label);
  if not (var_subset rhs lhs) then
    invalid_arg
      (Printf.sprintf "Rewrite.rule %s: rhs has variables not in lhs" label);
  (match cond with
  | Some c ->
    if not (Sort.equal (Term.sort c) Sort.bool) then
      invalid_arg (Printf.sprintf "Rewrite.rule %s: non-boolean condition" label);
    if not (var_subset c lhs) then
      invalid_arg
        (Printf.sprintf "Rewrite.rule %s: condition has variables not in lhs"
           label)
  | None -> ());
  { label; lhs; rhs; cond }

(* ------------------------------------------------------------------ *)
(* Derivations.                                                        *)
(* ------------------------------------------------------------------ *)

type deriv = { d_in : Term.t; d_out : Term.t; d_node : dnode }

and dnode =
  | Triv
  | Dapp of { children : deriv list; perm : int list option; step : rstep option }

and rstep = {
  rs_rule : rule;
  rs_sub : Subst.t;
  rs_cond : deriv option;
  rs_next : deriv;
}

type sys_info = {
  si_uid : int;
  si_parent : sys_info option;
  si_added : rule list;
}

(* ------------------------------------------------------------------ *)
(* Normal-form memo.

   Hash-consed terms make the memo a pointer-keyed table hashed by the
   term's id ([Term.id_hash]) — no recursive hashing or comparison on
   lookup.  The table is striped (mutex per shard, shard picked by bits
   of the [id_hash] well above those its shard's table indexes with) so
   the sched pool's domains share one read-mostly memo without contending
   on a single lock.  Every entry is stamped with the memo's generation at
   store time; [invalidate] bumps the generation, turning all existing
   entries into misses at once — this is what ties cached normal forms to
   the rule set they were computed under. *)

type memo_shard = { ms_lock : Mutex.t; ms_tbl : (int * Term.t) Term.Tbl.t }

type memo = {
  m_shards : memo_shard array;
  m_gen : int Atomic.t;
  m_hits : int Atomic.t;
  m_misses : int Atomic.t;
}

(* Keep creation cheap: every proof case forks a system and every split
   branch extends one, and since neither recompiles the base's rules, the
   empty memo is most of what either costs.  16 shards is
   plenty of lock spread for the pool sizes we run; tables grow on
   demand. *)
let memo_shard_count = 16

let memo_create () =
  {
    m_shards =
      Array.init memo_shard_count (fun _ ->
          { ms_lock = Mutex.create (); ms_tbl = Term.Tbl.create 16 });
    m_gen = Atomic.make 0;
    m_hits = Atomic.make 0;
    m_misses = Atomic.make 0;
  }

(* The per-system atomics above are the source of truth (memo_stats);
   the telemetry counters mirror them across every system so a profiled
   run sees one process-wide hit/miss figure without holding a system. *)
let c_memo_hits = Probe.counter "kernel.memo.hits"
let c_memo_misses = Probe.counter "kernel.memo.misses"
let c_memo_invalidations = Probe.counter "kernel.memo.invalidations"

let memo_find m t =
  let s = m.m_shards.((Term.id_hash t lsr 32) land (memo_shard_count - 1)) in
  Mutex.lock s.ms_lock;
  let r = Term.Tbl.find_opt s.ms_tbl t in
  Mutex.unlock s.ms_lock;
  match r with
  | Some (g, nf) when g = Atomic.get m.m_gen ->
    Atomic.incr m.m_hits;
    Probe.incr c_memo_hits;
    Some nf
  | Some _ | None ->
    Atomic.incr m.m_misses;
    Probe.incr c_memo_misses;
    None

let memo_store m t nf =
  let g = Atomic.get m.m_gen in
  let s = m.m_shards.((Term.id_hash t lsr 32) land (memo_shard_count - 1)) in
  Mutex.lock s.ms_lock;
  Term.Tbl.replace s.ms_tbl t (g, nf);
  Mutex.unlock s.ms_lock

let memo_reset m =
  Array.iter
    (fun s ->
      Mutex.lock s.ms_lock;
      Term.Tbl.reset s.ms_tbl;
      Mutex.unlock s.ms_lock)
    m.m_shards

let memo_entries m =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.ms_lock;
      let n = Term.Tbl.length s.ms_tbl in
      Mutex.unlock s.ms_lock;
      acc + n)
    0 m.m_shards

type memo_stats = { hits : int; misses : int; entries : int; generation : int }

(* One compiled rule set: the head-operator table the linear scan reads
   and the discrimination tree over the same rules.  Nothing mutates a
   layer after [compile] apart from the tree's health flag ([selfcheck],
   [corrupt_index_for_tests]), so a system, its forks and its extensions
   share layers freely, across pool domains too. *)
type layer = {
  l_heads : (string, rule list) Hashtbl.t;  (** head operator name -> rules *)
  l_dtree : rule Index.t;
}

type system = {
  layers : layer list;
      (** newest first: an extension's extra rules precede its parent's *)
  mutable indexing : bool;  (** [false]: rule selection via the linear scan *)
  memo : memo;
  mutable dcache : deriv Term.Tbl.t option;
      (** derivation memo, allocated lazily on first traced run *)
  mutable step_limit : int;
  mutable deadline : float;  (** CPU-seconds per [normalize]; [0.] = none *)
  mutable deadline_at : float;
  steps_total : int Atomic.t;  (** shared with systems derived by [extend] *)
  mutable budget : int;
  info : sys_info;
}

let head_name r =
  match Term.view r.lhs with
  | Term.App (o, _) -> o.Signature.name
  | Term.Var _ -> assert false

let build_heads rules =
  let heads = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = head_name r in
      let later = Option.value ~default:[] (Hashtbl.find_opt heads key) in
      Hashtbl.replace heads key (r :: later))
    (List.rev rules);
  heads

(* Defensive: a miscompiled index could silently skip rules.  The
   self-retrieval replay costs one query per rule at construction time and
   degrades a bad index to full-bucket answers. *)
let compile uid rules =
  let dtree = Index.build ~gen:uid ~lhs:(fun r -> r.lhs) rules in
  (match Index.validate dtree with Ok () | Error _ -> ());
  { l_heads = build_heads rules; l_dtree = dtree }

let uid_counter = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add uid_counter 1

(* New systems pick up the process-wide default; [set_indexing] overrides
   per system, and [extend] inherits the parent's choice so a campaign
   forced onto the linear scan stays on it through every split branch. *)
let default_indexing_flag = Atomic.make true
let set_default_indexing b = Atomic.set default_indexing_flag b
let default_indexing () = Atomic.get default_indexing_flag

let default_step_limit = 5_000_000

(* A new system over [layers]: fresh memo, and unless given, the default
   limits, indexing flag and a step counter of its own. *)
let assemble ?(indexing = default_indexing ()) ?(step_limit = default_step_limit)
    ?(deadline = 0.) ?(steps_total = Atomic.make 0) layers info =
  {
    layers;
    indexing;
    memo = memo_create ();
    dcache = None;
    step_limit;
    deadline;
    deadline_at = 0.;
    steps_total;
    budget = 0;
    info;
  }

let make rules =
  let uid = fresh_uid () in
  assemble [ compile uid rules ]
    { si_uid = uid; si_parent = None; si_added = rules }

(* The [si_added]/[si_parent] chain lists every rule, extra rules first —
   the order the layers answer in. *)
let rec chain_rules si =
  match si.si_parent with
  | None -> si.si_added
  | Some p -> si.si_added @ chain_rules p

let rules sys = chain_rules sys.info
let info sys = sys.info

(* [make (rules sys)] without the compilation: the layers are shared, the
   memo, counters and limits are the fork's own.  The identity is a root
   listing every rule, exactly as [make] would record it, so certificates
   cannot tell a fork from a fresh system. *)
let fork sys =
  assemble sys.layers
    { si_uid = fresh_uid (); si_parent = None; si_added = rules sys }

(* A derived system gets a fresh memo: the extra rules rewrite terms the
   base system considered normal, so no base entry may be trusted.  Only
   the extra rules are compiled (and self-checked); their layer goes in
   front of the parent's, which are shared as they are. *)
let extend sys extra =
  let uid = fresh_uid () in
  assemble ~indexing:sys.indexing ~step_limit:sys.step_limit
    ~deadline:sys.deadline ~steps_total:sys.steps_total
    (compile uid extra :: sys.layers)
    { si_uid = uid; si_parent = Some sys.info; si_added = extra }

type limit = Steps of int | Deadline of float

exception Limit_exceeded of { limit : limit; steps : int }

let () =
  Printexc.register_printer (function
    | Limit_exceeded { limit = Steps n; steps } ->
      Some
        (Printf.sprintf
           "Rewrite.Limit_exceeded (step limit %d reached after %d steps)" n steps)
    | Limit_exceeded { limit = Deadline d; steps } ->
      Some
        (Printf.sprintf
           "Rewrite.Limit_exceeded (deadline %.3fs reached after %d steps)" d
           steps)
    | _ -> None)

let set_step_limit sys n = sys.step_limit <- n
let set_deadline sys d = sys.deadline <- d
let steps sys = Atomic.get sys.steps_total
let reset_steps sys = Atomic.set sys.steps_total 0

let clear_cache sys =
  memo_reset sys.memo;
  sys.dcache <- None

let invalidate_memo sys =
  Atomic.incr sys.memo.m_gen;
  Probe.incr c_memo_invalidations

let memo_stats sys =
  {
    hits = Atomic.get sys.memo.m_hits;
    misses = Atomic.get sys.memo.m_misses;
    entries = memo_entries sys.memo;
    generation = Atomic.get sys.memo.m_gen;
  }

(* [steps_total] is atomic: a base system's counter is shared (via
   [extend]) by every branched system the proof pool runs concurrently,
   so a plain [incr] loses updates and [--jobs] totals under-report. *)
let tick sys =
  Atomic.incr sys.steps_total;
  sys.budget <- sys.budget - 1;
  if sys.budget <= 0 then
    raise (Limit_exceeded { limit = Steps sys.step_limit; steps = sys.step_limit });
  if sys.deadline > 0. && Sys.time () > sys.deadline_at then
    raise
      (Limit_exceeded
         { limit = Deadline sys.deadline; steps = sys.step_limit - sys.budget })

(* Leftmost-innermost normalization with memoization.  Children are
   normalized first; then root rules are tried until none applies.  A rule's
   condition is normalized recursively and must reach the literal [true].

   The traversal is parameterized by its cache: [normalize] runs against
   the system's shared striped memo, [normalize_uncached] against a
   private per-call table — same strategy, same step accounting, so the
   two are differentially comparable. *)

type cache_ops = {
  c_find : Term.t -> Term.t option;
  c_store : Term.t -> Term.t -> unit;
  c_rules : Term.t -> Signature.op -> rule list;
      (** candidate rules for a root, in rule order *)
}

(* Candidate rules for [t] from every layer, newest first.  Each layer
   answers in its own rule order and extra rules precede their parent's,
   so the concatenation is the flat rule order. *)
let rec layered_rules select = function
  | [] -> []
  | [ l ] -> select l
  | l :: rest -> (
    match select l with
    | [] -> layered_rules select rest
    | rs -> ( match layered_rules select rest with [] -> rs | more -> rs @ more))

(* The seed engine's rule selection: every rule under the subject's head
   operator name, in rule order.  Kept as the reference the differential
   suite compares the index against, and as the fallback when indexing is
   off. *)
let linear_rules sys o =
  layered_rules
    (fun l ->
      Option.value ~default:[] (Hashtbl.find_opt l.l_heads o.Signature.name))
    sys.layers

(* Indexed rule selection.  [Index.candidates] is never-miss and preserves
   rule order, so the rule that fires — and with it every normal form,
   step count and traced derivation — is identical to the linear scan's.
   With indexing off the linear answer is returned and accounted as a
   fallback (an index degraded by a failed selfcheck accounts its own
   fallbacks internally). *)
let sys_rules sys t o =
  if sys.indexing then
    layered_rules (fun l -> Index.candidates l.l_dtree t) sys.layers
  else begin
    let rs = linear_rules sys o in
    if rs <> [] then Index.note_fallback (List.length rs);
    rs
  end

(* One root-match attempt of [r.lhs] against [t] — AC roots go through the
   AC matcher, everything else through syntactic matching.  Profiled as a
   [Match] frame charged to the rule *attempted*, so the hot-rules table
   shows scan cost where it belongs: a rule that is tried at every redex
   and almost never fires is expensive even though it never rewrites
   anything, and that is precisely the cost the index removes. *)
let match_root r t =
  if not (Probe.enabled ()) then
    match Term.view r.lhs, Term.view t with
    | Term.App (po, _), Term.App (so, _)
      when Signature.is_ac po && Signature.op_equal po so ->
      Ac.match_first r.lhs t
    | _ -> Matching.match_ r.lhs t
  else begin
    let f = Probe.rule_enter () in
    let m =
      match Term.view r.lhs, Term.view t with
      | Term.App (po, _), Term.App (so, _)
        when Signature.is_ac po && Signature.op_equal po so ->
        Ac.match_first r.lhs t
      | _ -> Matching.match_ r.lhs t
    in
    Probe.rule_exit f ~kind:Probe.Match ~label:r.label;
    m
  end

let rec norm ops sys t =
  match ops.c_find t with
  | Some nf -> nf
  | None ->
    let nf =
      match Term.view t with
      | Term.Var _ -> t
      | Term.App (o, args) ->
        let args' = List.map (norm ops sys) args in
        let t' =
          if List.for_all2 ( == ) args args' then t
          else Term.app_unchecked o args'
        in
        let t' =
          if Signature.is_ac o || Signature.is_comm o then Ac.normalize t'
          else t'
        in
        reduce_root ops sys t'
    in
    ops.c_store t nf;
    nf

and reduce_root ops sys t =
  match Term.view t with
  | Term.Var _ -> t
  | Term.App (o, _) -> (
    match ops.c_rules t o with
    | [] -> t
    | candidates -> try_rules ops sys t candidates)

and try_rules ops sys t = function
  | [] -> t
  | r :: rest -> (
    match match_root r t with
    | None -> try_rules ops sys t rest
    | Some sub -> (
      (* Profiling brackets all three timed regions — the match attempt
         (in [match_root]), condition discharge and right-hand-side
         normalization — with a per-domain frame so the hotspot report
         gets exact self-times.  The probe-off path is the seed path plus
         one flag read; the differential suite holds the two to identical
         normal forms and step counts. *)
      let fires =
        match r.cond with
        | None -> true
        | Some c ->
          let inst = Subst.apply sub c in
          if not (Probe.enabled ()) then Term.equal (norm ops sys inst) Term.tt
          else begin
            let f = Probe.rule_enter () in
            match norm ops sys inst with
            | nf ->
              Probe.rule_exit f ~kind:Probe.Cond ~label:r.label;
              Term.equal nf Term.tt
            | exception e ->
              Probe.rule_exit f ~kind:Probe.Cond ~label:r.label;
              raise e
          end
      in
      if not fires then try_rules ops sys t rest
      else if not (Probe.enabled ()) then begin
        tick sys;
        norm ops sys (Subst.apply sub r.rhs)
      end
      else begin
        let f = Probe.rule_enter () in
        tick sys;
        match norm ops sys (Subst.apply sub r.rhs) with
        | nf ->
          Probe.rule_exit f ~kind:Probe.Rewrite ~label:r.label;
          nf
        | exception e ->
          Probe.rule_exit f ~kind:Probe.Rewrite ~label:r.label;
          raise e
      end))

let shared_ops sys =
  {
    c_find = memo_find sys.memo;
    c_store = memo_store sys.memo;
    c_rules = (fun t o -> sys_rules sys t o);
  }

let local_ops sys =
  let tbl = Term.Tbl.create 1024 in
  {
    c_find = Term.Tbl.find_opt tbl;
    c_store = Term.Tbl.replace tbl;
    (* the reference path selects rules by linear scan, unconditionally,
       and does not count fallbacks — it is the baseline, not a fallback *)
    c_rules = (fun _ o -> linear_rules sys o);
  }

(* ------------------------------------------------------------------ *)
(* Traced normalization.                                               *)
(*                                                                     *)
(* The traced path mirrors [norm] exactly — same strategy, same step   *)
(* accounting — but records a derivation for every visited term.  The  *)
(* derivation memo is separate from the plain normal-form memo: a memo *)
(* entry warmed by an earlier untraced run has no derivation, so       *)
(* traced runs consult only [dcache]; the plain memo is warmed only    *)
(* at derivation roots (hashing every subterm into both tables showed  *)
(* up as the bulk of the tracing overhead).                            *)
(*                                                                     *)
(* Derivations certify reachability (input rewrites to output using    *)
(* the recorded rules), which is what soundness of a proof score       *)
(* needs; they do not certify that the output is a normal form.  A     *)
(* node that performs no step anywhere collapses to [Triv].            *)
(* ------------------------------------------------------------------ *)

let dcache sys =
  match sys.dcache with
  | Some dc -> dc
  | None ->
    let dc = Term.Tbl.create 1024 in
    sys.dcache <- Some dc;
    dc

let triv t = { d_in = t; d_out = t; d_node = Triv }

(* AC/Comm canonicalization of [t'], recording the permutation of the
   flattened argument list.  Mirrors [Ac.normalize] on terms whose children
   are already canonical; [None] when canonicalization is the identity.

   Fast path: interned terms carry their canonicity, so the overwhelmingly
   common already-sorted case is a single flag read (no flatten, no
   compare — this is what keeps tracing overhead low). *)
let ac_perm o t' =
  if Term.ac_canonical t' then (None, t')
  else
    match Term.view t' with
    | Term.App (_, [ _; _ ]) when Signature.is_ac o ->
      let flat = Ac.flatten o t' in
      let idx = List.mapi (fun i t -> (t, i)) flat in
      let sorted =
        List.stable_sort (fun (a, _) (b, _) -> Term.ac_compare a b) idx
      in
      let t'' = Ac.rebuild o (List.map fst sorted) in
      if Term.equal t'' t' then (None, t')
      else (Some (List.map snd sorted), t'')
    | Term.App (_, [ a; b ]) when Signature.is_comm o ->
      if Term.ac_compare a b <= 0 then (None, t')
      else (Some [ 1; 0 ], Term.app_unchecked o [ b; a ])
    | _ -> (None, t')

let rec norm_t sys t =
  let dc = dcache sys in
  match Term.Tbl.find_opt dc t with
  | Some d -> d
  | None ->
    let d =
      match Term.view t with
      | Term.Var _ -> triv t
      | Term.App (o, args) ->
        let children = List.map (norm_t sys) args in
        (* reuse [t] when no child moved: keeps the stepless [Term.equal]
           below on its physical-equality fast path *)
        let t' =
          if List.for_all2 (fun d a -> d.d_out == a) children args then t
          else Term.app_unchecked o (List.map (fun d -> d.d_out) children)
        in
        let perm, t'' =
          if Signature.is_ac o || Signature.is_comm o then ac_perm o t'
          else (None, t')
        in
        let step =
          match sys_rules sys t'' o with
          | [] -> None
          | candidates -> try_rules_t sys t'' candidates
        in
        (match step with
        | None ->
          if Term.equal t'' t then triv t
          else { d_in = t; d_out = t''; d_node = Dapp { children; perm; step = None } }
        | Some rs ->
          {
            d_in = t;
            d_out = rs.rs_next.d_out;
            d_node = Dapp { children; perm; step = Some rs };
          })
    in
    Term.Tbl.replace dc t d;
    d

and try_rules_t sys t = function
  | [] -> None
  | r :: rest -> (
    match match_root r t with
    | None -> try_rules_t sys t rest
    | Some sub -> (
      let discharged =
        match r.cond with
        | None -> Some None
        | Some c ->
          let inst = Subst.apply sub c in
          let dc =
            if not (Probe.enabled ()) then norm_t sys inst
            else begin
              let f = Probe.rule_enter () in
              match norm_t sys inst with
              | dc ->
                Probe.rule_exit f ~kind:Probe.Cond ~label:r.label;
                dc
              | exception e ->
                Probe.rule_exit f ~kind:Probe.Cond ~label:r.label;
                raise e
            end
          in
          if Term.equal dc.d_out Term.tt then Some (Some dc) else None
      in
      match discharged with
      | None -> try_rules_t sys t rest
      | Some rs_cond ->
        if not (Probe.enabled ()) then begin
          tick sys;
          let rs_next = norm_t sys (Subst.apply sub r.rhs) in
          Some { rs_rule = r; rs_sub = sub; rs_cond; rs_next }
        end
        else begin
          let f = Probe.rule_enter () in
          tick sys;
          match norm_t sys (Subst.apply sub r.rhs) with
          | rs_next ->
            Probe.rule_exit f ~kind:Probe.Rewrite ~label:r.label;
            Some { rs_rule = r; rs_sub = sub; rs_cond; rs_next }
          | exception e ->
            Probe.rule_exit f ~kind:Probe.Rewrite ~label:r.label;
            raise e
        end))

let start_run sys =
  sys.budget <- sys.step_limit;
  if sys.deadline > 0. then sys.deadline_at <- Sys.time () +. sys.deadline

let normalize_traced_inner sys t =
  start_run sys;
  let d = norm_t sys t in
  memo_store sys.memo t d.d_out;
  (d.d_out, d)

(* One span per top-level normalization ([cat = "red"]): nested [norm]
   recursion stays span-free (rule applications are profiled separately),
   so a trace shows each red as one block under its proof case. *)
let normalize_traced sys t =
  if not (Probe.enabled ()) then normalize_traced_inner sys t
  else begin
    let t0 = Probe.now_ns () in
    match normalize_traced_inner sys t with
    | v ->
      Probe.span_since ~cat:"red" "red" t0;
      v
    | exception e ->
      Probe.span_since ~cat:"red" "red" t0;
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Global tracer.                                                      *)
(* ------------------------------------------------------------------ *)

type obligation = { ob_info : sys_info; ob_input : Term.t; ob_deriv : deriv }

type tracer = {
  tr_lock : Mutex.t;
  mutable tr_obs : obligation list;
  tr_seen : (int, unit Term.Tbl.t) Hashtbl.t;
}

let tracer () =
  { tr_lock = Mutex.create (); tr_obs = []; tr_seen = Hashtbl.create 64 }

let tracer_slot : tracer option Atomic.t = Atomic.make None
let set_tracer tr = Atomic.set tracer_slot tr

let obligations tr =
  Mutex.protect tr.tr_lock (fun () -> List.rev tr.tr_obs)

let record tr sys t d =
  match d.d_node with
  | Triv -> ()  (* zero-step runs carry nothing to check *)
  | _ ->
    Mutex.protect tr.tr_lock (fun () ->
        let uid = sys.info.si_uid in
        let seen =
          match Hashtbl.find_opt tr.tr_seen uid with
          | Some s -> s
          | None ->
            let s = Term.Tbl.create 64 in
            Hashtbl.replace tr.tr_seen uid s;
            s
        in
        if not (Term.Tbl.mem seen t) then begin
          Term.Tbl.replace seen t ();
          tr.tr_obs <-
            { ob_info = sys.info; ob_input = t; ob_deriv = d } :: tr.tr_obs
        end)

let normalize_inner sys t =
  match Atomic.get tracer_slot with
  | None ->
    start_run sys;
    norm (shared_ops sys) sys t
  | Some tr ->
    start_run sys;
    let d = norm_t sys t in
    memo_store sys.memo t d.d_out;
    record tr sys t d;
    d.d_out

let normalize sys t =
  if not (Probe.enabled ()) then normalize_inner sys t
  else begin
    let t0 = Probe.now_ns () in
    match normalize_inner sys t with
    | nf ->
      Probe.span_since ~cat:"red" "red" t0;
      nf
    | exception e ->
      Probe.span_since ~cat:"red" "red" t0;
      raise e
  end

(* The seed engine's path: identical strategy and step accounting, but
   against a private table that dies with the call — nothing read from or
   written to the shared memo.  The differential suite runs every spec
   through both entry points. *)
let normalize_uncached_inner sys t =
  start_run sys;
  norm (local_ops sys) sys t

let normalize_uncached sys t =
  if not (Probe.enabled ()) then normalize_uncached_inner sys t
  else begin
    let t0 = Probe.now_ns () in
    match normalize_uncached_inner sys t with
    | nf ->
      Probe.span_since ~cat:"red" "red" t0;
      nf
    | exception e ->
      Probe.span_since ~cat:"red" "red" t0;
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Index control and introspection.                                    *)
(* ------------------------------------------------------------------ *)

let set_indexing sys b = sys.indexing <- b
let indexing sys = sys.indexing

(* Counts are summed over the layers; the generation is the newest
   layer's, and the index is healthy only if every layer is. *)
let index_info sys =
  let infos = List.map (fun l -> Index.info l.l_dtree) sys.layers in
  let sum f = List.fold_left (fun n i -> n + f i) 0 infos in
  {
    Index.ix_rules = sum (fun i -> i.Index.ix_rules);
    ix_buckets = sum (fun i -> i.Index.ix_buckets);
    ix_ac_buckets = sum (fun i -> i.Index.ix_ac_buckets);
    ix_generation = (List.hd infos).Index.ix_generation;
    ix_ok = List.for_all (fun i -> i.Index.ix_ok) infos;
  }

(* Re-runs the self-retrieval replay of every layer on demand.  A failure
   means an index was corrupted after construction, and any normal form
   computed through it since is suspect — so on [Error] the memo
   generation is bumped and the derivation cache dropped along with
   degrading the layer to full-bucket answers.  This is the index side of
   the index⇄memo generation contract: the memo may only hold entries
   computed under a healthy index of the current rule set.  Degrading a
   shared layer degrades it for every system holding it; only this
   system's memo is invalidated. *)
let selfcheck sys =
  let checked = List.map (fun l -> Index.validate l.l_dtree) sys.layers in
  match List.find_opt Result.is_error checked with
  | None -> Ok ()
  | Some e ->
    invalidate_memo sys;
    sys.dcache <- None;
    e

(* [slot] counts along the whole chain's bucket, newest layer first — the
   position in the order the rewriter tries the rules. *)
let corrupt_index_for_tests sys ~bucket ~slot =
  let rec go slot = function
    | [] -> false
    | l :: rest ->
      let n =
        match Hashtbl.find_opt l.l_heads bucket with
        | Some rs -> List.length rs
        | None -> 0
      in
      if slot < n then Index.unsafe_drop_slot l.l_dtree ~bucket ~slot
      else go (slot - n) rest
  in
  slot >= 0 && go slot sys.layers

let pp_rule ppf r =
  match r.cond with
  | None -> Format.fprintf ppf "[%s] %a = %a" r.label Term.pp r.lhs Term.pp r.rhs
  | Some c ->
    Format.fprintf ppf "[%s] %a = %a if %a" r.label Term.pp r.lhs Term.pp r.rhs
      Term.pp c
