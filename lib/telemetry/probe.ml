(* Per-domain recording, merged at snapshot time.

   Every hot-path operation touches only domain-local state reached
   through [Domain.DLS]: a span/profile buffer per domain, and one cell
   per (counter, domain); histograms are shared atomic cells.  The only
   global synchronization is the registration of an instrument or of a
   fresh buffer or cell (once per domain per object, under a mutex) and
   the snapshot/reset pass, which is documented as quiescent-only. *)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Monotonic ns as a native int: 2^62 ns ≈ 146 years of uptime, so the
   conversion from the clock's int64 never overflows in practice. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let span_min = Atomic.make 0
let set_span_min_ns n = Atomic.set span_min n

(* ------------------------------------------------------------------ *)
(* Spans and rule profiles: one buffer per domain *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_t0 : int;
  sp_dur : int;
  sp_dom : int;
  sp_depth : int;
  sp_req : string;  (* request id the span ran under; "" = unattributed *)
}

(* mutable per-domain accumulator for one rule label *)
type rcell = {
  mutable rc_fires : int;
  mutable rc_rw_self : int;
  mutable rc_rw_total : int;
  mutable rc_cond_evals : int;
  mutable rc_cond_self : int;
  mutable rc_cond_total : int;
  mutable rc_match_tries : int;
  mutable rc_match_self : int;
  mutable rc_match_total : int;
}

type frame = { fr_t0 : int; mutable fr_child : int }

type dbuf = {
  db_dom : int;
  mutable db_spans : span array;
  mutable db_n : int;
  mutable db_depth : int;
  mutable db_stack : frame list;
  db_rules : (string, rcell) Hashtbl.t;
  mutable db_dropped : int;
  mutable db_req : string;  (* current request id on this domain *)
}

let dummy_span =
  {
    sp_name = "";
    sp_cat = "";
    sp_t0 = 0;
    sp_dur = 0;
    sp_dom = 0;
    sp_depth = 0;
    sp_req = "";
  }

(* Cap per-domain span storage; beyond it spans are counted, not stored.
   The cap bounds profiled-campaign memory; the hotspot report surfaces
   the drop count so truncation is never silent. *)
let max_spans_per_domain = 1 lsl 20

let registry_lock = Mutex.create ()
let bufs : dbuf list ref = ref []

let buf_key : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          db_dom = (Domain.self () :> int);
          db_spans = Array.make 256 dummy_span;
          db_n = 0;
          db_depth = 0;
          db_stack = [];
          db_rules = Hashtbl.create 64;
          db_dropped = 0;
          db_req = "";
        }
      in
      Mutex.protect registry_lock (fun () -> bufs := b :: !bufs);
      b)

let my_buf () = Domain.DLS.get buf_key

let push_span b sp =
  if b.db_n >= max_spans_per_domain then b.db_dropped <- b.db_dropped + 1
  else begin
    let cap = Array.length b.db_spans in
    if b.db_n = cap then begin
      let fresh = Array.make (2 * cap) dummy_span in
      Array.blit b.db_spans 0 fresh 0 cap;
      b.db_spans <- fresh
    end;
    b.db_spans.(b.db_n) <- sp;
    b.db_n <- b.db_n + 1
  end

let record_span b ~always ~cat ~name ~t0 ~dur ~depth =
  if always || dur >= Atomic.get span_min then
    push_span b
      {
        sp_name = name;
        sp_cat = cat;
        sp_t0 = t0;
        sp_dur = dur;
        sp_dom = b.db_dom;
        sp_depth = depth;
        sp_req = b.db_req;
      }

let with_span ?(always = false) ~cat name f =
  if not (enabled ()) then f ()
  else begin
    let b = my_buf () in
    let depth = b.db_depth in
    b.db_depth <- depth + 1;
    let t0 = now_ns () in
    let finish () =
      let dur = now_ns () - t0 in
      b.db_depth <- depth;
      record_span b ~always ~cat ~name ~t0 ~dur ~depth
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let span_since ~cat name t0 =
  if enabled () then begin
    let b = my_buf () in
    record_span b ~always:false ~cat ~name ~t0 ~dur:(now_ns () - t0)
      ~depth:b.db_depth
  end

(* ------------------------------------------------------------------ *)
(* Request attribution: a per-domain id stamped onto every span recorded
   while it is set.  The scheduler captures it at submit time and restores
   it around task execution, so work fanned out across the pool keeps the
   id of the request that asked for it. *)

let current_request () =
  match (my_buf ()).db_req with "" -> None | s -> Some s

let set_request r =
  (my_buf ()).db_req <- (match r with None -> "" | Some s -> s)

let with_request r f =
  let b = my_buf () in
  let prev = b.db_req in
  b.db_req <- (match r with None -> "" | Some s -> s);
  Fun.protect ~finally:(fun () -> b.db_req <- prev) f

(* ------------------------------------------------------------------ *)
(* Rule profiling *)

type kind = Rewrite | Cond | Match

let rule_enter () =
  let b = my_buf () in
  let f = { fr_t0 = now_ns (); fr_child = 0 } in
  b.db_stack <- f :: b.db_stack;
  f

(* the accumulator for [label] in [tbl], created zeroed on first use *)
let rcell_in tbl label =
  match Hashtbl.find_opt tbl label with
  | Some c -> c
  | None ->
    let c =
      {
        rc_fires = 0;
        rc_rw_self = 0;
        rc_rw_total = 0;
        rc_cond_evals = 0;
        rc_cond_self = 0;
        rc_cond_total = 0;
        rc_match_tries = 0;
        rc_match_self = 0;
        rc_match_total = 0;
      }
    in
    Hashtbl.add tbl label c;
    c

let rule_exit f ~kind ~label =
  let b = my_buf () in
  let total = now_ns () - f.fr_t0 in
  let self = max 0 (total - f.fr_child) in
  (* pop, tolerating a mismatched stack after an unbalanced caller *)
  (match b.db_stack with
  | top :: rest when top == f -> b.db_stack <- rest
  | _ -> ());
  (* children count toward the parent frame's child time whichever kind
     they are: a condition discharge inside a rewrite is not self-time *)
  (match b.db_stack with
  | parent :: _ -> parent.fr_child <- parent.fr_child + total
  | [] -> ());
  let c = rcell_in b.db_rules label in
  (match kind with
  | Rewrite ->
    c.rc_fires <- c.rc_fires + 1;
    c.rc_rw_self <- c.rc_rw_self + self;
    c.rc_rw_total <- c.rc_rw_total + total
  | Cond ->
    c.rc_cond_evals <- c.rc_cond_evals + 1;
    c.rc_cond_self <- c.rc_cond_self + self;
    c.rc_cond_total <- c.rc_cond_total + total
  | Match ->
    c.rc_match_tries <- c.rc_match_tries + 1;
    c.rc_match_self <- c.rc_match_self + self;
    c.rc_match_total <- c.rc_match_total + total);
  if total >= Atomic.get span_min && Atomic.get span_min > 0 then
    record_span b ~always:false
      ~cat:(match kind with Rewrite -> "rule" | Cond -> "cond" | Match -> "match")
      ~name:label ~t0:f.fr_t0 ~dur:total ~depth:(List.length b.db_stack)

(* ------------------------------------------------------------------ *)
(* Instruments: counters, gauges and histograms, one table each, found or
   created by name under one lock.  Registration is rare (module
   initialization, or the first request of a kind); the hot paths touch
   only their own cells. *)

let table_lock = Mutex.create ()

let find_or_add tbl name make =
  Mutex.protect table_lock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some x -> x
      | None ->
        let x = make () in
        Hashtbl.add tbl name x;
        x)

let sorted_bindings tbl =
  Mutex.protect table_lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Counters.  [c_gate] is [enabled_flag] for a profiling-only counter and
   [always] for a live one, so either kind costs one load and one branch
   before the store. *)
type counter = {
  c_mode : [ `Sum | `Max ];
  c_gate : bool Atomic.t;
  c_lock : Mutex.t;
  mutable c_cells : int ref list;
  c_key : int ref Domain.DLS.key;
}

let always = Atomic.make true
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter ?(mode = `Sum) ?(live = false) name =
  find_or_add counters name (fun () ->
      let rec c =
        lazy
          {
            c_mode = mode;
            c_gate = (if live then always else enabled_flag);
            c_lock = Mutex.create ();
            c_cells = [];
            c_key =
              Domain.DLS.new_key (fun () ->
                  let cell = ref 0 in
                  let c = Lazy.force c in
                  Mutex.protect c.c_lock (fun () ->
                      c.c_cells <- cell :: c.c_cells);
                  cell);
          }
      in
      Lazy.force c)

let incr c = if Atomic.get c.c_gate then Stdlib.incr (Domain.DLS.get c.c_key)

let add c n =
  if Atomic.get c.c_gate then begin
    let cell = Domain.DLS.get c.c_key in
    cell := !cell + n
  end

let record_max c n =
  if Atomic.get c.c_gate then begin
    let cell = Domain.DLS.get c.c_key in
    if n > !cell then cell := n
  end

let value c =
  Mutex.protect c.c_lock (fun () ->
      match c.c_mode with
      | `Sum -> List.fold_left (fun acc cell -> acc + !cell) 0 c.c_cells
      | `Max -> List.fold_left (fun acc cell -> max acc !cell) 0 c.c_cells)

(* Gauges *)

let gauges : (string, float) Hashtbl.t = Hashtbl.create 32

let set_gauge name v =
  Mutex.protect table_lock (fun () -> Hashtbl.replace gauges name v)

(* Histograms: 25 log2 buckets starting at 10 µs, plus one overflow
   bucket, each an atomic cell shared by all domains. *)

let nbuckets = 25
let base_ns = 10_000

type histogram = {
  cells : int Atomic.t array;  (* nbuckets + 1, last = overflow *)
  sum_ns : int Atomic.t;
  max_ns : int Atomic.t;
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram name =
  find_or_add histograms name (fun () ->
      {
        cells = Array.init (nbuckets + 1) (fun _ -> Atomic.make 0);
        sum_ns = Atomic.make 0;
        max_ns = Atomic.make 0;
      })

let bucket_of_ns ns =
  let rec go i bound =
    if i >= nbuckets then nbuckets
    else if ns <= bound then i
    else go (i + 1) (bound * 2)
  in
  go 0 base_ns

let bucket_bound_ns i = base_ns * (1 lsl i)

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v <= cur then ()
  else if Atomic.compare_and_set cell cur v then ()
  else atomic_max cell v

let observe_ns h ns =
  let ns = max 0 ns in
  Atomic.incr h.cells.(bucket_of_ns ns);
  ignore (Atomic.fetch_and_add h.sum_ns ns);
  atomic_max h.max_ns ns

type histogram_view = {
  h_name : string;
  h_count : int;
  h_sum_ms : float;
  h_p50_ms : float;
  h_p90_ms : float;
  h_p99_ms : float;
  h_max_ms : float;
  h_buckets : int array;  (* nbuckets + 1 raw (non-cumulative) counts *)
  h_sum_ns : int;
}

let ms_of_ns ns = float_of_int ns /. 1e6

(* Quantile = upper bound of the first bucket whose cumulative count
   reaches q × total; the overflow bucket reports the observed max. *)
let quantile counts total q =
  let target = int_of_float (ceil (q *. float_of_int total)) in
  let rec go i acc =
    if i > nbuckets then nbuckets
    else
      let acc = acc + counts.(i) in
      if acc >= target then i else go (i + 1) acc
  in
  go 0 0

let view name h =
  let counts = Array.map Atomic.get h.cells in
  let total = Array.fold_left ( + ) 0 counts in
  let max_ms = ms_of_ns (Atomic.get h.max_ns) in
  let q p =
    if total = 0 then 0.
    else
      let b = quantile counts total p in
      if b >= nbuckets then max_ms else ms_of_ns (bucket_bound_ns b)
  in
  {
    h_name = name;
    h_count = total;
    h_sum_ms = ms_of_ns (Atomic.get h.sum_ns);
    h_p50_ms = q 0.50;
    h_p90_ms = q 0.90;
    h_p99_ms = q 0.99;
    h_max_ms = max_ms;
    h_buckets = counts;
    h_sum_ns = Atomic.get h.sum_ns;
  }

type instruments = {
  in_counters : (string * int) list;
  in_gauges : (string * float) list;
  in_histograms : histogram_view list;
}

let instruments () =
  let sums, peaks =
    List.partition (fun (_, c) -> c.c_mode = `Sum) (sorted_bindings counters)
  in
  {
    in_counters = List.map (fun (name, c) -> name, value c) sums;
    in_gauges =
      List.merge
        (fun (a, _) (b, _) -> String.compare a b)
        (List.map (fun (name, c) -> name, float_of_int (value c)) peaks)
        (sorted_bindings gauges);
    in_histograms =
      List.map (fun (name, h) -> view name h) (sorted_bindings histograms);
  }

(* ------------------------------------------------------------------ *)
(* Snapshot / reset *)

type rule_stat = {
  rl_label : string;
  rl_fires : int;
  rl_rw_self_ns : int;
  rl_rw_total_ns : int;
  rl_cond_evals : int;
  rl_cond_self_ns : int;
  rl_cond_total_ns : int;
  rl_match_tries : int;
  rl_match_self_ns : int;
  rl_match_total_ns : int;
}

type snapshot = {
  sn_spans : span list;
  sn_rules : rule_stat list;
  sn_counters : (string * int) list;
  sn_gauges : (string * float) list;
  sn_dropped : int;
  sn_dropped_by_dom : (int * int) list;
  sn_t0 : int;
}

let snapshot () =
  let bufs = Mutex.protect registry_lock (fun () -> !bufs) in
  let spans =
    List.concat_map
      (fun b -> Array.to_list (Array.sub b.db_spans 0 b.db_n))
      bufs
  in
  let spans =
    List.stable_sort
      (fun a b ->
        match compare a.sp_t0 b.sp_t0 with 0 -> compare a.sp_depth b.sp_depth | c -> c)
      spans
  in
  let merged : (string, rcell) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun label (c : rcell) ->
          let m = rcell_in merged label in
          m.rc_fires <- m.rc_fires + c.rc_fires;
          m.rc_rw_self <- m.rc_rw_self + c.rc_rw_self;
          m.rc_rw_total <- m.rc_rw_total + c.rc_rw_total;
          m.rc_cond_evals <- m.rc_cond_evals + c.rc_cond_evals;
          m.rc_cond_self <- m.rc_cond_self + c.rc_cond_self;
          m.rc_cond_total <- m.rc_cond_total + c.rc_cond_total;
          m.rc_match_tries <- m.rc_match_tries + c.rc_match_tries;
          m.rc_match_self <- m.rc_match_self + c.rc_match_self;
          m.rc_match_total <- m.rc_match_total + c.rc_match_total)
        b.db_rules)
    bufs;
  let rules =
    Hashtbl.fold
      (fun label c acc ->
        {
          rl_label = label;
          rl_fires = c.rc_fires;
          rl_rw_self_ns = c.rc_rw_self;
          rl_rw_total_ns = c.rc_rw_total;
          rl_cond_evals = c.rc_cond_evals;
          rl_cond_self_ns = c.rc_cond_self;
          rl_cond_total_ns = c.rc_cond_total;
          rl_match_tries = c.rc_match_tries;
          rl_match_self_ns = c.rc_match_self;
          rl_match_total_ns = c.rc_match_total;
        }
        :: acc)
      merged []
  in
  {
    sn_spans = spans;
    sn_rules = rules;
    sn_counters =
      List.map (fun (name, c) -> name, value c) (sorted_bindings counters);
    sn_gauges = sorted_bindings gauges;
    sn_dropped = List.fold_left (fun acc b -> acc + b.db_dropped) 0 bufs;
    sn_dropped_by_dom =
      (* group-sum per domain: a domain id appears once even if several
         historical buffers carry it *)
      (let tbl = Hashtbl.create 8 in
       List.iter
         (fun b ->
           if b.db_dropped > 0 then
             Hashtbl.replace tbl b.db_dom
               (b.db_dropped
               + Option.value ~default:0 (Hashtbl.find_opt tbl b.db_dom)))
         bufs;
       Hashtbl.fold (fun d n acc -> (d, n) :: acc) tbl []
       |> List.sort compare);
    sn_t0 = (match spans with [] -> 0 | s :: _ -> s.sp_t0);
  }

let reset () =
  let bufs = Mutex.protect registry_lock (fun () -> !bufs) in
  List.iter
    (fun b ->
      b.db_n <- 0;
      b.db_depth <- 0;
      b.db_stack <- [];
      b.db_dropped <- 0;
      b.db_req <- "";
      Hashtbl.reset b.db_rules)
    bufs;
  List.iter
    (fun (_, c) ->
      if c.c_gate != always then
        Mutex.protect c.c_lock (fun () ->
            List.iter (fun cell -> cell := 0) c.c_cells))
    (sorted_bindings counters);
  Mutex.protect table_lock (fun () -> Hashtbl.reset gauges)
