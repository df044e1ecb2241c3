(* Telemetry suite.

   The instrumentation promises three things worth enforcing mechanically:
   spans nest properly per domain however the probes interleave, recording
   changes no observable result of the engine (normal forms, verdicts,
   step counts — checked differentially over every spec in specs/), and
   the Perfetto exporter emits exactly the JSON the viewers expect (golden
   string over a hand-built snapshot, which is deterministic where real
   timestamps are not). *)

module Probe = Telemetry.Probe

(* Every test leaves the global recorder the way it found it: disabled,
   empty, no span threshold. *)
let scrubbed f () =
  Fun.protect
    ~finally:(fun () ->
      Probe.set_enabled false;
      Probe.set_span_min_ns 0;
      Probe.reset ())
    (fun () ->
      Probe.set_enabled false;
      Probe.set_span_min_ns 0;
      Probe.reset ();
      f ())

(* ------------------------------------------------------------------ *)
(* Span nesting *)

(* A random tree of nested spans: [Node cs] runs its children in order
   inside one [with_span]. *)
type tree = Node of tree list

let rec tree_size (Node cs) = 1 + List.fold_left (fun n t -> n + tree_size t) 0 cs

let tree_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n = 0 then return (Node [])
           else
             int_range 0 3 >>= fun width ->
             list_size (return width) (self (n / (1 + width))) >>= fun cs ->
             return (Node cs)))

let rec record_tree i (Node cs) =
  Probe.with_span ~cat:"t" (Printf.sprintf "n%d" i) @@ fun () ->
  List.iteri record_tree cs

let properly_nested spans =
  (* pairwise: same-domain spans are disjoint or contained, and strict
     containment implies strictly greater depth *)
  let ival (s : Probe.span) = s.Probe.sp_t0, s.Probe.sp_t0 + s.Probe.sp_dur in
  List.for_all
    (fun (a : Probe.span) ->
      List.for_all
        (fun (b : Probe.span) ->
          a == b
          || a.Probe.sp_dom <> b.Probe.sp_dom
          ||
          let a0, a1 = ival a and b0, b1 = ival b in
          let disjoint = a1 <= b0 || b1 <= a0 in
          let a_in_b = b0 <= a0 && a1 <= b1 in
          let b_in_a = a0 <= b0 && b1 <= a1 in
          (disjoint || a_in_b || b_in_a)
          && ((not (a_in_b && not b_in_a)) || a.Probe.sp_depth > b.Probe.sp_depth))
        spans)
    spans

let prop_nesting =
  QCheck.Test.make ~count:100 ~name:"with_span nests properly"
    (QCheck.make ~print:(fun t -> string_of_int (tree_size t)) tree_gen)
    (fun tree ->
      Probe.reset ();
      Probe.set_enabled true;
      record_tree 0 tree;
      Probe.set_enabled false;
      let snap = Probe.snapshot () in
      List.length snap.Probe.sn_spans = tree_size tree
      && properly_nested snap.Probe.sn_spans)

let test_nesting_qcheck =
  (* scrub around the whole QCheck run; the property resets per trial *)
  let name, speed, run = QCheck_alcotest.to_alcotest prop_nesting in
  (name, speed, fun arg -> scrubbed (fun () -> run arg) ())

(* ------------------------------------------------------------------ *)
(* Recording must not change what the engine computes *)

let test_differential_on_off () =
  List.iter
    (fun (file, path) ->
      let src = Test_differential.read_file path in
      Probe.reset ();
      let off = Test_differential.run ~uncached:false src in
      Probe.set_enabled true;
      let on = Test_differential.run ~uncached:false src in
      Probe.set_enabled false;
      (* structural equality covers normal forms, verdicts and exact step
         counts — the zero-cost claim, checked observably *)
      if off <> on then
        Alcotest.failf "%s: outputs differ with telemetry enabled" file;
      let snap = Probe.snapshot () in
      if snap.Probe.sn_spans = [] then
        Alcotest.failf "%s: enabled run recorded no spans" file)
    (Test_differential.all_specs ())

(* ------------------------------------------------------------------ *)
(* Concurrent recording *)

let test_concurrent_pool () =
  let c = Probe.counter "test.concurrent" in
  Probe.set_enabled true;
  let n = 200 in
  let results =
    Sched.Pool.with_pool ~jobs:4 @@ fun pool ->
    Sched.Pool.parallel_map pool
      (fun i ->
        Probe.with_span ~cat:"outer" "o" @@ fun () ->
        Probe.add c i;
        Probe.with_span ~cat:"inner" "i" (fun () -> i * 2))
      (List.init n (fun i -> i))
  in
  Probe.set_enabled false;
  Alcotest.(check (list int))
    "pool results intact"
    (List.init n (fun i -> i * 2))
    results;
  Alcotest.(check int) "counter merges across domains" (n * (n - 1) / 2) (Probe.value c);
  let snap = Probe.snapshot () in
  let spans = snap.Probe.sn_spans in
  Alcotest.(check int) "two spans per task" (2 * n)
    (List.length (List.filter (fun (s : Probe.span) -> s.Probe.sp_cat <> "sched") spans));
  Alcotest.(check bool) "properly nested per domain" true (properly_nested spans);
  let doms =
    List.sort_uniq compare (List.map (fun (s : Probe.span) -> s.Probe.sp_dom) spans)
  in
  Alcotest.(check bool) "spans attributed to some domain" true (doms <> [])

(* ------------------------------------------------------------------ *)
(* Perfetto golden *)

let golden_snapshot : Probe.snapshot =
  {
    Probe.sn_spans =
      [
        {
          Probe.sp_name = "invariant:inv1";
          sp_cat = "invariant";
          sp_t0 = 1000;
          sp_dur = 5000;
          sp_dom = 0;
          sp_depth = 0;
          sp_req = "";
        };
        {
          Probe.sp_name = "inv1@init";
          sp_cat = "case";
          sp_t0 = 1500;
          sp_dur = 2500;
          sp_dom = 0;
          sp_depth = 1;
          sp_req = "";
        };
        {
          Probe.sp_name = "red";
          sp_cat = "red";
          sp_t0 = 2000;
          sp_dur = 1000;
          sp_dom = 1;
          sp_depth = 0;
          sp_req = "req-42";
        };
      ];
    sn_rules = [];
    sn_counters = [ "kernel.ac.backtracks", 7 ];
    sn_gauges = [ "sched.utilization", 0.5 ];
    sn_dropped = 2;
    sn_dropped_by_dom = [ 1, 2 ];
    sn_t0 = 1000;
  }

let golden_json =
  String.concat "\n"
    [
      "{\"traceEvents\":[";
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"eqtls\"}},";
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"domain 0\"}},";
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"domain 1\"}},";
      "{\"name\":\"invariant:inv1\",\"cat\":\"invariant\",\"ph\":\"X\",\"ts\":0.000,\"dur\":5.000,\"pid\":1,\"tid\":0},";
      "{\"name\":\"inv1@init\",\"cat\":\"case\",\"ph\":\"X\",\"ts\":0.500,\"dur\":2.500,\"pid\":1,\"tid\":0},";
      "{\"name\":\"red\",\"cat\":\"red\",\"ph\":\"X\",\"ts\":1.000,\"dur\":1.000,\"pid\":1,\"tid\":1,\"args\":{\"req\":\"req-42\"}}";
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"kernel.ac.backtracks\":7,\"sched.utilization\":0.5,\"spans_dropped\":2,\"spans_dropped_dom1\":2}}";
      "";
    ]

let test_perfetto_golden () =
  Alcotest.(check string)
    "golden trace JSON"
    golden_json
    (Telemetry.Perfetto.to_string ~process_name:"eqtls" golden_snapshot)

(* ------------------------------------------------------------------ *)
(* Rule stats agree with the step counter *)

let pnat_src =
  "mod TPNAT { [ TNat ] op z : -> TNat { ctor } . op s : TNat -> TNat { ctor \
   } . op plus : TNat TNat -> TNat . vars M N : TNat . eq plus(z, N) = N . \
   eq plus(s(M), N) = s(plus(M, N)) . }\n\
   red in TPNAT : plus(s(s(s(z))), s(s(z))) .\n"

let test_rule_stats_vs_steps () =
  Probe.set_enabled true;
  let env = Cafeobj.Eval.create () in
  let outputs = Cafeobj.Eval.eval_string env pnat_src in
  Probe.set_enabled false;
  let steps =
    List.fold_left
      (fun acc o ->
        match o with Cafeobj.Eval.Reduced r -> acc + r.Cafeobj.Eval.steps | _ -> acc)
      0 outputs
  in
  let snap = Probe.snapshot () in
  let fires =
    List.fold_left (fun acc (r : Probe.rule_stat) -> acc + r.Probe.rl_fires) 0
      snap.Probe.sn_rules
  in
  let tries =
    List.fold_left
      (fun acc (r : Probe.rule_stat) -> acc + r.Probe.rl_match_tries)
      0 snap.Probe.sn_rules
  in
  Alcotest.(check bool) "red performed steps" true (steps > 0);
  Alcotest.(check int) "profiled fires = counted rewrite steps" steps fires;
  (* every fire starts with a successful root-match attempt, so per run
     the match-try count dominates the fire count *)
  Alcotest.(check bool) "match tries >= fires" true (tries >= fires)

(* ------------------------------------------------------------------ *)
(* Disabled means nothing is recorded *)

let test_disabled_records_nothing () =
  let c = Probe.counter "test.disabled" in
  Probe.with_span ~cat:"x" "x" (fun () -> Probe.incr c);
  Probe.span_since ~cat:"x" "y" (Probe.now_ns ());
  (* a red through the instrumented kernel, recording off: the rewriter
     must take the guard's unprobed path *)
  let env = Cafeobj.Eval.create () in
  ignore (Cafeobj.Eval.eval_string env pnat_src);
  let snap = Probe.snapshot () in
  Alcotest.(check int) "no spans" 0 (List.length snap.Probe.sn_spans);
  Alcotest.(check int) "counter untouched" 0 (Probe.value c);
  Alcotest.(check int) "no rule stats" 0 (List.length snap.Probe.sn_rules)

(* ------------------------------------------------------------------ *)
(* One instrument registry *)

let test_one_name_one_counter () =
  let a = Probe.counter "test.registry.once" in
  let b = Probe.counter "test.registry.once" in
  Probe.set_enabled true;
  Probe.incr a;
  Probe.set_enabled false;
  Alcotest.(check (list (pair string int)))
    "one entry, one count"
    [ "test.registry.once", 1 ]
    (List.filter
       (fun (name, _) -> name = "test.registry.once")
       (Probe.snapshot ()).Probe.sn_counters);
  Alcotest.(check int)
    "the second handle reads the same cells" 1 (Probe.value b)

let test_live_and_profiling_counters () =
  let prof = Probe.counter "test.registry.profiling" in
  let live = Probe.counter ~live:true "test.registry.live" in
  let h = Probe.histogram "test.registry.latency" in
  let observed () =
    match
      List.find_opt
        (fun (v : Probe.histogram_view) ->
          v.Probe.h_name = "test.registry.latency")
        (Probe.instruments ()).Probe.in_histograms
    with
    | Some v -> v.Probe.h_count
    | None -> 0
  in
  (* live instruments outlive earlier tests' resets: compare to a baseline *)
  let live0 = Probe.value live and observed0 = observed () in
  Probe.incr prof;
  Probe.incr live;
  Probe.observe_ns h 1_000;
  Alcotest.(check int) "profiling counter still while recording is off" 0
    (Probe.value prof);
  Alcotest.(check int) "live counter counts while recording is off" (live0 + 1)
    (Probe.value live);
  Probe.set_enabled true;
  Probe.incr prof;
  Probe.set_enabled false;
  Alcotest.(check int) "profiling counter counts while recording" 1
    (Probe.value prof);
  Probe.reset ();
  Alcotest.(check int)
    "reset clears the profiling counter" 0 (Probe.value prof);
  Alcotest.(check int) "reset leaves the live counter" (live0 + 1)
    (Probe.value live);
  Alcotest.(check int)
    "reset leaves the histogram" (observed0 + 1) (observed ());
  (* the hotspot report reads the snapshot, so live counters reach it *)
  let snap = Probe.snapshot () in
  Alcotest.(check (option int))
    "live counter in the snapshot" (Some (live0 + 1))
    (List.assoc_opt "test.registry.live" snap.Probe.sn_counters);
  let report = Format.asprintf "%a" (Telemetry.Hotspot.pp ~top:1) snap in
  let needle = "test.registry.live" in
  let rec has i =
    i + String.length needle <= String.length report
    && (String.sub report i (String.length needle) = needle || has (i + 1))
  in
  Alcotest.(check bool) "live counter in the hotspot report" true (has 0)

(* ------------------------------------------------------------------ *)
(* Scheduler utilization and the hotspot report *)

(* Each outer task of a pool of two runs a parallel_map of its own, so
   both domains run inner tasks while helping inside an outer task's
   await.  Only each domain's outermost task adds its time, so busy time
   cannot exceed the pool's two domains over its life. *)
let test_nested_busy_time () =
  let spin_ns = 300_000 in
  let spin () =
    let t0 = Probe.now_ns () in
    while Probe.now_ns () - t0 < spin_ns do
      ()
    done
  in
  Probe.set_enabled true;
  let t0 = Probe.now_ns () in
  let sums =
    Sched.Pool.with_pool ~jobs:2 @@ fun pool ->
    Sched.Pool.parallel_map pool
      (fun i ->
        spin ();
        List.fold_left ( + ) i
          (Sched.Pool.parallel_map pool
             (fun j ->
               spin ();
               j)
             (List.init 8 Fun.id)))
      (List.init 6 Fun.id)
  in
  let wall = Probe.now_ns () - t0 in
  Probe.set_enabled false;
  Alcotest.(check (list int)) "results" (List.init 6 (fun i -> i + 28)) sums;
  let busy = Probe.value (Probe.counter "sched.busy_ns") in
  let utilization =
    List.assoc_opt "sched.utilization" (Probe.snapshot ()).Probe.sn_gauges
  in
  if busy < 54 * spin_ns then
    Alcotest.failf "busy %d ns is less than the %d ns of spinning" busy (54 * spin_ns);
  if busy > 2 * wall then
    Alcotest.failf "busy %d ns exceeds two domains over %d ns" busy wall;
  match utilization with
  | None -> Alcotest.fail "no sched.utilization gauge"
  | Some u -> if u > 1. then Alcotest.failf "utilization %.3f > 1" u

let test_integral_gauges () =
  let snap =
    {
      golden_snapshot with
      Probe.sn_spans = [];
      sn_gauges = [ "kernel.intern.live_terms", 12430.; "sched.utilization", 0.8125 ];
    }
  in
  let report = Format.asprintf "%a" (Telemetry.Hotspot.pp ~top:1) snap in
  let has needle =
    let rec go i =
      i + String.length needle <= String.length report
      && (String.sub report i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "gauge listed" true (has "kernel.intern.live_terms");
  Alcotest.(check bool) "12430 in full" true (has " 12430\n");
  Alcotest.(check bool) "no exponent" false (has "e+04");
  Alcotest.(check bool) "fractions keep %.4g" true (has " 0.8125\n")

let suite =
  ( "telemetry",
    [
      test_nesting_qcheck;
      Alcotest.test_case "on/off differential over specs/" `Slow
        (scrubbed test_differential_on_off);
      Alcotest.test_case "concurrent recording on the pool" `Quick
        (scrubbed test_concurrent_pool);
      Alcotest.test_case "perfetto golden JSON" `Quick
        (scrubbed test_perfetto_golden);
      Alcotest.test_case "rule stats agree with step counter" `Quick
        (scrubbed test_rule_stats_vs_steps);
      Alcotest.test_case "disabled records nothing" `Quick
        (scrubbed test_disabled_records_nothing);
      Alcotest.test_case "one name registers one counter" `Quick
        (scrubbed test_one_name_one_counter);
      Alcotest.test_case "live and profiling-only counters" `Quick
        (scrubbed test_live_and_profiling_counters);
      Alcotest.test_case "nested pool tasks count busy time once" `Quick
        (scrubbed test_nested_busy_time);
      Alcotest.test_case "integral gauges print in full" `Quick
        (scrubbed test_integral_gauges);
    ] )
