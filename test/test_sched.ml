(* Tests of the work-stealing pool (lib/sched) and its integration with the
   verification campaign: determinism across pool sizes, exception
   propagation, and deadlock-freedom of nested submission. *)

open Sched

(* ------------------------------------------------------------------ *)
(* Chan *)

let test_chan_fifo () =
  let ch = Chan.create () in
  List.iter (Chan.send ch) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Chan.length ch);
  let recv1 = Chan.try_recv ch in
  let recv2 = Chan.try_recv ch in
  let recv3 = Chan.try_recv ch in
  let recv4 = Chan.try_recv ch in
  let received = [ recv1; recv2; recv3; recv4 ] in
  Alcotest.(check (list (option int)))
    "fifo order" [ Some 1; Some 2; Some 3; None ] received

let test_chan_close () =
  let ch = Chan.create () in
  Chan.send ch "a";
  Chan.close ch;
  Alcotest.check_raises "send after close" Chan.Closed (fun () ->
      Chan.send ch "b");
  Alcotest.(check (option string)) "drains" (Some "a") (Chan.recv ch);
  Alcotest.(check (option string)) "then none" None (Chan.recv ch)

let test_chan_cross_domain () =
  let ch = Chan.create () in
  let consumer =
    Domain.spawn (fun () ->
        let rec drain acc =
          match Chan.recv ch with
          | Some v -> drain (v :: acc)
          | None -> List.rev acc
        in
        drain [])
  in
  List.iter (Chan.send ch) (List.init 100 Fun.id);
  Chan.close ch;
  Alcotest.(check (list int))
    "all received in order"
    (List.init 100 Fun.id)
    (Domain.join consumer)

(* ------------------------------------------------------------------ *)
(* Task *)

exception Boom of string

let test_task_fill () =
  let t = Task.create () in
  Alcotest.(check bool) "unresolved" false (Task.is_resolved t);
  Alcotest.(check (option int)) "poll pending" None (Task.poll t);
  Task.fill t 42;
  Alcotest.(check (option int)) "poll done" (Some 42) (Task.poll t);
  Alcotest.(check int) "wait" 42 (Task.wait t);
  Alcotest.check_raises "double fill" (Invalid_argument "Sched.Task: already resolved")
    (fun () -> Task.fill t 0)

let test_task_exn () =
  let t = Task.of_fun (fun () -> raise (Boom "task")) in
  Alcotest.check_raises "re-raised at poll" (Boom "task") (fun () ->
      ignore (Task.poll t))

(* ------------------------------------------------------------------ *)
(* Pool basics *)

let test_parallel_map_order () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let xs = List.init 200 Fun.id in
  (* uneven workloads, so completion order differs from submission order *)
  let f n =
    let rec spin k acc = if k = 0 then acc else spin (k - 1) (acc + k) in
    ignore (spin ((n mod 7) * 1000) 0);
    n * n
  in
  Alcotest.(check (list int))
    "same as List.map" (List.map f xs)
    (Pool.parallel_map pool f xs)

let test_parallel_filter_map () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  Alcotest.(check (list int))
    "evens doubled" [ 0; 4; 8; 12 ]
    (Pool.parallel_filter_map pool
       (fun n -> if n mod 2 = 0 then Some (2 * n) else None)
       (List.init 8 Fun.id))

let test_exception_propagation () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  Alcotest.check_raises "first failing index wins" (Boom "3") (fun () ->
      ignore
        (Pool.parallel_map pool
           (fun n ->
             if n >= 3 then raise (Boom (string_of_int n));
             n)
           (List.init 8 Fun.id)));
  (* the pool survives a failed batch *)
  Alcotest.(check int) "pool still works" 7 (Pool.run pool (fun () -> 7))

let test_nested_no_deadlock () =
  (* More in-flight parents than domains: every parent blocks on children
     that can only run if awaiting helps. *)
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let result =
    Pool.parallel_map pool
      (fun i ->
        let inner =
          Pool.parallel_map pool (fun j -> (i * 10) + j) (List.init 8 Fun.id)
        in
        List.fold_left ( + ) 0 inner)
      (List.init 8 Fun.id)
  in
  Alcotest.(check (list int))
    "nested sums"
    (List.init 8 (fun i -> (i * 80) + 28))
    result

let test_single_domain_pool () =
  (* jobs = 1: zero workers; everything runs on the caller inside await. *)
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let result =
    Pool.parallel_map pool
      (fun i -> Pool.run pool (fun () -> i + 1))
      (List.init 5 Fun.id)
  in
  Alcotest.(check (list int)) "nested on one domain" [ 1; 2; 3; 4; 5 ] result

let test_deadlock_detected () =
  (* Awaiting a task nobody can resolve on a zero-worker pool must raise,
     not hang. *)
  Pool.with_pool ~jobs:1 @@ fun pool ->
  Alcotest.check_raises "detected" Pool.Deadlock (fun () ->
      ignore (Pool.await pool (Task.create () : unit Task.t)))

let test_shutdown_rejects () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Sched.Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> ())))

(* ------------------------------------------------------------------ *)
(* Campaign determinism: the full 18-invariant campaign must produce
   byte-identical results — statistics included — whatever the pool size. *)

let outcome_sig (o : Core.Prover.outcome) =
  let stats_sig (s : Core.Prover.stats) =
    ( s.Core.Prover.splits,
      s.Core.Prover.max_depth_reached,
      s.Core.Prover.rewrite_steps,
      s.Core.Prover.vacuous )
  in
  match o with
  | Core.Prover.Proved s -> "proved", stats_sig s
  | Core.Prover.Refuted { trail; stats } ->
    Printf.sprintf "refuted/%d" (List.length trail), stats_sig stats
  | Core.Prover.Unknown { reason; stats; _ } -> "unknown:" ^ reason, stats_sig stats

let result_sig (r : Core.Induction.result) =
  ( r.Core.Induction.res_invariant,
    r.Core.Induction.proved,
    List.map
      (fun (c : Core.Induction.case_result) ->
        c.Core.Induction.case_name, outcome_sig c.Core.Induction.outcome)
      r.Core.Induction.cases )

let summary_sig (s : Core.Report.summary) =
  (* everything except wall-clock *)
  ( s.Core.Report.invariants_total,
    s.Core.Report.invariants_proved,
    s.Core.Report.cases_total,
    s.Core.Report.cases_proved,
    s.Core.Report.total_splits,
    s.Core.Report.total_rewrite_steps )

let campaign ~jobs =
  Pool.with_pool ~jobs @@ fun pool ->
  Proofs.Tls_invariants.campaign ~pool Tls.Model.Original

let test_campaign_jobs_equivalence () =
  let r1 = campaign ~jobs:1 in
  let r4 = campaign ~jobs:4 in
  Alcotest.(check int) "all proved (jobs 4)" 0
    (List.length (Core.Report.failures r4));
  Alcotest.(check bool) "identical per-case results" true
    (List.map result_sig r1 = List.map result_sig r4);
  Alcotest.(check bool) "identical summaries" true
    (summary_sig (Core.Report.summarize r1)
    = summary_sig (Core.Report.summarize r4))

(* ------------------------------------------------------------------ *)
(* Branch systems fork one base.  64 branches of a base whose system is
   not built yet fan out over two domains, so both may race to build it;
   the cache publishes one, and every branch must fork that one — its
   index generation is the base system's uid. *)

let test_branch_systems_share_base () =
  let open Kernel in
  let module Spec = Cafeobj.Spec in
  let base = Spec.create "SCHED-FORK" in
  let nat = Spec.declare_sort base "SfNat" in
  let zero =
    Term.const (Spec.declare_op base "sf0" [] nat ~attrs:[ Signature.Ctor ])
  in
  let succ = Spec.declare_op base "sfS" [ nat ] nat ~attrs:[ Signature.Ctor ] in
  let dbl = Spec.declare_op base "sfDbl" [ nat ] nat ~attrs:[] in
  let x = Term.var "X" nat in
  let s t = Term.app succ [ t ] in
  Spec.add_eq base ~label:"sf-dbl-0" (Term.app dbl [ zero ]) zero;
  Spec.add_eq base ~label:"sf-dbl-s" (Term.app dbl [ s x ])
    (s (s (Term.app dbl [ x ])));
  let seen =
    Pool.with_pool ~jobs:2 @@ fun pool ->
    Pool.parallel_map pool
      (fun i ->
        let b = Spec.branch base (Printf.sprintf "sf-branch-%d" i) in
        let sys = Spec.system b in
        ( (Rewrite.index_info sys).Index.ix_generation,
          Spec.system base,
          Term.to_string (Rewrite.normalize sys (Term.app dbl [ s zero ])) ))
      (List.init 64 Fun.id)
  in
  let base_sys = Spec.system base in
  let uid = (Rewrite.info base_sys).Rewrite.si_uid in
  List.iter
    (fun (gen, seen_base, nf) ->
      Alcotest.(check int) "branch forks the base system" uid gen;
      Alcotest.(check bool) "one base system on every domain" true
        (seen_base == base_sys);
      Alcotest.(check string) "branch normal form" "sfS(sfS(sf0))" nf)
    seen

let tests =
  [
    "chan fifo", `Quick, test_chan_fifo;
    "chan close", `Quick, test_chan_close;
    "chan cross-domain", `Quick, test_chan_cross_domain;
    "task fill/wait", `Quick, test_task_fill;
    "task exception", `Quick, test_task_exn;
    "parallel_map order", `Quick, test_parallel_map_order;
    "parallel_filter_map", `Quick, test_parallel_filter_map;
    "exception propagation", `Quick, test_exception_propagation;
    "nested no deadlock", `Quick, test_nested_no_deadlock;
    "single-domain pool", `Quick, test_single_domain_pool;
    "deadlock detected", `Quick, test_deadlock_detected;
    "shutdown rejects submit", `Quick, test_shutdown_rejects;
    "campaign jobs equivalence", `Slow, test_campaign_jobs_equivalence;
    "branch systems share the base", `Quick, test_branch_systems_share_base;
  ]

let suite = "sched", tests
