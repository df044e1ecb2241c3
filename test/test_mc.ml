(* Tests of the explicit-state model checker (the Murphi-style baseline):
   generic BFS behaviour, the TLS scenario (Section 5.3 counterexamples
   found automatically), and the NSPK case study with Lowe's attack. *)


(* ------------------------------------------------------------------ *)
(* Generic checker on a toy counter system *)

(* A toy state's key: the integer as one interned term. *)
let int_key n = [| Kernel.Term.var (string_of_int n) (Kernel.Sort.visible "ToyState") |]

let counter_system ~limit =
  {
    Mc.initial = 0;
    next = (fun n -> if n >= limit then [] else [ "inc", n + 1 ]);
    key = int_key;
  }

let test_bfs_exhausts () =
  match Mc.bfs (counter_system ~limit:10) ~props:[ "small", (fun n -> n <= 10) ] with
  | Mc.No_violation stats ->
    Alcotest.(check int) "11 states" 11 stats.Mc.states_explored
  | _ -> Alcotest.fail "expected exhaustive pass"

let test_bfs_finds_min_trace () =
  match Mc.bfs (counter_system ~limit:10) ~props:[ "below-4", (fun n -> n < 4) ] with
  | Mc.Violation (v, _) ->
    Alcotest.(check int) "depth" 4 v.Mc.depth;
    Alcotest.(check (list string)) "trace" [ "inc"; "inc"; "inc"; "inc" ] v.Mc.trace
  | _ -> Alcotest.fail "expected violation"

let test_bfs_bounds () =
  match
    Mc.bfs ~max_depth:3 (counter_system ~limit:10)
      ~props:[ "below-7", (fun n -> n < 7) ]
  with
  | Mc.Out_of_bounds _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds"

let test_reachable () =
  match Mc.reachable (counter_system ~limit:10) ~goal:(fun n -> n = 7) with
  | Some (trace, state) ->
    Alcotest.(check int) "state" 7 state;
    Alcotest.(check int) "trace length" 7 (List.length trace)
  | None -> Alcotest.fail "expected witness"

let test_reachable_negative () =
  Alcotest.(check bool) "no witness" true
    (Mc.reachable (counter_system ~limit:10) ~goal:(fun n -> n = 42) = None)

(* ------------------------------------------------------------------ *)
(* TLS scenario *)

(* The attack traces as [pp_label] prints them, pinned byte for byte: the
   attack CLI, the simulator and the examples print these lines.  Labels
   keep their argument terms, and [pp_label] is what renders them. *)
let check_printed name pp expected trace =
  Alcotest.(check (list string)) name expected
    (List.map (fun l -> Format.asprintf "%a" pp l) trace)

let tls_2prime_trace =
  [
    "chello     alice bob ra";
    "shello     bob rb sid1 suite1";
    "cert       bob alice";
    "fakeKx2    kx(intruder, alice, bob, epms(pk(bob), pms(intruder, alice, sec2)))";
    "fakeCf2    cf(intruder, alice, bob, ecfin(hkey(alice, pms(intruder, alice, sec2), \
     ra, rb), cfin(alice, bob, sid1, lcons(suite1, lcons(suite2, lnil)), suite1, ra, \
     rb, pms(intruder, alice, sec2))))";
  ]

(* Property 3' under the certified reduction: compound steps flatten into
   the fired sequence, so 18 labels for a depth-7 violation. *)
let tls_3prime_reduced_trace =
  [
    "fakeSh2    sh2(intruder, bob, alice, ri, sid1, suite2)";
    "fakeSh     sh(intruder, bob, alice, ri, sid1, suite2)";
    "fakeSh2    sh2(intruder, bob, alice, ri, sid1, suite1)";
    "fakeSh     sh(intruder, bob, alice, ri, sid1, suite1)";
    "fakeCh2    ch2(intruder, alice, bob, ri, sid1)";
    "fakeCh     ch(intruder, alice, bob, ri, lcons(suite1, lcons(suite2, lnil)))";
    "fakeCt     ct(intruder, bob, alice, cert(intruder, pk(intruder), sig(ca, intruder, \
     pk(intruder))))";
    "shello     bob ra sid1 suite1";
    "cert       bob alice";
    "fakeCt     ct(intruder, bob, alice, cert(bob, pk(bob), sig(ca, bob, pk(bob))))";
    "fakeKx2    kx(intruder, alice, bob, epms(pk(bob), pms(intruder, alice, sec2)))";
    "fakeCf2    cf(intruder, alice, bob, ecfin(hkey(alice, pms(intruder, alice, sec2), \
     ri, ra), cfin(alice, bob, sid1, lcons(suite1, lcons(suite2, lnil)), suite1, ri, \
     ra, pms(intruder, alice, sec2))))";
    "fakeKx2    kx(intruder, alice, bob, epms(pk(bob), pms(intruder, bob, sec2)))";
    "fakeCf2    cf(intruder, alice, bob, ecfin(hkey(alice, pms(intruder, bob, sec2), ri, \
     ra), cfin(alice, bob, sid1, lcons(suite1, lcons(suite2, lnil)), suite1, ri, ra, \
     pms(intruder, bob, sec2))))";
    "sfin       bob alice";
    "shello2    bob alice rb";
    "fakeSf1    sf(intruder, bob, alice, esfin(hkey(bob, pms(intruder, alice, sec2), ri, \
     ra), sfin(alice, bob, sid1, lcons(suite1, lcons(suite2, lnil)), suite1, ri, ra, \
     pms(intruder, alice, sec2))))";
    "fakeCf22   cf2(intruder, alice, bob, ecfin2(hkey(alice, pms(intruder, alice, sec2), \
     ri, rb), cfin2(alice, bob, sid1, suite1, ri, rb, pms(intruder, alice, sec2))))";
  ]

let nspk_lowe_trace =
  [
    "start        alice intruder nA";
    "fake-m1      nm1(intruder, intruder, bob, nspk-enc1(pk(bob), nA, alice))";
    "respond      bob alice nB";
    "fake-m2      nm2(intruder, intruder, alice, nspk-enc2(pk(alice), nA, nB, ca))";
    "finish-init  alice intruder nB";
    "fake-m3      nm3(intruder, intruder, bob, nspk-enc3(pk(bob), nB))";
    "finish-resp  bob alice";
  ]

(* Lazy: building the concrete scenario extends the shared TLS model spec
   with the scenario's principals, which must not happen at module-init
   time — the analysis suite lints the pristine generated spec. *)
let tls_scen_l = lazy (Tls.Concrete.default_scenario ())
let tls_system_l = lazy (Tls.Concrete.system (Lazy.force tls_scen_l))

let test_tls_handshake_reachable () =
  match
    Mc.reachable ~max_states:20_000 ~max_depth:7 (Lazy.force tls_system_l)
      ~goal:(Tls.Concrete.handshake_complete (Lazy.force tls_scen_l))
  with
  | Some (trace, _) ->
    Alcotest.(check int) "seven steps" 7 (List.length trace);
    Alcotest.(check (list string))
      "honest run"
      [ "chello"; "shello"; "cert"; "kexch"; "cfin"; "sfin"; "compl" ]
      (List.map (fun (l : Tls.Concrete.label) -> l.Tls.Concrete.rule) trace)
  | None -> Alcotest.fail "handshake not reachable"

let test_tls_2prime_attack_found () =
  match
    Mc.bfs ~max_states:20_000 ~max_depth:6 (Lazy.force tls_system_l)
      ~props:[ "cf-authentic", Tls.Concrete.prop_cf_authentic ]
  with
  | Mc.Violation (v, _) ->
    Alcotest.(check int) "paper's five-message trace" 5 v.Mc.depth;
    let rules = List.map (fun (l : Tls.Concrete.label) -> l.Tls.Concrete.rule) v.Mc.trace in
    Alcotest.(check (list string))
      "trace shape"
      [ "chello"; "shello"; "cert"; "fakeKx2"; "fakeCf2" ]
      rules;
    check_printed "printed trace" Tls.Concrete.pp_label tls_2prime_trace v.Mc.trace
  | _ -> Alcotest.fail "expected 2' violation"

let test_tls_3prime_reduced_trace () =
  let scen = Lazy.force tls_scen_l in
  match
    Mc.bfs ~max_states:100_000 ~max_depth:9 ~reduction:(Tls.Concrete.reduction scen)
      (Lazy.force tls_system_l)
      ~props:[ "cf2-authentic", Tls.Concrete.prop_cf2_authentic ]
  with
  | Mc.Violation (v, s) ->
    Alcotest.(check int) "depth" 7 v.Mc.depth;
    Alcotest.(check (list int))
      "states, transitions, pruned" [ 263; 772; 1146 ]
      [ s.Mc.states_explored; s.Mc.transitions_fired; s.Mc.states_pruned ];
    check_printed "printed trace" Tls.Concrete.pp_label tls_3prime_reduced_trace v.Mc.trace
  | _ -> Alcotest.fail "expected 3' violation"

let test_tls_positive_props_bounded () =
  match
    Mc.bfs ~max_states:4_000 ~max_depth:6 (Lazy.force tls_system_l)
      ~props:
        [
          "pms-secrecy", Tls.Concrete.prop_pms_secrecy (Lazy.force tls_scen_l);
          "sf-authentic", Tls.Concrete.prop_sf_authentic;
          "sf2-authentic", Tls.Concrete.prop_sf2_authentic;
        ]
  with
  | Mc.Violation (v, _) -> Alcotest.failf "unexpected violation of %s" v.Mc.property
  | Mc.No_violation _ | Mc.Out_of_bounds _ -> ()

let test_tls_knowledge () =
  let st = Tls.Concrete.initial (Lazy.force tls_scen_l) in
  let c = Tls.Scenario.cast in
  Alcotest.(check bool) "intruder pms known initially" true
    (Tls.Concrete.derivable st (Tls.Data.pms_ ~client:Tls.Data.intruder ~server:c.bob c.sec2));
  Alcotest.(check bool) "honest pms unknown" false
    (Tls.Concrete.derivable st (Tls.Data.pms_ ~client:c.alice ~server:c.bob c.sec1));
  Alcotest.(check bool) "public keys derivable" true
    (Tls.Concrete.derivable st (Tls.Data.pk_ c.alice))

let test_tls_oops_stays_safe () =
  (* Paulson's Oops rule: leaking established session keys must break
     neither pms secrecy nor server authentication (his analysis found
     resumption safe under such leaks; the paper discusses it in
     Section 6). *)
  let scen = { (Tls.Concrete.default_scenario ()) with Tls.Concrete.oops = true } in
  match
    Mc.bfs ~max_states:6_000 ~max_depth:7 (Tls.Concrete.system scen)
      ~props:
        [
          "pms-secrecy", Tls.Concrete.prop_pms_secrecy scen;
          "sf-authentic", Tls.Concrete.prop_sf_authentic;
          "sf2-authentic", Tls.Concrete.prop_sf2_authentic;
        ]
  with
  | Mc.Violation (v, _) -> Alcotest.failf "oops broke %s" v.Mc.property
  | Mc.No_violation _ | Mc.Out_of_bounds _ -> ()

let test_tls_oops_actually_leaks () =
  (* Sanity: under Oops the intruder really does obtain a session key. *)
  let scen = { (Tls.Concrete.default_scenario ()) with Tls.Concrete.oops = true } in
  let c = Tls.Scenario.cast in
  let key =
    Tls.Data.hkey_ c.Tls.Scenario.bob
      (Tls.Data.pms_ ~client:c.Tls.Scenario.alice ~server:c.Tls.Scenario.bob
         c.Tls.Scenario.sec1)
      c.Tls.Scenario.ra c.Tls.Scenario.rb
  in
  match
    Mc.reachable ~max_states:20_000 ~max_depth:8 (Tls.Concrete.system scen)
      ~goal:(fun st -> Tls.Concrete.derivable st key)
  with
  | Some (trace, _) ->
    Alcotest.(check bool) "trace mentions oops" true
      (List.exists (fun (l : Tls.Concrete.label) -> l.Tls.Concrete.rule = "oops") trace)
  | None -> Alcotest.fail "session key never leaked"

(* ------------------------------------------------------------------ *)
(* NSPK *)

let test_nspk_lowe_attack () =
  let scen = Nspk.default_scenario Nspk.Classic in
  match
    Mc.bfs ~max_states:100_000 ~max_depth:8 (Nspk.system scen)
      ~props:[ "responder-agreement", Nspk.responder_agreement ]
  with
  | Mc.Violation (v, _) ->
    (* Lowe's man-in-the-middle needs A to start a run with the intruder. *)
    let rules = List.map (fun (l : Nspk.label) -> l.Nspk.rule) v.Mc.trace in
    Alcotest.(check bool) "starts with a run towards the intruder" true
      (List.hd rules = "start");
    Alcotest.(check bool) "uses faked message 1" true (List.mem "fake-m1" rules);
    Alcotest.(check bool) "uses faked message 3" true (List.mem "fake-m3" rules);
    check_printed "printed trace" Nspk.pp_label nspk_lowe_trace v.Mc.trace
  | _ -> Alcotest.fail "expected Lowe's attack"

let test_nspk_nonce_secrecy_broken () =
  let scen = Nspk.default_scenario Nspk.Classic in
  match
    Mc.bfs ~max_states:100_000 ~max_depth:8 (Nspk.system scen)
      ~props:[ "nonce-secrecy", Nspk.nonce_secrecy ]
  with
  | Mc.Violation _ -> ()
  | _ -> Alcotest.fail "expected nonce leak"

let test_nsl_fixed_is_clean () =
  (* Lowe's fix: same bounds under which the classic variant falls in
     seconds show no violation (the full space is infinite in the number of
     replayed fakes, so the check is bounded, as in Mitchell et al.). *)
  let scen = Nspk.default_scenario Nspk.Lowe_fixed in
  match
    Mc.bfs ~max_states:60_000 ~max_depth:8 (Nspk.system scen)
      ~props:
        [
          "responder-agreement", Nspk.responder_agreement;
          "nonce-secrecy", Nspk.nonce_secrecy;
        ]
  with
  | Mc.No_violation _ | Mc.Out_of_bounds _ -> ()
  | Mc.Violation (v, _) -> Alcotest.failf "unexpected violation of %s" v.Mc.property

let test_nspk_completes_honestly () =
  let scen = Nspk.default_scenario Nspk.Lowe_fixed in
  match
    Mc.reachable ~max_states:100_000 ~max_depth:6 (Nspk.system scen)
      ~goal:Nspk.some_responder_done
  with
  | Some (trace, _) ->
    Alcotest.(check bool) "at least 3 messages" true (List.length trace >= 3)
  | None -> Alcotest.fail "honest NSPK run should complete"

(* ------------------------------------------------------------------ *)
(* par_bfs: frontier-parallel exploration must agree with bfs exactly —
   same violation, same minimal trace, same state/transition counts. *)

let stats_sig (s : Mc.stats) =
  s.Mc.states_explored, s.Mc.transitions_fired, s.Mc.states_pruned, s.Mc.max_depth

let outcome_sig = function
  | Mc.No_violation s -> "none", "", [], 0, stats_sig s
  | Mc.Out_of_bounds s -> "bounds", "", [], 0, stats_sig s
  | Mc.Violation (v, s) ->
    "violation", v.Mc.property, v.Mc.trace, v.Mc.depth, stats_sig s

let check_par_agrees ?(jobs = 3) ?max_states ?max_depth ?reduction name system ~props =
  let seq = Mc.bfs ?max_states ?max_depth ?reduction system ~props in
  Sched.Pool.with_pool ~jobs @@ fun pool ->
  let par = Mc.par_bfs ?max_states ?max_depth ?reduction ~pool system ~props in
  Alcotest.(check bool) name true (outcome_sig seq = outcome_sig par)

let test_par_bfs_counter () =
  check_par_agrees "toy violation"
    (counter_system ~limit:10)
    ~props:[ "below-4", (fun n -> n < 4) ];
  check_par_agrees "toy exhaustion"
    (counter_system ~limit:10)
    ~props:[ "small", (fun n -> n <= 10) ];
  check_par_agrees ~max_depth:3 "toy bounds"
    (counter_system ~limit:10)
    ~props:[ "below-7", (fun n -> n < 7) ]

(* A branching toy system: unlike the counter chain, its levels are wide,
   so a state bound can end a search between two states of one level. *)
let branching_system =
  {
    Mc.initial = 0;
    next =
      (fun n ->
        List.filter
          (fun (_, m) -> m < 200)
          [ "dbl1", (2 * n) + 1; "dbl2", (2 * n) + 2; "add3", n + 3; "add6", n + 6 ]);
    key = int_key;
  }

(* "add3" and "add6" are the ample actions, so each compound step
   subsumes one of them; the canonizer folds every state from 190 up into
   190, where both only reach the state's own orbit and are pruned. *)
let branching_reduction =
  { Mc.ample = (fun a -> a = "add3" || a = "add6"); canon = (fun n -> min n 190) }

let bound_sig ?reduction name expected =
  match
    Mc.bfs ~max_states:10 ?reduction branching_system ~props:[ "any", (fun _ -> true) ]
  with
  | Mc.Out_of_bounds s ->
    Alcotest.(check (list int))
      name expected
      [ s.Mc.states_explored; s.Mc.transitions_fired; s.Mc.states_pruned; s.Mc.max_depth ]
  | _ -> Alcotest.fail "expected the state bound to end the search"

let test_par_bfs_cut_level () =
  bound_sig "full: the bound trips between levels 1 and 2" [ 13; 20; 0; 2 ];
  bound_sig ~reduction:branching_reduction
    "reduced: the bound trips after two of level 2's four states" [ 12; 15; 7; 3 ];
  List.iter
    (fun jobs ->
      List.iter
        (fun max_states ->
          List.iter
            (fun (rname, reduction) ->
              List.iter
                (fun (pname, props) ->
                  check_par_agrees ~jobs ~max_states ?reduction
                    (Printf.sprintf "jobs %d, %d states, %s, %s" jobs max_states rname pname)
                    branching_system ~props)
                [
                  "bounds", [ "any", (fun _ -> true) ];
                  "violation", [ "not-40", (fun n -> n <> 40) ];
                ])
            [ "full", None; "reduced", Some branching_reduction ])
        [ 10; 37 ])
    [ 1; 2; 3 ]

let test_par_bfs_lowe_attack () =
  let scen = Nspk.default_scenario Nspk.Classic in
  let props = [ "responder-agreement", Nspk.responder_agreement ] in
  let system = Nspk.system scen in
  (match Mc.bfs ~max_states:100_000 ~max_depth:8 system ~props with
  | Mc.Violation _ -> ()
  | _ -> Alcotest.fail "baseline should find Lowe's attack");
  check_par_agrees ~max_states:100_000 ~max_depth:8 "same attack, same trace"
    system ~props

let test_par_bfs_no_violation () =
  let scen = Nspk.default_scenario Nspk.Lowe_fixed in
  check_par_agrees ~max_states:60_000 ~max_depth:8 "NSL stays clean"
    (Nspk.system scen)
    ~props:
      [
        "responder-agreement", Nspk.responder_agreement;
        "nonce-secrecy", Nspk.nonce_secrecy;
      ]

let test_par_bfs_tls () =
  check_par_agrees ~max_states:20_000 ~max_depth:6 "2' counterexample"
    (Lazy.force tls_system_l)
    ~props:[ "cf-authentic", Tls.Concrete.prop_cf_authentic ]

(* A wide toy system: 0 leads to the 2 000 states 1..2000 of level 1,
   and each state [n] of level 1 to [10_000 * n + 1] and [10_000 * n + 2].
   [next] counts its calls, on whichever domain runs it. *)
let wide_system ?(raise_at = -1) calls =
  {
    Mc.initial = 0;
    next =
      (fun n ->
        Atomic.incr calls;
        if n = raise_at then failwith "next failed"
        else if n = 0 then List.init 2000 (fun i -> "spread", i + 1)
        else if n <= 2000 then [ "one", (10_000 * n) + 1; "two", (10_000 * n) + 2 ]
        else []);
    key = int_key;
  }

(* The violation (state 10 001) is a successor of the first state of level 1,
   so it lies in the level's first chunk.  [par_bfs] may expand what is in
   flight when it is found, one window of chunks (mc.mli: at most
   [jobs + 1] chunks of at most 32 states), but no more of the level. *)
let test_par_bfs_stops_at_violation () =
  let props = [ "not-10001", (fun n -> n <> 10_001) ] in
  let seq_calls = Atomic.make 0 in
  let seq = Mc.bfs (wide_system seq_calls) ~props in
  Alcotest.(check int) "bfs expands 0 and 1" 2 (Atomic.get seq_calls);
  List.iter
    (fun jobs ->
      Sched.Pool.with_pool ~jobs @@ fun pool ->
      let calls = Atomic.make 0 in
      let par = Mc.par_bfs ~pool (wide_system calls) ~props in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: same outcome and trace" jobs)
        true
        (outcome_sig seq = outcome_sig par);
      let window = (jobs + 1) * 32 in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: %d calls of next <= %d + a window of %d" jobs
           (Atomic.get calls) (Atomic.get seq_calls) window)
        true
        (Atomic.get calls <= Atomic.get seq_calls + window))
    [ 2; 3 ]

(* An exception raised by [next] in a chunk in the middle of a level
   leaves [par_bfs] once the chunks in flight have settled, and the pool
   keeps serving. *)
let test_par_bfs_next_raises () =
  List.iter
    (fun jobs ->
      Sched.Pool.with_pool ~jobs @@ fun pool ->
      let system = wide_system ~raise_at:1000 (Atomic.make 0) in
      (match Mc.par_bfs ~pool system ~props:[ "any", (fun _ -> true) ] with
      | _ -> Alcotest.fail "expected next's exception"
      | exception Failure msg ->
        Alcotest.(check string) (Printf.sprintf "jobs %d: exception" jobs) "next failed" msg);
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: the pool runs a task afterwards" jobs)
        42
        (Sched.Pool.run pool (fun () -> 42));
      check_par_agrees ~jobs
        (Printf.sprintf "jobs %d: the pool searches afterwards" jobs)
        (wide_system (Atomic.make 0))
        ~props:[ "not-10000002", (fun n -> n <> 10_000_002) ])
    [ 2; 3 ]

(* Two properties under a reduction, on a wide toy system: of level 1's
   400 states, state 1 has an ordinary successor that violates "a", and
   each of states 33..400 (the chunks after the first) an ample one that
   violates "b", which the compound chases on the pool's workers peek at.
   Each peek at a "b" state waits until "a" has been seen violated (or
   half a second has passed), so it comes after the merge has stopped at
   "a".  The violation reported is the one the merge stopped at, with its
   trace, as [bfs] reports it. *)
let test_par_bfs_names_its_violation () =
  let run search =
    let a_seen = Atomic.make false and gave_up = Atomic.make false in
    let system =
      {
        Mc.initial = 0;
        next =
          (fun n ->
            if n = 0 then List.init 400 (fun i -> "spread", i + 1)
            else if n = 1 then [ "to-a", -1 ]
            else if n > 32 && n <= 400 then [ "amp", 1000 + n ]
            else []);
        key = int_key;
      }
    in
    let wait_for_a () =
      let t0 = Unix.gettimeofday () in
      while not (Atomic.get a_seen || Atomic.get gave_up) do
        if Unix.gettimeofday () -. t0 > 0.5 then Atomic.set gave_up true;
        Domain.cpu_relax ()
      done
    in
    let props =
      [
        ( "a",
          fun n ->
            n <> -1
            ||
            (Atomic.set a_seen true;
             false) );
        ( "b",
          fun n ->
            n < 1000
            ||
            (wait_for_a ();
             false) );
      ]
    in
    search ~reduction:{ Mc.ample = (fun a -> a = "amp"); canon = Fun.id } system ~props
  in
  let seq = run (fun ~reduction system ~props -> Mc.bfs ~reduction system ~props) in
  (match seq with
  | Mc.Violation (v, _) -> Alcotest.(check string) "bfs stops at a" "a" v.Mc.property
  | _ -> Alcotest.fail "expected a violation");
  List.iter
    (fun jobs ->
      Sched.Pool.with_pool ~jobs @@ fun pool ->
      let par = run (fun ~reduction system ~props -> Mc.par_bfs ~reduction ~pool system ~props) in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: same violation and trace" jobs)
        true
        (outcome_sig seq = outcome_sig par))
    [ 2; 3 ]

let tests =
  [
    "bfs exhausts", `Quick, test_bfs_exhausts;
    "bfs minimal trace", `Quick, test_bfs_finds_min_trace;
    "bfs bounds", `Quick, test_bfs_bounds;
    "reachable", `Quick, test_reachable;
    "reachable negative", `Quick, test_reachable_negative;
    "tls handshake reachable", `Quick, test_tls_handshake_reachable;
    "tls 2' attack found", `Quick, test_tls_2prime_attack_found;
    "tls 3' reduced trace", `Quick, test_tls_3prime_reduced_trace;
    "tls positive props bounded", `Quick, test_tls_positive_props_bounded;
    "tls knowledge", `Quick, test_tls_knowledge;
    "tls oops stays safe", `Quick, test_tls_oops_stays_safe;
    "tls oops actually leaks", `Quick, test_tls_oops_actually_leaks;
    "nspk lowe attack", `Quick, test_nspk_lowe_attack;
    "nspk nonce secrecy broken", `Quick, test_nspk_nonce_secrecy_broken;
    "nsl fixed clean", `Quick, test_nsl_fixed_is_clean;
    "nspk completes honestly", `Quick, test_nspk_completes_honestly;
    "par_bfs toy systems", `Quick, test_par_bfs_counter;
    "par_bfs state bound cuts a level", `Quick, test_par_bfs_cut_level;
    "par_bfs lowe attack", `Quick, test_par_bfs_lowe_attack;
    "par_bfs no violation", `Quick, test_par_bfs_no_violation;
    "par_bfs tls 2'", `Quick, test_par_bfs_tls;
    "par_bfs stops soon after a violation", `Quick, test_par_bfs_stops_at_violation;
    "par_bfs propagates an exception from next", `Quick, test_par_bfs_next_raises;
    "par_bfs names the violation it stops at", `Quick, test_par_bfs_names_its_violation;
  ]

let suite = "model-checker", tests
