(* The verifyd server stack: codec/framing fuzz (no spec loaded — the
   protocol module is deliberately self-contained), the obligation
   registry, and a live daemon exercised end-to-end over its socket —
   including the guarantees the ISSUE pins down: concurrent clients get
   verdicts byte-identical to a single-client (and to a local) run,
   Limit_exceeded comes back as a structured timeout verdict without
   tearing the connection down, and a drained daemon removes its
   socket file. *)

module P = Server.Protocol
module Exit = Telemetry.Cli.Exit

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_byte_string =
  QCheck.Gen.(string_size ~gen:(map char_of_int (int_bound 255)) (int_bound 24))

let gen_name = QCheck.Gen.(string_size ~gen:printable (int_bound 12))

let gen_style = QCheck.Gen.oneofl [ P.Original; P.Variant ]

(* finite, exactly-representable-enough floats; the codec promises exact
   round-trips for every finite float (hex notation) *)
let gen_float =
  QCheck.Gen.(
    map2
      (fun a b -> float_of_int a /. float_of_int (b + 1))
      (int_range (-10000) 10000) (int_bound 999))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        oneofl [ P.Ping; P.Status; P.Metrics; P.Shutdown ];
        map (fun style -> P.Lint { style }) gen_style;
        map (fun style -> P.Secrecy { style }) gen_style;
        map4
          (fun style (only, certify) negative extensions ->
            P.Verify { style; only; negative; extensions; certify })
          gen_style
          (pair (list_size (int_bound 4) gen_name) bool)
          bool bool;
        map (fun cert -> P.Check { cert }) gen_byte_string;
        map3
          (fun src steps dl ->
            P.Eval
              {
                src;
                step_limit = (if steps = 0 then None else Some steps);
                deadline_s = (if dl <= 0. then None else Some dl);
              })
          gen_byte_string (int_bound 5000) gen_float;
      ])

let gen_case =
  QCheck.Gen.(
    map4
      (fun c_name st c_splits c_steps ->
        { P.c_name; c_status = st; c_splits; c_steps })
      gen_name
      (oneofl [ "proved"; "refuted"; "unknown" ])
      small_nat small_nat)

let gen_verdict =
  QCheck.Gen.(
    map4
      (fun v_name v_proved v_negative (v_cases, v_text) ->
        { P.v_name; v_proved; v_negative; v_cases; v_text })
      gen_name bool bool
      (pair (list_size (int_bound 5) gen_case) gen_byte_string))

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map2 (fun pid uptime_s -> P.Pong { pid; uptime_s }) small_nat gen_float;
        map4
          (fun uptime_s (jobs, requests) (in_flight, styles)
               (dedup_hits, dedup_misses) ->
            P.Rstatus
              {
                uptime_s;
                jobs;
                requests;
                in_flight;
                dedup_hits;
                dedup_misses;
                styles;
              })
          gen_float (pair small_nat small_nat)
          (pair small_nat (list_size (int_bound 2) gen_style))
          (pair small_nat small_nat);
        map3
          (fun counters gauges histograms ->
            P.Rmetrics { counters; gauges; histograms })
          (list_size (int_bound 4) (pair gen_name small_nat))
          (list_size (int_bound 4) (pair gen_name gen_float))
          (list_size (int_bound 3)
             (pair gen_name (array_size (int_bound 6) gen_float)));
        map (fun v -> P.Rverdict v) gen_verdict;
        map3
          (fun (invariants, cases) (splits, steps) text ->
            P.Rsummary { invariants; cases; splits; steps; text })
          (pair (pair small_nat small_nat) (pair small_nat small_nat))
          (pair small_nat small_nat)
          gen_byte_string;
        map3
          (fun (errors, warnings) (infos, cached) text ->
            P.Rlint { errors; warnings; infos; cached; text })
          (pair small_nat small_nat)
          (pair small_nat bool) gen_byte_string;
        map3
          (fun verdict (clauses, facts) (rounds, (resolutions, cached)) ->
            P.Rsecrecy { verdict; clauses; facts; rounds; resolutions; cached })
          (oneofl [ "secure"; "leaks"; "inconclusive"; "n/a" ])
          (pair small_nat small_nat)
          (pair small_nat (pair small_nat bool));
        map (fun cert -> P.Rcert { cert }) gen_byte_string;
        map3
          (fun (ok, obligations) steps errors ->
            P.Rcheck { ok; obligations; steps; errors })
          (pair bool small_nat) small_nat
          (list_size (int_bound 3) (pair gen_name gen_byte_string));
        map (fun text -> P.Reval { text }) gen_byte_string;
        map3
          (fun limit steps name -> P.Rtimeout { limit; steps; name })
          (oneof
             [
               map (fun n -> `Steps n) small_nat;
               map (fun d -> `Deadline d) gen_float;
             ])
          small_nat gen_name;
        map2 (fun code msg -> P.Rerror { code; msg }) gen_name gen_byte_string;
        map (fun exit_code -> P.Done { exit_code }) (int_bound 5);
      ])

let arb_request = QCheck.make ~print:P.encode_request gen_request
let arb_response = QCheck.make ~print:P.encode_response gen_response

(* ------------------------------------------------------------------ *)
(* Codec properties *)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request codec round-trips" ~count:500 arb_request
    (fun req -> P.decode_request (P.encode_request req) = Ok req)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response codec round-trips" ~count:500 arb_response
    (fun resp -> P.decode_response (P.encode_response resp) = Ok resp)

let prop_garbage_request_never_raises =
  QCheck.Test.make ~name:"garbage payloads are rejected, never raise"
    ~count:500
    (QCheck.make QCheck.Gen.(string_size ~gen:(map char_of_int (int_bound 255)) (int_bound 64)))
    (fun s ->
      match P.decode_request s, P.decode_response s with
      | (Ok _ | Error _), (Ok _ | Error _) -> true)

(* Request ids ride as an optional trailing [(id …)] field: decoders
   ignore unknown fields, so a tagged frame still round-trips to the
   same request, and [request_id] recovers the tag exactly. *)
let prop_request_id_roundtrip =
  QCheck.Test.make ~name:"request id tags round-trip and stay invisible"
    ~count:300
    (QCheck.make QCheck.Gen.(pair gen_request gen_byte_string))
    (fun (req, id) ->
      let tagged = P.encode_request ~id req in
      P.request_id tagged = Some id
      && P.decode_request tagged = Ok req
      && P.request_id (P.encode_request req) = None)

(* The fingerprint rendered with Printf: the reference for the
   digit-writing one, over any ints a decoded verdict can carry. *)
let printf_fingerprint (v : P.verdict) =
  v.P.v_name
  ^ (if v.P.v_proved then "=proved" else "=unproved")
  ^ String.concat ""
      (List.map
         (fun (c : P.case) ->
           Printf.sprintf ";%s:%s:splits=%d:steps=%d" c.P.c_name c.P.c_status
             c.P.c_splits c.P.c_steps)
         v.P.v_cases)

let prop_fingerprint_reference =
  QCheck.Test.make ~name:"verdict fingerprint matches its printf reference"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         map2
           (fun v cases -> { v with P.v_cases = cases })
           gen_verdict
           (list_size (int_bound 6)
              (map2
                 (fun c (c_splits, c_steps) -> { c with P.c_splits; c_steps })
                 gen_case (pair int int)))))
    (fun v -> String.equal (P.verdict_fingerprint v) (printf_fingerprint v))

(* ------------------------------------------------------------------ *)
(* Framing properties *)

let feed_in_chunks dec bytes sizes =
  let n = Bytes.length bytes in
  let off = ref 0 in
  let sizes = if sizes = [] then [ n ] else sizes in
  let k = ref 0 in
  let nsizes = List.length sizes in
  while !off < n do
    let want = max 1 (List.nth sizes (!k mod nsizes)) in
    let len = min want (n - !off) in
    P.Frame.feed dec bytes !off len;
    off := !off + len;
    incr k
  done

let drain dec =
  let rec go acc =
    match P.Frame.next dec with
    | Ok (Some p) -> go (p :: acc)
    | Ok None -> List.rev acc, None
    | Error e -> List.rev acc, Some e
  in
  go []

let prop_framing_roundtrip =
  QCheck.Test.make
    ~name:"frames survive arbitrary re-chunking of the byte stream"
    ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_bound 6) (make gen_byte_string))
        (list_of_size (Gen.int_bound 5) small_nat))
    (fun (payloads, sizes) ->
      let buf = Buffer.create 256 in
      List.iter (fun p -> P.Frame.encode buf p) payloads;
      let dec = P.Frame.decoder () in
      feed_in_chunks dec (Buffer.to_bytes buf) sizes;
      let frames, err = drain dec in
      err = None && frames = payloads)

let prop_framing_truncated =
  QCheck.Test.make
    ~name:"a truncated final frame yields its predecessors then Ok None"
    ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_bound 4) (make gen_byte_string))
        (make gen_byte_string))
    (fun (payloads, last) ->
      let buf = Buffer.create 256 in
      List.iter (fun p -> P.Frame.encode buf p) payloads;
      let whole = Buffer.length buf in
      P.Frame.encode buf last;
      let cut = whole + 1 + Random.int (Buffer.length buf - whole) in
      let cut = min cut (Buffer.length buf - 1) in
      let dec = P.Frame.decoder () in
      P.Frame.feed dec (Buffer.to_bytes buf) 0 cut;
      let frames, err = drain dec in
      err = None
      && (frames = payloads
         || (* the cut may fall after the last full frame's end *)
         frames = payloads @ [ last ])
      && P.Frame.buffered dec >= 0)

let prop_framing_oversized =
  QCheck.Test.make
    ~name:"an oversized length is a sticky protocol error, not an exception"
    ~count:200
    QCheck.(pair (make gen_byte_string) small_nat)
    (fun (junk, extra) ->
      let max_frame = 1024 in
      let buf = Buffer.create 64 in
      let oversized = max_frame + 1 + extra in
      Buffer.add_char buf (Char.chr ((oversized lsr 24) land 0xff));
      Buffer.add_char buf (Char.chr ((oversized lsr 16) land 0xff));
      Buffer.add_char buf (Char.chr ((oversized lsr 8) land 0xff));
      Buffer.add_char buf (Char.chr (oversized land 0xff));
      Buffer.add_string buf junk;
      let dec = P.Frame.decoder ~max_frame () in
      P.Frame.feed dec (Buffer.to_bytes buf) 0 (Buffer.length buf);
      match P.Frame.next dec with
      | Error _ -> (
        (* poisoned: stays an error even after more (valid-looking) bytes *)
        P.Frame.feed dec (Bytes.of_string (P.Frame.to_string "ok")) 0
          (String.length (P.Frame.to_string "ok"));
        match P.Frame.next dec with Error _ -> true | Ok _ -> false)
      | Ok _ -> false)

let prop_framing_garbage_never_raises =
  QCheck.Test.make ~name:"random bytes never make the decoder raise"
    ~count:300
    (QCheck.make
       QCheck.Gen.(string_size ~gen:(map char_of_int (int_bound 255)) (int_bound 128)))
    (fun s ->
      let dec = P.Frame.decoder ~max_frame:4096 () in
      P.Frame.feed dec (Bytes.of_string s) 0 (String.length s);
      let rec spin n = if n = 0 then true else
        match P.Frame.next dec with
        | Ok (Some _) -> spin (n - 1)
        | Ok None | Error _ -> true
      in
      spin 64)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_dedup () =
  let r = Server.Registry.create () in
  let spawned = ref 0 in
  let spawn v () =
    incr spawned;
    Sched.Task.of_result v
  in
  let t1, how1 = Server.Registry.find_or_submit r ~key:"a" (spawn 1) in
  Alcotest.(check int) "spawned once" 1 !spawned;
  Alcotest.(check bool) "fresh" true (how1 = `Fresh);
  let t2, how2 = Server.Registry.find_or_submit r ~key:"a" (spawn 99) in
  Alcotest.(check int) "not respawned" 1 !spawned;
  Alcotest.(check bool) "cached (already resolved)" true (how2 = `Cached);
  Alcotest.(check bool) "same future" true (t1 == t2);
  Alcotest.(check (option int)) "value" (Some 1) (Sched.Task.poll t2);
  (* an unresolved entry dedups as `Inflight *)
  let pending : int Sched.Task.t = Sched.Task.create () in
  let t3, _ = Server.Registry.find_or_submit r ~key:"b" (fun () -> pending) in
  let t4, how4 = Server.Registry.find_or_submit r ~key:"b" (fun () -> Sched.Task.of_result 0) in
  Alcotest.(check bool) "inflight" true (how4 = `Inflight);
  Alcotest.(check bool) "shared inflight future" true (t3 == t4);
  Alcotest.(check int) "in_flight_count" 1 (Server.Registry.in_flight_count r)

let test_registry_eviction () =
  let r = Server.Registry.create ~capacity:2 () in
  let pending : int Sched.Task.t = Sched.Task.create () in
  ignore (Server.Registry.find_or_submit r ~key:"live" (fun () -> pending));
  ignore (Server.Registry.find_or_submit r ~key:"r1" (fun () -> Sched.Task.of_result 1));
  ignore (Server.Registry.find_or_submit r ~key:"r2" (fun () -> Sched.Task.of_result 2));
  ignore (Server.Registry.find_or_submit r ~key:"r3" (fun () -> Sched.Task.of_result 3));
  Alcotest.(check bool) "capacity respected" true (Server.Registry.size r <= 2 + 1);
  (* the in-flight entry must never be evicted *)
  let spawned = ref false in
  let t, _ =
    Server.Registry.find_or_submit r ~key:"live" (fun () ->
        spawned := true;
        Sched.Task.of_result 0)
  in
  Alcotest.(check bool) "in-flight entry survived eviction" false !spawned;
  Alcotest.(check bool) "still the same future" true (t == pending);
  (* an evicted key is submitted afresh: its spawn, where the daemon
     proves an obligation and renders its reply, runs again, and later
     hits share the new value *)
  let spawned = ref 0 in
  let spawn v () =
    incr spawned;
    Sched.Task.of_result v
  in
  let t1, how1 = Server.Registry.find_or_submit r ~key:"r1" (spawn 10) in
  Alcotest.(check bool) "evicted entry resubmitted" true (how1 = `Fresh);
  Alcotest.(check int) "its spawn ran again" 1 !spawned;
  Alcotest.(check (option int)) "the new value" (Some 10) (Sched.Task.poll t1);
  let t1', how1' = Server.Registry.find_or_submit r ~key:"r1" (spawn 20) in
  Alcotest.(check bool) "then a cached hit" true (how1' = `Cached);
  Alcotest.(check int) "not spawned again" 1 !spawned;
  Alcotest.(check bool) "sharing the new future" true (t1' == t1)

let test_registry_requesters () =
  let r = Server.Registry.create () in
  let pending : int Sched.Task.t = Sched.Task.create () in
  ignore
    (Server.Registry.find_or_submit ~requester:"a" r ~key:"k" (fun () ->
         pending));
  ignore
    (Server.Registry.find_or_submit ~requester:"b" r ~key:"k" (fun () ->
         Sched.Task.of_result 0));
  Alcotest.(check (list string))
    "newest first" [ "b"; "a" ]
    (Server.Registry.requesters r ~key:"k");
  (* re-attaching an id moves it to the front instead of duplicating *)
  ignore
    (Server.Registry.find_or_submit ~requester:"a" r ~key:"k" (fun () ->
         Sched.Task.of_result 0));
  Alcotest.(check (list string))
    "deduplicated" [ "a"; "b" ]
    (Server.Registry.requesters r ~key:"k");
  (* the per-entry list is capped *)
  for i = 0 to 19 do
    ignore
      (Server.Registry.find_or_submit
         ~requester:(Printf.sprintf "r%d" i)
         r ~key:"k"
         (fun () -> Sched.Task.of_result 0))
  done;
  let ids = Server.Registry.requesters r ~key:"k" in
  Alcotest.(check int) "capped at 8" 8 (List.length ids);
  Alcotest.(check string) "newest survives the cap" "r19" (List.hd ids);
  Alcotest.(check (list string))
    "unknown key" []
    (Server.Registry.requesters r ~key:"nope")

let test_exit_codes () =
  let codes =
    [
      Exit.ok; Exit.failure; Exit.usage; Exit.lint_gate; Exit.cert_rejected;
      Exit.timeout;
    ]
  in
  Alcotest.(check (list int)) "documented values" [ 0; 1; 2; 3; 4; 5 ] codes

(* ------------------------------------------------------------------ *)
(* Live daemon *)

let daemon_seq = ref 0

let with_daemon ?(jobs = 2) ?(config_f = fun c -> c) f =
  incr daemon_seq;
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "eqtls-vd-%d-%d.sock" (Unix.getpid ()) !daemon_seq)
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let config =
    config_f
      {
        (Server.Daemon.default_config ~socket) with
        jobs;
        idle_timeout_s = 60.;
        handle_signals = false;
      }
  in
  let d = Domain.spawn (fun () -> Server.Daemon.run config) in
  let rec wait_up n =
    if n = 0 then failwith "verifyd did not come up"
    else
      match Server.Client.connect ~socket with
      | c -> Server.Client.close c
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.05;
        wait_up (n - 1)
  in
  wait_up 400;
  Fun.protect
    ~finally:(fun () ->
      (try
         ignore
           (Server.Client.with_client ~socket (fun c ->
                Server.Client.request c P.Shutdown ~on_response:(fun _ -> ())))
       with _ -> ());
      Domain.join d;
      (* the default config points the flight recorder next to the
         socket; don't leave post-mortems of expected timeouts in /tmp *)
      try Unix.unlink (socket ^ ".flight.json") with Unix.Unix_error _ -> ())
    (fun () -> f socket)

let verify_inv1 =
  P.Verify
    {
      style = P.Original;
      only = [ "inv1" ];
      negative = false;
      extensions = false;
      certify = false;
    }

let fingerprints_of responses =
  List.filter_map
    (function P.Rverdict v -> Some (P.verdict_fingerprint v) | _ -> None)
    responses

let local_inv1_fingerprint =
  lazy
    (let env = Tls.Model.env Tls.Model.Original in
     let proof = Proofs.Tls_invariants.find Tls.Model.Original "inv1" in
     Core.Report.result_fingerprint (Proofs.Tls_invariants.run env proof))

let test_live_verify_identity () =
  with_daemon @@ fun socket ->
  (* single client, twice: second run is served from the resident result
     cache and must be byte-identical *)
  let run () =
    Server.Client.with_client ~socket (fun c ->
        Server.Client.request_collect c verify_inv1)
  in
  let r1, code1 = run () in
  let r2, code2 = run () in
  Alcotest.(check int) "first exit ok" Exit.ok code1;
  Alcotest.(check int) "second exit ok" Exit.ok code2;
  let fp1 = fingerprints_of r1 and fp2 = fingerprints_of r2 in
  Alcotest.(check int) "one verdict" 1 (List.length fp1);
  Alcotest.(check (list string)) "warm repeat byte-identical" fp1 fp2;
  Alcotest.(check string) "identical to the local standalone run"
    (Lazy.force local_inv1_fingerprint) (List.hd fp1);
  (* N concurrent clients: all verdict streams byte-identical *)
  let domains = List.init 3 (fun _ -> Domain.spawn run) in
  let results = List.map Domain.join domains in
  List.iter
    (fun (resps, code) ->
      Alcotest.(check int) "concurrent exit ok" Exit.ok code;
      Alcotest.(check (list string)) "concurrent stream byte-identical" fp1
        (fingerprints_of resps))
    results

let looping_module =
  "mod LOOP {\n  [ N ]\n  op z : -> N .\n  op f : N -> N .\n  var X : N .\n\
  \  eq f(X) = f(f(X)) .\n}\nred in LOOP : f(z) .\n"

let test_live_timeout_keeps_connection () =
  with_daemon ~jobs:1 @@ fun socket ->
  Server.Client.with_client ~socket @@ fun c ->
  let resps, code =
    Server.Client.request_collect c
      (P.Eval { src = looping_module; step_limit = Some 500; deadline_s = None })
  in
  Alcotest.(check int) "timeout exit code" Exit.timeout code;
  let timeouts =
    List.filter_map
      (function
        | P.Rtimeout { limit = `Steps n; steps; _ } -> Some (n, steps)
        | _ -> None)
      resps
  in
  Alcotest.(check (list (pair int int)))
    "structured timeout verdict" [ (500, 500) ] timeouts;
  (* the same connection keeps working *)
  let resps, code = Server.Client.request_collect c P.Ping in
  Alcotest.(check int) "ping after timeout" Exit.ok code;
  Alcotest.(check bool) "pong received" true
    (List.exists (function P.Pong _ -> true | _ -> false) resps)

let peano_module =
  "mod LPEANO {\n  [ PNat ]\n  op 0 : -> PNat { ctor } .\n\
  \  op s : PNat -> PNat { ctor } .\n  op plus : PNat PNat -> PNat .\n\
  \  op times : PNat PNat -> PNat .\n  vars M N : PNat .\n\
  \  eq plus(0, N) = N .\n  eq plus(s(M), N) = s(plus(M, N)) .\n\
  \  eq times(0, N) = 0 .\n  eq times(s(M), N) = plus(N, times(M, N)) .\n}\n"

let rec peano n = if n = 0 then "0" else "s(" ^ peano (n - 1) ^ ")"

(* Limits belong to the request, not to the module: a red-only request
   is bounded by its own step limit although an earlier request defined
   the module, and that limit does not stay behind for the next request,
   on this connection or another. *)
let test_live_eval_limits_per_request () =
  with_daemon ~jobs:1 @@ fun socket ->
  Server.Client.with_client ~socket @@ fun c1 ->
  Server.Client.with_client ~socket @@ fun c2 ->
  let eval c ?step_limit src =
    Server.Client.request_collect c (P.Eval { src; step_limit; deadline_s = None })
  in
  let _, code = eval c1 peano_module in
  Alcotest.(check int) "module defined" Exit.ok code;
  let red = Printf.sprintf "red in LPEANO : times(%s, %s) .\n" (peano 5) (peano 5) in
  let resps, code = eval c1 ~step_limit:10 red in
  Alcotest.(check int) "limited red times out" Exit.timeout code;
  Alcotest.(check bool) "structured step timeout" true
    (List.exists
       (function P.Rtimeout { limit = `Steps 10; _ } -> true | _ -> false)
       resps);
  let resps, code = eval c2 red in
  Alcotest.(check int) "unlimited red from the other connection" Exit.ok code;
  let nf = "result: " ^ peano 25 ^ " " in
  Alcotest.(check bool) "normal form reached" true
    (List.exists
       (function
         | P.Reval { text } ->
           let n = String.length nf in
           let rec has i =
             i + n <= String.length text && (String.sub text i n = nf || has (i + 1))
           in
           has 0
         | _ -> false)
       resps)

let test_live_protocol_error () =
  with_daemon ~jobs:1 @@ fun socket ->
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (ADDR_UNIX socket);
  (* a well-framed payload that is not a request *)
  P.Frame.write fd "this is (not a request";
  let rec read_until_done acc =
    match P.Frame.read fd with
    | Ok (Some payload) -> (
      match P.decode_response payload with
      | Ok (P.Done { exit_code }) -> List.rev acc, exit_code
      | Ok r -> read_until_done (r :: acc)
      | Error e -> failwith e)
    | Ok None -> failwith "eof before Done"
    | Error e -> failwith e
  in
  let resps, code = read_until_done [] in
  Alcotest.(check int) "usage exit over the wire" Exit.usage code;
  Alcotest.(check bool) "protocol error response" true
    (List.exists
       (function P.Rerror { code = "protocol"; _ } -> true | _ -> false)
       resps);
  (* the daemon survives a hostile client *)
  let resps2, code2 =
    Server.Client.with_client ~socket (fun c ->
        Server.Client.request_collect c P.Ping)
  in
  Alcotest.(check int) "daemon alive" Exit.ok code2;
  Alcotest.(check bool) "pong" true
    (List.exists (function P.Pong _ -> true | _ -> false) resps2)

let test_live_secrecy_cached () =
  with_daemon ~jobs:1 @@ fun socket ->
  Server.Client.with_client ~socket @@ fun c ->
  let run () =
    Server.Client.request_collect c (P.Secrecy { style = P.Original })
  in
  let pick resps =
    List.find_map
      (function
        | P.Rsecrecy { verdict; clauses; facts; rounds; resolutions; cached }
          ->
          Some (verdict, clauses, facts, rounds, resolutions, cached)
        | _ -> None)
      resps
  in
  let r1, code1 = run () in
  let r2, code2 = run () in
  match (pick r1, pick r2) with
  | Some (v1, c1, f1, ro1, re1, cached1), Some (v2, c2, f2, ro2, re2, cached2)
    ->
    Alcotest.(check int) "first exit ok" Exit.ok code1;
    Alcotest.(check int) "second exit ok" Exit.ok code2;
    Alcotest.(check string) "secure verdict" "secure" v1;
    Alcotest.(check bool) "cold first query" false cached1;
    Alcotest.(check bool) "warm second query" true cached2;
    Alcotest.(check (list int)) "identical saturation stats"
      [ c1; f1; ro1; re1 ] [ c2; f2; ro2; re2 ];
    Alcotest.(check string) "identical verdict" v1 v2
  | _ -> Alcotest.fail "missing secrecy-report response"

let test_live_certify_roundtrip () =
  with_daemon ~jobs:1 @@ fun socket ->
  Server.Client.with_client ~socket @@ fun c ->
  let resps, code =
    Server.Client.request_collect c
      (P.Verify
         {
           style = P.Original;
           only = [ "inv1" ];
           negative = false;
           extensions = false;
           certify = true;
         })
  in
  Alcotest.(check int) "verify exit ok" Exit.ok code;
  let cert =
    match
      List.find_map (function P.Rcert { cert } -> Some cert | _ -> None) resps
    with
    | Some s -> s
    | None -> Alcotest.fail "no certificate response"
  in
  Alcotest.(check bool) "certificate non-empty" true (String.length cert > 0);
  (* the certificate the daemon emits is accepted by its own checker *)
  let resps2, code2 = Server.Client.request_collect c (P.Check { cert }) in
  Alcotest.(check int) "check exit ok" Exit.ok code2;
  (match
     List.find_map
       (function
         | P.Rcheck { ok; obligations; steps; errors } ->
           Some (ok, obligations, steps, errors)
         | _ -> None)
       resps2
   with
  | Some (ok, obligations, steps, errors) ->
    List.iter
      (fun (path, msg) -> Printf.eprintf "cert error %s: %s\n%!" path msg)
      errors;
    Alcotest.(check bool) "certificate checks" true ok;
    Alcotest.(check bool) "has obligations" true (obligations > 0);
    Alcotest.(check bool) "replayed steps" true (steps > 0)
  | None -> Alcotest.fail "no check-report response");
  (* and it parses as a certificate locally *)
  match Certify.Cert.of_string cert with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "certificate does not parse: %s" e

let test_live_shutdown_removes_socket () =
  with_daemon ~jobs:1 @@ fun socket ->
  let _, code =
    Server.Client.with_client ~socket (fun c ->
        Server.Client.request_collect c P.Shutdown)
  in
  Alcotest.(check int) "shutdown acknowledged" Exit.ok code;
  let rec wait_gone n =
    if not (Sys.file_exists socket) then ()
    else if n = 0 then Alcotest.fail "socket file not removed after drain"
    else begin
      Unix.sleepf 0.05;
      wait_gone (n - 1)
    end
  in
  wait_gone 200

(* ------------------------------------------------------------------ *)
(* Observability: HTTP sidecar, flight recorder, request tracing *)

(* A daemon whose config binds an ephemeral HTTP port; the actually-bound
   port is announced before the unix socket is claimed, so once
   [with_daemon]'s connect probe succeeds the atomic is set. *)
let with_obs_daemon ?(jobs = 2) ?(config_f = fun c -> c) f =
  let port = Atomic.make 0 in
  with_daemon ~jobs
    ~config_f:(fun c ->
      config_f
        {
          c with
          Server.Daemon.metrics_port = Some 0;
          announce_metrics_port = (fun p -> Atomic.set port p);
        })
    (fun socket ->
      let p = Atomic.get port in
      if p <= 0 then Alcotest.fail "metrics port was not announced";
      f socket p)

let http_get ~port path =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
      path
  in
  let _ = Unix.write_substring fd req 0 (String.length req) in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec slurp () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      slurp ()
  in
  slurp ();
  let s = Buffer.contents buf in
  let code =
    try int_of_string (String.sub s (String.index s ' ' + 1) 3)
    with _ -> Alcotest.failf "unparsable HTTP response: %S" s
  in
  let n = String.length s in
  let rec body i =
    if i + 3 >= n then ""
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
            && s.[i + 3] = '\n'
    then String.sub s (i + 4) (n - i - 4)
    else body (i + 1)
  in
  code, body 0

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_live_http_endpoints () =
  with_obs_daemon ~jobs:1 @@ fun socket port ->
  (* serve one tagged campaign request so latency histograms have data *)
  let _, code =
    Server.Client.with_client ~socket (fun c ->
        Server.Client.request_collect ~id:"http-req" c verify_inv1)
  in
  Alcotest.(check int) "verify over socket ok" Exit.ok code;
  let mcode, mbody = http_get ~port "/metrics" in
  Alcotest.(check int) "/metrics 200" 200 mcode;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "/metrics contains %S" needle)
        true (contains ~needle mbody))
    [
      "# TYPE server_requests counter";
      "server_requests_total";
      "# TYPE server_request_latency_seconds histogram";
      "server_request_latency_seconds_bucket{le=";
      "server_request_latency_seconds_bucket{type=\"verify\",le=";
      "le=\"+Inf\"";
      "server_request_latency_seconds_count";
      "server_uptime_s";
    ];
  Alcotest.(check bool) "/metrics ends with # EOF" true
    (String.length mbody >= 6
    && String.sub mbody (String.length mbody - 6) 6 = "# EOF\n");
  let hcode, hbody = http_get ~port "/healthz" in
  Alcotest.(check int) "/healthz 200" 200 hcode;
  Alcotest.(check string) "/healthz body" "ok\n" hbody;
  let scode, sbody = http_get ~port "/statusz" in
  Alcotest.(check int) "/statusz 200" 200 scode;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "/statusz contains %S" needle)
        true (contains ~needle sbody))
    [ "\"draining\":false"; "\"requests_served\":"; "\"dedup_hits\":" ];
  let ncode, _ = http_get ~port "/no-such" in
  Alcotest.(check int) "unknown target 404" 404 ncode

let test_live_healthz_drain_flip () =
  with_obs_daemon ~jobs:1 @@ fun socket port ->
  let hcode, _ = http_get ~port "/healthz" in
  Alcotest.(check int) "healthy while serving" 200 hcode;
  (* hold the drain open with backpressure: an eval whose response
     stream far exceeds the socket buffer, on a connection we refuse to
     read — the daemon cannot flush it, so the connection never counts
     as drained and the daemon sits in its draining state (HTTP listener
     still answering) until we drain the stream ourselves *)
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (ADDR_UNIX socket);
  let src = Buffer.create (1 lsl 20) in
  Buffer.add_string src "mod M {\n  [ N ]\n  op z : -> N .\n}\n";
  for _ = 1 to 30_000 do
    Buffer.add_string src "red in M : z .\n"
  done;
  P.Frame.write fd
    (P.encode_request
       (P.Eval
          { src = Buffer.contents src; step_limit = None; deadline_s = None }));
  (* wait for the eval to have run (it executes on the event loop) *)
  let rec await_served n =
    if n = 0 then Alcotest.fail "eval was never served"
    else
      let _, body = http_get ~port "/statusz" in
      if not (contains ~needle:"\"requests_served\":1" body) then begin
        Unix.sleepf 0.05;
        await_served (n - 1)
      end
  in
  await_served 100;
  let _, code =
    Server.Client.with_client ~socket (fun c ->
        Server.Client.request_collect c P.Shutdown)
  in
  Alcotest.(check int) "shutdown acknowledged" Exit.ok code;
  let rec await_503 n =
    if n = 0 then Alcotest.fail "healthz never flipped to 503"
    else
      match http_get ~port "/healthz" with
      | 503, body ->
        Alcotest.(check string) "draining body" "draining\n" body
      | _ ->
        Unix.sleepf 0.05;
        await_503 (n - 1)
  in
  await_503 40;
  (* now drain the response stream; once flushed the daemon finishes *)
  let dones = ref 0 in
  let rec read_all () =
    match P.Frame.read fd with
    | Ok (Some payload) ->
      (match P.decode_response payload with
      | Ok (P.Done _) -> incr dones
      | _ -> ());
      read_all ()
    | Ok None -> ()
    | Error _ -> ()
  in
  read_all ();
  Alcotest.(check int) "the in-flight eval was answered during drain" 1 !dones

let test_live_flight_on_timeout () =
  let flight =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "eqtls-flight-%d.json" (Unix.getpid ()))
  in
  (try Unix.unlink flight with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      try Unix.unlink flight with Unix.Unix_error _ -> ())
  @@ fun () ->
  ( with_daemon ~jobs:1
      ~config_f:(fun c -> { c with Server.Daemon.flight_path = Some flight })
  @@ fun socket ->
    let _, code =
      Server.Client.with_client ~socket (fun c ->
          Server.Client.request_collect c
            (P.Eval
               { src = looping_module; step_limit = Some 500; deadline_s = None }))
    in
    Alcotest.(check int) "timeout exit" Exit.timeout code;
    (* the dump is written at the catch site, before the verdict is
       streamed back — by now the file must exist *)
    Alcotest.(check bool) "flight dump written" true (Sys.file_exists flight);
    let dump = In_channel.with_open_bin flight In_channel.input_all in
    Alcotest.(check bool) "dump is a JSON object" true
      (String.length dump > 0 && dump.[0] = '{');
    Alcotest.(check bool) "dump names the reason" true
      (contains ~needle:"limit-exceeded: eval" dump) )

let test_live_obs_fingerprint_identity () =
  (* every observability surface on at once must not perturb verdicts:
     the remote fingerprint stays byte-identical to the local run *)
  let tmp = Filename.get_temp_dir_name () in
  let log = Filename.concat tmp (Printf.sprintf "eqtls-obs-%d.log" (Unix.getpid ())) in
  (try Unix.unlink log with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Log.set_level None;
      (try Unix.unlink log with Unix.Unix_error _ -> ());
      try Unix.unlink (log ^ ".1") with Unix.Unix_error _ -> ())
  @@ fun () ->
  ( with_obs_daemon ~jobs:2
      ~config_f:(fun c ->
        {
          c with
          Server.Daemon.log_file = Some log;
          log_level = Some Telemetry.Log.Debug;
          slow_ms = 0.000001;
        })
  @@ fun socket _port ->
    let resps, code =
      Server.Client.with_client ~socket (fun c ->
          Server.Client.request_collect ~id:"fp-req" c verify_inv1)
    in
    Alcotest.(check int) "exit ok" Exit.ok code;
    match fingerprints_of resps with
    | [ fp ] ->
      Alcotest.(check string) "fingerprint identical with observability on"
        (Lazy.force local_inv1_fingerprint) fp
    | fps -> Alcotest.failf "expected one verdict, got %d" (List.length fps) );
  (* the structured log carried the request id end to end *)
  let logged = In_channel.with_open_bin log In_channel.input_all in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "log contains %S" needle)
        true (contains ~needle logged))
    (* slow_ms is set below every real latency, so the request must have
       been classified slow — the slow log rides the same fields *)
    [ "\"ev\":\"daemon_start\""; "\"id\":\"fp-req\""; "\"ev\":\"slow_request\"" ]

let test_live_request_spans () =
  (* two tagged requests through a live daemon: the Perfetto snapshot
     must be filterable to each request's spans, and the attribution must
     cross the pool boundary down into proof work *)
  Telemetry.Probe.reset ();
  Telemetry.Probe.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Probe.set_enabled false;
      Telemetry.Probe.reset ())
  @@ fun () ->
  ( with_daemon ~jobs:2 @@ fun socket ->
    let run id req =
      Server.Client.with_client ~socket (fun c ->
          Server.Client.request_collect ~id c req)
    in
    let _, code_a = run "req-A" verify_inv1 in
    let _, code_b = run "req-B" (P.Secrecy { style = P.Original }) in
    Alcotest.(check int) "verify ok" Exit.ok code_a;
    Alcotest.(check int) "secrecy ok" Exit.ok code_b );
  (* daemon and its pool have joined: snapshot is quiescent *)
  let snap = Telemetry.Probe.snapshot () in
  let of_req id =
    List.filter (fun s -> s.Telemetry.Probe.sp_req = id) snap.sn_spans
  in
  let spans_a = of_req "req-A" and spans_b = of_req "req-B" in
  Alcotest.(check bool) "req-A has spans" true (spans_a <> []);
  Alcotest.(check bool) "req-B has spans" true (spans_b <> []);
  Alcotest.(check bool) "req-A attribution crosses the pool" true
    (List.exists (fun s -> s.Telemetry.Probe.sp_cat <> "server") spans_a);
  Alcotest.(check bool) "req-B attribution crosses the pool" true
    (List.exists (fun s -> s.Telemetry.Probe.sp_cat <> "server") spans_b)

(* ------------------------------------------------------------------ *)
(* The warm path: reply bytes, reads, renderings, allocation *)

let with_raw socket f =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (ADDR_UNIX socket);
  f fd

(* The payloads of one reply, exactly as the daemon framed them, [Done]
   last. *)
let read_reply fd =
  let rec go acc =
    match P.Frame.read fd with
    | Ok (Some payload) -> (
      match P.decode_response payload with
      | Ok (P.Done _) -> List.rev (payload :: acc)
      | Ok _ -> go (payload :: acc)
      | Error e -> Alcotest.failf "undecodable reply frame: %s" e)
    | Ok None -> Alcotest.fail "eof before Done"
    | Error e -> Alcotest.fail e
  in
  go []

let raw_request fd req =
  P.Frame.write fd (P.encode_request req);
  read_reply fd

let tags payloads =
  List.map
    (fun p ->
      match P.decode_response p with
      | Ok (P.Rverdict { v_name; v_negative; _ }) ->
        Printf.sprintf "verdict:%s:%b" v_name v_negative
      | Ok (P.Rsummary _) -> "summary"
      | Ok (P.Done { exit_code }) -> Printf.sprintf "done:%d" exit_code
      | _ -> "other")
    payloads

let test_live_warm_frames_identical () =
  with_daemon @@ fun socket ->
  with_raw socket @@ fun fd ->
  let both =
    P.Verify
      {
        style = P.Original;
        only = [ "inv1" ];
        negative = true;
        extensions = false;
        certify = false;
      }
  in
  let cold = raw_request fd both in
  Alcotest.(check (list string))
    "a positive and two negative verdicts, the summary, done"
    [ "verdict:inv1:false"; "verdict:prop2':true"; "verdict:prop3':true";
      "summary"; "done:0" ]
    (tags cold);
  let warm = raw_request fd both in
  Alcotest.(check (list string)) "warm frames byte-identical to the cold ones"
    cold warm;
  (* asked alone, the positive gets the verdict, summary and done frames
     the first reply sent: that summary was over this one result too *)
  let single = raw_request fd verify_inv1 in
  Alcotest.(check (list string)) "single-result reply from the same frames"
    [ List.nth cold 0; List.nth cold 3; List.nth cold 4 ] single;
  Alcotest.(check (list string)) "warm single-result reply byte-identical"
    single (raw_request fd verify_inv1)

let test_live_pipelined_and_split_frames () =
  with_daemon ~jobs:1 @@ fun socket ->
  with_raw socket @@ fun fd ->
  let write s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  write
    (P.Frame.to_string (P.encode_request P.Ping)
    ^ P.Frame.to_string (P.encode_request P.Status));
  let first = read_reply fd and second = read_reply fd in
  let is_pong p = match P.decode_response p with Ok (P.Pong _) -> true | _ -> false in
  let is_status p =
    match P.decode_response p with Ok (P.Rstatus _) -> true | _ -> false
  in
  Alcotest.(check bool) "first frame of the write served" true (is_pong (List.hd first));
  Alcotest.(check bool) "second frame of the write served" true
    (is_status (List.hd second));
  (* one frame over three writes, each read on its own *)
  let frame = P.Frame.to_string (P.encode_request verify_inv1) in
  let n = String.length frame in
  let cut1 = 2 and cut2 = n / 2 in
  List.iter
    (fun (off, len) ->
      write (String.sub frame off len);
      Unix.sleepf 0.02)
    [ 0, cut1; cut1, cut2 - cut1; cut2, n - cut2 ];
  let reply = read_reply fd in
  let fps =
    List.filter_map
      (fun p ->
        match P.decode_response p with
        | Ok (P.Rverdict v) -> Some (P.verdict_fingerprint v)
        | _ -> None)
      reply
  in
  Alcotest.(check (list string)) "split frame served"
    [ Lazy.force local_inv1_fingerprint ] fps

(* Finished pool tasks wake the loop through a pipe, with no polling: once
   the work is done and the pipe drained, the process sleeps.  A 1-job
   pool runs its tasks on the loop itself, the likelier place for a
   wake-up never to be drained. *)
let test_live_idle_after_pool_work () =
  with_daemon ~jobs:1 @@ fun socket ->
  Server.Client.with_client ~socket @@ fun c ->
  let _, code = Server.Client.request_collect c verify_inv1 in
  Alcotest.(check int) "cold verify ok" Exit.ok code;
  let _, code = Server.Client.request_collect c (P.Secrecy { style = P.Original }) in
  Alcotest.(check int) "secrecy ok" Exit.ok code;
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let c0 = cpu () in
  Unix.sleepf 0.5;
  let spent = cpu () -. c0 in
  if spent > 0.1 then Alcotest.failf "idle daemon spent %.3f CPU-s in 0.5 s" spent

(* The event loop's own allocation per warm verify, read from the gauges
   it publishes on its domain.  Reading into a fresh 64 KiB buffer alone
   would cost 8 192 words per request. *)
let test_live_warm_major_words () =
  with_daemon @@ fun socket ->
  Server.Client.with_client ~socket @@ fun c ->
  let verify () =
    let _, code = Server.Client.request_collect c verify_inv1 in
    if code <> Exit.ok then Alcotest.failf "verify exit %d" code
  in
  let major () =
    let value = ref None in
    ignore
      (Server.Client.request c P.Metrics ~on_response:(function
         | P.Rmetrics { gauges; _ } ->
           value := List.assoc_opt "server.loop.major_words" gauges
         | _ -> ()));
    match !value with
    | Some w -> w
    | None -> Alcotest.fail "no server.loop.major_words gauge"
  in
  for _ = 1 to 50 do verify () done;
  let n = 2000 in
  let w0 = major () in
  for _ = 1 to n do verify () done;
  let per_request = (major () -. w0) /. float_of_int n in
  if per_request > 2000. then
    Alcotest.failf "%.0f major words per warm verify (bound 2000)" per_request

(* A reply of about 1 MB read in 1 KiB chunks, with pauses, while a
   second connection keeps being served: the daemon writes it out slice
   by slice and every frame arrives intact. *)
let test_live_large_reply_slow_reader () =
  with_daemon ~jobs:1 @@ fun socket ->
  with_raw socket @@ fun fd ->
  let reds = 25_000 in
  let src = Buffer.create (1 lsl 19) in
  Buffer.add_string src "mod M {\n  [ N ]\n  op z : -> N .\n}\n";
  for _ = 1 to reds do
    Buffer.add_string src "red in M : z .\n"
  done;
  P.Frame.write fd
    (P.encode_request
       (P.Eval { src = Buffer.contents src; step_limit = None; deadline_s = None }));
  let dec = P.Frame.decoder () in
  let chunk = Bytes.create 1024 in
  let received = ref 0 and frames = ref [] and finished = ref false in
  Server.Client.with_client ~socket @@ fun other ->
  while not !finished do
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n = 0 then Alcotest.fail "eof before Done";
    received := !received + n;
    P.Frame.feed dec chunk 0 n;
    let rec drain () =
      match P.Frame.next dec with
      | Ok (Some p) ->
        (match P.decode_response p with
        | Ok (P.Done { exit_code }) ->
          Alcotest.(check int) "eval exit ok" Exit.ok exit_code;
          finished := true
        | Ok r -> frames := r :: !frames
        | Error e -> Alcotest.failf "corrupt frame: %s" e);
        drain ()
      | Ok None -> ()
      | Error e -> Alcotest.fail e
    in
    drain ();
    if !received mod 65536 < 1024 then begin
      let _, code = Server.Client.request_collect other P.Ping in
      Alcotest.(check int) "other connection served meanwhile" Exit.ok code;
      Unix.sleepf 0.001
    end
  done;
  Alcotest.(check bool) "about a megabyte" true (!received > 900_000);
  let results =
    List.filter
      (function P.Reval { text } -> contains ~needle:"result: z" text | _ -> false)
      !frames
  in
  Alcotest.(check int) "every red answered" reds (List.length results);
  Alcotest.(check int) "the definition and the reds, nothing else" (reds + 1)
    (List.length !frames)

(* ------------------------------------------------------------------ *)
(* One request engine: every kind, wire or HTTP, through the same path *)

let status_dedup c =
  let resps, _ = Server.Client.request_collect c P.Status in
  match
    List.find_map
      (function
        | P.Rstatus { dedup_hits; dedup_misses; _ } -> Some (dedup_hits, dedup_misses)
        | _ -> None)
      resps
  with
  | Some d -> d
  | None -> Alcotest.fail "no status response"

let test_live_lint_cached () =
  with_daemon ~jobs:2 @@ fun socket ->
  Server.Client.with_client ~socket @@ fun c ->
  let lint () =
    let resps, code = Server.Client.request_collect c (P.Lint { style = P.Original }) in
    Alcotest.(check int) "lint exit ok" Exit.ok code;
    match
      List.find_map
        (function
          | P.Rlint { errors; warnings; infos; cached; text } ->
            Some ([ errors; warnings; infos ], cached, text)
          | _ -> None)
        resps
    with
    | Some r -> r
    | None -> Alcotest.fail "missing lint-report response"
  in
  let counts1, cached1, text1 = lint () in
  let hits, misses = status_dedup c in
  let counts2, cached2, text2 = lint () in
  Alcotest.(check bool) "cold first query" false cached1;
  Alcotest.(check bool) "warm second query" true cached2;
  Alcotest.(check (list int)) "identical counts" counts1 counts2;
  Alcotest.(check string) "identical report" text1 text2;
  Alcotest.(check int) "no lint errors" 0 (List.hd counts1);
  Alcotest.(check (pair int int))
    "the repeat is one registry hit" (hits + 1, misses) (status_dedup c)

let test_live_bad_requests () =
  with_daemon ~jobs:1 @@ fun socket ->
  Server.Client.with_client ~socket @@ fun c ->
  let bad req =
    match Server.Client.request_collect c req with
    | [ P.Rerror { code = "bad-request"; msg } ], code ->
      Alcotest.(check int) "usage exit" Exit.usage code;
      msg
    | _ -> Alcotest.fail "expected one bad-request error"
  in
  let msg =
    bad
      (P.Verify
         {
           style = P.Original;
           only = [ "inv1"; "no-such-proof" ];
           negative = false;
           extensions = false;
           certify = false;
         })
  in
  Alcotest.(check bool) "names the unknown proof" true
    (contains ~needle:"\"no-such-proof\"" msg);
  let msg = bad (P.Check { cert = "(certificate (reds" }) in
  Alcotest.(check bool) "says malformed" true
    (contains ~needle:"malformed certificate" msg);
  let _, code = Server.Client.request_collect c P.Ping in
  Alcotest.(check int) "the connection still serves" Exit.ok code

let gauge_value body name =
  let needle = "\n" ^ name ^ " " in
  let n = String.length needle and len = String.length body in
  let rec find i =
    if i + n > len then Alcotest.failf "no gauge %s in /metrics" name
    else if String.sub body i n = needle then
      let stop = String.index_from body (i + n) '\n' in
      float_of_string (String.sub body (i + n) (stop - i - n))
    else find (i + 1)
  in
  find 0

(* A scrape is answered from the same loop while a campaign's verdicts
   are still streaming to a protocol client on a 2-job daemon. *)
let test_live_scrape_while_streaming () =
  with_obs_daemon ~jobs:2 @@ fun socket port ->
  with_raw socket @@ fun fd ->
  P.Frame.write fd
    (P.encode_request
       (P.Verify
          {
            style = P.Original;
            only = [];
            negative = true;
            extensions = true;
            certify = false;
          }));
  (match P.Frame.read fd with
  | Ok (Some p) -> (
    match P.decode_response p with
    | Ok (P.Rverdict _) -> ()
    | _ -> Alcotest.fail "expected the campaign's first verdict")
  | _ -> Alcotest.fail "no reply frame");
  let code, body = http_get ~port "/metrics" in
  Alcotest.(check int) "/metrics 200" 200 code;
  Alcotest.(check bool) "the campaign was still queued at the scrape" true
    (gauge_value body "server_queue_depth" >= 1.);
  (match List.rev (tags (read_reply fd)) with
  | "done:0" :: "summary" :: _ -> ()
  | _ -> Alcotest.fail "the campaign did not finish with its summary");
  (* an answered HTTP client is closed at once, not after the loop's
     0.25 s select timeout: its read of the response ends on the close *)
  let times =
    List.init 5 (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (http_get ~port "/healthz");
        Unix.gettimeofday () -. t0)
  in
  let median = List.nth (List.sort compare times) 2 in
  if median > 0.1 then Alcotest.failf "a /healthz round trip took %.3f s" median

(* The drain ends with the last protocol client: an HTTP client that
   connected and sent nothing does not hold it open. *)
let test_live_idle_http_client_drain () =
  with_obs_daemon ~jobs:1 @@ fun socket port ->
  let idle = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close idle with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect idle (ADDR_INET (Unix.inet_addr_loopback, port));
  (* a later scrape is answered, so the idle client has been accepted *)
  let code, _ = http_get ~port "/healthz" in
  Alcotest.(check int) "/healthz 200" 200 code;
  let _, code =
    Server.Client.with_client ~socket (fun c ->
        Server.Client.request_collect c P.Shutdown)
  in
  Alcotest.(check int) "shutdown acknowledged" Exit.ok code;
  let rec wait_gone n =
    if not (Sys.file_exists socket) then ()
    else if n = 0 then Alcotest.fail "an idle HTTP client held the drain open"
    else begin
      Unix.sleepf 0.05;
      wait_gone (n - 1)
    end
  in
  wait_gone 200

(* The idle timeout closes a silent HTTP client as it does a protocol
   client, and other HTTP clients are served while it waits. *)
let test_live_silent_http_client_closed () =
  let timeout = 0.3 in
  with_obs_daemon ~jobs:1 ~config_f:(fun c -> { c with idle_timeout_s = timeout })
  @@ fun _socket port ->
  let silent = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close silent with Unix.Unix_error _ -> ())
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Unix.connect silent (ADDR_INET (Unix.inet_addr_loopback, port));
  let code, _ = http_get ~port "/healthz" in
  Alcotest.(check int) "/healthz 200 while a silent client is open" 200 code;
  let deadline = t0 +. (10. *. timeout) in
  let buf = Bytes.create 64 in
  let rec wait_eof () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then
      Alcotest.failf "a silent HTTP client was still open after %.1f s" (10. *. timeout);
    match Unix.select [ silent ] [] [] left with
    | [], _, _ -> wait_eof ()
    | _ -> (
      match Unix.read silent buf 0 (Bytes.length buf) with
      | 0 -> Unix.gettimeofday () -. t0
      | n -> Alcotest.failf "a silent HTTP client was sent %d bytes" n
      | exception Unix.Unix_error (ECONNRESET, _, _) -> Unix.gettimeofday () -. t0)
  in
  let closed_after = wait_eof () in
  if closed_after < 0.9 *. timeout then
    Alcotest.failf "a silent HTTP client was closed after %.3f s, before the idle timeout"
      closed_after

let probe_module =
  "mod PROBE {\n  [ Pn ]\n  op probez : -> Pn { ctor } .\n\
  \  op probes : Pn -> Pn { ctor } .\n  op probeplus : Pn Pn -> Pn .\n\
  \  vars M N : Pn .\n  eq probeplus(probez, N) = N .\n\
  \  eq probeplus(probes(M), N) = probes(probeplus(M, N)) .\n}\n"

let rec probe_num n = if n = 0 then "probez" else "probes(" ^ probe_num (n - 1) ^ ")"

(* A certifying campaign records its own reds and nothing else: on a
   4-job daemon, two full certifying campaigns at once, while a third
   connection keeps reducing in a probe module, each certify exactly what
   a solo campaign on the same daemon certifies. *)
let test_live_certificates_isolated () =
  with_daemon ~jobs:4 @@ fun socket ->
  let certify () =
    Server.Client.with_client ~socket @@ fun c ->
    let resps, code =
      Server.Client.request_collect c
        (P.Verify
           {
             style = P.Original;
             only = [];
             negative = false;
             extensions = false;
             certify = true;
           })
    in
    if code <> Exit.ok then failwith (Printf.sprintf "certifying campaign exit %d" code);
    match List.find_map (function P.Rcert { cert } -> Some cert | _ -> None) resps with
    | Some cert -> cert
    | None -> failwith "no certificate response"
  in
  let solo = certify () in
  let busy = Atomic.make true and reds = Atomic.make 0 in
  let prober =
    Domain.spawn (fun () ->
        Server.Client.with_client ~socket @@ fun c ->
        let eval src =
          let _, code =
            Server.Client.request_collect c
              (P.Eval { src; step_limit = None; deadline_s = None })
          in
          if code <> Exit.ok then failwith "probe eval failed"
        in
        eval probe_module;
        let i = ref 0 in
        while Atomic.get busy do
          eval
            (Printf.sprintf "red in PROBE : probeplus(%s, %s) .\n"
               (probe_num (1 + (!i mod 25)))
               (probe_num (!i mod 7)));
          Atomic.incr reds;
          incr i
        done)
  in
  let pair = List.init 2 (fun _ -> Domain.spawn certify) in
  let certs = List.map Domain.join pair in
  let during = Atomic.get reds in
  Atomic.set busy false;
  Domain.join prober;
  Alcotest.(check bool) "probe reds ran during the campaigns" true (during > 0);
  let digest s = Digest.to_hex (Digest.string s) in
  Alcotest.(check bool) "the solo certificate has no probe op" false
    (contains ~needle:"probeplus" solo);
  List.iter
    (fun cert ->
      Alcotest.(check bool) "no probe op" false (contains ~needle:"probeplus" cert);
      Alcotest.(check string) "byte-identical to the solo certificate" (digest solo)
        (digest cert))
    certs;
  Server.Client.with_client ~socket @@ fun c ->
  match Server.Client.request_collect c (P.Check { cert = solo }) with
  | resps, code ->
    Alcotest.(check int) "the certificate checks" Exit.ok code;
    Alcotest.(check bool) "check report ok" true
      (List.exists (function P.Rcheck { ok; _ } -> ok | _ -> false) resps)

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  List.map
    (QCheck_alcotest.to_alcotest ?verbose:None ?long:None)
    [
      prop_request_roundtrip;
      prop_response_roundtrip;
      prop_garbage_request_never_raises;
      prop_request_id_roundtrip;
      prop_fingerprint_reference;
      prop_framing_roundtrip;
      prop_framing_truncated;
      prop_framing_oversized;
      prop_framing_garbage_never_raises;
    ]

let tests =
  qcheck_tests
  @ [
      Alcotest.test_case "registry dedups against one shared future" `Quick
        test_registry_dedup;
      Alcotest.test_case "registry never evicts in-flight entries" `Quick
        test_registry_eviction;
      Alcotest.test_case "registry remembers who asked, capped and deduped"
        `Quick test_registry_requesters;
      Alcotest.test_case "exit codes are the documented values" `Quick
        test_exit_codes;
      Alcotest.test_case "live: concurrent verdicts byte-identical" `Slow
        test_live_verify_identity;
      Alcotest.test_case "live: timeout is a verdict, not a hangup" `Slow
        test_live_timeout_keeps_connection;
      Alcotest.test_case "live: eval limits apply per request" `Slow
        test_live_eval_limits_per_request;
      Alcotest.test_case "live: protocol errors answered, daemon survives"
        `Slow test_live_protocol_error;
      Alcotest.test_case "live: secrecy served and cached" `Slow
        test_live_secrecy_cached;
      Alcotest.test_case "live: certificate round-trips through check" `Slow
        test_live_certify_roundtrip;
      Alcotest.test_case "live: drained daemon removes its socket" `Slow
        test_live_shutdown_removes_socket;
      Alcotest.test_case "live: /metrics, /healthz, /statusz answer" `Slow
        test_live_http_endpoints;
      Alcotest.test_case "live: /healthz flips to 503 mid-drain" `Slow
        test_live_healthz_drain_flip;
      Alcotest.test_case "live: Limit_exceeded dumps the flight recorder"
        `Slow test_live_flight_on_timeout;
      Alcotest.test_case
        "live: verdict fingerprint identical with observability on" `Slow
        test_live_obs_fingerprint_identity;
      Alcotest.test_case "live: spans filterable per request id" `Slow
        test_live_request_spans;
      Alcotest.test_case "live: warm reply frames byte-identical to cold" `Slow
        test_live_warm_frames_identical;
      Alcotest.test_case "live: pipelined and split request frames served"
        `Slow test_live_pipelined_and_split_frames;
      Alcotest.test_case "live: warm verify major words bounded" `Slow
        test_live_warm_major_words;
      Alcotest.test_case "live: 1 MB reply to a slow reader arrives intact"
        `Slow test_live_large_reply_slow_reader;
      Alcotest.test_case "live: idle daemon sleeps after pool work" `Slow
        test_live_idle_after_pool_work;
      Alcotest.test_case "live: lint served and cached" `Slow
        test_live_lint_cached;
      Alcotest.test_case "live: unknown proof and malformed certificate"
        `Slow test_live_bad_requests;
      Alcotest.test_case "live: /metrics answered while a campaign streams"
        `Slow test_live_scrape_while_streaming;
      Alcotest.test_case "live: an idle HTTP client does not hold a drain"
        `Slow test_live_idle_http_client_drain;
      Alcotest.test_case "live: the idle timeout closes a silent HTTP client"
        `Slow test_live_silent_http_client_closed;
      Alcotest.test_case "live: certifying requests record only their own reds"
        `Slow test_live_certificates_isolated;
    ]

let suite = "server", tests
