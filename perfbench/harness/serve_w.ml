(* The [serve] workload: the real verifyd binary, driven over its socket.

   One process (this one) starts the daemon, waits for its first pong,
   primes every verify key of the mix (18 invariants x 2 styles) and each
   connection's eval module, then runs a closed loop over two connections
   from a single thread: each connection sends its next request only when
   the previous reply has ended, as [verify --remote] callers do.  The
   seeded mix is ~80% warm single-invariant verify (dedup-registry reads),
   ~15% eval of mini-CafeOBJ (one in five redefines the connection's
   module, the rest reduce a term of heavy-tailed size) and ~5%
   status/metrics.  Every reply is checked: verdict fingerprints against
   the primed ones (which the orchestrator checks against the golden
   file), normal forms against the generator's own arithmetic. *)

open Util
module P = Server.Protocol

(* ------------------------------------------------------------------ *)
(* Request generation *)

type kind =
  | Kverify of string  (** "style/name" *)
  | Kdefine
  | Kred of int  (** expected normal form: s^n(0) *)
  | Kstatus
  | Kmetrics

let module_name conn = Printf.sprintf "PERFN%d" conn

let module_src conn =
  Printf.sprintf
    "mod %s {\n\
    \  [ PNat ]\n\
    \  op 0 : -> PNat { ctor } .\n\
    \  op s : PNat -> PNat { ctor } .\n\
    \  op plus : PNat PNat -> PNat .\n\
    \  op times : PNat PNat -> PNat .\n\
    \  vars M N : PNat .\n\
    \  eq plus(0, N) = N .\n\
    \  eq plus(s(M), N) = s(plus(M, N)) .\n\
    \  eq times(0, N) = 0 .\n\
    \  eq times(s(M), N) = plus(N, times(M, N)) .\n\
     }\n"
    (module_name conn)

let rec peano n = if n = 0 then "0" else "s(" ^ peano (n - 1) ^ ")"

let red_src conn a b =
  Printf.sprintf "red in %s : times(%s, %s) .\n" (module_name conn) (peano a) (peano b)

(* Heavy-tailed operand: the Pareto(alpha = 1.2) quantile at [u], scaled
   by 2 and capped at 52; most reds are a few dozen rewrites, a few
   thousands.  The shape (alpha, scale) is a choice.  The cap is
   calibrated: with it, one connection running this mix sees the eval
   round-trip p99 of the single-connection baseline recorded in
   perfbench/README.md (43-59 ms). *)
let pareto u = min 52 (1 + int_of_float (2. *. ((1. -. u) ** (-1. /. 1.2))))

type req = { kind : kind; wire : P.request }

let style_of key =
  match String.split_on_char '/' key with
  | [ "original"; name ] -> P.Original, name
  | [ "variant"; name ] -> P.Variant, name
  | _ -> invalid_arg key

let verify_req key =
  let style, name = style_of key in
  P.Verify { style; only = [ name ]; negative = false; extensions = false; certify = false }

let eval_req src = P.Eval { src; step_limit = None; deadline_s = None }

(* One connection's requests.  The mix is drawn as a stratified sample —
   80% verify cycling over every key, 15% eval, 5% status/metrics — so
   every seed asks for the same work.  The evals form one fixed sequence:
   a module redefinition, then four reds whose operands are taken at
   evenly spaced quantiles of the heavy-tailed distribution, and so on; a
   red's cost depends on what the memo kept since the last redefinition,
   so the seed does not reorder them.  The seed places each eval at a
   random point of its own stretch of n / n_eval requests (so evals never
   bunch up, which would make the other connection's wait depend on the
   seed) and shuffles the order of the other requests. *)
let gen_requests ~seed ~keys ~conn n =
  let n_verify = n * 80 / 100 and n_eval = n * 15 / 100 in
  let n_red = n_eval - ((n_eval + 4) / 5) in
  let n_admin = n - n_verify - n_eval in
  let quantiles = List.init n_red (fun i -> pareto ((float_of_int i +. 0.5) /. float_of_int (max 1 n_red))) in
  let reds =
    ref
      (List.map2
         (fun a b -> { kind = Kred (a * b); wire = eval_req (red_src conn a b) })
         (shuffle conn quantiles) (shuffle (conn + 2) quantiles))
  in
  let evals =
    List.init n_eval (fun i ->
        if i mod 5 = 0 then { kind = Kdefine; wire = eval_req (module_src conn) }
        else
          match !reds with
          | r :: rest ->
            reds := rest;
            r
          | [] -> assert false)
  in
  let verifies =
    List.init n_verify (fun i ->
        let key = keys.(i mod Array.length keys) in
        { kind = Kverify key; wire = verify_req key })
  in
  let admin =
    List.init n_admin (fun i ->
        if i mod 2 = 0 then { kind = Kstatus; wire = P.Status } else { kind = Kmetrics; wire = P.Metrics })
  in
  let others = ref (shuffle ((seed * 16) + conn) (verifies @ admin)) in
  let evals = ref evals in
  let pop l =
    match !l with
    | x :: rest ->
      l := rest;
      x
    | [] -> assert false
  in
  let st = Random.State.make [| seed; conn |] in
  let slots = Array.make n false in
  for j = 0 to n_eval - 1 do
    let lo = j * n / n_eval and hi = (j + 1) * n / n_eval in
    slots.(lo + Random.State.int st (hi - lo)) <- true
  done;
  List.map (fun is_eval -> if is_eval then pop evals else pop others) (Array.to_list slots)

(* ------------------------------------------------------------------ *)
(* Reply checking *)

let strip s = String.concat "" (String.split_on_char ' ' (String.concat "" (String.split_on_char '\n' s)))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* [check primed kind responses] — [responses] in arrival order, [Done]
   last.  Priming records each verify key's fingerprint in [primed]. *)
let check primed kind responses =
  let done_ok = match List.rev responses with P.Done { exit_code = 0 } :: _ -> true | _ -> false in
  done_ok
  &&
  match kind, responses with
  | Kverify key, P.Rverdict v :: P.Rsummary _ :: _ -> (
    let fp = P.verdict_fingerprint v in
    match Hashtbl.find_opt primed key with
    | None ->
      Hashtbl.replace primed key fp;
      true
    | Some fp' -> String.equal fp fp')
  | Kdefine, [ P.Reval { text }; _ ] -> contains ~sub:"definedmodule" (strip text)
  | Kred n, [ P.Reval { text }; _ ] -> contains ~sub:("result:" ^ peano n ^ "(") (strip text)
  | Kstatus, [ P.Rstatus _; _ ] -> true
  | Kmetrics, [ P.Rmetrics _; _ ] -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The closed loop: one thread, select() over the connections *)

type conn = {
  fd : Unix.file_descr;
  dec : P.Frame.decoder;
  reqs : req array;
  mutable next : int;
  mutable sent_at : int;
  mutable idle_since : int;
  mutable got : P.response list;  (** reversed *)
}

type sample = { s_kind : kind; s_rtt_ns : int; s_ok : bool }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let send c =
  let r = c.reqs.(c.next) in
  P.Frame.write c.fd (P.encode_request r.wire);
  c.sent_at <- now_ns ()

(* Runs every connection's request list to completion; returns the
   samples, the client-side gap time (reply end to next send) and the
   largest number of requests in flight at once. *)
let closed_loop primed fds lists =
  let conns =
    List.map2
      (fun fd reqs ->
        { fd; dec = P.Frame.decoder (); reqs = Array.of_list reqs; next = 0; sent_at = 0; idle_since = 0; got = [] })
      fds lists
  in
  let samples = ref [] and gap_ns = ref 0 and in_flight = ref 0 and max_in_flight = ref 0 in
  let buf = Bytes.create 65536 in
  List.iter
    (fun c ->
      if Array.length c.reqs > 0 then begin
        send c;
        incr in_flight
      end)
    conns;
  max_in_flight := !in_flight;
  let active () = List.filter (fun c -> c.next < Array.length c.reqs) conns in
  while active () <> [] do
    let live = active () in
    let ready, _, _ = Unix.select (List.map (fun c -> c.fd) live) [] [] (-1.) in
    List.iter
      (fun c ->
        if List.memq c.fd ready then begin
          let n = Unix.read c.fd buf 0 (Bytes.length buf) in
          if n = 0 then failwith "verifyd closed the connection";
          P.Frame.feed c.dec buf 0 n;
          let rec drain () =
            match P.Frame.next c.dec with
            | Error msg -> failwith msg
            | Ok None -> ()
            | Ok (Some payload) -> (
              match P.decode_response payload with
              | Error msg -> failwith msg
              | Ok resp ->
                c.got <- resp :: c.got;
                (match resp with
                | P.Done _ ->
                  let t = now_ns () in
                  let r = c.reqs.(c.next) in
                  let ok = check primed r.kind (List.rev c.got) in
                  samples := { s_kind = r.kind; s_rtt_ns = t - c.sent_at; s_ok = ok } :: !samples;
                  c.got <- [];
                  c.next <- c.next + 1;
                  decr in_flight;
                  if c.next < Array.length c.reqs then begin
                    c.idle_since <- t;
                    send c;
                    gap_ns := !gap_ns + (c.sent_at - c.idle_since);
                    incr in_flight;
                    max_in_flight := max !max_in_flight !in_flight
                  end
                | _ -> ());
                drain ())
          in
          drain ()
        end)
      live
  done;
  List.rev !samples, !gap_ns, !max_in_flight

(* One request on a fresh connection, outside any measured window. *)
let one_shot socket req =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      P.Frame.write fd (P.encode_request req);
      let rec loop acc =
        match P.Frame.read fd with
        | Ok (Some payload) -> (
          match P.decode_response payload with
          | Ok (P.Done _ as d) -> List.rev (d :: acc)
          | Ok r -> loop (r :: acc)
          | Error msg -> failwith msg)
        | Ok None -> failwith "verifyd closed the connection"
        | Error msg -> failwith msg
      in
      loop [])

(* ------------------------------------------------------------------ *)
(* Daemon life cycle *)

let daemon_pid = ref None

let stop_daemon () =
  match !daemon_pid with
  | None -> ()
  | Some pid ->
    daemon_pid := None;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)

let start_daemon ~verifyd ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process verifyd
      [| verifyd; "--socket"; socket; "--jobs"; string_of_int jobs |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  daemon_pid := Some pid;
  at_exit stop_daemon;
  let deadline = now_ns () + 30_000_000_000 in
  let rec wait () =
    match one_shot socket P.Ping with
    | P.Pong _ :: _ -> ()
    | _ -> failwith "verifyd: unexpected ping reply"
    | exception (Unix.Unix_error _ | Failure _) when now_ns () < deadline ->
      Unix.sleepf 0.005;
      wait ()
  in
  wait ();
  pid

let shutdown_daemon socket pid =
  ignore (one_shot socket P.Shutdown);
  ignore (Unix.waitpid [] pid);
  daemon_pid := None

(* ------------------------------------------------------------------ *)
(* Server-side figures from the daemon's own metrics/status replies *)

let metrics socket =
  match one_shot socket P.Metrics with
  | P.Rmetrics m :: _ -> m.histograms
  | _ -> failwith "verifyd: bad metrics reply"

let dedup socket =
  match one_shot socket P.Status with
  | P.Rstatus s :: _ -> s.dedup_hits, s.dedup_misses
  | _ -> failwith "verifyd: bad status reply"

(* [count; sum_ms; p50; p90; p99; max_ms] of one request-latency histogram *)
let hist hs kind =
  match List.assoc_opt ("server.request_latency." ^ kind) hs with
  | Some a when Array.length a = 6 -> a
  | _ -> Array.make 6 0.

(* ------------------------------------------------------------------ *)
(* Harness-side layer figures, outside the measured window *)

(* Protocol encode + decode of every generated request and of a sample of
   replies, per frame, microseconds (median of repetitions). *)
let codec_us lists =
  let reqs = List.concat lists in
  let reps =
    List.init 5 (fun _ ->
        let t0 = now_ns () in
        List.iter
          (fun r ->
            let s = P.encode_request r.wire in
            ignore (Sys.opaque_identity (P.decode_request s)))
          reqs;
        float_of_int (now_ns () - t0) /. 1e3 /. float_of_int (max 1 (List.length reqs)))
  in
  quantile reps 0.5

(* Replays the generated eval sources in-process on a fresh environment,
   after the definitions priming made: parse, elaborate and reduce, each
   timed. *)
let cafeobj_replay lists =
  let env = Cafeobj.Eval.create () in
  let lists =
    List.mapi (fun i l -> { kind = Kdefine; wire = eval_req (module_src i) } :: l) lists
  in
  let parse = ref [] and elab = ref [] and red = ref [] in
  List.iter
    (fun r ->
      match r.wire with
      | P.Eval { src; _ } ->
        let t0 = now_ns () in
        let program = Cafeobj.Parser.parse_string src in
        parse := float_of_int (now_ns () - t0) /. 1e3 :: !parse;
        List.iter
          (fun (phrase, _) ->
            let t = now_ns () in
            let out = Cafeobj.Eval.eval env phrase in
            let ms = ms_of_ns (now_ns () - t) in
            match out with
            | Cafeobj.Eval.Defined _ -> elab := ms :: !elab
            | Cafeobj.Eval.Reduced _ -> red := ms :: !red
            | _ -> ())
          program
      | _ -> ())
    (List.concat lists);
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs)) in
  [
    "cafeobj.parse_us", Float (quantile !parse 0.5);
    "cafeobj.elaborate_ms", Float (quantile !elab 0.5);
    "cafeobj.red_ms", Float (mean !red);
    "cafeobj.red_p99_ms", Float (quantile !red 0.99);
  ]

(* ------------------------------------------------------------------ *)

let keys ~smoke =
  let names style =
    List.filter
      (fun n -> (not smoke) || List.mem n Proofs_w.smoke_names)
      (List.map Proofs.Tls_invariants.name_of (Proofs.Tls_invariants.all style))
  in
  Array.of_list
    (List.map (fun n -> "original/" ^ n) (names Tls.Model.Original)
    @ List.map (fun n -> "variant/" ^ n) (names Tls.Model.Cf2First))

let conns = 2

let serve ~verifyd ~socket ~seed ~smoke ~traced ~requests =
  let keys = keys ~smoke in
  let primed = Hashtbl.create 64 in
  let t0 = now_ns () in
  let pid = start_daemon ~verifyd ~socket in
  let t1 = now_ns () in
  let fds = List.init conns (fun _ -> connect socket) in
  (* priming: every verify key once, in key order on the first
     connection (so the daemon's cold work does not depend on timing), and
     each connection's eval module *)
  let prime =
    List.init conns (fun i ->
        { kind = Kdefine; wire = eval_req (module_src i) }
        :: (if i = 0 then
              List.map (fun k -> { kind = Kverify k; wire = verify_req k }) (Array.to_list keys)
            else []))
  in
  let prime_samples, _, _ = closed_loop primed fds prime in
  let t2 = now_ns () in
  let setup_ns = t2 - t0 in
  let lists =
    List.init conns (fun i ->
        gen_requests ~seed ~keys ~conn:i (requests / conns))
  in
  let h0 = metrics socket and d0 = dedup socket in
  let dcpu0 = proc_cpu_s pid in
  let lcpu0 = cpu_s () in
  let w0 = now_ns () in
  let samples, gap_ns, max_in_flight = closed_loop primed fds lists in
  let wall_ns = now_ns () - w0 in
  let lcpu = cpu_s () -. lcpu0 in
  let dcpu = proc_cpu_s pid -. dcpu0 in
  let rss = peak_rss_mb ~pid:(string_of_int pid) () in
  let h1 = metrics socket and d1 = dedup socket in
  List.iter Unix.close fds;
  shutdown_daemon socket pid;
  let failed =
    List.length (List.filter (fun s -> not s.s_ok) (prime_samples @ samples))
  in
  let ms_of s = ms_of_ns s.s_rtt_ns in
  let rtts = List.map ms_of samples in
  let verify_rtts =
    List.filter_map (fun s -> match s.s_kind with Kverify _ -> Some (ms_of s) | _ -> None) samples
  in
  let dsum k = (hist h1 k).(1) -. (hist h0 k).(1) in
  let server_ms = dsum "verify" +. dsum "eval" +. dsum "status" +. dsum "metrics" in
  let rtt_sum = List.fold_left ( +. ) 0. rtts in
  let c = float_of_int conns in
  let wall_s = s_of_ns wall_ns in
  let per_layer =
    if not traced then []
    else begin
      let rows =
        [
          row "server.verify" (dsum "verify" /. c);
          row "server.eval" (dsum "eval" /. c);
          row "server.status_metrics" ((dsum "status" +. dsum "metrics") /. c);
          row "server.wait" ((rtt_sum -. server_ms) /. c);
          row "loadgen.gap" (ms_of_ns gap_ns /. c);
        ]
      in
      let verify = hist h1 "verify" in
      let hits = fst d1 - fst d0 and misses = snd d1 - snd d0 in
      [
        "layers", table_json (table ~wall_ms:(ms_of_ns wall_ns) rows);
        ( "per_layer",
          Obj
            ([
               "server.start_s", Float (s_of_ns (t1 - t0));
               "server.prime_s", Float (s_of_ns (t2 - t1));
               "server.verify_p50_ms", Float verify.(2);
               "server.verify_p99_ms", Float verify.(4);
               "server.eval_p50_ms", Float (hist h1 "eval").(2);
               "server.eval_p99_ms", Float (hist h1 "eval").(4);
               "server.wait_mean_ms",
                 Float ((rtt_sum -. server_ms) /. float_of_int (max 1 (List.length rtts)));
               "server.dedup_hit_ratio", Float (ratio hits (hits + misses));
               "server.dedup_lookups", Int (hits + misses);
               "server.codec_us", Float (codec_us lists);
             ]
            @ cafeobj_replay lists) );
      ]
    end
  in
  Obj
    ([
       "setup_s", Float (s_of_ns setup_ns);
       "wall_s", Float wall_s;
       "cpu_s", Float dcpu;
       "peak_rss_mb", Float rss;
       "attempted", Int (List.length prime_samples + List.length samples);
       "failed", Int failed;
       "primed", Obj (Hashtbl.fold (fun k v acc -> (k, Str v) :: acc) primed [] |> List.sort compare);
       "rtt_p50_ms", Float (quantile rtts 0.5);
       "rtt_p99_ms", Float (quantile rtts 0.99);
       "verify_p99_ms", Float (quantile verify_rtts 0.99);
       "rtt_samples", Int (List.length rtts);
       "loadgen.cpu_frac", Float (lcpu /. wall_s);
       "loadgen.in_flight", Int max_in_flight;
     ]
    @ per_layer)
