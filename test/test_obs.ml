(* The observability layer in isolation: Probe histogram edge cases
   (zero-observation export, log2 bucket boundaries, merge across
   domains), the OpenMetrics renderer over hand-built and live
   instruments, the minimal HTTP codec, the structured event log and the
   flight recorder.  Everything here is pure or file-local — the live
   daemon surfaces are exercised in [Test_server]. *)

module Probe = Telemetry.Probe
module Obs = Telemetry.Obs
module Log = Telemetry.Log
module Flight = Telemetry.Flight

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let count_occurrences ~needle hay =
  let nl = String.length needle in
  let rec go i acc =
    if i + nl > String.length hay then acc
    else if String.sub hay i nl = needle then go (i + nl) (acc + 1)
    else go (i + 1) acc
  in
  if nl = 0 then 0 else go 0 0

(* ------------------------------------------------------------------ *)
(* Histograms: bucket geometry *)

let prop_bucket_boundaries =
  QCheck.Test.make ~name:"log2 bucket boundaries are exact and inclusive"
    ~count:200
    (QCheck.make QCheck.Gen.(int_bound (Probe.nbuckets - 1)))
    (fun i ->
      let bound = Probe.bucket_bound_ns i in
      Probe.bucket_of_ns bound = i
      && Probe.bucket_of_ns (bound + 1) = i + 1
      && (i = 0 || Probe.bucket_of_ns (Probe.bucket_bound_ns (i - 1) + 1) = i))

let test_bucket_edges () =
  Alcotest.(check int) "zero lands in the first bucket" 0
    (Probe.bucket_of_ns 0);
  Alcotest.(check int) "negative clamps to the first bucket" 0
    (Probe.bucket_of_ns (-1));
  Alcotest.(check int) "beyond the last bound is overflow" Probe.nbuckets
    (Probe.bucket_of_ns (Probe.bucket_bound_ns (Probe.nbuckets - 1) + 1));
  Alcotest.(check int) "max_int is overflow" Probe.nbuckets
    (Probe.bucket_of_ns max_int)

(* Observations split across domains must merge to the same view as the
   same observations recorded by one domain: snapshot merging is a plain
   per-bucket sum, independent of partition and interleaving. *)
let merge_uid = ref 0

let prop_merge_across_domains =
  QCheck.Test.make ~name:"domain-split observations merge to the same view"
    ~count:30
    (QCheck.make QCheck.Gen.(list_size (int_bound 40) (int_bound 100_000)))
    (fun raw ->
      incr merge_uid;
      let split =
        Probe.histogram (Printf.sprintf "obst.merge%d.split" !merge_uid)
      in
      let whole =
        Probe.histogram (Printf.sprintf "obst.merge%d.whole" !merge_uid)
      in
      let ns = List.map (fun x -> (x * 7919) + 1) raw in
      let evens = List.filteri (fun i _ -> i mod 2 = 0) ns in
      let odds = List.filteri (fun i _ -> i mod 2 = 1) ns in
      let d1 = Domain.spawn (fun () -> List.iter (Probe.observe_ns split) evens) in
      let d2 = Domain.spawn (fun () -> List.iter (Probe.observe_ns split) odds) in
      Domain.join d1;
      Domain.join d2;
      List.iter (Probe.observe_ns whole) ns;
      let snap = Probe.instruments () in
      let view name =
        List.find
          (fun v -> v.Probe.h_name = name)
          snap.Probe.in_histograms
      in
      let a = view (Printf.sprintf "obst.merge%d.split" !merge_uid) in
      let b = view (Printf.sprintf "obst.merge%d.whole" !merge_uid) in
      a.Probe.h_buckets = b.Probe.h_buckets
      && a.Probe.h_count = b.Probe.h_count
      && a.Probe.h_sum_ns = b.Probe.h_sum_ns)

(* ------------------------------------------------------------------ *)
(* OpenMetrics renderer over hand-built instruments *)

let hist name buckets sum_ns =
  let count = Array.fold_left ( + ) 0 buckets in
  {
    Probe.h_name = name;
    h_count = count;
    h_sum_ms = float_of_int sum_ns /. 1e6;
    h_p50_ms = 0.;
    h_p90_ms = 0.;
    h_p99_ms = 0.;
    h_max_ms = 0.;
    h_buckets = buckets;
    h_sum_ns = sum_ns;
  }

let empty_snap =
  { Probe.in_counters = []; in_gauges = []; in_histograms = [] }

let test_render_counters_gauges () =
  let out =
    Obs.render_openmetrics
      {
        empty_snap with
        Probe.in_counters = [ "server.requests", 3 ];
        in_gauges = [ "server.queue_depth", 1.5 ];
      }
  in
  Alcotest.(check bool) "counter family + sample" true
    (contains ~needle:"# TYPE server_requests counter\nserver_requests_total 3\n" out);
  Alcotest.(check bool) "gauge family + sample" true
    (contains ~needle:"# TYPE server_queue_depth gauge\nserver_queue_depth 1.5\n" out);
  Alcotest.(check bool) "terminated" true
    (String.length out >= 6
    && String.sub out (String.length out - 6) 6 = "# EOF\n");
  Alcotest.(check int) "exactly one EOF" 1 (count_occurrences ~needle:"# EOF" out)

let test_render_zero_observation_histogram () =
  (* a registered histogram that was never observed must still export a
     complete, schema-valid family: every cumulative bucket 0, count 0,
     sum 0 — not be dropped, and not divide by zero anywhere *)
  let buckets = Array.make (Probe.nbuckets + 1) 0 in
  let out =
    Obs.render_openmetrics
      { empty_snap with Probe.in_histograms = [ hist "idle.lat" buckets 0 ] }
  in
  Alcotest.(check bool) "family present" true
    (contains ~needle:"# TYPE idle_lat_seconds histogram" out);
  Alcotest.(check int) "all buckets exported"
    (Probe.nbuckets + 1)
    (count_occurrences ~needle:"idle_lat_seconds_bucket{le=" out);
  Alcotest.(check bool) "+Inf bucket zero" true
    (contains ~needle:"idle_lat_seconds_bucket{le=\"+Inf\"} 0\n" out);
  Alcotest.(check bool) "count zero" true
    (contains ~needle:"idle_lat_seconds_count 0\n" out);
  Alcotest.(check bool) "sum zero" true
    (contains ~needle:"idle_lat_seconds_sum 0\n" out)

let test_render_histogram_cumulative () =
  let buckets = Array.make (Probe.nbuckets + 1) 0 in
  buckets.(0) <- 2;
  buckets.(2) <- 1;
  buckets.(Probe.nbuckets) <- 1;
  let out =
    Obs.render_openmetrics
      { empty_snap with Probe.in_histograms = [ hist "lat" buckets 40_000 ] }
  in
  (* bucket 0's bound is 10 µs = 1e-05 s; buckets are cumulative *)
  Alcotest.(check bool) "first bucket" true
    (contains ~needle:"lat_seconds_bucket{le=\"1e-05\"} 2\n" out);
  Alcotest.(check bool) "bucket 1 carries bucket 0 forward" true
    (contains ~needle:"lat_seconds_bucket{le=\"2e-05\"} 2\n" out);
  Alcotest.(check bool) "bucket 2 adds its own" true
    (contains ~needle:"lat_seconds_bucket{le=\"4e-05\"} 3\n" out);
  Alcotest.(check bool) "+Inf equals count" true
    (contains ~needle:"lat_seconds_bucket{le=\"+Inf\"} 4\n" out);
  Alcotest.(check bool) "count" true
    (contains ~needle:"lat_seconds_count 4\n" out)

let test_render_labeled_grouping () =
  let buckets = Array.make (Probe.nbuckets + 1) 0 in
  buckets.(0) <- 1;
  let out =
    Obs.render_openmetrics
      ~labeled:[ "server.request_latency", "type" ]
      {
        empty_snap with
        Probe.in_histograms =
          [
            hist "server.request_latency" buckets 5_000;
            hist "server.request_latency.verify" buckets 5_000;
            hist "other.lat" buckets 5_000;
          ];
      }
  in
  Alcotest.(check int) "one family TYPE line for the group" 1
    (count_occurrences ~needle:"# TYPE server_request_latency_seconds histogram" out);
  Alcotest.(check bool) "unlabeled all-requests series" true
    (contains ~needle:"server_request_latency_seconds_bucket{le=\"1e-05\"} 1\n" out);
  Alcotest.(check bool) "labeled per-type series" true
    (contains
       ~needle:"server_request_latency_seconds_bucket{type=\"verify\",le=\"1e-05\"} 1\n"
       out);
  Alcotest.(check bool) "ungrouped histogram untouched" true
    (contains ~needle:"# TYPE other_lat_seconds histogram" out)

let test_sanitize_name () =
  Alcotest.(check string) "dots become underscores" "server_request_latency"
    (Obs.sanitize_name "server.request_latency");
  Alcotest.(check string) "leading digit is prefixed" "_9lives"
    (Obs.sanitize_name "9lives");
  Alcotest.(check string) "hostile charset collapses" "a_b_c_d"
    (Obs.sanitize_name "a-b c{d")

(* The exposition reads the one registry: profiling-only counters (the
   kernel's and the scheduler's kind) are exported next to the live
   server counters, and a [`Max] counter is a level, so it is a gauge. *)
let test_render_profiling_counter () =
  let c = Probe.counter "obst.profiled" in
  Probe.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Probe.set_enabled false)
    (fun () -> Probe.add c 3);
  let out = Obs.render_openmetrics (Probe.instruments ()) in
  Alcotest.(check bool) "profiling counter exported" true
    (contains
       ~needle:
         (Printf.sprintf
            "# TYPE obst_profiled counter\nobst_profiled_total %d\n"
            (Probe.value c))
       out)

let test_render_max_counter_as_gauge () =
  let c = Probe.counter ~mode:`Max ~live:true "obst.peak" in
  Probe.record_max c 7;
  Probe.record_max c 5;
  let out = Obs.render_openmetrics (Probe.instruments ()) in
  Alcotest.(check bool) "peak is a gauge family" true
    (contains ~needle:"# TYPE obst_peak gauge\nobst_peak 7\n" out);
  Alcotest.(check bool) "no _total sample for a peak" false
    (contains ~needle:"obst_peak_total" out);
  Alcotest.(check bool) "the scheduler's peak is a gauge too" true
    (contains ~needle:"# TYPE sched_queue_depth_peak gauge\n" out)

(* ------------------------------------------------------------------ *)
(* HTTP codec *)

let test_http_parse () =
  let ready s =
    match Obs.Http.parse s with
    | `Ready r -> r.Obs.Http.meth, r.Obs.Http.target
    | `Partial -> Alcotest.failf "unexpectedly partial: %S" s
    | `Bad -> Alcotest.failf "unexpectedly bad: %S" s
  in
  Alcotest.(check (pair string string))
    "plain GET" ("GET", "/metrics")
    (ready "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  Alcotest.(check (pair string string))
    "LF-only heads tolerated" ("GET", "/healthz")
    (ready "GET /healthz HTTP/1.1\nHost: x\n\n");
  Alcotest.(check (pair string string))
    "non-GET methods surface for the 405" ("POST", "/metrics")
    (ready "POST /metrics HTTP/1.1\r\n\r\n");
  (match Obs.Http.parse "" with
  | `Partial -> ()
  | _ -> Alcotest.fail "empty buffer should be partial");
  (match Obs.Http.parse "GET /metrics HTTP/1.1\r\nHos" with
  | `Partial -> ()
  | _ -> Alcotest.fail "unterminated head should be partial");
  (match Obs.Http.parse "GARBAGE\r\n\r\n" with
  | `Bad -> ()
  | _ -> Alcotest.fail "mangled request line should be bad");
  match Obs.Http.parse (String.make 9000 'A') with
  | `Bad -> ()
  | _ -> Alcotest.fail "oversized head should be bad"

let test_http_response () =
  let r = Obs.Http.response ~status:200 ~content_type:"text/plain" "ok\n" in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "response contains %S" needle)
        true (contains ~needle r))
    [
      "HTTP/1.1 200 OK\r\n";
      "Content-Type: text/plain\r\n";
      "Content-Length: 3\r\n";
      "Connection: close\r\n";
      "\r\n\r\nok\n";
    ];
  let bad = Obs.Http.response ~status:503 "draining\n" in
  Alcotest.(check bool) "status text tracks the code" true
    (contains ~needle:"HTTP/1.1 503 Service Unavailable\r\n" bad)

(* ------------------------------------------------------------------ *)
(* Structured log *)

let with_tmp_file f =
  let path = Filename.temp_file "eqtls-obs-test" ".log" in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      try Unix.unlink (path ^ ".1") with Unix.Unix_error _ -> ())
    (fun () -> f path)

let with_log_sink ?rotate_bytes level f =
  with_tmp_file @@ fun path ->
  Log.open_sink ?rotate_bytes path;
  Log.set_level (Some level);
  Fun.protect
    ~finally:(fun () ->
      Log.set_level None;
      Log.close_sink ())
    (fun () -> f path)

let test_log_levels () =
  Alcotest.(check (option string))
    "warn parses" (Some "warn")
    (Option.map Log.level_name (Log.level_of_name "warning"));
  Alcotest.(check bool) "unknown level rejected" true
    (Log.level_of_name "chatty" = None);
  with_log_sink Log.Warn @@ fun path ->
  Log.info "too_quiet" [];
  Log.warn "loud_enough" [];
  Log.error "also_loud" [];
  Log.close_sink ();
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "below-threshold events dropped" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "each line is a JSON object" true
        (String.length l > 0 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  Alcotest.(check bool) "warn event present" true
    (contains ~needle:"\"ev\":\"loud_enough\"" (String.concat "\n" lines))

let test_log_fields_and_escaping () =
  with_log_sink Log.Debug @@ fun path ->
  Log.info "fields"
    [
      "s", Log.S "he said \"hi\"\n";
      "i", Log.I 42;
      "f", Log.F 1.5;
      "b", Log.B true;
    ];
  Log.close_sink ();
  let line = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "line contains %S" needle)
        true (contains ~needle line))
    [
      "{\"ts\":\"";
      "\"lvl\":\"info\"";
      "\"ev\":\"fields\"";
      "\"s\":\"he said \\\"hi\\\"\\n\"";
      "\"i\":42";
      "\"b\":true";
    ]

(* The one JSON string escaper every report writer calls (logs, flight
   dumps, Perfetto traces, lint JSON and SARIF, check --json, bench --json),
   pinned byte for byte: every ASCII byte, then UTF-8 text, which passes
   through untouched. *)
let test_json_escape_golden () =
  Alcotest.(check string) "bytes 0x00-0x7f"
    "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\u000d\\u000e\\u000f\
     \\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\
     \032!\\\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\\\]^_`abcdefghijklmnopqrstuvwxyz{|}~\127"
    (Flight.json_escape (String.init 128 Char.chr));
  Alcotest.(check string) "UTF-8"
    "h\195\169llo \226\136\128x. \194\172\207\134 \240\159\148\144 \\\"q\\\"\\n"
    (Flight.json_escape
       "h\xc3\xa9llo \xe2\x88\x80x. \xc2\xac\xcf\x86 \xf0\x9f\x94\x90 \"q\"\n")

let test_log_rotation () =
  with_log_sink ~rotate_bytes:256 Log.Debug @@ fun path ->
  for i = 1 to 50 do
    Log.info "filler" [ "n", Log.I i ]
  done;
  Log.close_sink ();
  Alcotest.(check bool) "rotated file exists" true
    (Sys.file_exists (path ^ ".1"));
  let live = (Unix.stat path).Unix.st_size in
  Alcotest.(check bool) "live file stayed under the cap + one event" true
    (live < 512)

let test_log_tees_into_flight () =
  (* with the recorder on, even events below the sink threshold are
     retained for the post-mortem *)
  Flight.reset ();
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.reset ())
  @@ fun () ->
  Log.set_level None;
  Log.debug "invisible_live" [ "k", Log.S "v" ];
  let dump = Flight.dump ~reason:"tee-test" in
  Alcotest.(check bool) "suppressed event reached the ring" true
    (contains ~needle:"invisible_live" dump)

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let test_flight_dump () =
  Flight.reset ();
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.reset ())
  @@ fun () ->
  Flight.note "alpha";
  Flight.note "beta \"quoted\"";
  let dump = Flight.dump ~reason:"unit \"test\"" in
  Alcotest.(check bool) "JSON object" true
    (String.length dump > 0 && dump.[0] = '{');
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "dump contains %S" needle)
        true (contains ~needle dump))
    [
      "\"reason\":\"unit \\\"test\\\"\"";
      "\"pid\":";
      "alpha";
      "beta \\\"quoted\\\"";
    ];
  with_tmp_file @@ fun path ->
  Flight.dump_to_file ~reason:"to-file" path;
  Alcotest.(check bool) "dump file written" true
    ((Unix.stat path).Unix.st_size > 0)

let test_flight_ring_wraps () =
  Flight.reset ();
  Flight.set_enabled true;
  Flight.set_capacity 8;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.set_capacity 256;
      Flight.reset ())
  @@ fun () ->
  for i = 1 to 100 do
    Flight.note (Printf.sprintf "entry-%d" i)
  done;
  let dump = Flight.dump ~reason:"wrap" in
  Alcotest.(check bool) "newest entry survives" true
    (contains ~needle:"entry-100" dump);
  Alcotest.(check bool) "oldest entry overwritten" false
    (contains ~needle:"entry-1\"" dump)

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  List.map
    (QCheck_alcotest.to_alcotest ?verbose:None ?long:None)
    [ prop_bucket_boundaries; prop_merge_across_domains ]

let tests =
  qcheck_tests
  @ [
      Alcotest.test_case "bucket edge cases" `Quick test_bucket_edges;
      Alcotest.test_case "render: counters and gauges" `Quick
        test_render_counters_gauges;
      Alcotest.test_case "render: zero-observation histogram" `Quick
        test_render_zero_observation_histogram;
      Alcotest.test_case "render: cumulative buckets" `Quick
        test_render_histogram_cumulative;
      Alcotest.test_case "render: labeled family grouping" `Quick
        test_render_labeled_grouping;
      Alcotest.test_case "render: profiling counters are exported" `Quick
        test_render_profiling_counter;
      Alcotest.test_case "render: a Max counter is a gauge" `Quick
        test_render_max_counter_as_gauge;
      Alcotest.test_case "metric name sanitization" `Quick test_sanitize_name;
      Alcotest.test_case "http: request parsing" `Quick test_http_parse;
      Alcotest.test_case "http: response building" `Quick test_http_response;
      Alcotest.test_case "log: level threshold" `Quick test_log_levels;
      Alcotest.test_case "log: fields and escaping" `Quick
        test_log_fields_and_escaping;
      Alcotest.test_case "json escape: ASCII and UTF-8 golden" `Quick
        test_json_escape_golden;
      Alcotest.test_case "log: size-based rotation" `Quick test_log_rotation;
      Alcotest.test_case "log: tees into the flight recorder" `Quick
        test_log_tees_into_flight;
      Alcotest.test_case "flight: dump shape" `Quick test_flight_dump;
      Alcotest.test_case "flight: ring wraps" `Quick test_flight_ring_wraps;
    ]

let suite = "obs", tests
