let us_of_ns ns = float_of_int ns /. 1e3

let to_string ?(process_name = "eqtls") (snap : Probe.snapshot) =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let event s =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b s
  in
  event
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"%s\"}}"
       (Flight.json_escape process_name));
  let doms =
    List.sort_uniq compare
      (List.map (fun (sp : Probe.span) -> sp.Probe.sp_dom) snap.Probe.sn_spans)
  in
  List.iter
    (fun d ->
      event
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
            \"args\":{\"name\":\"domain %d\"}}"
           d d))
    doms;
  List.iter
    (fun (sp : Probe.span) ->
      (* request-scoped spans carry the id as an arg so a Perfetto query
         can filter one remote request's work across domains *)
      let args =
        if String.equal sp.Probe.sp_req "" then ""
        else
          Printf.sprintf ",\"args\":{\"req\":\"%s\"}"
            (Flight.json_escape sp.Probe.sp_req)
      in
      event
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\
            \"dur\":%.3f,\"pid\":1,\"tid\":%d%s}"
           (Flight.json_escape sp.Probe.sp_name)
           (Flight.json_escape sp.Probe.sp_cat)
           (us_of_ns (sp.Probe.sp_t0 - snap.Probe.sn_t0))
           (us_of_ns sp.Probe.sp_dur) sp.Probe.sp_dom args))
    snap.Probe.sn_spans;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  let first = ref true in
  let field k v =
    if !first then first := false else Buffer.add_string b ",";
    Buffer.add_string b (Printf.sprintf "\"%s\":%s" (Flight.json_escape k) v)
  in
  List.iter
    (fun (name, v) -> field name (string_of_int v))
    snap.Probe.sn_counters;
  List.iter
    (fun (name, v) -> field name (Printf.sprintf "%.6g" v))
    snap.Probe.sn_gauges;
  field "spans_dropped" (string_of_int snap.Probe.sn_dropped);
  List.iter
    (fun (dom, n) ->
      field (Printf.sprintf "spans_dropped_dom%d" dom) (string_of_int n))
    snap.Probe.sn_dropped_by_dom;
  Buffer.add_string b "}}\n";
  Buffer.contents b

let write_file ?process_name path snap =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ?process_name snap))
