(* Serving observability: OpenMetrics text exposition over the Probe
   instruments, plus the dependency-free HTTP/1.1 plumbing the daemon's
   select() loop needs to serve it.  Everything here is pure string
   work — sockets stay in lib/server, so this library keeps its tiny
   dependency footprint and the renderers stay unit-testable. *)

(* ------------------------------------------------------------------ *)
(* Metric-name sanitization: OpenMetrics names are [a-zA-Z_][a-zA-Z0-9_]* *)

let sanitize_name s =
  let b = Buffer.create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Buffer.add_char b c
      | '0' .. '9' ->
        if i = 0 then Buffer.add_char b '_';
        Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    s;
  if Buffer.length b = 0 then "_" else Buffer.contents b

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let fmt_float f = Printf.sprintf "%.17g" f

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition *)

let content_type = "application/openmetrics-text; version=1.0.0; charset=utf-8"

let seconds_of_ns ns = float_of_int ns /. 1e9

(* One histogram family: [label] is [Some (name, value)] for a member of
   a labeled family, [None] for a standalone one.  Buckets are emitted
   cumulative with [le] in seconds; the overflow bucket is [+Inf]. *)
let add_histogram_samples buf family label (h : Probe.histogram_view) =
  let labels extra =
    match label, extra with
    | None, [] -> ""
    | _ ->
      let parts =
        (match label with
        | None -> []
        | Some (k, v) -> [ Printf.sprintf "%s=\"%s\"" k (escape_label v) ])
        @ List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v) extra
      in
      "{" ^ String.concat "," parts ^ "}"
  in
  let cum = ref 0 in
  Array.iteri
    (fun i n ->
      cum := !cum + n;
      let le =
        if i >= Probe.nbuckets then "+Inf"
        else Printf.sprintf "%g" (seconds_of_ns (Probe.bucket_bound_ns i))
      in
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket%s %d\n" family
           (labels [ "le", le ])
           !cum))
    h.Probe.h_buckets;
  Buffer.add_string buf
    (Printf.sprintf "%s_count%s %d\n" family (labels []) h.Probe.h_count);
  Buffer.add_string buf
    (Printf.sprintf "%s_sum%s %s\n" family (labels [])
       (fmt_float (seconds_of_ns h.Probe.h_sum_ns)))

(* [labeled] maps a histogram-name prefix to a label name: histograms
   called [prefix] or [prefix ^ "." ^ rest] are grouped into ONE family
   [sanitize prefix ^ "_seconds"], the suffix becoming the label value —
   so per-request-type latencies export as
   [server_request_latency_seconds{type="verify",le="…"}] next to the
   unlabeled all-requests series of the same family. *)
let render_openmetrics ?(labeled = []) (ins : Probe.instruments) =
  let buf = Buffer.create 8192 in
  List.iter
    (fun (name, v) ->
      let n = sanitize_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
      Buffer.add_string buf (Printf.sprintf "%s_total %d\n" n v))
    ins.Probe.in_counters;
  List.iter
    (fun (name, v) ->
      let n = sanitize_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" n);
      Buffer.add_string buf (Printf.sprintf "%s %s\n" n (fmt_float v)))
    ins.Probe.in_gauges;
  (* [Some (prefix, label)] when [h] belongs to the family of [prefix] *)
  let member_of (prefix, label) h =
    let name = h.Probe.h_name in
    let dotted = prefix ^ "." in
    let pl = String.length dotted in
    if String.equal name prefix then Some (prefix, None)
    else if
      String.length name > pl && String.equal (String.sub name 0 pl) dotted
    then
      Some (prefix, Some (label, String.sub name pl (String.length name - pl)))
    else None
  in
  let grouped, plain =
    List.fold_left
      (fun (grouped, plain) h ->
        match List.find_map (fun spec -> member_of spec h) labeled with
        | Some (prefix, lbl) -> ((prefix, h, lbl) :: grouped, plain)
        | None -> (grouped, h :: plain))
      ([], []) ins.Probe.in_histograms
  in
  List.iter
    (fun (prefix, _label) ->
      match List.filter (fun (p, _, _) -> String.equal p prefix) grouped with
      | [] -> ()
      | members ->
        let family = sanitize_name prefix ^ "_seconds" in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" family);
        List.iter
          (fun (_, h, lbl) -> add_histogram_samples buf family lbl h)
          (List.rev members))
    labeled;
  List.iter
    (fun h ->
      let family = sanitize_name h.Probe.h_name ^ "_seconds" in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" family);
      add_histogram_samples buf family None h)
    (List.rev plain);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Minimal HTTP/1.1: enough to serve GET /metrics to curl / Prometheus *)

module Http = struct
  type request = { meth : string; target : string }

  let max_head_bytes = 8192

  (* Find the end of the request head in [buffered]; parse the request
     line.  Tolerates both CRLF and bare LF line endings. *)
  let parse buffered =
    let find_head_end () =
      let n = String.length buffered in
      let rec go i =
        if i + 3 < n then
          if
            buffered.[i] = '\r' && buffered.[i + 1] = '\n'
            && buffered.[i + 2] = '\r'
            && buffered.[i + 3] = '\n'
          then Some (i + 4)
          else if buffered.[i] = '\n' && buffered.[i + 1] = '\n' then
            Some (i + 2)
          else go (i + 1)
        else if i + 1 < n && buffered.[i] = '\n' && buffered.[i + 1] = '\n'
        then Some (i + 2)
        else if i < n then go (i + 1)
        else None
      in
      go 0
    in
    match find_head_end () with
    | None ->
      if String.length buffered > max_head_bytes then `Bad else `Partial
    | Some _ -> (
      let line =
        match String.index_opt buffered '\n' with
        | Some i ->
          let l = String.sub buffered 0 i in
          if l <> "" && l.[String.length l - 1] = '\r' then
            String.sub l 0 (String.length l - 1)
          else l
        | None -> buffered
      in
      match String.split_on_char ' ' line with
      | [ meth; target; version ]
        when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
        `Ready { meth; target }
      | _ -> `Bad)

  let status_text = function
    | 200 -> "OK"
    | 400 -> "Bad Request"
    | 404 -> "Not Found"
    | 405 -> "Method Not Allowed"
    | 503 -> "Service Unavailable"
    | _ -> "Internal Server Error"

  let response ?(status = 200) ?(content_type = "text/plain; charset=utf-8")
      body =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: close\r\n\r\n%s"
      status (status_text status) content_type (String.length body) body
end
