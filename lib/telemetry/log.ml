(* Structured event log: leveled, key-value, JSON-lines.

   Like a disabled Probe span, an event below the threshold (and with the
   flight recorder off) costs atomic loads (two) and nothing else — no
   formatting, no allocation.  Emission itself serializes under
   one mutex (events are per-request, not per-rewrite), writes one line,
   and rotates the sink file when it outgrows the configured cap. *)

type level = Debug | Info | Warn | Error

let int_of_level = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_name = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* 99 = off; comparisons against it fail for every level *)
let threshold = Atomic.make 99

let set_level = function
  | None -> Atomic.set threshold 99
  | Some l -> Atomic.set threshold (int_of_level l)

let level () =
  match Atomic.get threshold with
  | 0 -> Some Debug
  | 1 -> Some Info
  | 2 -> Some Warn
  | 3 -> Some Error
  | _ -> None

let logs l = int_of_level l >= Atomic.get threshold

type value = S of string | I of int | F of float | B of bool

(* ------------------------------------------------------------------ *)
(* Sink *)

type sink = {
  mutable oc : out_channel option;  (* None = stderr *)
  mutable path : string;  (* "" = stderr *)
  mutable rotate_bytes : int;  (* 0 = never rotate *)
  mutable written : int;
}

let sink_lock = Mutex.create ()
let sink = { oc = None; path = ""; rotate_bytes = 0; written = 0 }

let close_sink () =
  Mutex.protect sink_lock (fun () ->
      (match sink.oc with Some oc -> close_out_noerr oc | None -> ());
      sink.oc <- None;
      sink.path <- "";
      sink.rotate_bytes <- 0;
      sink.written <- 0)

let open_sink ?(rotate_bytes = 0) path =
  close_sink ();
  Mutex.protect sink_lock (fun () ->
      sink.oc <-
        Some (open_out_gen [ Open_append; Open_creat ] 0o644 path);
      sink.path <- path;
      sink.rotate_bytes <- max 0 rotate_bytes;
      sink.written <- (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0))

(* call with sink_lock held *)
let rotate_locked () =
  match sink.oc with
  | Some oc when sink.rotate_bytes > 0 && sink.written >= sink.rotate_bytes ->
    close_out_noerr oc;
    (try Sys.rename sink.path (sink.path ^ ".1") with Sys_error _ -> ());
    sink.oc <- Some (open_out_gen [ Open_append; Open_creat ] 0o644 sink.path);
    sink.written <- 0
  | _ -> ()

let write_line line =
  Mutex.protect sink_lock (fun () ->
      match sink.oc with
      | Some oc ->
        output_string oc line;
        output_char oc '\n';
        flush oc;
        sink.written <- sink.written + String.length line + 1;
        rotate_locked ()
      | None ->
        prerr_string line;
        prerr_newline ())

(* ------------------------------------------------------------------ *)
(* Rendering *)

let timestamp () = Flight.iso8601 (Unix.gettimeofday ())

let render lvl ev fields =
  let b = Buffer.create 160 in
  Buffer.add_string b "{\"ts\":\"";
  Buffer.add_string b (timestamp ());
  Buffer.add_string b "\",\"lvl\":\"";
  Buffer.add_string b (level_name lvl);
  Buffer.add_string b "\",\"ev\":\"";
  Buffer.add_string b (Flight.json_escape ev);
  Buffer.add_char b '"';
  List.iter
    (fun (k, v) ->
      Buffer.add_string b ",\"";
      Buffer.add_string b (Flight.json_escape k);
      Buffer.add_string b "\":";
      match v with
      | S s ->
        Buffer.add_char b '"';
        Buffer.add_string b (Flight.json_escape s);
        Buffer.add_char b '"'
      | I n -> Buffer.add_string b (string_of_int n)
      | F f ->
        (* JSON has no nan/inf literals; quote the degenerate cases *)
        if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.6g" f)
        else Buffer.add_string b (Printf.sprintf "\"%h\"" f)
      | B b' -> Buffer.add_string b (if b' then "true" else "false"))
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let event lvl ev fields =
  let to_sink = logs lvl in
  let to_flight = Flight.enabled () in
  if to_sink || to_flight then begin
    let line = render lvl ev fields in
    if to_flight then Flight.note line;
    if to_sink then write_line line
  end

let debug ev fields = event Debug ev fields
let info ev fields = event Info ev fields
let warn ev fields = event Warn ev fields
let error ev fields = event Error ev fields
