(* Shared plumbing of the benchmark harness: a tiny JSON printer, clocks,
   process resource readings, seeded permutations and the layers table. *)

(* Pool and daemon size: the core count of the reference box. *)
let jobs = 2

(* ------------------------------------------------------------------ *)
(* JSON output (the harness prints one object per pass) *)

type json =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_buffer b = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b (Str k);
        Buffer.add_char b ':';
        to_buffer b v)
      kvs;
    Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 4096 in
  to_buffer b j;
  print_endline (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Clocks and resources *)

let now_ns = Telemetry.Probe.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* user + system CPU of this process, every domain included *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let proc_status_kb ?(pid = "self") field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = field ->
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          (try Scanf.sscanf v " %d" (fun n -> n) with _ -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' text)

(* peak resident set, MiB *)
let peak_rss_mb ?pid () =
  float_of_int (proc_status_kb ?pid "VmHWM") /. 1024.

(* utime + stime of another process, from /proc/PID/stat, in seconds *)
let proc_cpu_s pid =
  let path = Printf.sprintf "/proc/%d/stat" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
    (* the command name may contain spaces: fields restart after ')' *)
    let rest =
      let i = String.rindex text ')' in
      String.sub text (i + 2) (String.length text - i - 2)
    in
    let fields = Array.of_list (String.split_on_char ' ' rest) in
    let ticks = float_of_string fields.(11) +. float_of_string fields.(12) in
    ticks /. 100.

(* ------------------------------------------------------------------ *)
(* GC deltas.  [Gc.quick_stat] in OCaml 5.1 sums per-domain allocation
   samples taken at each domain's last minor collection, so a delta read
   while pool domains are still running lags by up to one minor heap per
   domain; a delta read after the pool has shut down is exact.  The
   collection counts are global and always exact. *)

type gc = { minor_w : float; major_w : float; minor_n : int; major_n : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_w = s.Gc.minor_words;
    major_w = s.Gc.major_words;
    minor_n = s.Gc.minor_collections;
    major_n = s.Gc.major_collections;
  }

let gc_zero = { minor_w = 0.; major_w = 0.; minor_n = 0; major_n = 0 }

let gc_diff a b =
  {
    minor_w = b.minor_w -. a.minor_w;
    major_w = b.major_w -. a.major_w;
    minor_n = b.minor_n - a.minor_n;
    major_n = b.major_n - a.major_n;
  }

let gc_add a b =
  {
    minor_w = a.minor_w +. b.minor_w;
    major_w = a.major_w +. b.major_w;
    minor_n = a.minor_n + b.minor_n;
    major_n = a.major_n + b.major_n;
  }

let gc_json g =
  Obj
    [
      "gc.minor_mw", Float (g.minor_w /. 1e6);
      "gc.major_mw", Float (g.major_w /. 1e6);
      "gc.minor_n", Int g.minor_n;
      "gc.major_n", Int g.major_n;
    ]

(* ------------------------------------------------------------------ *)
(* Seeded permutation: the only thing the seed changes for the campaign,
   assure and attack workloads. *)

let shuffle seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Layers table: rows of wall-clock milliseconds, with the GC deltas the
   harness could bracket them with. *)

type row = { r_name : string; r_ms : float; r_gc : gc option }

let row ?gc name ms = { r_name = name; r_ms = ms; r_gc = gc }

(* [table ~wall_ms rows] appends the unattributed remainder so the rows
   add up to the wall time. *)
let table ~wall_ms rows =
  let sum = List.fold_left (fun acc r -> acc +. r.r_ms) 0. rows in
  rows @ [ row "layers.unattributed" (wall_ms -. sum) ]

let table_json rows =
  List
    (List.map
       (fun r ->
         Obj
           ([ "row", Str r.r_name; "ms", Float r.r_ms ]
           @
           match r.r_gc with
           | None -> []
           | Some g -> [ "gc", gc_json g ]))
       rows)

(* ------------------------------------------------------------------ *)
(* Quantiles over a sample (nearest rank) *)

let quantile xs q =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

(* ------------------------------------------------------------------ *)
(* Probe snapshot digests *)

type profile = {
  red_ns : int;  (** top-level normalizations (cat "red" spans) *)
  match_ns : int;
  rewrite_ns : int;
  cond_ns : int;
  fires : int;
  tries : int;
  spans_dropped : int;
  counters : (string * int) list;
  spans : Telemetry.Probe.span list;
}

let profile_of (sn : Telemetry.Probe.snapshot) =
  let open Telemetry.Probe in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 sn.sn_rules in
  {
    red_ns =
      List.fold_left
        (fun acc s -> if s.sp_cat = "red" then acc + s.sp_dur else acc)
        0 sn.sn_spans;
    match_ns = sum (fun r -> r.rl_match_self_ns);
    rewrite_ns = sum (fun r -> r.rl_rw_self_ns);
    cond_ns = sum (fun r -> r.rl_cond_self_ns);
    fires = sum (fun r -> r.rl_fires);
    tries = sum (fun r -> r.rl_match_tries);
    spans_dropped = sn.sn_dropped;
    counters = sn.sn_counters;
    spans = sn.sn_spans;
  }

let empty_profile =
  {
    red_ns = 0;
    match_ns = 0;
    rewrite_ns = 0;
    cond_ns = 0;
    fires = 0;
    tries = 0;
    spans_dropped = 0;
    counters = [];
    spans = [];
  }

let counter p name = Option.value ~default:0 (List.assoc_opt name p.counters)

(* Record a window with the probe on, starting from empty buffers. *)
let with_probe f =
  Telemetry.Probe.reset ();
  Telemetry.Probe.set_enabled true;
  let r =
    Fun.protect ~finally:(fun () -> Telemetry.Probe.set_enabled false) f
  in
  r, profile_of (Telemetry.Probe.snapshot ())

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
