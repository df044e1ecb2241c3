module Sexp = Certify.Sexp

(* ------------------------------------------------------------------ *)
(* Framing *)

module Frame = struct
  let default_max = 64 * 1024 * 1024
  let header_len = 4

  let encode buf payload =
    let n = String.length payload in
    Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (n land 0xff));
    Buffer.add_string buf payload

  let to_string payload =
    let buf = Buffer.create (String.length payload + header_len) in
    encode buf payload;
    Buffer.contents buf

  (* The bytes fed and not yet returned are [buf.[off .. len)].  [next]
     consumes a frame by advancing [off]; [feed] moves the unread tail to
     the front only when the new bytes do not fit behind it, and grows
     [buf] only when they do not fit at all. *)
  type decoder = {
    max_frame : int;
    mutable buf : Bytes.t;
    mutable off : int;
    mutable len : int;
    mutable err : string option;
  }

  let initial_capacity = 1024

  (* a drained buffer larger than this (a certificate went through) is
     given back rather than kept for the connection's lifetime *)
  let keep_capacity = 1 lsl 20

  let decoder ?(max_frame = default_max) () =
    { max_frame; buf = Bytes.create initial_capacity; off = 0; len = 0; err = None }

  let feed dec bytes off n =
    if dec.err = None then begin
      let unread = dec.len - dec.off in
      if dec.len + n > Bytes.length dec.buf then begin
        let buf =
          if unread + n <= Bytes.length dec.buf then dec.buf
          else Bytes.create (max (unread + n) (2 * Bytes.length dec.buf))
        in
        Bytes.blit dec.buf dec.off buf 0 unread;
        dec.buf <- buf;
        dec.off <- 0;
        dec.len <- unread
      end;
      Bytes.blit bytes off dec.buf dec.len n;
      dec.len <- dec.len + n
    end

  let buffered dec = dec.len - dec.off

  let peek_len dec =
    let b i = Char.code (Bytes.get dec.buf (dec.off + i)) in
    (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

  let next dec =
    match dec.err with
    | Some e -> Error e
    | None ->
      if buffered dec < header_len then Ok None
      else begin
        let len = peek_len dec in
        if len > dec.max_frame then begin
          let e =
            Printf.sprintf "frame length %d exceeds the %d-byte limit" len
              dec.max_frame
          in
          dec.err <- Some e;
          Error e
        end
        else if buffered dec < header_len + len then Ok None
        else begin
          let payload = Bytes.sub_string dec.buf (dec.off + header_len) len in
          dec.off <- dec.off + header_len + len;
          if dec.off = dec.len then begin
            dec.off <- 0;
            dec.len <- 0;
            if Bytes.length dec.buf > keep_capacity then
              dec.buf <- Bytes.create initial_capacity
          end;
          Ok (Some payload)
        end
      end

  let really_read fd bytes off len =
    let rec go off len =
      if len = 0 then true
      else
        match Unix.read fd bytes off len with
        | 0 -> false
        | n -> go (off + n) (len - n)
    in
    go off len

  let read ?(max_frame = default_max) fd =
    let hdr = Bytes.create header_len in
    match Unix.read fd hdr 0 header_len with
    | 0 -> Ok None
    | n ->
      if n < header_len && not (really_read fd hdr n (header_len - n)) then
        Error "truncated frame header"
      else begin
        let b i = Char.code (Bytes.get hdr i) in
        let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
        if len > max_frame then
          Error
            (Printf.sprintf "frame length %d exceeds the %d-byte limit" len
               max_frame)
        else begin
          let payload = Bytes.create len in
          if really_read fd payload 0 len then
            Ok (Some (Bytes.unsafe_to_string payload))
          else Error "truncated frame payload"
        end
      end

  let write fd payload =
    let s = to_string payload in
    let b = Bytes.unsafe_of_string s in
    let rec go off len =
      if len > 0 then begin
        let n = Unix.write fd b off len in
        go (off + n) (len - n)
      end
    in
    go 0 (Bytes.length b)
end

(* ------------------------------------------------------------------ *)
(* Wire types *)

type style = Original | Variant

type request =
  | Ping
  | Status
  | Metrics
  | Shutdown
  | Lint of { style : style }
  | Verify of {
      style : style;
      only : string list;
      negative : bool;
      extensions : bool;
      certify : bool;
    }
  | Secrecy of { style : style }
  | Check of { cert : string }
  | Eval of { src : string; step_limit : int option; deadline_s : float option }

type case = { c_name : string; c_status : string; c_splits : int; c_steps : int }

type verdict = {
  v_name : string;
  v_proved : bool;
  v_negative : bool;
  v_cases : case list;
  v_text : string;
}

type response =
  | Pong of { pid : int; uptime_s : float }
  | Rstatus of {
      uptime_s : float;
      jobs : int;
      requests : int;
      in_flight : int;
      dedup_hits : int;
      dedup_misses : int;
      styles : style list;
    }
  | Rmetrics of {
      counters : (string * int) list;
      gauges : (string * float) list;
      histograms : (string * float array) list;
    }
  | Rverdict of verdict
  | Rsummary of {
      invariants : int * int;
      cases : int * int;
      splits : int;
      steps : int;
      text : string;
    }
  | Rlint of { errors : int; warnings : int; infos : int; cached : bool; text : string }
  | Rsecrecy of {
      verdict : string;
      clauses : int;
      facts : int;
      rounds : int;
      resolutions : int;
      cached : bool;
    }
  | Rcert of { cert : string }
  | Rcheck of {
      ok : bool;
      obligations : int;
      steps : int;
      errors : (string * string) list;
    }
  | Reval of { text : string }
  | Rtimeout of {
      limit : [ `Steps of int | `Deadline of float ];
      steps : int;
      name : string;
    }
  | Rerror of { code : string; msg : string }
  | Done of { exit_code : int }

(* ------------------------------------------------------------------ *)
(* Sexp building blocks *)

let atom s = Sexp.Atom s
let slist l = Sexp.List l
let sint n = atom (string_of_int n)
let sbool b = atom (string_of_bool b)

(* %h (hex float) round-trips doubles exactly through float_of_string. *)
let sfloat f = atom (Printf.sprintf "%h" f)
let field key values = slist (atom key :: values)

let style_name = function Original -> "original" | Variant -> "variant"

let style_of_name = function
  | "original" -> Ok Original
  | "variant" -> Ok Variant
  | s -> Error (Printf.sprintf "unknown style %S" s)

(* ------------------------------------------------------------------ *)
(* Decoding helpers: requests/responses are (tag field ...) lists where a
   field is (key value ...).  All failures funnel into Error, never raise. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let fields = function
  | Sexp.List (Sexp.Atom tag :: rest) -> Ok (tag, rest)
  | _ -> Error "expected (tag field ...)"

let assoc key flds =
  List.find_map
    (function
      | Sexp.List (Sexp.Atom k :: vs) when String.equal k key -> Some vs
      | _ -> None)
    flds

let get key flds =
  match assoc key flds with
  | Some vs -> Ok vs
  | None -> Error (Printf.sprintf "missing field %S" key)

let as_atom what = function
  | [ Sexp.Atom s ] -> Ok s
  | _ -> Error (Printf.sprintf "field %S: expected one atom" what)

let as_int what v =
  let* s = as_atom what v in
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "field %S: expected an integer" what)

let as_float what v =
  let* s = as_atom what v in
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S: expected a float" what)

let as_bool what v =
  let* s = as_atom what v in
  match bool_of_string_opt s with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "field %S: expected a bool" what)

let as_atoms what vs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Sexp.Atom s :: rest -> go (s :: acc) rest
    | _ -> Error (Printf.sprintf "field %S: expected atoms" what)
  in
  go [] vs

let get_style flds =
  let* v = get "style" flds in
  let* s = as_atom "style" v in
  style_of_name s

let opt_int key flds =
  match assoc key flds with
  | None -> Ok None
  | Some v ->
    let* n = as_int key v in
    Ok (Some n)

let opt_float key flds =
  match assoc key flds with
  | None -> Ok None
  | Some v ->
    let* f = as_float key v in
    Ok (Some f)

let parse_payload s =
  match Sexp.parse_one s with
  | Ok sx -> Ok sx
  | Error e -> Error ("malformed s-expression: " ^ e)

(* ------------------------------------------------------------------ *)
(* Requests *)

let encode_request ?id req =
  let sx =
    match req with
    | Ping -> slist [ atom "ping" ]
    | Status -> slist [ atom "status" ]
    | Metrics -> slist [ atom "metrics" ]
    | Shutdown -> slist [ atom "shutdown" ]
    | Lint { style } ->
      slist [ atom "lint"; field "style" [ atom (style_name style) ] ]
    | Verify { style; only; negative; extensions; certify } ->
      slist
        [
          atom "verify";
          field "style" [ atom (style_name style) ];
          field "only" (List.map atom only);
          field "negative" [ sbool negative ];
          field "extensions" [ sbool extensions ];
          field "certify" [ sbool certify ];
        ]
    | Secrecy { style } ->
      slist [ atom "secrecy"; field "style" [ atom (style_name style) ] ]
    | Check { cert } -> slist [ atom "check"; field "cert" [ atom cert ] ]
    | Eval { src; step_limit; deadline_s } ->
      slist
        ([ atom "eval"; field "src" [ atom src ] ]
        @ (match step_limit with
          | None -> []
          | Some n -> [ field "step-limit" [ sint n ] ])
        @
        match deadline_s with
        | None -> []
        | Some d -> [ field "deadline-s" [ sfloat d ] ])
  in
  (* the request id rides as an ordinary trailing field: decoders ignore
     unknown fields, so tagged payloads stay readable by old daemons and
     untagged ones by new daemons *)
  let sx =
    match id, sx with
    | Some rid, Sexp.List items -> slist (items @ [ field "id" [ atom rid ] ])
    | _ -> sx
  in
  Sexp.to_string sx

(* Extracted separately from decode_request so id-tagging stays invisible
   to the request variants (and to their roundtrip properties). *)
let request_id s =
  match parse_payload s with
  | Error _ -> None
  | Ok sx -> (
    match fields sx with
    | Error _ -> None
    | Ok (_, flds) -> (
      match assoc "id" flds with
      | None -> None
      | Some v -> ( match as_atom "id" v with Ok rid -> Some rid | Error _ -> None)))

let decode_request s =
  let* sx = parse_payload s in
  let* tag, flds = fields sx in
  match tag with
  | "ping" -> Ok Ping
  | "status" -> Ok Status
  | "metrics" -> Ok Metrics
  | "shutdown" -> Ok Shutdown
  | "lint" ->
    let* style = get_style flds in
    Ok (Lint { style })
  | "verify" ->
    let* style = get_style flds in
    let* only =
      match assoc "only" flds with
      | None -> Ok []
      | Some vs -> as_atoms "only" vs
    in
    let* negative =
      match assoc "negative" flds with
      | None -> Ok false
      | Some v -> as_bool "negative" v
    in
    let* extensions =
      match assoc "extensions" flds with
      | None -> Ok false
      | Some v -> as_bool "extensions" v
    in
    let* certify =
      match assoc "certify" flds with
      | None -> Ok false
      | Some v -> as_bool "certify" v
    in
    Ok (Verify { style; only; negative; extensions; certify })
  | "secrecy" ->
    let* style = get_style flds in
    Ok (Secrecy { style })
  | "check" ->
    let* v = get "cert" flds in
    let* cert = as_atom "cert" v in
    Ok (Check { cert })
  | "eval" ->
    let* v = get "src" flds in
    let* src = as_atom "src" v in
    let* step_limit = opt_int "step-limit" flds in
    let* deadline_s = opt_float "deadline-s" flds in
    Ok (Eval { src; step_limit; deadline_s })
  | t -> Error (Printf.sprintf "unknown request %S" t)

(* ------------------------------------------------------------------ *)
(* Responses *)

let case_sx c =
  slist [ atom c.c_name; atom c.c_status; sint c.c_splits; sint c.c_steps ]

let case_of_sx = function
  | Sexp.List [ Sexp.Atom n; Sexp.Atom st; Sexp.Atom sp; Sexp.Atom rs ] -> (
    match int_of_string_opt sp, int_of_string_opt rs with
    | Some c_splits, Some c_steps ->
      Ok { c_name = n; c_status = st; c_splits; c_steps }
    | _ -> Error "case: expected integer splits/steps")
  | _ -> Error "case: expected (name status splits steps)"

let encode_response resp =
  let sx =
    match resp with
    | Pong { pid; uptime_s } ->
      slist
        [ atom "pong"; field "pid" [ sint pid ]; field "uptime-s" [ sfloat uptime_s ] ]
    | Rstatus
        { uptime_s; jobs; requests; in_flight; dedup_hits; dedup_misses; styles }
      ->
      slist
        [
          atom "status";
          field "uptime-s" [ sfloat uptime_s ];
          field "jobs" [ sint jobs ];
          field "requests" [ sint requests ];
          field "in-flight" [ sint in_flight ];
          field "dedup-hits" [ sint dedup_hits ];
          field "dedup-misses" [ sint dedup_misses ];
          field "styles" (List.map (fun s -> atom (style_name s)) styles);
        ]
    | Rmetrics { counters; gauges; histograms } ->
      slist
        [
          atom "metrics";
          field "counters"
            (List.map (fun (k, v) -> slist [ atom k; sint v ]) counters);
          field "gauges"
            (List.map (fun (k, v) -> slist [ atom k; sfloat v ]) gauges);
          field "histograms"
            (List.map
               (fun (k, vs) ->
                 slist (atom k :: List.map sfloat (Array.to_list vs)))
               histograms);
        ]
    | Rverdict v ->
      slist
        [
          atom "verdict";
          field "name" [ atom v.v_name ];
          field "proved" [ sbool v.v_proved ];
          field "negative" [ sbool v.v_negative ];
          field "cases" (List.map case_sx v.v_cases);
          field "text" [ atom v.v_text ];
        ]
    | Rsummary { invariants = ip, it; cases = cp, ct; splits; steps; text } ->
      slist
        [
          atom "summary";
          field "invariants" [ sint ip; sint it ];
          field "cases" [ sint cp; sint ct ];
          field "splits" [ sint splits ];
          field "steps" [ sint steps ];
          field "text" [ atom text ];
        ]
    | Rlint { errors; warnings; infos; cached; text } ->
      slist
        [
          atom "lint-report";
          field "errors" [ sint errors ];
          field "warnings" [ sint warnings ];
          field "infos" [ sint infos ];
          field "cached" [ sbool cached ];
          field "text" [ atom text ];
        ]
    | Rsecrecy { verdict; clauses; facts; rounds; resolutions; cached } ->
      slist
        [
          atom "secrecy-report";
          field "verdict" [ atom verdict ];
          field "clauses" [ sint clauses ];
          field "facts" [ sint facts ];
          field "rounds" [ sint rounds ];
          field "resolutions" [ sint resolutions ];
          field "cached" [ sbool cached ];
        ]
    | Rcert { cert } ->
      slist [ atom "certificate"; field "cert" [ atom cert ] ]
    | Rcheck { ok; obligations; steps; errors } ->
      slist
        [
          atom "check-report";
          field "ok" [ sbool ok ];
          field "obligations" [ sint obligations ];
          field "steps" [ sint steps ];
          field "errors"
            (List.map (fun (p, m) -> slist [ atom p; atom m ]) errors);
        ]
    | Reval { text } -> slist [ atom "eval-output"; field "text" [ atom text ] ]
    | Rtimeout { limit; steps; name } ->
      slist
        [
          atom "timeout";
          field "limit"
            (match limit with
            | `Steps n -> [ atom "steps"; sint n ]
            | `Deadline d -> [ atom "deadline"; sfloat d ]);
          field "steps" [ sint steps ];
          field "name" [ atom name ];
        ]
    | Rerror { code; msg } ->
      slist [ atom "error"; field "code" [ atom code ]; field "msg" [ atom msg ] ]
    | Done { exit_code } -> slist [ atom "done"; field "exit" [ sint exit_code ] ]
  in
  Sexp.to_string sx

let decode_response s =
  let* sx = parse_payload s in
  let* tag, flds = fields sx in
  match tag with
  | "pong" ->
    let* v = get "pid" flds in
    let* pid = as_int "pid" v in
    let* v = get "uptime-s" flds in
    let* uptime_s = as_float "uptime-s" v in
    Ok (Pong { pid; uptime_s })
  | "status" ->
    let* v = get "uptime-s" flds in
    let* uptime_s = as_float "uptime-s" v in
    let* v = get "jobs" flds in
    let* jobs = as_int "jobs" v in
    let* v = get "requests" flds in
    let* requests = as_int "requests" v in
    let* v = get "in-flight" flds in
    let* in_flight = as_int "in-flight" v in
    (* absent on daemons predating the dedup counters; default 0 *)
    let* dedup_hits =
      match assoc "dedup-hits" flds with
      | None -> Ok 0
      | Some v -> as_int "dedup-hits" v
    in
    let* dedup_misses =
      match assoc "dedup-misses" flds with
      | None -> Ok 0
      | Some v -> as_int "dedup-misses" v
    in
    let* names =
      match assoc "styles" flds with
      | None -> Ok []
      | Some vs -> as_atoms "styles" vs
    in
    let* styles =
      List.fold_right
        (fun n acc ->
          let* acc = acc in
          let* st = style_of_name n in
          Ok (st :: acc))
        names (Ok [])
    in
    Ok
      (Rstatus
         {
           uptime_s;
           jobs;
           requests;
           in_flight;
           dedup_hits;
           dedup_misses;
           styles;
         })
  | "metrics" ->
    let pair conv = function
      | Sexp.List [ Sexp.Atom k; Sexp.Atom v ] -> (
        match conv v with
        | Some v -> Ok (k, v)
        | None -> Error "metrics: bad value")
      | _ -> Error "metrics: expected (name value)"
    in
    let all conv vs =
      List.fold_right
        (fun sx acc ->
          let* acc = acc in
          let* kv = pair conv sx in
          Ok (kv :: acc))
        vs (Ok [])
    in
    let* cs = get "counters" flds in
    let* counters = all int_of_string_opt cs in
    let* gs = get "gauges" flds in
    let* gauges = all float_of_string_opt gs in
    let* hs = get "histograms" flds in
    let* histograms =
      List.fold_right
        (fun sx acc ->
          let* acc = acc in
          match sx with
          | Sexp.List (Sexp.Atom k :: vs) ->
            let* floats =
              List.fold_right
                (fun v acc ->
                  let* acc = acc in
                  match v with
                  | Sexp.Atom a -> (
                    match float_of_string_opt a with
                    | Some f -> Ok (f :: acc)
                    | None -> Error "histograms: bad value")
                  | _ -> Error "histograms: expected atoms")
                vs (Ok [])
            in
            Ok ((k, Array.of_list floats) :: acc)
          | _ -> Error "histograms: expected (name values...)")
        hs (Ok [])
    in
    Ok (Rmetrics { counters; gauges; histograms })
  | "verdict" ->
    let* v = get "name" flds in
    let* v_name = as_atom "name" v in
    let* v = get "proved" flds in
    let* v_proved = as_bool "proved" v in
    let* v = get "negative" flds in
    let* v_negative = as_bool "negative" v in
    let* cs = get "cases" flds in
    let* v_cases =
      List.fold_right
        (fun sx acc ->
          let* acc = acc in
          let* c = case_of_sx sx in
          Ok (c :: acc))
        cs (Ok [])
    in
    let* v = get "text" flds in
    let* v_text = as_atom "text" v in
    Ok (Rverdict { v_name; v_proved; v_negative; v_cases; v_text })
  | "summary" ->
    let pair what v =
      match v with
      | [ Sexp.Atom a; Sexp.Atom b ] -> (
        match int_of_string_opt a, int_of_string_opt b with
        | Some a, Some b -> Ok (a, b)
        | _ -> Error (Printf.sprintf "field %S: expected two integers" what))
      | _ -> Error (Printf.sprintf "field %S: expected two integers" what)
    in
    let* v = get "invariants" flds in
    let* invariants = pair "invariants" v in
    let* v = get "cases" flds in
    let* cases = pair "cases" v in
    let* v = get "splits" flds in
    let* splits = as_int "splits" v in
    let* v = get "steps" flds in
    let* steps = as_int "steps" v in
    let* v = get "text" flds in
    let* text = as_atom "text" v in
    Ok (Rsummary { invariants; cases; splits; steps; text })
  | "lint-report" ->
    let* v = get "errors" flds in
    let* errors = as_int "errors" v in
    let* v = get "warnings" flds in
    let* warnings = as_int "warnings" v in
    let* v = get "infos" flds in
    let* infos = as_int "infos" v in
    let* v = get "cached" flds in
    let* cached = as_bool "cached" v in
    let* v = get "text" flds in
    let* text = as_atom "text" v in
    Ok (Rlint { errors; warnings; infos; cached; text })
  | "secrecy-report" ->
    let* v = get "verdict" flds in
    let* verdict = as_atom "verdict" v in
    let* v = get "clauses" flds in
    let* clauses = as_int "clauses" v in
    let* v = get "facts" flds in
    let* facts = as_int "facts" v in
    let* v = get "rounds" flds in
    let* rounds = as_int "rounds" v in
    let* v = get "resolutions" flds in
    let* resolutions = as_int "resolutions" v in
    let* v = get "cached" flds in
    let* cached = as_bool "cached" v in
    Ok (Rsecrecy { verdict; clauses; facts; rounds; resolutions; cached })
  | "certificate" ->
    let* v = get "cert" flds in
    let* cert = as_atom "cert" v in
    Ok (Rcert { cert })
  | "check-report" ->
    let* v = get "ok" flds in
    let* ok = as_bool "ok" v in
    let* v = get "obligations" flds in
    let* obligations = as_int "obligations" v in
    let* v = get "steps" flds in
    let* steps = as_int "steps" v in
    let* es = get "errors" flds in
    let* errors =
      List.fold_right
        (fun sx acc ->
          let* acc = acc in
          match sx with
          | Sexp.List [ Sexp.Atom p; Sexp.Atom m ] -> Ok ((p, m) :: acc)
          | _ -> Error "check-report: expected (path msg)")
        es (Ok [])
    in
    Ok (Rcheck { ok; obligations; steps; errors })
  | "eval-output" ->
    let* v = get "text" flds in
    let* text = as_atom "text" v in
    Ok (Reval { text })
  | "timeout" ->
    let* v = get "limit" flds in
    let* limit =
      match v with
      | [ Sexp.Atom "steps"; Sexp.Atom n ] -> (
        match int_of_string_opt n with
        | Some n -> Ok (`Steps n)
        | None -> Error "timeout: bad step limit")
      | [ Sexp.Atom "deadline"; Sexp.Atom d ] -> (
        match float_of_string_opt d with
        | Some d -> Ok (`Deadline d)
        | None -> Error "timeout: bad deadline")
      | _ -> Error "timeout: expected (limit steps N) or (limit deadline D)"
    in
    let* v = get "steps" flds in
    let* steps = as_int "steps" v in
    let* v = get "name" flds in
    let* name = as_atom "name" v in
    Ok (Rtimeout { limit; steps; name })
  | "error" ->
    let* v = get "code" flds in
    let* code = as_atom "code" v in
    let* v = get "msg" flds in
    let* msg = as_atom "msg" v in
    Ok (Rerror { code; msg })
  | "done" ->
    let* v = get "exit" flds in
    let* exit_code = as_int "exit" v in
    Ok (Done { exit_code })
  | t -> Error (Printf.sprintf "unknown response %S" t)

(* Mirrors Core.Report.result_fingerprint; keep the two in sync (the
   cross-check test compares their outputs byte for byte). *)
let verdict_fingerprint v =
  let b = Buffer.create 1024 in
  Buffer.add_string b v.v_name;
  Buffer.add_string b (if v.v_proved then "=proved" else "=unproved");
  List.iter
    (fun c ->
      Buffer.add_char b ';';
      Buffer.add_string b c.c_name;
      Buffer.add_char b ':';
      Buffer.add_string b c.c_status;
      Buffer.add_string b ":splits=";
      Buffer.add_string b (string_of_int c.c_splits);
      Buffer.add_string b ":steps=";
      Buffer.add_string b (string_of_int c.c_steps))
    v.v_cases;
  Buffer.contents b
