type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type t = {
  severity : severity;
  checker : string;
  code : string;
  spec : string;
  pos : (int * int) option;
  message : string;
}

let make ?pos ~severity ~checker ~code ~spec message =
  { severity; checker; code; spec; pos; message }

let compare d1 d2 =
  let c = compare (severity_rank d1.severity) (severity_rank d2.severity) in
  if c <> 0 then c
  else
    let c = String.compare d1.spec d2.spec in
    if c <> 0 then c
    else
      let c = String.compare d1.checker d2.checker in
      if c <> 0 then c
      else
        let c = compare d1.pos d2.pos in
        if c <> 0 then c else String.compare d1.message d2.message

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let pp ppf d =
  let pp_pos ppf = function
    | Some (l, c) -> Format.fprintf ppf ":%d:%d" l c
    | None -> ()
  in
  Format.fprintf ppf "%s%a: %s: [%s/%s] %s" d.spec pp_pos d.pos
    (severity_name d.severity) d.checker d.code d.message

(* ------------------------------------------------------------------ *)
(* JSON — hand-rolled, the repo has no JSON dependency. *)

let to_json d =
  let json_escape = Telemetry.Flight.json_escape in
  let pos =
    match d.pos with
    | Some (l, c) -> Printf.sprintf {|, "line": %d, "col": %d|} l c
    | None -> ""
  in
  Printf.sprintf
    {|{"severity": "%s", "checker": "%s", "code": "%s", "module": "%s"%s, "message": "%s"}|}
    (severity_name d.severity) (json_escape d.checker) (json_escape d.code)
    (json_escape d.spec) pos (json_escape d.message)
