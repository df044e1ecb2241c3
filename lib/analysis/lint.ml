module P = Cafeobj.Parser
module Lexer = Cafeobj.Lexer

let checkers =
  [
    "termination";
    "confluence";
    "completeness";
    "hygiene";
    "coverage";
    "secrecy";
    "flow";
    "independence";
  ]

type source =
  | File of string
  | Generated of { label : string; spec : Cafeobj.Spec.t }

type module_summary = {
  m_name : string;
  m_source : string;
  m_rules : int;
  m_terminating : bool option;  (** [None]: checker skipped or load failed *)
  m_pairs : int option;
  m_joinable : bool option;
  m_semantic_joins : int option;
  m_secrecy : string option;  (** verdict name; [None]: checker skipped *)
  m_transitions : int option;  (** flow: recognized transitions *)
  m_independent : (int * int) option;
      (** independence: (proved-independent, total) action pairs *)
}

type report = {
  diagnostics : Diagnostic.t list;
  modules : module_summary list;
  graphs : (string * string) list;
      (** per module: the flow dependency graph with independence edges
          overlaid, as Graphviz dot (needs both checkers enabled) *)
  errors : int;
  warnings : int;
  infos : int;
}

type options = {
  only : string list;
  skip : string list;
  hint : string list;  (** operator names, later = greater in the precedence *)
  budget : int;
  fuel : int;
  allow : string list;  (** ["SPEC:code"] findings demoted to info *)
}

let default_options =
  { only = []; skip = []; hint = []; budget = 20_000; fuel = 8; allow = [] }

let validate_options opts =
  List.iter
    (fun c ->
      if not (List.mem c checkers) then
        invalid_arg
          (Printf.sprintf "unknown checker %s (expected one of %s)" c
             (String.concat ", " checkers)))
    (opts.only @ opts.skip)

let enabled opts c =
  (opts.only = [] || List.mem c opts.only) && not (List.mem c opts.skip)

(* ------------------------------------------------------------------ *)
(* Checking one elaborated module *)

let check_spec ?pool ~opts ~source spec =
  let name = Cafeobj.Spec.name spec in
  let hint = List.filter_map (Cafeobj.Spec.find_op spec) opts.hint in
  (* one span per checker per module, so the trace shows where lint wall
     time goes (critical-pair joining dwarfs the rest on the TLS spec) *)
  let span checker f =
    Telemetry.Probe.with_span ~always:true ~cat:"lint"
      (checker ^ ":" ^ name) f
  in
  let term_result =
    if enabled opts "termination" then
      Some (span "termination" (fun () -> Termination.check ~hint spec))
    else None
  in
  let conf_result =
    if enabled opts "confluence" then
      Some
        (span "confluence" (fun () ->
             Confluence.check ?pool ~budget:opts.budget ~fuel:opts.fuel spec))
    else None
  in
  let comp_diags =
    if enabled opts "completeness" then
      (span "completeness" (fun () -> Completeness.check spec))
        .Completeness.diagnostics
    else []
  in
  let hyg_diags =
    if enabled opts "hygiene" then
      (span "hygiene" (fun () -> Hygiene.check spec)).Hygiene.diagnostics
    else []
  in
  let secrecy_result =
    if enabled opts "secrecy" then
      Some (span "secrecy" (fun () -> Secrecy.check spec))
    else None
  in
  let flow_result =
    if enabled opts "flow" then Some (span "flow" (fun () -> Flow.check spec))
    else None
  in
  let indep_result =
    (* [analyze] itself returns [None] on specs without transition rules
       (plain data modules), which also reads as "nothing to report". *)
    if enabled opts "independence" then
      span "independence" (fun () ->
          Indep.analyze ?pool ~fuel:opts.fuel ~budget:opts.budget spec)
    else None
  in
  let graph =
    match flow_result, indep_result with
    | Some f, Some i when f.Flow.transitions <> [] ->
      Some (name, Indep.dot f i)
    | _ -> None
  in
  let diagnostics =
    (match term_result with Some r -> r.Termination.diagnostics | None -> [])
    @ (match conf_result with Some r -> r.Confluence.diagnostics | None -> [])
    @ comp_diags @ hyg_diags
    @ (match secrecy_result with Some c -> c.Secrecy.diagnostics | None -> [])
    @ (match flow_result with Some r -> r.Flow.diagnostics | None -> [])
    @ (match indep_result with Some r -> r.Indep.r_diagnostics | None -> [])
  in
  let summary =
    {
      m_name = name;
      m_source = source;
      m_rules = List.length (Cafeobj.Spec.all_rules spec);
      m_terminating = Option.map (fun r -> r.Termination.certified) term_result;
      m_pairs = Option.map (fun r -> r.Confluence.total) conf_result;
      m_joinable = Option.map (fun r -> r.Confluence.certified) conf_result;
      m_semantic_joins = Option.map (fun r -> r.Confluence.semantic) conf_result;
      m_secrecy =
        Option.map
          (fun c -> Secrecy.verdict_name c.Secrecy.result)
          secrecy_result;
      m_transitions =
        Option.map
          (fun r -> List.length r.Flow.transitions)
          flow_result;
      m_independent =
        Option.map
          (fun r -> r.Indep.r_independent, r.Indep.r_total)
          indep_result;
    }
  in
  summary, diagnostics, graph

(* ------------------------------------------------------------------ *)
(* Loading sources *)

type loaded = {
  l_source : string;
  l_specs : Cafeobj.Spec.t list;
  l_program : P.program option;  (** [None] for generated specs *)
  l_diags : Diagnostic.t list;  (** load errors *)
}

let load_file path =
  let fail_diag ?pos code msg =
    {
      l_source = path;
      l_specs = [];
      l_program = None;
      l_diags =
        [
          Diagnostic.make ?pos ~severity:Diagnostic.Error ~checker:"load" ~code
            ~spec:(Filename.basename path) msg;
        ];
    }
  in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> fail_diag "io-error" m
  | src -> (
    match P.parse_string src with
    | exception Lexer.Error { line; col; message } ->
      fail_diag ~pos:(line, col) "lex-error" message
    | exception P.Error m -> fail_diag "parse-error" m
    | program -> (
      let env = Cafeobj.Eval.create () in
      (* Evaluate the whole program; [red] phrases do run (they are part of
         the file's meaning) but their results are not the linter's
         concern — only the modules they build. *)
      match
        List.iter (fun (phrase, _) -> ignore (Cafeobj.Eval.eval env phrase)) program
      with
      | exception Cafeobj.Eval.Error m -> fail_diag "elaboration-error" m
      | exception Kernel.Rewrite.Limit_exceeded _ ->
        fail_diag "step-limit" "a red command exceeded its step/deadline limit"
      | () ->
        let names =
          List.filter_map
            (fun (phrase, _) ->
              match phrase with P.TModule (n, _) -> Some n | _ -> None)
            program
        in
        let specs =
          List.filter_map (fun n -> Cafeobj.Eval.find_module env n) names
        in
        { l_source = path; l_specs = specs; l_program = Some program; l_diags = [] }))

let load = function
  | File path -> load_file path
  | Generated { label; spec } ->
    { l_source = label; l_specs = [ spec ]; l_program = None; l_diags = [] }

(* ------------------------------------------------------------------ *)

let run ?pool ?(opts = default_options) sources =
  validate_options opts;
  (* Elaboration interns sorts and operators in shared tables, so sources
     load sequentially; the parallelism is inside the per-module checks
     (critical-pair joining). *)
  let loadeds = List.map load sources in
  let results =
    List.concat_map
      (fun l ->
        let per_spec =
          List.map
            (fun spec -> check_spec ?pool ~opts ~source:l.l_source spec)
            l.l_specs
        in
        let coverage =
          match l.l_program with
          | Some program when enabled opts "coverage" ->
            (Coverage.check program).Coverage.diagnostics
          | _ -> []
        in
        [
          ( List.map (fun (s, _, _) -> s) per_spec,
            l.l_diags
            @ List.concat_map (fun (_, d, _) -> d) per_spec
            @ coverage,
            List.filter_map (fun (_, _, g) -> g) per_spec );
        ])
      loadeds
  in
  let modules = List.concat_map (fun (s, _, _) -> s) results in
  let graphs = List.concat_map (fun (_, _, g) -> g) results in
  (* [--allow SPEC:code] findings stay visible but no longer gate *)
  let allow (d : Diagnostic.t) =
    if
      d.Diagnostic.severity <> Diagnostic.Info
      && List.mem (d.Diagnostic.spec ^ ":" ^ d.Diagnostic.code) opts.allow
    then
      { d with Diagnostic.severity = Diagnostic.Info;
        message = d.Diagnostic.message ^ " [allowed]" }
    else d
  in
  let diagnostics =
    List.stable_sort Diagnostic.compare
      (List.map allow (List.concat_map (fun (_, d, _) -> d) results))
  in
  {
    diagnostics;
    modules;
    graphs;
    errors = Diagnostic.count Diagnostic.Error diagnostics;
    warnings = Diagnostic.count Diagnostic.Warning diagnostics;
    infos = Diagnostic.count Diagnostic.Info diagnostics;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_report ppf r =
  List.iter (fun d -> Format.fprintf ppf "%a@." Diagnostic.pp d) r.diagnostics;
  List.iter
    (fun m ->
      let flag label = function
        | Some true -> label
        | Some false -> "NOT " ^ label
        | None -> label ^ " unchecked"
      in
      Format.fprintf ppf "%s (%s): %d rules, %s, %s%s%s%s@." m.m_name m.m_source
        m.m_rules
        (flag "terminating" m.m_terminating)
        (match m.m_pairs with
        | Some n -> Printf.sprintf "%d critical pairs " n
        | None -> "")
        (flag "joinable" m.m_joinable
        ^
        match m.m_semantic_joins with
        | Some n when n > 0 -> Printf.sprintf " (%d semantic)" n
        | _ -> "")
        (match m.m_secrecy with
        | Some v -> Printf.sprintf ", secrecy %s" v
        | None -> "")
        (match m.m_independent with
        | Some (ind, total) ->
          Printf.sprintf ", %d/%d independent action pairs" ind total
        | None -> ""))
    r.modules;
  Format.fprintf ppf "%d errors, %d warnings, %d infos@." r.errors r.warnings
    r.infos

let report_to_json r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"summary\": {\"errors\": %d, \"warnings\": %d, \"infos\": %d},\n"
       r.errors r.warnings r.infos);
  Buffer.add_string buf "  \"modules\": [\n";
  let opt_bool = function
    | Some true -> "true"
    | Some false -> "false"
    | None -> "null"
  in
  let opt_int = function Some n -> string_of_int n | None -> "null" in
  List.iteri
    (fun i m ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"source\": \"%s\", \"rules\": %d, \
            \"terminating\": %s, \"critical_pairs\": %s, \"joinable\": %s, \
            \"semantic_joins\": %s, \"secrecy\": %s, \"transitions\": %s, \
            \"independent_pairs\": %s, \"action_pairs\": %s}%s\n"
           (Telemetry.Flight.json_escape m.m_name)
           (Telemetry.Flight.json_escape m.m_source)
           m.m_rules
           (opt_bool m.m_terminating)
           (opt_int m.m_pairs) (opt_bool m.m_joinable)
           (opt_int m.m_semantic_joins)
           (match m.m_secrecy with
           | Some v -> Printf.sprintf "\"%s\"" (Telemetry.Flight.json_escape v)
           | None -> "null")
           (opt_int m.m_transitions)
           (opt_int (Option.map fst m.m_independent))
           (opt_int (Option.map snd m.m_independent))
           (if i = List.length r.modules - 1 then "" else ",")))
    r.modules;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"diagnostics\": [\n";
  List.iteri
    (fun i d ->
      Buffer.add_string buf ("    " ^ Diagnostic.to_json d);
      Buffer.add_string buf (if i = List.length r.diagnostics - 1 then "\n" else ",\n"))
    r.diagnostics;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
