let esc = Telemetry.Flight.json_escape

let level_of = function
  | Diagnostic.Error -> "error"
  | Diagnostic.Warning -> "warning"
  | Diagnostic.Info -> "note"

let of_report (r : Lint.report) =
  (* module name -> source file, for physicalLocation URIs *)
  let sources =
    List.map (fun m -> (m.Lint.m_name, m.Lint.m_source)) r.Lint.modules
  in
  let uri_of (d : Diagnostic.t) =
    match List.assoc_opt d.Diagnostic.spec sources with
    | Some s -> s
    | None -> d.Diagnostic.spec
  in
  let rule_id (d : Diagnostic.t) =
    d.Diagnostic.checker ^ "/" ^ d.Diagnostic.code
  in
  let rules =
    List.sort_uniq compare (List.map rule_id r.Lint.diagnostics)
  in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  add "  \"version\": \"2.1.0\",\n";
  add "  \"runs\": [\n";
  add "    {\n";
  add "      \"tool\": {\n";
  add "        \"driver\": {\n";
  add "          \"name\": \"ots-lint\",\n";
  add "          \"informationUri\": \"https://example.invalid/ots-lint\",\n";
  add "          \"rules\": [\n";
  List.iteri
    (fun i id ->
      add "            {\"id\": \"%s\", \"name\": \"%s\"}%s\n" (esc id)
        (esc id)
        (if i = List.length rules - 1 then "" else ","))
    rules;
  add "          ]\n";
  add "        }\n";
  add "      },\n";
  add "      \"results\": [\n";
  List.iteri
    (fun i (d : Diagnostic.t) ->
      add "        {\n";
      add "          \"ruleId\": \"%s\",\n" (esc (rule_id d));
      add "          \"level\": \"%s\",\n" (level_of d.Diagnostic.severity);
      add "          \"message\": {\"text\": \"%s: %s\"},\n"
        (esc d.Diagnostic.spec)
        (esc d.Diagnostic.message);
      add "          \"locations\": [\n";
      add "            {\n";
      add "              \"physicalLocation\": {\n";
      add "                \"artifactLocation\": {\"uri\": \"%s\"}%s\n"
        (esc (uri_of d))
        (if d.Diagnostic.pos = None then "" else ",");
      (match d.Diagnostic.pos with
      | Some (line, col) ->
        add
          "                \"region\": {\"startLine\": %d, \"startColumn\": \
           %d}\n"
          line col
      | None -> ());
      add "              }\n";
      add "            }\n";
      add "          ]\n";
      add "        }%s\n" (if i = List.length r.Lint.diagnostics - 1 then "" else ",");
      ())
    r.Lint.diagnostics;
  add "      ]\n";
  add "    }\n";
  add "  ]\n";
  add "}\n";
  Buffer.contents buf

let write path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (of_report r))
