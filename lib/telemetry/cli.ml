module Exit = struct
  let ok = 0
  let failure = 1
  let usage = 2
  let lint_gate = 3
  let cert_rejected = 4
  let timeout = 5
end

let active ~profile ~trace_out = profile || trace_out <> ""

let setup ?(span_min_ns = 10_000) ~profile ~trace_out () =
  if active ~profile ~trace_out then begin
    Probe.set_span_min_ns span_min_ns;
    Probe.set_enabled true
  end

let flush ?(process_name = Filename.basename Sys.executable_name) ?(top = 10)
    ?(out = Format.std_formatter) ~profile ~trace_out () =
  if active ~profile ~trace_out then begin
    let snap = Probe.snapshot () in
    if trace_out <> "" then begin
      Perfetto.write_file ~process_name trace_out snap;
      Format.fprintf out "telemetry: wrote %s (%d spans%s)@." trace_out
        (List.length snap.Probe.sn_spans)
        (if snap.Probe.sn_dropped = 0 then ""
         else Printf.sprintf ", %d dropped" snap.Probe.sn_dropped)
    end;
    if profile then Format.fprintf out "%a" (Hotspot.pp ~top) snap
  end
