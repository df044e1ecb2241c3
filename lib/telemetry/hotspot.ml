(* A rule's cost is what it makes the engine do: fire (rewrite self),
   discharge conditions, and be *tried* — match attempts, failed or not,
   charged to the rule attempted.  Including match time here is what lets
   the hot-rules table show the scan cost that rule indexing removes. *)
let self_ns (r : Probe.rule_stat) =
  r.Probe.rl_rw_self_ns + r.Probe.rl_cond_self_ns + r.Probe.rl_match_self_ns

let hot_rules ?(top = 10) (snap : Probe.snapshot) =
  let sorted =
    List.sort
      (fun a b ->
        match compare (self_ns b) (self_ns a) with
        | 0 -> compare a.Probe.rl_label b.Probe.rl_label
        | c -> c)
      snap.Probe.sn_rules
  in
  List.filteri (fun i _ -> i < top) sorted

let slowest_cases ?(top = 10) (snap : Probe.snapshot) =
  let cases =
    List.filter
      (fun (sp : Probe.span) -> String.equal sp.Probe.sp_cat "case")
      snap.Probe.sn_spans
  in
  let sorted =
    List.sort
      (fun (a : Probe.span) (b : Probe.span) ->
        compare b.Probe.sp_dur a.Probe.sp_dur)
      cases
  in
  List.filteri (fun i _ -> i < top) sorted

let ms ns = float_of_int ns /. 1e6

let pp ?(top = 10) ppf (snap : Probe.snapshot) =
  let dropped_detail =
    match snap.Probe.sn_dropped_by_dom with
    | [] -> ""
    | per_dom ->
      Printf.sprintf " [%s]"
        (String.concat ", "
           (List.map
              (fun (dom, n) -> Printf.sprintf "dom%d: %d" dom n)
              per_dom))
  in
  Format.fprintf ppf
    "telemetry: %d spans recorded (%d dropped%s), %d rules profiled@."
    (List.length snap.Probe.sn_spans)
    snap.Probe.sn_dropped dropped_detail
    (List.length snap.Probe.sn_rules);
  (match hot_rules ~top snap with
  | [] -> ()
  | rules ->
    Format.fprintf ppf "top %d rules by self-time:@." (List.length rules);
    Format.fprintf ppf "  %-28s %10s %10s %10s %10s %10s %10s %10s@." "rule"
      "fires" "self-ms" "total-ms" "cond-evals" "cond-ms" "tries" "match-ms";
    List.iter
      (fun (r : Probe.rule_stat) ->
        Format.fprintf ppf "  %-28s %10d %10.3f %10.3f %10d %10.3f %10d %10.3f@."
          r.Probe.rl_label r.Probe.rl_fires
          (ms (self_ns r))
          (ms r.Probe.rl_rw_total_ns)
          r.Probe.rl_cond_evals
          (ms r.Probe.rl_cond_self_ns)
          r.Probe.rl_match_tries
          (ms r.Probe.rl_match_self_ns))
      rules);
  (match slowest_cases ~top snap with
  | [] -> ()
  | cases ->
    Format.fprintf ppf "slowest proof cases:@.";
    Format.fprintf ppf "  %-44s %8s %12s@." "case" "domain" "ms";
    List.iter
      (fun (sp : Probe.span) ->
        Format.fprintf ppf "  %-44s %8d %12.3f@." sp.Probe.sp_name
          sp.Probe.sp_dom
          (ms sp.Probe.sp_dur))
      cases);
  (match snap.Probe.sn_counters with
  | [] -> ()
  | counters ->
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-36s %d@." name v)
      counters);
  match snap.Probe.sn_gauges with
  | [] -> ()
  | gauges ->
    Format.fprintf ppf "gauges:@.";
    (* integral gauges (counts, sizes) in full; %.4g would print 12430
       as 1.243e+04 *)
    List.iter
      (fun (name, v) ->
        if Float.is_integer v && Float.abs v < 1e15 then
          Format.fprintf ppf "  %-36s %.0f@." name v
        else Format.fprintf ppf "  %-36s %.4g@." name v)
      gauges
