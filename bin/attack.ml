(* attack — explicit-state analysis of the bounded TLS scenario.

   Reproduces Section 5.3 with the Murphi-style baseline: searches for the
   counterexamples to client authentication (properties 2' and 3') and
   bound-checks the five positive properties.

   By default the search runs under the statically certified reduction
   (ample-set partial-order reduction + nonce-symmetry canonization,
   Analysis.Indep / Analysis.Symmetry via Tls.Concrete.reduction); pass
   --no-por / --no-symmetry to fall back to the unreduced baseline, e.g.
   to reproduce the raw state counts from the paper.

   Usage:
     attack [--max-states N] [--max-depth N]
            [--por|--no-por] [--symmetry|--no-symmetry]
            [--profile] [--trace-out FILE]

   The default bounds (200 000 states, depth 8) refute 2' at depth 4 and
   3' at depth 7 under the reduction.  The closing sweep of properties
   1-3 explores 806 states at depth 7 and 3 296 at depth 8, about four
   times more per level, so the depth bound sets its run time. *)

let pp_label = Tls.Concrete.pp_label

let check name ?max_states ?max_depth ?reduction scen props =
  Format.printf "@.== %s ==@." name;
  let outcome =
    Mc.bfs ?max_states ?max_depth ?reduction (Tls.Concrete.system scen) ~props
  in
  Format.printf "%a@." (Mc.pp_outcome pp_label) outcome;
  outcome

let () =
  let max_states = ref 200_000 in
  let max_depth = ref 8 in
  let por = ref true in
  let symmetry = ref true in
  let profile = ref false in
  let trace_out = ref "" in
  let spec =
    [
      "--max-states", Arg.Set_int max_states, "N state budget (default 200000)";
      "--max-depth", Arg.Set_int max_depth, "N depth bound (default 8)";
      "--por", Arg.Set por, "enable partial-order reduction (default)";
      "--no-por", Arg.Clear por, "disable partial-order reduction";
      "--symmetry", Arg.Set symmetry, "enable symmetry canonization (default)";
      "--no-symmetry", Arg.Clear symmetry, "disable symmetry canonization";
      "--profile", Arg.Set profile, "record telemetry and print a hotspot report";
      ( "--trace-out",
        Arg.Set_string trace_out,
        "FILE write a Chrome/Perfetto trace (implies recording)" );
    ]
  in
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s))) "attack [options]";
  Telemetry.Cli.setup ~profile:!profile ~trace_out:!trace_out ();
  let scen = Tls.Concrete.default_scenario () in
  let system = Tls.Concrete.system scen in
  let reduction =
    if !por || !symmetry then
      Some (Tls.Concrete.reduction ~por:!por ~symmetry:!symmetry scen)
    else None
  in
  (match reduction with
  | Some _ ->
    Format.printf "reduction: por=%b symmetry=%b@." !por !symmetry
  | None -> Format.printf "reduction: off (full state space)@.");

  (* Sanity witness: the scenario can complete a handshake and a
     resumption. *)
  Format.printf "@.== reachability: completed handshake ==@.";
  (match
     Mc.reachable ~max_states:!max_states ~max_depth:!max_depth ?reduction
       system ~goal:(Tls.Concrete.handshake_complete scen)
   with
  | Some (trace, _) ->
    List.iter (fun l -> Format.printf "  %a@." pp_label l) trace
  | None -> Format.printf "  NOT reachable (scenario too small?)@.");

  ignore
    (check "property 2' (client authentication, full handshake)"
       ~max_states:!max_states ~max_depth:!max_depth ?reduction scen
       [ "cf-authentic", Tls.Concrete.prop_cf_authentic ]);
  ignore
    (check "property 3' (client authentication, resumption)"
       ~max_states:!max_states ~max_depth:!max_depth ?reduction scen
       [ "cf2-authentic", Tls.Concrete.prop_cf2_authentic ]);
  ignore
    (check "properties 1-3 (secrecy + server authentication)"
       ~max_states:!max_states ~max_depth:!max_depth ?reduction scen
       [
         "pms-secrecy", Tls.Concrete.prop_pms_secrecy scen;
         "sf-authentic", Tls.Concrete.prop_sf_authentic;
         "sf2-authentic", Tls.Concrete.prop_sf2_authentic;
       ]);
  Telemetry.Cli.flush ~process_name:"attack" ~profile:!profile
    ~trace_out:!trace_out ()
