(* Tests of the statically certified state-space reduction: the ample-set
   partial-order reduction and symmetry canonization (Analysis.Indep /
   Analysis.Symmetry wired into Mc via Nspk.reduction and
   Tls.Concrete.reduction).

   The load-bearing property is differential: on the same system, bounds
   and properties, the reduced search must reach the same verdict — same
   outcome constructor, same violated property when there is one — while
   exploring strictly fewer states.  The static certificates behind the
   ample sets and symmetry classes must replay cleanly through the
   independent checkers, and tampered certificates must be rejected with a
   breadcrumb. *)

module Sexp = Certify.Sexp
module Indep = Analysis.Indep
module Symmetry = Analysis.Symmetry

(* Lazy for the same reason as test_mc: building a concrete scenario
   extends the shared generated specs, which must not happen at
   module-init time (the analysis suite lints the pristine spec). *)
let nsl_scen_l = lazy (Nspk.default_scenario Nspk.Lowe_fixed)
let nspk_scen_l = lazy (Nspk.default_scenario Nspk.Classic)
let tls_scen_l = lazy (Tls.Concrete.default_scenario ())

let tls_variant_scen_l =
  lazy
    { (Tls.Concrete.default_scenario ()) with Tls.Concrete.style = Tls.Model.Cf2First }

(* The observable part of an outcome that reduction must preserve: the
   constructor, and the property name when there is a violation.  Depth
   and trace length may legitimately shrink (compound steps compress
   several ample transitions into one BFS level). *)
let verdict = function
  | Mc.No_violation _ -> "no-violation"
  | Mc.Out_of_bounds _ -> "out-of-bounds"
  | Mc.Violation (v, _) -> "violation:" ^ v.Mc.property

(* ------------------------------------------------------------------ *)
(* Exact reduction bar on NSL (the ISSUE acceptance criterion)          *)

let test_nsl_reduction_bar () =
  let scen = Lazy.force nsl_scen_l in
  let system = Nspk.system scen in
  let props = [ "responder-agreement", Nspk.responder_agreement ] in
  let full = Mc.bfs ~max_states:60_000 ~max_depth:8 system ~props in
  let red =
    Mc.bfs ~max_states:60_000 ~max_depth:8 ~reduction:(Nspk.reduction scen)
      system ~props
  in
  Alcotest.(check string) "same verdict" (verdict full) (verdict red);
  match full, red with
  | Mc.Out_of_bounds fs, Mc.Out_of_bounds rs ->
    Alcotest.(check bool)
      (Printf.sprintf "reduced %d states <= 1/3 of full %d"
         rs.Mc.states_explored fs.Mc.states_explored)
      true
      (rs.Mc.states_explored * 3 <= fs.Mc.states_explored);
    Alcotest.(check bool) "pruning happened" true (rs.Mc.states_pruned > 0);
    Alcotest.(check int) "full search prunes nothing" 0 fs.Mc.states_pruned
  | _ -> Alcotest.fail "expected out-of-bounds on both searches"

(* Violations must survive the reduction with the same property (Lowe's
   attack on classic NSPK, both properties). *)
let test_nspk_attacks_preserved () =
  let scen = Lazy.force nspk_scen_l in
  let system = Nspk.system scen in
  let red = Nspk.reduction scen in
  List.iter
    (fun (bound_d, name, prop) ->
      let props = [ name, prop ] in
      let full = Mc.bfs ~max_states:30_000 ~max_depth:bound_d system ~props in
      let reduced =
        Mc.bfs ~max_states:30_000 ~max_depth:bound_d ~reduction:red system
          ~props
      in
      Alcotest.(check string) (name ^ " verdict") (verdict full) (verdict reduced);
      match full, reduced with
      | Mc.Violation (_, fs), Mc.Violation (_, rs) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: reduced %d < full %d states" name
             rs.Mc.states_explored fs.Mc.states_explored)
          true
          (rs.Mc.states_explored < fs.Mc.states_explored)
      | _ -> Alcotest.fail (name ^ ": expected a violation on both"))
    [
      7, "responder-agreement", Nspk.responder_agreement;
      5, "nonce-secrecy", Nspk.nonce_secrecy;
    ]

(* ------------------------------------------------------------------ *)
(* QCheck differential: full vs reduced across random bounds/props      *)

(* Under a depth bound the two searches need not agree verbatim: compound
   steps compress several transitions into one BFS level, so the reduced
   search may find a (real) violation the bounded full search has not
   reached yet, and the conservative Out_of_bounds downgrade may replace
   a full-search No_violation.  What must NEVER happen: the reduced
   search misses a violation the full search found, invents a violation
   over a space the full search exhausted clean, or disagrees on which
   property broke. *)
let compatible full reduced =
  match full, reduced with
  | Mc.Violation (v, _), Mc.Violation (v', _) ->
    String.equal v.Mc.property v'.Mc.property
  | Mc.Violation _, _ -> false (* reduction lost a violation *)
  | Mc.No_violation _, Mc.Violation _ -> false (* invented a violation *)
  | Mc.Out_of_bounds _, Mc.Violation _ -> true (* found earlier, compressed *)
  | (Mc.No_violation _ | Mc.Out_of_bounds _),
    (Mc.No_violation _ | Mc.Out_of_bounds _) ->
    true

let nsl_props =
  [
    "responder-agreement", Nspk.responder_agreement;
    "nonce-secrecy", Nspk.nonce_secrecy;
  ]

let gen_nspk_case =
  QCheck.Gen.(
    triple (int_range 2 6) (int_range 0 1) (oneofl [ `Classic; `Lowe ]))

let print_nspk_case (depth, pi, v) =
  Printf.sprintf "depth=%d prop=%s variant=%s" depth
    (fst (List.nth nsl_props pi))
    (match v with `Classic -> "classic" | `Lowe -> "lowe")

let prop_nspk_differential =
  QCheck.Test.make ~name:"nspk/nsl: reduced bfs verdict compatible with full"
    ~count:8
    (QCheck.make ~print:print_nspk_case gen_nspk_case)
    (fun (depth, pi, v) ->
      let scen =
        match v with
        | `Classic -> Lazy.force nspk_scen_l
        | `Lowe -> Lazy.force nsl_scen_l
      in
      let system = Nspk.system scen in
      let props = [ List.nth nsl_props pi ] in
      let full = Mc.bfs ~max_states:15_000 ~max_depth:depth system ~props in
      let red =
        Mc.bfs ~max_states:15_000 ~max_depth:depth
          ~reduction:(Nspk.reduction scen) system ~props
      in
      compatible full red)

let tls_props scen =
  [
    "cf-authentic", Tls.Concrete.prop_cf_authentic;
    "sf-authentic", Tls.Concrete.prop_sf_authentic;
    "pms-secrecy", Tls.Concrete.prop_pms_secrecy scen;
  ]

let gen_tls_case =
  QCheck.Gen.(
    triple (int_range 2 4) (int_range 0 2) (oneofl [ `Original; `Variant ]))

let print_tls_case (depth, pi, s) =
  Printf.sprintf "depth=%d prop=%d style=%s" depth pi
    (match s with `Original -> "original" | `Variant -> "cf2first")

let prop_tls_differential =
  QCheck.Test.make ~name:"tls: reduced bfs verdict compatible with full"
    ~count:6
    (QCheck.make ~print:print_tls_case gen_tls_case)
    (fun (depth, pi, s) ->
      let scen =
        match s with
        | `Original -> Lazy.force tls_scen_l
        | `Variant -> Lazy.force tls_variant_scen_l
      in
      let system = Tls.Concrete.system scen in
      let props = [ List.nth (tls_props scen) pi ] in
      let full = Mc.bfs ~max_states:5_000 ~max_depth:depth system ~props in
      let red =
        Mc.bfs ~max_states:5_000 ~max_depth:depth
          ~reduction:(Tls.Concrete.reduction scen) system ~props
      in
      compatible full red)

(* ------------------------------------------------------------------ *)
(* par_bfs under reduction mirrors bfs byte for byte                    *)

(* [reduction ()] gives each search a fresh canonizer: in the parallel one
   its term-image memo, like the state keys' printed-term memo, starts
   empty and is filled on the pool's domains. *)
let test_par_bfs_reduction_agrees () =
  Sched.Pool.with_pool ~jobs:2 @@ fun pool ->
  let check_system name system reduction ~pp ~props ~max_depth =
    let seq = Mc.bfs ~max_states:20_000 ~max_depth ~reduction:(reduction ()) system ~props in
    let par =
      Mc.par_bfs ~max_states:20_000 ~max_depth ~reduction:(reduction ()) ~pool system ~props
    in
    Alcotest.(check string) (name ^ " verdict") (verdict seq) (verdict par);
    let s = Mc.outcome_stats seq and p = Mc.outcome_stats par in
    Alcotest.(check int) (name ^ " states") s.Mc.states_explored p.Mc.states_explored;
    Alcotest.(check int) (name ^ " transitions") s.Mc.transitions_fired p.Mc.transitions_fired;
    Alcotest.(check int) (name ^ " pruned") s.Mc.states_pruned p.Mc.states_pruned;
    Alcotest.(check int) (name ^ " depth") s.Mc.max_depth p.Mc.max_depth;
    match seq, par with
    | Mc.Violation (v, _), Mc.Violation (v', _) ->
      Alcotest.(check (list string))
        (name ^ " trace")
        (List.map (Format.asprintf "%a" pp) v.Mc.trace)
        (List.map (Format.asprintf "%a" pp) v'.Mc.trace)
    | _ -> ()
  in
  let nsl = Lazy.force nsl_scen_l in
  check_system "nsl" (Nspk.system nsl) (fun () -> Nspk.reduction nsl) ~pp:Nspk.pp_label
    ~props:[ "responder-agreement", Nspk.responder_agreement ]
    ~max_depth:6;
  let nspk = Lazy.force nspk_scen_l in
  check_system "nspk" (Nspk.system nspk) (fun () -> Nspk.reduction nspk) ~pp:Nspk.pp_label
    ~props:[ "responder-agreement", Nspk.responder_agreement ]
    ~max_depth:7;
  let tls = Lazy.force tls_scen_l in
  check_system "tls" (Tls.Concrete.system tls) (fun () -> Tls.Concrete.reduction tls)
    ~pp:Tls.Concrete.pp_label
    ~props:[ "cf-authentic", Tls.Concrete.prop_cf_authentic ]
    ~max_depth:4;
  (* the property sweep holds to depth 5, so the whole reduced space is
     canonized, most of it on the worker *)
  check_system "tls sweep" (Tls.Concrete.system tls) (fun () -> Tls.Concrete.reduction tls)
    ~pp:Tls.Concrete.pp_label
    ~props:
      [
        "pms-secrecy", Tls.Concrete.prop_pms_secrecy tls;
        "sf-authentic", Tls.Concrete.prop_sf_authentic;
        "sf2-authentic", Tls.Concrete.prop_sf2_authentic;
      ]
    ~max_depth:5

(* ------------------------------------------------------------------ *)
(* Canonization is idempotent (orbit minimization)                      *)

(* Collect a few BFS levels of raw (uncanonized) states. *)
let sample_states system ~depth ~limit =
  let out = ref [] and n = ref 0 in
  let rec go s d =
    if !n < limit then begin
      incr n;
      out := s :: !out;
      if d < depth then
        List.iter (fun (_, s') -> go s' (d + 1)) (system.Mc.next s)
    end
  in
  go system.Mc.initial 0;
  !out

let check_canon_idempotent name printed_key (red : (_, _) Mc.reduction) states =
  List.iteri
    (fun i s ->
      let c = red.Mc.canon s in
      let cc = red.Mc.canon c in
      Alcotest.(check string)
        (Printf.sprintf "%s state %d: canon(canon s) = canon s" name i)
        (printed_key c) (printed_key cc))
    states

let test_canon_idempotent () =
  let nsl = Lazy.force nsl_scen_l in
  let nsys = Nspk.system nsl in
  check_canon_idempotent "nsl" Nspk.printed_key (Nspk.reduction nsl)
    (sample_states nsys ~depth:3 ~limit:300);
  let tls = Lazy.force tls_scen_l in
  let tsys = Tls.Concrete.system tls in
  check_canon_idempotent "tls" Tls.Concrete.printed_key (Tls.Concrete.reduction tls)
    (sample_states tsys ~depth:2 ~limit:60)

(* ------------------------------------------------------------------ *)
(* Mc's search against a reference that merges states by printed keys  *)

(* The reference: Mc's search written plainly, on one domain, with its
   seen table keyed by the models' printed keys.  Each frontier state, in
   order, is checked against the state bound, expanded (under a
   reduction: the compound chase over the ample successors, then the
   other successors canonized) and its successors merged at once; the
   first new state that violates a property, in the order the properties
   are listed, ends the search.  [on_state] sees every merged state. *)
exception Ref_stop of string * string * int

let ref_search ?(max_states = 1_000_000) ?(max_depth = max_int) ?reduction
    ?(on_state = ignore) ~printed_key system ~props =
  let red =
    Option.value reduction ~default:{ Mc.ample = (fun _ -> false); canon = Fun.id }
  in
  let seen = Hashtbl.create 4096 in
  let states = ref 0 and transitions = ref 0 and pruned = ref 0 and deepest = ref 0 in
  let complete = ref true and compound = ref false and frontier = ref [] in
  let violated s = List.find_map (fun (name, p) -> if p s then None else Some name) props in
  let rec trace k acc =
    match Hashtbl.find seen k with
    | None, _ -> acc
    | Some parent, via -> trace parent (via @ acc)
  in
  let merge s parent via depth =
    let k = printed_key s in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k (parent, via);
      incr states;
      deepest := max !deepest depth;
      on_state s;
      Option.iter (fun name -> raise (Ref_stop (name, k, depth))) (violated s);
      if depth < max_depth then frontier := (s, k, depth) :: !frontier else complete := false
    end
  in
  let rec chase s k labels n =
    let step (a, s') =
      if not (red.Mc.ample a) then None
      else
        let s' = red.Mc.canon s' in
        let k' = printed_key s' in
        if String.equal k' k then None else Some (a, s', k')
    in
    match if n >= 256 then None else List.find_map step (system.Mc.next s) with
    | None -> List.rev labels, s, k
    | Some (a, s', k') ->
      if Option.is_some (violated s') then List.rev (a :: labels), s', k'
      else chase s' k' (a :: labels) (n + 1)
  in
  let expand (s, k, depth) =
    if !states > max_states then complete := false
    else begin
      let amples, others =
        List.partition (fun (a, _) -> red.Mc.ample a) (system.Mc.next s)
      in
      if amples <> [] then begin
        let labels, s', k' = chase s k [] 0 in
        if String.equal k' k then pruned := !pruned + List.length amples
        else begin
          incr transitions;
          compound := true;
          pruned := !pruned + List.length amples - 1;
          merge s' (Some k) labels (depth + 1)
        end
      end;
      List.iter
        (fun (a, s') ->
          incr transitions;
          merge (red.Mc.canon s') (Some k) [ a ] (depth + 1))
        others
    end
  in
  let stats () = !states, !transitions, !pruned, !deepest in
  match
    merge (red.Mc.canon system.Mc.initial) None [] 0;
    while !frontier <> [] do
      let level = List.rev !frontier in
      frontier := [];
      List.iter expand level
    done
  with
  | () ->
    if !complete && not (!compound && max_depth < max_int) then `No_violation (stats ())
    else `Out_of_bounds (stats ())
  | exception Ref_stop (name, k, depth) -> `Violation (name, trace k [], depth, stats ())

(* An outcome of Mc in the reference's shape. *)
let of_outcome outcome =
  let st = Mc.outcome_stats outcome in
  let stats =
    st.Mc.states_explored, st.Mc.transitions_fired, st.Mc.states_pruned, st.Mc.max_depth
  in
  match outcome with
  | Mc.No_violation _ -> `No_violation stats
  | Mc.Out_of_bounds _ -> `Out_of_bounds stats
  | Mc.Violation (v, _) -> `Violation (v.Mc.property, v.Mc.trace, v.Mc.depth, stats)

(* What the reference and Mc must agree on: the outcome, the violated
   property, its depth and its trace as [pp] prints it, and the state,
   transition and pruned counts and the depth reached. *)
let print_outcome pp = function
  | `No_violation (s, t, p, d) -> Printf.sprintf "no violation %d/%d/%d/%d" s t p d
  | `Out_of_bounds (s, t, p, d) -> Printf.sprintf "out of bounds %d/%d/%d/%d" s t p d
  | `Violation (name, trace, depth, (s, t, p, d)) ->
    Printf.sprintf "violation of %s at depth %d %d/%d/%d/%d:\n%s" name depth s t p d
      (String.concat "\n" (List.map (Format.asprintf "%a" pp) trace))

(* [reduction ()] gives each search a fresh canonizer, as in
   [test_par_bfs_reduction_agrees]. *)
let test_keys_against_printed_reference () =
  Sched.Pool.with_pool ~jobs:2 @@ fun pool ->
  let check name ?max_states ?max_depth ?reduction ~printed_key ~pp system props =
    let fresh () = Option.map (fun r -> r ()) reduction in
    let expected =
      ref_search ?max_states ?max_depth ?reduction:(fresh ()) ~printed_key system ~props
    in
    let seq = Mc.bfs ?max_states ?max_depth ?reduction:(fresh ()) system ~props in
    let par = Mc.par_bfs ?max_states ?max_depth ?reduction:(fresh ()) ~pool system ~props in
    List.iter
      (fun (engine, o) ->
        Alcotest.(check string)
          (Printf.sprintf "%s: %s" name engine)
          (print_outcome pp expected)
          (print_outcome pp (of_outcome o)))
      [ "bfs", seq; "par_bfs", par ]
  in
  let tls = Lazy.force tls_scen_l in
  let tsys = Tls.Concrete.system tls in
  let tls_check name ?max_states ?max_depth ?reduction props =
    check name ?max_states ?max_depth ?reduction ~printed_key:Tls.Concrete.printed_key
      ~pp:Tls.Concrete.pp_label tsys props
  in
  tls_check "tls 2' unreduced" ~max_states:20_000 ~max_depth:6
    [ "cf-authentic", Tls.Concrete.prop_cf_authentic ];
  tls_check "tls 3' unreduced" ~max_states:3_000 ~max_depth:6
    [ "cf2-authentic", Tls.Concrete.prop_cf2_authentic ];
  tls_check "tls sweep reduced" ~max_states:20_000 ~max_depth:5
    ~reduction:(fun () -> Tls.Concrete.reduction tls)
    [
      "pms-secrecy", Tls.Concrete.prop_pms_secrecy tls;
      "sf-authentic", Tls.Concrete.prop_sf_authentic;
      "sf2-authentic", Tls.Concrete.prop_sf2_authentic;
    ];
  List.iter
    (fun (name, scen, max_states, max_depth, props) ->
      let nsys = Nspk.system scen in
      let nspk_check name ?reduction props =
        check name ~max_states ~max_depth ?reduction ~printed_key:Nspk.printed_key
          ~pp:Nspk.pp_label nsys props
      in
      nspk_check (name ^ " unreduced") props;
      nspk_check (name ^ " reduced") ~reduction:(fun () -> Nspk.reduction scen) props)
    [
      ( "nspk", Lazy.force nspk_scen_l, 20_000, 7,
        [ "responder-agreement", Nspk.responder_agreement ] );
      "nsl", Lazy.force nsl_scen_l, 5_000, 6, nsl_props;
    ]

(* Oops transitions have no symbolic counterpart, so POR must stay off
   for oops scenarios — the reduction degenerates to symmetry only. *)
let test_oops_disables_por () =
  let scen =
    { (Lazy.force tls_scen_l) with Tls.Concrete.oops = true }
  in
  let system = Tls.Concrete.system scen in
  let props = [ "sf-authentic", Tls.Concrete.prop_sf_authentic ] in
  let full = Mc.bfs ~max_states:5_000 ~max_depth:3 system ~props in
  let red =
    Mc.bfs ~max_states:5_000 ~max_depth:3
      ~reduction:(Tls.Concrete.reduction scen) system ~props
  in
  Alcotest.(check string) "same verdict" (verdict full) (verdict red);
  Alcotest.(check int) "no ample pruning under oops" 0
    (Mc.outcome_stats red).Mc.states_pruned

(* ------------------------------------------------------------------ *)
(* Certificates: clean replay and tamper rejection                      *)

let nsl_indep_l =
  lazy
    (match Nspk.independence Nspk.Lowe_fixed with
    | Some r -> r
    | None -> Alcotest.fail "no independence result for NSL")

let test_indep_cert_replays_nsl () =
  let r = Lazy.force nsl_indep_l in
  let spec = Nspk.Symbolic.gen_spec Nspk.Lowe_fixed in
  match Indep.check spec (Indep.certificate r) with
  | Ok (pairs, claims) ->
    Alcotest.(check bool) "some pairs" true (pairs > 0);
    Alcotest.(check bool) "claims outnumber pairs" true (claims >= pairs)
  | Error crumb -> Alcotest.fail ("NSL certificate rejected: " ^ crumb)

let test_indep_cert_replays_tls () =
  List.iter
    (fun (name, style) ->
      match Tls.Concrete.independence style with
      | None -> Alcotest.fail (name ^ ": no independence result")
      | Some r -> (
        match Indep.check (Tls.Model.spec style) (Indep.certificate r) with
        | Ok (pairs, _) ->
          Alcotest.(check bool) (name ^ ": some pairs") true (pairs > 0)
        | Error crumb ->
          Alcotest.fail (name ^ " certificate rejected: " ^ crumb)))
    [ "tls-original", Tls.Model.Original; "tls-variant", Tls.Model.Cf2First ]

(* The cached reductions' independence results, pinned byte for byte: the
   certificate (hypotheses and both sides of every claim of every
   independent pair) and, since the certificate records no join status,
   a digest of every claim's [cl_status] over all pairs.  A change to the
   boolean ring, the overlap enumeration or the join machinery that moves
   one verdict or one recorded term fails here. *)
let status_string = function
  | Analysis.Confluence.Syntactic -> "syn"
  | Analysis.Confluence.Semantic -> "sem"
  | Analysis.Confluence.Undecided -> "und"
  | Analysis.Confluence.Unjoinable (l, r) ->
    "unj " ^ Kernel.Term.to_string l ^ " / " ^ Kernel.Term.to_string r

let md5 s = Digest.to_hex (Digest.string s)

let test_indep_oracles_pinned () =
  List.iter
    (fun (name, result, pairs, cert_md5, status_md5) ->
      match Lazy.force result with
      | None -> Alcotest.failf "%s: no independence result" name
      | Some (r : Indep.result) ->
        Alcotest.(check (pair int int))
          (name ^ " pairs independent") pairs
          (r.Indep.r_independent, r.Indep.r_total);
        Alcotest.(check string)
          (name ^ " certificate md5") cert_md5
          (md5 (Sexp.to_string (Indep.certificate r)));
        let statuses =
          List.concat_map
            (fun (p : Indep.pair) ->
              List.map (fun (c : Indep.claim) -> status_string c.Indep.cl_status) p.Indep.p_claims)
            r.Indep.r_pairs
        in
        Alcotest.(check string)
          (name ^ " claim status md5") status_md5
          (md5 (String.concat "\n" statuses)))
    [
      ( "TLS Original", lazy (Tls.Concrete.independence Tls.Model.Original), (300, 300),
        "7068ff8730bed8f06a948f44db53fc6e", "98f56cd69cec14de50b6c42d4e3ef4ce" );
      ( "TLS Cf2First", lazy (Tls.Concrete.independence Tls.Model.Cf2First), (300, 300),
        "023bc0a8a0dc53b0a69a5fde84be3283", "95424b24cd459b53556a333e699e50ec" );
      ( "NSPK classic", lazy (Nspk.independence Nspk.Classic), (39, 39),
        "d345b103e35446ef10a6a03a0230b8a5", "f3a4d0f75ce56eca6bd77e7ced1ebcf3" );
      ( "NSL", lazy (Nspk.independence Nspk.Lowe_fixed), (39, 39),
        "b660b8efc7eed105f0c10f39080c585d", "f3a4d0f75ce56eca6bd77e7ced1ebcf3" );
    ]

(* Replace the first claim's left-hand term with a wrong one; the checker
   must reject with a breadcrumb locating the forged claim. *)
let rec tamper_left = function
  | Sexp.List [ Sexp.Atom "left"; _ ] ->
    Sexp.List [ Sexp.Atom "left"; Sexp.Atom "true" ], true
  | Sexp.Atom _ as a -> a, false
  | Sexp.List xs ->
    let xs, changed =
      List.fold_left
        (fun (acc, ch) x ->
          if ch then x :: acc, ch
          else
            let x', ch' = tamper_left x in
            x' :: acc, ch')
        ([], false) xs
    in
    Sexp.List (List.rev xs), changed

let test_indep_cert_forged_rejected () =
  let r = Lazy.force nsl_indep_l in
  let spec = Nspk.Symbolic.gen_spec Nspk.Lowe_fixed in
  let forged, changed = tamper_left (Indep.certificate r) in
  Alcotest.(check bool) "tamper found a claim" true changed;
  match Indep.check spec forged with
  | Ok _ -> Alcotest.fail "forged certificate accepted"
  | Error crumb ->
    Alcotest.(check bool)
      (Printf.sprintf "breadcrumb locates the pair: %s" crumb)
      true
      (String.length crumb > 0
      && List.exists
           (fun needle ->
             (* substring check, no Str dependency *)
             let nl = String.length needle and cl = String.length crumb in
             let rec at i = i + nl <= cl && (String.sub crumb i nl = needle || at (i + 1)) in
             at 0)
           [ "pair" ])

let test_symmetry_cert_replays () =
  let sym = Nspk.symmetries Nspk.Lowe_fixed in
  let spec = Nspk.Symbolic.gen_spec Nspk.Lowe_fixed in
  match Symmetry.check spec (Symmetry.certificate sym) with
  | Ok n ->
    Alcotest.(check int) "every class replayed" (List.length sym.Symmetry.y_classes) n
  | Error crumb -> Alcotest.fail ("symmetry certificate rejected: " ^ crumb)

(* Smuggle a pinned (asymmetric) constant into a claimed class: some
   transposition now breaks a rule and the checker must say which. *)
let rec smuggle_elem name = function
  | Sexp.List (Sexp.Atom "elems" :: es) ->
    Sexp.List (Sexp.Atom "elems" :: Sexp.Atom name :: es), true
  | Sexp.Atom _ as a -> a, false
  | Sexp.List xs ->
    let xs, changed =
      List.fold_left
        (fun (acc, ch) x ->
          if ch then x :: acc, ch
          else
            let x', ch' = smuggle_elem name x in
            x' :: acc, ch')
        ([], false) xs
    in
    Sexp.List (List.rev xs), changed

let test_symmetry_cert_forged_rejected () =
  let sym = Nspk.symmetries Nspk.Lowe_fixed in
  let spec = Nspk.Symbolic.gen_spec Nspk.Lowe_fixed in
  match sym.Symmetry.y_pinned, sym.Symmetry.y_classes with
  | [], _ | _, [] ->
    Alcotest.fail "expected at least one pinned constant and one class"
  | (pinned, _) :: _, _ ->
    let forged, changed =
      smuggle_elem pinned.Kernel.Signature.name (Symmetry.certificate sym)
    in
    Alcotest.(check bool) "smuggled into a class" true changed;
    (match Symmetry.check spec forged with
    | Ok _ -> Alcotest.fail "forged symmetry certificate accepted"
    | Error crumb ->
      Alcotest.(check bool)
        (Printf.sprintf "breadcrumb non-empty: %s" crumb)
        true
        (String.length crumb > 0))

let qcheck_cases =
  List.map
    (QCheck_alcotest.to_alcotest ?verbose:None ?long:None)
    [ prop_nspk_differential; prop_tls_differential ]

let tests =
  [
    "nsl reduction bar (<= 1/3 states)", `Quick, test_nsl_reduction_bar;
    "nspk attacks preserved", `Quick, test_nspk_attacks_preserved;
    "par_bfs agrees under reduction", `Quick, test_par_bfs_reduction_agrees;
    "canon idempotent", `Quick, test_canon_idempotent;
    "searches match a reference keyed by printed keys", `Quick,
    test_keys_against_printed_reference;
    "oops disables por", `Quick, test_oops_disables_por;
    "indep cert replays (nsl)", `Quick, test_indep_cert_replays_nsl;
    "indep cert replays (tls both styles)", `Quick, test_indep_cert_replays_tls;
    "indep forged cert rejected", `Quick, test_indep_cert_forged_rejected;
    "indep oracles pinned", `Quick, test_indep_oracles_pinned;
    "symmetry cert replays", `Quick, test_symmetry_cert_replays;
    "symmetry forged cert rejected", `Quick, test_symmetry_cert_forged_rejected;
  ]
  @ qcheck_cases

let suite = "mc-reduction", tests
