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

let check_canon_idempotent name system (red : (_, _) Mc.reduction) states =
  List.iteri
    (fun i s ->
      let c = red.Mc.canon s in
      let cc = red.Mc.canon c in
      Alcotest.(check string)
        (Printf.sprintf "%s state %d: canon(canon s) = canon s" name i)
        (system.Mc.key c) (system.Mc.key cc))
    states

let test_canon_idempotent () =
  let nsl = Lazy.force nsl_scen_l in
  let nsys = Nspk.system nsl in
  check_canon_idempotent "nsl" nsys (Nspk.reduction nsl)
    (sample_states nsys ~depth:3 ~limit:300);
  let tls = Lazy.force tls_scen_l in
  let tsys = Tls.Concrete.system tls in
  check_canon_idempotent "tls" tsys (Tls.Concrete.reduction tls)
    (sample_states tsys ~depth:2 ~limit:60)

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
