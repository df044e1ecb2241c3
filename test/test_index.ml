(* Differential proof harness for the discrimination-tree rule index
   (lib/kernel/index.ml): indexed and linear-scan rule selection must be
   observationally identical — same normal forms, same step counts, same
   traced derivations and certificates — on a small adversarially chosen
   theory, on randomly generated terms, on every spec in specs/, and on
   the TLS / NSPK proof campaigns (sequential and under the sched pool).
   The only permitted difference is speed, which the candidate-ratio and
   corruption tests pin from the other side: the index really does
   exclude rules (a corrupted bucket visibly changes results until the
   selfcheck degrades it to sound full-bucket answers). *)

open Kernel

(* ------------------------------------------------------------------ *)
(* A small theory exercising every bucket kind: plain discrimination
   (ixP/ixM share nothing with each other), a conditional rule, and an
   AC-rooted rule (ixU).  ix-p0 and ix-pz overlap on [ixP(ixZ, ixZ)] and
   their order decides which fires first, so rule order shows in step
   counts and derivations. *)

let nat = Sort.visible "IxNat"
let sg = Signature.create ()
let zop = Signature.declare sg "ixZ" [] nat ~attrs:[ Signature.Ctor ]
let sop = Signature.declare sg "ixS" [ nat ] nat ~attrs:[ Signature.Ctor ]
let plusop = Signature.declare sg "ixP" [ nat; nat ] nat ~attrs:[]
let mulop = Signature.declare sg "ixM" [ nat; nat ] nat ~attrs:[]
let unionop = Signature.declare sg "ixU" [ nat; nat ] nat ~attrs:[ Signature.Ac ]
let iszop = Signature.declare sg "ixIsz" [ nat ] Sort.bool ~attrs:[]
let gateop = Signature.declare sg "ixGate" [ nat ] nat ~attrs:[]
let z = Term.const zop
let s t = Term.app sop [ t ]
let plus a b = Term.app plusop [ a; b ]
let mul a b = Term.app mulop [ a; b ]
let u a b = Term.app unionop [ a; b ]
let isz t = Term.app iszop [ t ]
let gate t = Term.app gateop [ t ]
let vM = Term.var "M" nat
let vN = Term.var "N" nat

let rules =
  [
    Rewrite.rule ~label:"ix-p0" (plus z vN) vN;
    Rewrite.rule ~label:"ix-ps" (plus (s vM) vN) (s (plus vM vN));
    Rewrite.rule ~label:"ix-m0" (mul z vN) z;
    Rewrite.rule ~label:"ix-ms" (mul (s vM) vN) (plus vN (mul vM vN));
    Rewrite.rule ~label:"ix-uz" (u z vN) vN;
    Rewrite.rule ~label:"ix-isz0" (isz z) Term.tt;
    Rewrite.rule ~label:"ix-iszs" (isz (s vM)) Term.ff;
    Rewrite.rule ~cond:(isz vN) ~label:"ix-gate" (gate vN) z;
    Rewrite.rule ~label:"ix-pz" (plus vM z) vM;
  ]

let fresh_indexed () = Rewrite.make rules

let fresh_linear () =
  let sys = Rewrite.make rules in
  Rewrite.set_indexing sys false;
  sys

(* The same rules as a chain of three layers, [c1 @ c2 @ c3 = rules]:
   each extension's rules are tried before its parent's, so the chain
   must behave exactly like the flat system. *)
let fresh_chain ~indexing =
  let c1 = List.filteri (fun i _ -> i < 3) rules
  and c2 = List.filteri (fun i _ -> i >= 3 && i < 6) rules
  and c3 = List.filteri (fun i _ -> i >= 6) rules in
  let sys = Rewrite.extend (Rewrite.extend (Rewrite.make c3) c2) c1 in
  Rewrite.set_indexing sys indexing;
  sys

(* Every way of building the theory's system; each must agree with the
   flat indexed [make] on normal forms, steps and derivations. *)
let fresh_systems () =
  [
    fresh_linear ();
    fresh_chain ~indexing:true;
    fresh_chain ~indexing:false;
    Rewrite.fork (fresh_indexed ());
  ]

(* A derivation as text: every visited term, permutation, applied rule,
   binding, discharged condition and nested step — all a certificate
   records of it apart from the rule set's identity. *)
let rec deriv_sig (d : Rewrite.deriv) =
  let t = Term.to_string in
  match d.Rewrite.d_node with
  | Rewrite.Triv -> "." ^ t d.Rewrite.d_in
  | Rewrite.Dapp { children; perm; step } ->
    String.concat " "
      ([ "("; t d.Rewrite.d_in; "->"; t d.Rewrite.d_out ]
      @ List.map deriv_sig children
      @ (match perm with
        | None -> []
        | Some p -> [ "perm"; String.concat "," (List.map string_of_int p) ])
      @ (match step with
        | None -> []
        | Some st ->
          [
            "[" ^ st.Rewrite.rs_rule.Rewrite.label ^ "]";
            String.concat ","
              (List.map
                 (fun ((v : Term.var), img) -> v.Term.v_name ^ "=" ^ t img)
                 (Subst.bindings st.Rewrite.rs_sub));
            (match st.Rewrite.rs_cond with None -> "-" | Some c -> deriv_sig c);
            deriv_sig st.Rewrite.rs_next;
          ])
      @ [ ")" ])

(* Random ground terms over the theory (depth-bounded). *)
let gen_ground =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then return z
        else
          frequency
            [
              1, return z;
              3, map s (self (n / 2));
              3, map2 plus (self (n / 2)) (self (n / 2));
              2, map2 mul (self (n / 3)) (self (n / 3));
              3, map2 u (self (n / 2)) (self (n / 2));
              1, map gate (self (n / 2));
            ]))

let arb_ground = QCheck.make ~print:Term.to_string gen_ground

(* ------------------------------------------------------------------ *)
(* QCheck: indexed vs linear normalization — identical NFs and steps.   *)

let prop_differential_nf =
  QCheck.Test.make ~name:"indexed and linear normalization agree" ~count:300
    arb_ground (fun t ->
      let si = fresh_indexed () in
      let nfi = Rewrite.normalize si t in
      let steps_i = Rewrite.steps si in
      (* a separate system for the seed reference: [normalize_uncached]
         ticks the same shared step counter, so it needs its own
         accounting *)
      let su = fresh_indexed () in
      let nfu = Rewrite.normalize_uncached su t in
      Term.equal nfi nfu && steps_i = Rewrite.steps su
      && List.for_all
           (fun sys ->
             Term.equal nfi (Rewrite.normalize sys t)
             && steps_i = Rewrite.steps sys)
           (fresh_systems ()))

let prop_differential_traced =
  QCheck.Test.make ~name:"indexed and linear traced runs agree" ~count:150
    arb_ground (fun t ->
      let si = fresh_indexed () in
      let nfi, di = Rewrite.normalize_traced si t in
      let want = deriv_sig di in
      List.for_all
        (fun sys ->
          let nf, d = Rewrite.normalize_traced sys t in
          Term.equal nfi nf
          && Rewrite.steps si = Rewrite.steps sys
          && String.equal want (deriv_sig d))
        (fresh_systems ()))

(* ------------------------------------------------------------------ *)
(* QCheck: never-miss — every rule the matcher fires is a candidate,    *)
(* and candidates come back in rule order.                              *)

let idx = lazy (Index.build ~lhs:(fun (r : Rewrite.rule) -> r.Rewrite.lhs) rules)

let matches (r : Rewrite.rule) t =
  match Term.view r.Rewrite.lhs, Term.view t with
  | Term.App (po, _), Term.App (so, _)
    when Signature.is_ac po && Signature.op_equal po so ->
    Ac.match_first r.Rewrite.lhs t <> None
  | _ -> Matching.match_ r.Rewrite.lhs t <> None

let prop_never_miss =
  QCheck.Test.make ~name:"index never misses a matchable rule" ~count:500
    arb_ground (fun t ->
      let cands = Index.candidates (Lazy.force idx) t in
      List.for_all
        (fun r -> (not (matches r t)) || List.memq r cands)
        rules)

let prop_candidate_order =
  QCheck.Test.make ~name:"candidates preserve rule-insertion order" ~count:300
    arb_ground (fun t ->
      let cands = Index.candidates (Lazy.force idx) t in
      cands = List.filter (fun r -> List.memq r cands) rules)

(* ------------------------------------------------------------------ *)
(* QCheck: AC bucket invariance — shuffled argument orders of the same  *)
(* AC term get the same candidates (canonical-flag invariance).         *)

let prop_ac_shuffle_invariance =
  QCheck.Test.make
    ~name:"AC candidates are invariant under argument shuffles" ~count:300
    (QCheck.triple arb_ground arb_ground arb_ground) (fun (a, b, c) ->
      let names ts = List.map (fun (r : Rewrite.rule) -> r.Rewrite.label)
          (Index.candidates (Lazy.force idx) ts) in
      let shapes =
        [ u a (u b c); u c (u b a); u (u b a) c; Ac.normalize (u a (u b c)) ]
      in
      match List.map names shapes with
      | ref :: rest -> List.for_all (( = ) ref) rest
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* All-specs differential through the evaluator: indexed vs linear must
   agree on every output — normal form, verdict, and (unlike the memo
   comparison in test_differential.ml) the exact step count. *)

let check_spec_indexed (file, path) () =
  let src = Test_differential.read_file path in
  let src = src ^ Test_differential.driver_for src in
  let run ~indexing =
    let env = Cafeobj.Eval.create () in
    Cafeobj.Eval.set_indexing env indexing;
    List.map Test_differential.observe (Cafeobj.Eval.eval_string env src)
  in
  let linear = run ~indexing:false in
  let indexed = run ~indexing:true in
  if linear <> indexed then
    Alcotest.failf "%s: indexed and linear evaluation diverge" file;
  (* and against the seed engine (uncached, linear): identical NFs and
     verdicts; steps may only shrink through the memo *)
  let env = Cafeobj.Eval.create () in
  Cafeobj.Eval.set_uncached env true;
  let seed = List.map Test_differential.observe (Cafeobj.Eval.eval_string env src) in
  List.iter2
    (fun (o : Test_differential.obs) (m : Test_differential.obs) ->
      match o, m with
      | Test_differential.OReduced o, Test_differential.OReduced m ->
        Alcotest.(check string) (file ^ ": nf vs seed") o.nf m.nf;
        Alcotest.(check bool) (file ^ ": verdict vs seed") o.verdict m.verdict
      | a, b ->
        if a <> b then Alcotest.failf "%s: output kinds diverge vs seed" file)
    seed indexed

(* ------------------------------------------------------------------ *)
(* Campaign fingerprints: TLS (both styles) and NSPK/NSL, indexed vs
   linear, sequential and under the sched pool — byte-identical. *)

let with_linear_campaign env f =
  let base = Core.Induction.system env in
  Rewrite.set_default_indexing false;
  Rewrite.set_indexing base false;
  Fun.protect
    ~finally:(fun () ->
      Rewrite.set_default_indexing true;
      Rewrite.set_indexing base true)
    f

let tls_fingerprints ?pool env proofs =
  List.map
    (fun p ->
      Core.Report.result_fingerprint (Proofs.Tls_invariants.run ?pool env p))
    proofs

let test_tls_fingerprints style () =
  let env = Tls.Model.env style in
  let proofs =
    List.map (Proofs.Tls_invariants.find style) [ "inv1"; "esfin-genuine" ]
  in
  let indexed = tls_fingerprints env proofs in
  let linear = with_linear_campaign env (fun () -> tls_fingerprints env proofs) in
  List.iter2
    (Alcotest.(check string) "campaign fingerprint, indexed vs linear")
    indexed linear

let test_tls_fingerprints_pool () =
  Sched.Pool.with_pool ~jobs:2 @@ fun pool ->
  let env = Tls.Model.env Tls.Model.Original in
  let proofs = [ Proofs.Tls_invariants.find Tls.Model.Original "inv1" ] in
  let seq = tls_fingerprints env proofs in
  let par = tls_fingerprints ~pool env proofs in
  let par_linear =
    with_linear_campaign env (fun () -> tls_fingerprints ~pool env proofs)
  in
  List.iter2 (Alcotest.(check string) "pool vs sequential") seq par;
  List.iter2 (Alcotest.(check string) "pool linear vs indexed") seq par_linear

let test_nspk_fingerprints () =
  let module P = Nspk.Symbolic_proofs in
  let module M = Nspk.Symbolic in
  List.iter
    (fun variant ->
      let proof = P.find variant "nonce-secrecy" in
      let fp env = Core.Report.result_fingerprint (P.run ~env variant proof) in
      let env = M.proof_env variant in
      let indexed = fp env in
      let env' = M.proof_env variant in
      let linear = with_linear_campaign env' (fun () -> fp env') in
      Alcotest.(check string) "nonce-secrecy fingerprint" indexed linear)
    [ M.Lowe_fixed; M.Classic ]

(* ------------------------------------------------------------------ *)
(* Certificates: traced runs through the index replay clean through the
   independent checker, and are byte-identical to linear-scan traces. *)

let obligations_cert sys reds =
  let tr = Rewrite.tracer () in
  Rewrite.set_tracer (Some tr);
  Fun.protect ~finally:(fun () -> Rewrite.set_tracer None) (fun () ->
      List.iter (fun t -> ignore (Rewrite.normalize sys t)) reds);
  let b = Analysis.Certgen.create () in
  Analysis.Certgen.add_obligations b (Rewrite.obligations tr);
  Analysis.Certgen.cert b

let check_errors cert = Certify.Check.create cert |> Certify.Check.check_all

let cert_inputs =
  [ plus (s z) (s (s z)); mul (s (s z)) (s z); u (s z) (u z (s z)); gate z ]

let test_cert_identical () =
  let ci = obligations_cert (fresh_indexed ()) cert_inputs in
  let cl = obligations_cert (fresh_linear ()) cert_inputs in
  Alcotest.(check string) "certificates byte-identical"
    (Certify.Cert.to_string cl) (Certify.Cert.to_string ci);
  Alcotest.(check int) "indexed certificate replays clean" 0
    (List.length (check_errors ci))

let test_cert_tls_inv1 () =
  (* the in-process equivalent of `verify --certify | check`, index on *)
  let env = Tls.Model.env Tls.Model.Original in
  let inv1 = Proofs.Tls_invariants.find Tls.Model.Original "inv1" in
  let tr = Rewrite.tracer () in
  Rewrite.set_tracer (Some tr);
  Fun.protect ~finally:(fun () -> Rewrite.set_tracer None) (fun () ->
      ignore (Proofs.Tls_invariants.run env inv1));
  let b = Analysis.Certgen.create () in
  Analysis.Certgen.add_obligations b (Rewrite.obligations tr);
  let cert = Analysis.Certgen.cert b in
  let res = Analysis.Certgen.check cert in
  Alcotest.(check bool) "has obligations" true (res.Analysis.Certgen.obligations > 0);
  (match res.Analysis.Certgen.errors with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "inv1 certificate rejected: %s: %s" e.Certify.Check.e_path
      e.Certify.Check.e_msg)

(* The traced rewriter must record the rule that {e applied}, not echo
   anything about the candidate set: dropping a non-matching rule from
   the index changes the candidates but neither the derivation nor its
   independent replay. *)
let test_trace_records_applied_rule () =
  let sys = fresh_indexed () in
  (* ix-ms (slot 1 of bucket ixM) cannot match [mul z (s z)], and the
     reduct needs no ixM rule at all; dropping it shrinks the candidate
     set to exactly the applicable rule without starving any redex *)
  Alcotest.(check bool) "dropped non-matching slot" true
    (Rewrite.corrupt_index_for_tests sys ~bucket:"ixM" ~slot:1);
  let subject = mul z (s z) in
  let nf, deriv = Rewrite.normalize_traced sys subject in
  Alcotest.(check string) "normal form unaffected" "ixZ" (Term.to_string nf);
  (match deriv.Rewrite.d_node with
  | Rewrite.Dapp { step = Some st; _ } ->
    Alcotest.(check string) "derivation names the applied rule" "ix-m0"
      st.Rewrite.rs_rule.Rewrite.label
  | _ -> Alcotest.fail "expected a root rule step");
  let b = Analysis.Certgen.create () in
  let tr = Rewrite.tracer () in
  Rewrite.set_tracer (Some tr);
  Fun.protect ~finally:(fun () -> Rewrite.set_tracer None) (fun () ->
      Rewrite.clear_cache sys;
      ignore (Rewrite.normalize sys subject));
  Analysis.Certgen.add_obligations b (Rewrite.obligations tr);
  Alcotest.(check int) "tampered-index trace still replays clean" 0
    (List.length (check_errors (Analysis.Certgen.cert b)))

(* ------------------------------------------------------------------ *)
(* Adversarial corruption: dropping the {e matching} rule visibly
   changes results (the index is load-bearing), the selfcheck detects
   it, degrades to full-bucket answers, and invalidates the memo. *)

let test_corruption_detected_tree () =
  let sys = fresh_indexed () in
  let subject = plus z (s z) in
  let want = Rewrite.normalize (fresh_linear ()) subject in
  Alcotest.(check string) "healthy index agrees with linear" (Term.to_string want)
    (Term.to_string (Rewrite.normalize sys subject));
  Alcotest.(check bool) "selfcheck passes while healthy" true
    (Rewrite.selfcheck sys = Ok ());
  Alcotest.(check bool) "dropped the matching slot" true
    (Rewrite.corrupt_index_for_tests sys ~bucket:"ixP" ~slot:0);
  Rewrite.clear_cache sys;
  Rewrite.invalidate_memo sys;
  let broken = Rewrite.normalize sys subject in
  Alcotest.(check bool) "corruption visibly diverges" false
    (Term.equal broken want);
  let gen_before = (Rewrite.memo_stats sys).Rewrite.generation in
  (match Rewrite.selfcheck sys with
  | Error msg ->
    Alcotest.(check bool) "diagnostic names the bucket" true
      (let contains hay needle =
         let lh = String.length hay and ln = String.length needle in
         let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
         go 0
       in
       contains msg "ixP")
  | Ok () -> Alcotest.fail "selfcheck accepted a corrupted index");
  Alcotest.(check bool) "selfcheck invalidated the memo" true
    ((Rewrite.memo_stats sys).Rewrite.generation > gen_before);
  Alcotest.(check bool) "index reports unhealthy" false
    (Rewrite.index_info sys).Index.ix_ok;
  (* degraded index answers with the full bucket: sound again *)
  Alcotest.(check string) "fallback restores the linear result"
    (Term.to_string want)
    (Term.to_string (Rewrite.normalize sys subject))

let test_corruption_detected_ac () =
  let t = Index.build ~lhs:Fun.id [ u z vN ] in
  let subject = u z (s z) in
  Alcotest.(check int) "AC bucket finds its rule" 1
    (List.length (Index.candidates t subject));
  Alcotest.(check bool) "tampered the AC profile" true
    (Index.unsafe_drop_slot t ~bucket:"ixU" ~slot:0);
  Alcotest.(check int) "corrupted AC bucket misses" 0
    (List.length (Index.candidates t subject));
  (match Index.validate t with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "validate accepted a corrupted AC bucket");
  Alcotest.(check bool) "index degraded" false (Index.ok t);
  Alcotest.(check int) "degraded bucket answers in full" 1
    (List.length (Index.candidates t subject))

(* ------------------------------------------------------------------ *)
(* Stats and generation stamping.                                      *)

let test_stats () =
  Index.reset_stats ();
  let sys = fresh_indexed () in
  ignore (Rewrite.normalize sys (mul (s (s z)) (s (s z))));
  let st = Index.stats () in
  Alcotest.(check bool) "queries counted" true (st.Index.queries > 0);
  Alcotest.(check bool) "index filtered rules" true (st.Index.filtered > 0);
  Alcotest.(check int) "no fallbacks while healthy" 0 st.Index.fallbacks;
  Rewrite.set_indexing sys false;
  Rewrite.clear_cache sys;
  ignore (Rewrite.normalize sys (mul (s (s z)) (s (s z))));
  Alcotest.(check bool) "linear selection counts fallbacks" true
    ((Index.stats ()).Index.fallbacks > 0)

let test_generation_stamp () =
  let sys = fresh_indexed () in
  let ii = Rewrite.index_info sys in
  Alcotest.(check int) "index generation is the system uid"
    (Rewrite.info sys).Rewrite.si_uid ii.Index.ix_generation;
  Alcotest.(check int) "all rules compiled" (List.length rules) ii.Index.ix_rules;
  Alcotest.(check bool) "has an AC bucket" true (ii.Index.ix_ac_buckets >= 1);
  let ext =
    Rewrite.extend sys [ Rewrite.rule ~label:"ix-ext" (gate (s vM)) (s vM) ]
  in
  let ie = Rewrite.index_info ext in
  Alcotest.(check bool) "extend rebuilds the index" true
    (ie.Index.ix_generation <> ii.Index.ix_generation);
  Alcotest.(check int) "extended index covers the new rule"
    (List.length rules + 1) ie.Index.ix_rules;
  Alcotest.(check bool) "extend inherits the indexing flag" true
    (Rewrite.indexing ext);
  Rewrite.set_indexing sys false;
  Alcotest.(check bool) "linear extend inherits too" false
    (Rewrite.indexing (Rewrite.extend sys []));
  (* memo invalidation must NOT rebuild the index: the rules are unchanged *)
  Rewrite.invalidate_memo ext;
  Alcotest.(check int) "invalidate_memo leaves the index generation"
    ie.Index.ix_generation (Rewrite.index_info ext).Index.ix_generation

(* A fork shares the base's compiled layers and nothing else: its runs
   leave the base's counters and memo untouched, and its identity is a
   root listing every rule — what [make (rules base)] would record, so
   certificates are the same whichever of the two built the system. *)
let test_fork () =
  let base = fresh_indexed () in
  let fork = Rewrite.fork base in
  let t = mul (s (s z)) (s (s z)) in
  Alcotest.(check string) "fork normalizes like the flat system"
    (Term.to_string (Rewrite.normalize (fresh_linear ()) t))
    (Term.to_string (Rewrite.normalize fork t));
  Alcotest.(check bool) "the fork counted its steps" true
    (Rewrite.steps fork > 0);
  Alcotest.(check int) "base steps untouched" 0 (Rewrite.steps base);
  let ms = Rewrite.memo_stats base in
  Alcotest.(check (list int)) "base memo untouched" [ 0; 0; 0; 0 ]
    [
      ms.Rewrite.hits; ms.Rewrite.misses; ms.Rewrite.entries;
      ms.Rewrite.generation;
    ];
  let fi = Rewrite.info fork in
  Alcotest.(check bool) "fork is a root" true (fi.Rewrite.si_parent = None);
  Alcotest.(check bool) "fork lists every rule of the base, in order" true
    (List.equal ( == ) fi.Rewrite.si_added (Rewrite.rules base));
  Alcotest.(check bool) "fork has its own identity" true
    (fi.Rewrite.si_uid <> (Rewrite.info base).Rewrite.si_uid);
  Alcotest.(check int) "fork shares the base's index"
    (Rewrite.info base).Rewrite.si_uid
    (Rewrite.index_info fork).Index.ix_generation

(* Layers are shared, so corrupting the base's layer corrupts every
   extension of it.  A selfcheck on the extension finds it, invalidates
   the extension's memo and degrades the shared layer — which the base
   then reports too — and the extension is sound again through the
   full-bucket fallback. *)
let test_corruption_shared_layer () =
  let base = fresh_indexed () in
  let subject = plus z (s z) in
  let want = Rewrite.normalize (fresh_linear ()) subject in
  Alcotest.(check bool) "dropped the matching slot of the base" true
    (Rewrite.corrupt_index_for_tests base ~bucket:"ixP" ~slot:0);
  let child =
    Rewrite.extend base [ Rewrite.rule ~label:"ix-ext" (gate (s vM)) (s vM) ]
  in
  Alcotest.(check bool) "the extension inherits the corruption" false
    (Term.equal want (Rewrite.normalize child subject));
  let gen_before = (Rewrite.memo_stats child).Rewrite.generation in
  (match Rewrite.selfcheck child with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "selfcheck missed a corrupted parent layer");
  Alcotest.(check bool) "selfcheck invalidated the extension's memo" true
    ((Rewrite.memo_stats child).Rewrite.generation > gen_before);
  Alcotest.(check bool) "extension reports unhealthy" false
    (Rewrite.index_info child).Index.ix_ok;
  Alcotest.(check bool) "the shared layer is degraded in the base too" false
    (Rewrite.index_info base).Index.ix_ok;
  Alcotest.(check string) "fallback restores the linear result"
    (Term.to_string want)
    (Term.to_string (Rewrite.normalize child subject))

(* ------------------------------------------------------------------ *)
(* Regression: the runner's per-suite footer must not let suites that
   ran zero tests skew the slowest-first ordering (satellite fix). *)

let entry name runs ns = { Timing.e_name = name; e_runs = runs; e_ns = ns }

let test_timing_order () =
  let ran, skipped =
    Timing.order
      [ entry "fast" 3 5; entry "empty" 0 0; entry "slow" 1 9; entry "zip" 0 0 ]
  in
  Alcotest.(check (list string)) "slowest first, zero-run suites excluded"
    [ "slow"; "fast" ]
    (List.map (fun e -> e.Timing.e_name) ran);
  Alcotest.(check (list string)) "zero-run suites listed apart, in order"
    [ "empty"; "zip" ] skipped

let test_timing_render () =
  let out =
    Timing.render [ entry "a" 1 2_000_000_000; entry "none" 0 0; entry "b" 2 3_500_000_000 ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "b before a" true
    (List.exists (fun l -> String.length l > 3 && String.trim l <> "" && l.[2] = 'b') lines
     &&
     let pos name =
       let rec go i = function
         | [] -> max_int
         | l :: rest ->
           if String.trim l <> "" && String.length (String.trim l) > 0
              && String.split_on_char ' ' (String.trim l) |> List.hd = name
           then i
           else go (i + 1) rest
       in
       go 0 lines
     in
     pos "b" < pos "a");
  Alcotest.(check bool) "never-run suite is not a timed row" true
    (not (List.exists (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | "none" :: _ -> true
         | _ -> false)
        lines));
  Alcotest.(check bool) "never-run suite is reported apart" true
    (List.exists (fun l ->
         String.trim l = "(no tests run: none)")
        lines)

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  List.map
    (QCheck_alcotest.to_alcotest ?verbose:None ?long:None)
    [
      prop_differential_nf;
      prop_differential_traced;
      prop_never_miss;
      prop_candidate_order;
      prop_ac_shuffle_invariance;
    ]

let suite =
  ( "index",
    qcheck_tests
    @ List.map
        (fun spec ->
          Alcotest.test_case
            ("indexed vs linear: " ^ fst spec)
            `Quick (check_spec_indexed spec))
        (Test_differential.all_specs ())
    @ [
        Alcotest.test_case "TLS fingerprints (original)" `Slow
          (test_tls_fingerprints Tls.Model.Original);
        Alcotest.test_case "TLS fingerprints (variant)" `Slow
          (test_tls_fingerprints Tls.Model.Cf2First);
        Alcotest.test_case "TLS fingerprints under the pool" `Slow
          test_tls_fingerprints_pool;
        Alcotest.test_case "NSPK/NSL fingerprints" `Slow test_nspk_fingerprints;
        Alcotest.test_case "certificates byte-identical" `Quick
          test_cert_identical;
        Alcotest.test_case "TLS inv1 certificate replays clean" `Slow
          test_cert_tls_inv1;
        Alcotest.test_case "trace records the applied rule" `Quick
          test_trace_records_applied_rule;
        Alcotest.test_case "corruption detected (tree bucket)" `Quick
          test_corruption_detected_tree;
        Alcotest.test_case "corruption detected (AC bucket)" `Quick
          test_corruption_detected_ac;
        Alcotest.test_case "query stats" `Quick test_stats;
        Alcotest.test_case "generation stamping" `Quick test_generation_stamp;
        Alcotest.test_case "fork shares layers only" `Quick test_fork;
        Alcotest.test_case "corruption in a shared layer" `Quick
          test_corruption_shared_layer;
        Alcotest.test_case "timing footer ordering" `Quick test_timing_order;
        Alcotest.test_case "timing footer rendering" `Quick test_timing_render;
      ] )
