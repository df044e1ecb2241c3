open Kernel
module D = Tls.Data
module Spec = Cafeobj.Spec
module Datatype = Cafeobj.Datatype

type variant = Nspk_model.variant = Classic | Lowe_fixed

(* ------------------------------------------------------------------ *)
(* Protocol data: own constructors, shared Prin/Rand/PubKey sorts. *)

let spec = Spec.create ~imports:[ D.spec ] "NSPK-DATA"
let nenc1 = Spec.declare_sort spec "NEnc1"
let nenc2 = Spec.declare_sort spec "NEnc2"
let nenc3 = Spec.declare_sort spec "NEnc3"
let nmsg = Spec.declare_sort spec "NMsg"

let enc1_op =
  Datatype.declare_ctor spec ~sort:nenc1 "nspk-enc1"
    [ "e1-key", D.pub_key; "e1-nonce", D.rand; "e1-prin", D.prin ]

(* The classic message 2 {Na,Nb}pk and Lowe's fix {Na,Nb,B}pk share a
   constructor; the classic variant stores the responder slot as [ca] (a
   principal that never participates), which models "field absent". *)
let enc2_op =
  Datatype.declare_ctor spec ~sort:nenc2 "nspk-enc2"
    [
      "e2-key", D.pub_key; "e2-nonce1", D.rand; "e2-nonce2", D.rand;
      "e2-prin", D.prin;
    ]

let enc3_op =
  Datatype.declare_ctor spec ~sort:nenc3 "nspk-enc3"
    [ "e3-key", D.pub_key; "e3-nonce", D.rand ]

let hdr = [ "crt", D.prin; "src", D.prin; "dst", D.prin ]

let nm1_op =
  Datatype.declare_ctor spec ~sort:nmsg "nm1" (hdr @ [ "nm1-enc", nenc1 ])

let nm2_op =
  Datatype.declare_ctor spec ~sort:nmsg "nm2" (hdr @ [ "nm2-enc", nenc2 ])

let nm3_op =
  Datatype.declare_ctor spec ~sort:nmsg "nm3" (hdr @ [ "nm3-enc", nenc3 ])

let () = List.iter (Datatype.finalize_sort spec) [ nenc1; nenc2; nenc3; nmsg ]

let enc1 k n p = Term.app enc1_op [ k; n; p ]
let enc2 k n1 n2 p = Term.app enc2_op [ k; n1; n2; p ]
let enc3 k n = Term.app enc3_op [ k; n ]
let nm1 ~crt ~src ~dst e = Term.app nm1_op [ crt; src; dst; e ]
let nm2 ~crt ~src ~dst e = Term.app nm2_op [ crt; src; dst; e ]
let nm3 ~crt ~src ~dst e = Term.app nm3_op [ crt; src; dst; e ]

let nonces_pool =
  lazy (Datatype.distinct_constants D.spec ~sort:D.rand [ "nA"; "nB"; "nE" ])

(* ------------------------------------------------------------------ *)
(* Intruder knowledge *)

let name t =
  match Term.view t with Term.App (o, _) -> o.Signature.name | Term.Var _ -> "?"

let args t = match Term.view t with Term.App (_, a) -> a | Term.Var _ -> []

module Algebra = struct
  type t = Term.t

  let compare = Term.compare

  let intruder_pk = D.pk_ D.intruder
  let intruder_key k = Term.equal k intruder_pk

  let analyze ~knows:_ t =
    match name t, args t with
    | "nm1", [ _; _; _; e ] | "nm2", [ _; _; _; e ] | "nm3", [ _; _; _; e ] ->
      [ e ]
    | "nspk-enc1", (k :: rest) when intruder_key k -> rest
    | "nspk-enc2", (k :: rest) when intruder_key k -> rest
    | "nspk-enc3", (k :: rest) when intruder_key k -> rest
    | _ -> []

  let components t =
    match name t, args t with
    | "nspk-enc1", parts | "nspk-enc2", parts | "nspk-enc3", parts ->
      Some parts
    | "pk", parts -> Some parts
    | _ -> None
end

module K = Dolevyao.Make (Algebra)

(* ------------------------------------------------------------------ *)
(* Scenario and state *)

type scenario = {
  initiators : Term.t list;
  responders : Term.t list;
  nonces : Term.t list;  (** honest principals' fresh-nonce pool *)
  intruder_nonces : Term.t list;  (** the intruder's own nonces *)
  variant : variant;
}

let default_scenario variant =
  let c = Tls.Scenario.cast in
  match Lazy.force nonces_pool with
  | [ na; nb; ne ] ->
    {
      initiators = [ c.alice ];
      responders = [ c.bob ];
      nonces = [ na; nb ];
      intruder_nonces = [ ne ];
      variant;
    }
  | _ -> assert false

type run = { who : Term.t; peer : Term.t; na : Term.t; nb : Term.t option }

module TS = Term.Set

(* A state's intruder knowledge: its closure, or its parent's closure and
   the message its transition sent, or not computed yet. *)
type kn_cache = Closed of K.knowledge | Pending of K.knowledge * Term.t | Unknown

type state = {
  msgs : TS.t;
  used : TS.t;
  istarts : run list;  (** initiator sent message 1 *)
  rruns : run list;  (** responder sent message 2 *)
  rdones : run list;  (** responder accepted message 3 *)
  scen : scenario;
  mutable kn : kn_cache;
}

let initial scen =
  {
    msgs = TS.empty;
    used = TS.empty;
    istarts = [];
    rruns = [];
    rdones = [];
    scen;
    kn = Unknown;
  }

let seed scen =
  let prins = scen.initiators @ scen.responders @ [ D.intruder; D.ca ] in
  prins @ List.map D.pk_ prins @ scen.intruder_nonces

(* Forced by whichever domain asks first; any of them computes the same
   set.  A pending cache extends the parent's closure by one message. *)
let knowledge st =
  let close k =
    st.kn <- Closed k;
    k
  in
  match st.kn with
  | Closed k -> k
  | Pending (k, m) -> close (K.learn k [ m ])
  | Unknown -> close (K.learn K.empty (seed st.scen @ TS.elements st.msgs))

(* A run, as the chunks [f] receives, each term printed by [term]. *)
let emit_run term f r =
  f (term r.who);
  f "-";
  f (term r.peer);
  f "-";
  f (term r.na);
  f "-";
  match r.nb with None -> f "_" | Some n -> f (term n)

let run_str = Analysis.Symmetry.emitted_key (emit_run Term.to_string)

(* The state key, as the chunks [f] receives in order: [key] joins them,
   the canonizer compares them as they come. *)
let emit_key f st =
  let term = Tls.Concrete.printed_term () in
  let add t = f (term t) in
  TS.iter add st.msgs;
  f "|";
  TS.iter add st.used;
  List.iter
    (fun (tag, runs) ->
      f tag;
      List.iter (emit_run term f) runs)
    [ "|i:", st.istarts; "|r:", st.rruns; "|d:", st.rdones ]

let key = Analysis.Symmetry.emitted_key emit_key

let sorted_runs runs = List.sort (fun r1 r2 -> compare (run_str r1) (run_str r2)) runs
let send st m = { st with msgs = TS.add m st.msgs; kn = Pending (knowledge st, m) }
let fresh st = match List.filter (fun n -> not (TS.mem n st.used)) st.scen.nonces with
  | [] -> None
  | n :: _ -> Some n

type label = { rule : string; args : Term.t list }

let pp_label ppf l =
  Format.fprintf ppf "%-12s %s" l.rule (String.concat " " (List.map Term.to_string l.args))

let label rule args = { rule; args }

(* In the classic variant the "responder identity" slot of message 2 is the
   constant [ca]; honest initiators then do not check it. *)
let absent = D.ca

let msg2_enc st ~resp ~init ~n1 ~n2 =
  match st.scen.variant with
  | Classic -> enc2 (D.pk_ init) n1 n2 absent
  | Lowe_fixed -> enc2 (D.pk_ init) n1 n2 resp

(* ------------------------------------------------------------------ *)
(* Transitions *)

let t_start st =
  match fresh st with
  | None -> []
  | Some na ->
    List.concat_map
      (fun a ->
        List.map
          (fun b ->
            let m = nm1 ~crt:a ~src:a ~dst:b (enc1 (D.pk_ b) na a) in
            ( label "start" [ a; b; na ],
              {
                (send st m) with
                used = TS.add na st.used;
                istarts = sorted_runs ({ who = a; peer = b; na; nb = None } :: st.istarts);
              } ))
          (st.scen.responders @ [ D.intruder ]))
      st.scen.initiators

let t_respond st =
  match fresh st with
  | None -> []
  | Some nb ->
    List.concat_map
      (fun b ->
        List.filter_map
          (fun m ->
            match args m with
            | [ _; _; dst; e ] when Term.equal dst b -> (
              match args e with
              | [ k; na; claimed ] when Term.equal k (D.pk_ b) ->
                let e2 = msg2_enc st ~resp:b ~init:claimed ~n1:na ~n2:nb in
                let m2 = nm2 ~crt:b ~src:b ~dst:claimed e2 in
                Some
                  ( label "respond" [ b; claimed; nb ],
                    {
                      (send st m2) with
                      used = TS.add nb st.used;
                      rruns =
                        sorted_runs
                          ({ who = b; peer = claimed; na; nb = Some nb } :: st.rruns);
                    } )
              | _ -> None)
            | _ -> None)
          (List.filter (fun m -> name m = "nm1") (TS.elements st.msgs)))
      st.scen.responders

let t_finish_init st =
  List.concat_map
    (fun r ->
      (* r.who contacted r.peer with nonce r.na and waits for message 2. *)
      List.filter_map
        (fun m ->
          match args m with
          | [ _; src; dst; e ]
            when Term.equal dst r.who && Term.equal src r.peer -> (
            match args e with
            | [ k; na; nb; named ]
              when Term.equal k (D.pk_ r.who) && Term.equal na r.na
                   && (st.scen.variant = Classic || Term.equal named r.peer) ->
              let m3 = nm3 ~crt:r.who ~src:r.who ~dst:r.peer (enc3 (D.pk_ r.peer) nb) in
              Some (label "finish-init" [ r.who; r.peer; nb ], send st m3)
            | _ -> None)
          | _ -> None)
        (List.filter (fun m -> name m = "nm2") (TS.elements st.msgs)))
    st.istarts

let t_finish_resp st =
  List.concat_map
    (fun r ->
      match r.nb with
      | None -> []
      | Some nb ->
        List.filter_map
          (fun m ->
            match args m with
            | [ _; _; dst; e ] when Term.equal dst r.who ->
              if Term.equal e (enc3 (D.pk_ r.who) nb) then
                Some
                  ( label "finish-resp" [ r.who; r.peer ],
                    { st with rdones = sorted_runs (r :: st.rdones) } )
              else None
            | _ -> None)
          (List.filter (fun m -> name m = "nm3") (TS.elements st.msgs)))
    st.rruns

let all_nonces scen = scen.nonces @ scen.intruder_nonces

(* The fake messages 1 and 3 the intruder may send, each with the
   ciphertext it must derive, in the order [t_fake] offers them: they
   depend on the scenario only. *)
type fake_candidates = {
  fake_m1 : (Term.t * Term.t) list;
  fake_m3 : (Term.t * Term.t) list;
}

let fake_candidates scen =
  let prins = scen.initiators @ scen.responders in
  let towards_responders mk =
    List.concat_map
      (fun b -> List.concat_map (fun n -> mk b n) (all_nonces scen))
      scen.responders
  in
  {
    (* Fake message 1 towards responders. *)
    fake_m1 =
      towards_responders (fun b n ->
          List.map
            (fun cl ->
              let e = enc1 (D.pk_ b) n cl in
              e, nm1 ~crt:D.intruder ~src:D.intruder ~dst:b e)
            prins);
    (* Fake message 3 towards responders. *)
    fake_m3 =
      towards_responders (fun b n ->
          let e = enc3 (D.pk_ b) n in
          [ e, nm3 ~crt:D.intruder ~src:D.intruder ~dst:b e ]);
  }

let t_fake cands st =
  let k = knowledge st in
  let fakes = ref [] in
  let push rule m = fakes := (label rule [ m ], send st m) :: !fakes in
  let offer rule = List.iter (fun (e, m) -> if K.derivable k e then push rule m) in
  offer "fake-m1" cands.fake_m1;
  (* Fake message 2 towards initiators, seemingly from any peer the
     initiator might be running with (including the intruder itself). *)
  List.iter
    (fun r ->
      List.iter
        (fun n2 ->
          let e = msg2_enc st ~resp:r.peer ~init:r.who ~n1:r.na ~n2 in
          if K.derivable k e then
            push "fake-m2" (nm2 ~crt:D.intruder ~src:r.peer ~dst:r.who e))
        (all_nonces st.scen))
    st.istarts;
  offer "fake-m3" cands.fake_m3;
  !fakes

let next cands st =
  t_start st @ t_respond st @ t_finish_init st @ t_finish_resp st @ t_fake cands st

let system scen =
  { Mc.initial = initial scen; next = next (fake_candidates scen); key }

(* ------------------------------------------------------------------ *)
(* Properties *)

let honest st p =
  (not (Term.equal p D.intruder))
  && List.exists (Term.equal p) (st.scen.initiators @ st.scen.responders)

let responder_agreement st =
  List.for_all
    (fun r ->
      if honest st r.who && honest st r.peer then
        List.exists
          (fun i ->
            Term.equal i.who r.peer && Term.equal i.peer r.who
            && Term.equal i.na r.na)
          st.istarts
      else true)
    st.rdones

let nonce_secrecy st =
  let k = knowledge st in
  List.for_all
    (fun r ->
      if honest st r.who && honest st r.peer then
        match r.nb with None -> true | Some nb -> not (K.derivable k nb)
      else true)
    st.rruns

let some_responder_done st = st.rdones <> []

(* ------------------------------------------------------------------ *)
(* State-space reduction, justified by the static analyses on the
   generated equational theory of the same protocol. *)

(* Concrete fake rules against the symbolic intruder actions they
   enumerate: each concrete rule covers both the construct and the replay
   action of its message kind. *)
let fake_classes variant =
  let sfx = match variant with Classic -> "-c" | Lowe_fixed -> "-l" in
  List.map
    (fun (rule, acts) -> rule, List.map (fun a -> a ^ sfx) acts)
    [
      "fake-m1", [ "fakeM1c"; "fakeM1r" ];
      "fake-m2", [ "fakeM2c"; "fakeM2r" ];
      "fake-m3", [ "fakeM3c"; "fakeM3r" ];
    ]

(* The static pass runs on the *generated equational theory* of the OTS:
   independence of the intruder actions from every action (self included)
   admits them as an ample/flooding set; the symmetry classes over [Rand]
   give the canonization orbit.  Memoized per variant (~0.4 s). *)
let analysis =
  Analysis.Symmetry.reduction_basis ~classes:fake_classes Nspk_model.gen_spec

let independence variant = (analysis variant).Analysis.Symmetry.b_indep
let symmetries variant = (analysis variant).Analysis.Symmetry.b_sym

(* The terms a permutation of the honest nonces acts on: the network, the
   used nonces and the runs' nonces. *)
let iter_terms f st =
  TS.iter f st.msgs;
  TS.iter f st.used;
  List.iter
    (List.iter (fun r ->
         f r.na;
         Option.iter f r.nb))
    [ st.istarts; st.rruns; st.rdones ]

let remap_state f st =
  let runs = List.map (fun r -> { r with na = f r.na; nb = Option.map f r.nb }) in
  {
    st with
    msgs = TS.map f st.msgs;
    used = TS.map f st.used;
    istarts = sorted_runs (runs st.istarts);
    rruns = sorted_runs (runs st.rruns);
    rdones = sorted_runs (runs st.rdones);
    kn = Unknown;
  }

let reduction ?(por = true) ?(symmetry = true) scen =
  (* Only the scenario's honest-nonce pool is interchangeable: the
     intruder's own nonces are part of its (asymmetric) identity. *)
  let ample, canon =
    Analysis.Symmetry.reducer (analysis scen.variant) ~por ~symmetry
      ~candidates:scen.nonces ~iter_terms ~remap:remap_state ~emit:emit_key
  in
  { Mc.ample = (fun (l : label) -> ample l.rule); canon }

(* Re-exports: the symbolic OTS treatment (model + proof campaign). *)
module Symbolic = Nspk_model
module Symbolic_proofs = Nspk_proofs
