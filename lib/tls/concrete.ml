open Kernel
module D = Data

(* ------------------------------------------------------------------ *)
(* Term views: inspecting ground message terms by constructor name. *)

let name t =
  match Term.view t with
  | Term.App (o, _) -> o.Signature.name
  | Term.Var _ -> "?"

let args t = match Term.view t with Term.App (_, a) -> a | Term.Var _ -> []
let is_named n t = String.equal (name t) n

type hdr = { crt : Term.t; src : Term.t; dst : Term.t }

let hdr_of t =
  match args t with
  | crt :: src :: dst :: _ -> { crt; src; dst }
  | _ -> invalid_arg "Concrete.hdr_of: not a message"

let payload t =
  match List.rev (args t) with
  | p :: _ -> p
  | [] -> invalid_arg "Concrete.payload"

let list_members l =
  let rec go acc t =
    match name t, args t with
    | "lcons", [ c; rest ] -> go (c :: acc) rest
    | _ -> List.rev acc
  in
  go [] l

(* ------------------------------------------------------------------ *)
(* Intruder knowledge: Dolev-Yao closure over ground terms. *)

module Algebra = struct
  type t = Term.t

  (* Structure-stable order: knowledge-set iteration order leaks into the
     order transitions are generated, which must agree between a sequential
     and a parallel exploration of the same space. *)
  let compare = Term.ac_compare
  let intruder_pk = D.pk_ D.intruder

  let analyze ~knows t =
    match name t, args t with
    (* Messages on the wire: every field is overheard. *)
    | "ch", [ _; _; _; r; l ] -> [ r; l ]
    | "sh", [ _; _; _; r; i; c ] -> [ r; i; c ]
    | "ct", [ _; _; _; cert ] -> [ cert ]
    | "kx", [ _; _; _; e ] -> [ e ]
    | "cf", [ _; _; _; e ] -> [ e ]
    | "sf", [ _; _; _; e ] -> [ e ]
    | "ch2", [ _; _; _; r; i ] -> [ r; i ]
    | "sh2", [ _; _; _; r; i; c ] -> [ r; i; c ]
    | "cf2", [ _; _; _; e ] -> [ e ]
    | "sf2", [ _; _; _; e ] -> [ e ]
    (* Public containers. *)
    | "cert", [ p; k; g ] -> [ p; k; g ]
    | "sig", [ s; b; k ] -> [ s; b; k ]
    | "lcons", [ c; l ] -> [ c; l ]
    (* Asymmetric decryption: only under the intruder's own key. *)
    | "epms", [ k; p ] -> if Term.equal k intruder_pk then [ p ] else []
    (* Symmetric decryption: the key is a hash of (prin, pms, r1, r2); the
       prin and the randoms are public, so knowing the pms decides it. *)
    | "ecfin", [ hk; f ] | "esfin", [ hk; f ] | "ecfin2", [ hk; f ]
    | "esfin2", [ hk; f ] -> (
      if knows hk then [ f ]  (* leaked session key (Oops) *)
      else
        match args hk with
        | [ _; pms; _; _ ] when knows pms -> [ f ]
        | _ -> [])
    (* Hashes, keys and atoms are one-way / atomic. *)
    | _ -> []

  let components t =
    match name t, args t with
    | "epms", parts | "ecfin", parts | "esfin", parts
    | "ecfin2", parts | "esfin2", parts ->
      Some parts
    | "hkey", parts -> Some parts
    | "cfin", parts | "sfin", parts | "cfin2", parts | "sfin2", parts ->
      Some parts
    | "cert", parts -> Some parts
    | "lcons", parts -> Some parts
    | "lnil", [] -> Some []
    (* Public keys are derivable from the principal's name. *)
    | "pk", parts -> Some parts
    (* Signatures, pre-master secrets and every atomic quantity must have
       been gleaned (or generated by the intruder itself). *)
    | _ -> None
end

module K = Dolevyao.Make (Algebra)

(* ------------------------------------------------------------------ *)
(* Scenario and state *)

type scenario = {
  clients : Term.t list;
  servers : Term.t list;
  rands : Term.t list;
  sids : Term.t list;
  suites : Term.t list;
  lists : Term.t list;
  secrets : Term.t list;
  intruder_secrets : Term.t list;
  intruder_rands : Term.t list;
      (** the rands the intruder uses in faked clear messages (it could
          guess any, but distinct values add nothing: symmetry) *)
  oops : bool;
      (** Paulson's Oops rule (the paper's Section 6 discusses his
          analysis): established session keys may end up in the intruder's
          hands.  Paulson's finding — resumption stays safe — is
          reproduced under this flag. *)
  style : Model.style;
}

let default_scenario () =
  let c = Scenario.cast in
  {
    clients = [ c.alice ];
    servers = [ c.bob ];
    rands = [ c.ra; c.rb; c.rc; c.rd; c.ri ];
    sids = [ c.sid1 ];
    suites = [ c.suite1; c.suite2 ];
    lists = [ c.clist ];
    secrets = [ c.sec1 ];
    intruder_secrets = [ c.sec2 ];
    intruder_rands = [ c.ri ];
    oops = false;
    style = Model.Original;
  }

module TS = Term.Set

type session_entry = {
  sess_owner : Term.t;
  sess_peer : Term.t;
  sess_sid : Term.t;
  sess_suite : Term.t;
  sess_r1 : Term.t;
  sess_r2 : Term.t;
  sess_pms : Term.t;
}

(* A state's intruder knowledge: its closure, or its parent's closure and
   the message its transition sent, or not computed yet. *)
type kn_cache = Closed of K.knowledge | Pending of K.knowledge * Term.t | Unknown

type state = {
  msgs : TS.t;
  ur : TS.t;
  ui : TS.t;
  us : TS.t;
  sessions : session_entry list;  (** sorted by (owner, peer, sid) *)
  leaked : TS.t;  (** session keys lost via the Oops rule *)
  scen : scenario;
  mutable kn : kn_cache;
}

let seed_knowledge scen =
  let prins = scen.clients @ scen.servers @ [ D.intruder; D.ca ] in
  let base =
    prins
    @ List.map D.pk_ prins
    @ scen.rands @ scen.sids @ scen.suites @ scen.lists
    @ scen.intruder_secrets
    @ List.concat_map
        (fun b ->
          List.map
            (fun se -> D.pms_ ~client:D.intruder ~server:b se)
            scen.intruder_secrets)
        (scen.servers @ scen.clients)
    @ [ D.sig_of ~signer:D.ca ~subject:D.intruder (D.pk_ D.intruder) ]
  in
  base

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
  | Unknown ->
    close
      (K.learn K.empty
         (seed_knowledge st.scen @ TS.elements st.leaked @ TS.elements st.msgs))

let initial scen =
  {
    msgs = TS.empty;
    ur = TS.empty;
    ui = TS.empty;
    us = TS.empty;
    sessions = [];
    leaked = TS.empty;
    scen;
    kn = Unknown;
  }

let network st = TS.elements st.msgs
let knows st t = K.knows (knowledge st) t
let derivable st t = K.derivable (knowledge st) t

let session_key e = (Term.to_string e.sess_owner, Term.to_string e.sess_peer, Term.to_string e.sess_sid)

let session st ~owner ~peer ~sid =
  List.find_map
    (fun e ->
      if Term.equal e.sess_owner owner && Term.equal e.sess_peer peer
         && Term.equal e.sess_sid sid
      then Some (e.sess_suite, e.sess_r1, e.sess_r2, e.sess_pms)
      else None)
    st.sessions

let set_session st entry =
  let others =
    List.filter (fun e -> session_key e <> session_key entry) st.sessions
  in
  let sessions =
    List.sort (fun a b -> compare (session_key a) (session_key b))
      (entry :: others)
  in
  { st with sessions }

let send st m = { st with msgs = TS.add m st.msgs; kn = Pending (knowledge st, m) }
let use_rand st r = { st with ur = TS.add r st.ur }
let use_sid st i = { st with ui = TS.add i st.ui }
let use_secret st x = { st with us = TS.add x st.us }

(* State keys print the same few thousand interned terms over and over,
   so each domain keeps the rendering of every non-constant term it has
   printed, keyed by identity.  Domain-local because pool workers key
   states concurrently (canonization under [Mc.par_bfs ~reduction]); the
   table starts over once it holds [printed_cap] terms, so unrelated
   searches in one process cannot make it grow without bound. *)
let printed_cap = 1 lsl 16
let printed = Domain.DLS.new_key (fun () -> Term.Tbl.create 1024)

let printed_term () =
  let tbl = Domain.DLS.get printed in
  fun t ->
    match Term.view t with
    | Term.App (o, []) -> o.Signature.name
    | Term.App _ | Term.Var _ -> (
      match Term.Tbl.find_opt tbl t with
      | Some s -> s
      | None ->
        if Term.Tbl.length tbl >= printed_cap then Term.Tbl.reset tbl;
        let s = Term.to_string t in
        Term.Tbl.add tbl t s;
        s)

(* The printed state key, as the chunks [f] receives in order:
   [printed_key] joins them, the canonizer compares them as they come. *)
let emit_key f st =
  let term = printed_term () in
  let add t = f (term t) in
  let sep s t =
    f s;
    add t
  in
  TS.iter (fun m -> add m; f "\n") st.msgs;
  f "|ur:";
  TS.iter add st.ur;
  f "|ui:";
  TS.iter add st.ui;
  f "|us:";
  TS.iter add st.us;
  f "|oops:";
  TS.iter add st.leaked;
  f "|ss:";
  List.iter
    (fun e ->
      add e.sess_owner;
      sep "/" e.sess_peer;
      sep "/" e.sess_sid;
      sep "->" e.sess_suite;
      sep "," e.sess_r1;
      sep "," e.sess_r2;
      sep "," e.sess_pms)
    st.sessions

let printed_key = Analysis.Symmetry.emitted_key emit_key

(* The state's identity for the model checker: the terms [emit_key]
   prints, in the same order, with a marker where it prints a section's
   label.  Each session entry is seven terms, so entries need none. *)
let m_ur = Mc.marker "|ur:"
let m_ui = Mc.marker "|ui:"
let m_us = Mc.marker "|us:"
let m_oops = Mc.marker "|oops:"
let m_ss = Mc.marker "|ss:"

let key st =
  let n =
    TS.cardinal st.msgs + TS.cardinal st.ur + TS.cardinal st.ui + TS.cardinal st.us
    + TS.cardinal st.leaked + (7 * List.length st.sessions) + 5
  in
  let k = Array.make n m_ur and i = ref 0 in
  let add t =
    Array.unsafe_set k !i t;
    incr i
  in
  TS.iter add st.msgs;
  add m_ur;
  TS.iter add st.ur;
  add m_ui;
  TS.iter add st.ui;
  add m_us;
  TS.iter add st.us;
  add m_oops;
  TS.iter add st.leaked;
  add m_ss;
  List.iter
    (fun e ->
      add e.sess_owner;
      add e.sess_peer;
      add e.sess_sid;
      add e.sess_suite;
      add e.sess_r1;
      add e.sess_r2;
      add e.sess_pms)
    st.sessions;
  k

(* ------------------------------------------------------------------ *)
(* Transition enumeration *)

type label = { rule : string; args : Term.t list }

(* Only a violation trace is ever shown: the arguments are printed here,
   not when the transition is generated. *)
let pp_label ppf l =
  Format.fprintf ppf "%-10s %s" l.rule (String.concat " " (List.map Term.to_string l.args))

let label rule args = { rule; args }

let msgs_of_kind st kind = List.filter (is_named kind) (TS.elements st.msgs)

(* Honest principals always draw the first unused value of a pool: fresh
   values are interchangeable, so exploring the others only multiplies
   symmetric states (Murphi's scalarset reduction). *)
let fresh_of pool used =
  match List.filter (fun v -> not (TS.mem v used)) pool with
  | [] -> []
  | v :: _ -> [ v ]

let genuine_cert b =
  D.cert_of b (D.pk_ b) (D.sig_of ~signer:D.ca ~subject:b (D.pk_ b))

(* Honest transitions.  Each function lists (label, state'). *)

let t_chello st =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b ->
          List.concat_map
            (fun r ->
              List.map
                (fun l ->
                  ( label "chello" [ a; b; r ],
                    use_rand (send st (D.ch_ ~crt:a ~src:a ~dst:b r l)) r ))
                st.scen.lists)
            (fresh_of st.scen.rands st.ur))
        st.scen.servers)
    st.scen.clients

let t_shello st =
  List.concat_map
    (fun b ->
      List.concat_map
        (fun m1 ->
          let h = hdr_of m1 in
          if not (Term.equal h.dst b) then []
          else
            match args m1 with
            | [ _; _; _; _; l ] ->
              List.concat_map
                (fun r ->
                  List.concat_map
                    (fun i ->
                      List.map
                        (fun c ->
                          ( label "shello" [ b; r; i; c ],
                            use_sid
                              (use_rand
                                 (send st (D.sh_ ~crt:b ~src:b ~dst:h.src r i c))
                                 r)
                              i ))
                        (list_members l))
                    (fresh_of st.scen.sids st.ui))
                (fresh_of st.scen.rands st.ur)
            | _ -> [])
        (msgs_of_kind st "ch"))
    st.scen.servers

let own m who =
  let h = hdr_of m in
  Term.equal h.crt who && Term.equal h.src who

let t_cert st =
  List.concat_map
    (fun b ->
      List.concat_map
        (fun m1 ->
          let h1 = hdr_of m1 in
          if not (Term.equal h1.dst b) then []
          else
            List.filter_map
              (fun m2 ->
                let h2 = hdr_of m2 in
                match args m1, args m2 with
                | [ _; _; _; _; l ], [ _; _; _; _; _; c ]
                  when own m2 b
                       && Term.equal h1.src h2.dst
                       && List.exists (Term.equal c) (list_members l) ->
                  Some
                    ( label "cert" [ b; h2.dst ],
                      send st (D.ct_ ~crt:b ~src:b ~dst:h2.dst (genuine_cert b))
                    )
                | _ -> None)
              (msgs_of_kind st "sh"))
        (msgs_of_kind st "ch"))
    st.scen.servers

(* The (m1 ch, m2 sh) pairs a client [a] is engaged in. *)
let client_pairs st a =
  List.concat_map
    (fun m1 ->
      if not (own m1 a) then []
      else
        let h1 = hdr_of m1 in
        List.filter_map
          (fun m2 ->
            let h2 = hdr_of m2 in
            if Term.equal h2.dst a && Term.equal h2.src h1.dst then
              Some (m1, m2)
            else None)
          (msgs_of_kind st "sh"))
    (msgs_of_kind st "ch")

let sh_fields m2 =
  match args m2 with
  | [ _; _; _; r; i; c ] -> r, i, c
  | _ -> invalid_arg "sh_fields"

let ch_fields m1 =
  match args m1 with
  | [ _; _; _; r; l ] -> r, l
  | _ -> invalid_arg "ch_fields"

let t_kexch st =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun (m1, m2) ->
          ignore m1;
          let b = (hdr_of m2).src in
          List.concat_map
            (fun m3 ->
              let h3 = hdr_of m3 in
              if not (Term.equal h3.dst a && Term.equal h3.src b) then []
              else
                match args (payload m3) with
                | [ p; k; g ]
                  when Term.equal p b
                       && Term.equal g (D.sig_of ~signer:D.ca ~subject:b k) ->
                  List.map
                    (fun se ->
                      let pmsv = D.pms_ ~client:a ~server:b se in
                      ( label "kexch" [ a; b; se ],
                        use_secret
                          (send st (D.kx_ ~crt:a ~src:a ~dst:b (D.epms_ k pmsv)))
                          se ))
                    (fresh_of st.scen.secrets st.us)
                | _ -> [])
            (msgs_of_kind st "ct"))
        (client_pairs st a))
    st.scen.clients

let t_cfin st =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun (m1, m2) ->
          let b = (hdr_of m2).src in
          let r1, l = ch_fields m1 in
          let r2, i, c = sh_fields m2 in
          List.filter_map
            (fun m3 ->
              let h3 = hdr_of m3 in
              if not (own m3 a && Term.equal h3.dst b) then None
              else
                match args (payload m3) with
                | [ _k; pmsv ] when Term.equal (List.nth (args pmsv) 0) a
                                    && Term.equal (List.nth (args pmsv) 1) b ->
                  let body =
                    D.ecfin_
                      (D.hkey_ a pmsv r1 r2)
                      (D.cfin_ [ a; b; i; l; c; r1; r2; pmsv ])
                  in
                  Some
                    ( label "cfin" [ a; b ],
                      send st (D.cf_ ~crt:a ~src:a ~dst:b body) )
                | _ -> None)
            (msgs_of_kind st "kx"))
        (client_pairs st a))
    st.scen.clients

(* The (m1 ch, m2 own sh, m3 own ct) triples a server [b] is engaged in. *)
let server_triples st b =
  List.concat_map
    (fun m1 ->
      let h1 = hdr_of m1 in
      if not (Term.equal h1.dst b) then []
      else
        List.concat_map
          (fun m2 ->
            let h2 = hdr_of m2 in
            if not (own m2 b && Term.equal h2.dst h1.src) then []
            else
              List.filter_map
                (fun m3 ->
                  let h3 = hdr_of m3 in
                  if
                    own m3 b
                    && Term.equal h3.dst h2.dst
                    && Term.equal (payload m3) (genuine_cert b)
                  then Some (m1, m2, m3)
                  else None)
                (msgs_of_kind st "ct"))
          (msgs_of_kind st "sh"))
    (msgs_of_kind st "ch")

let t_sfin st =
  List.concat_map
    (fun b ->
      List.concat_map
        (fun (m1, m2, _m3) ->
          let a = (hdr_of m2).dst in
          let r1, l = ch_fields m1 in
          let r2, i, c = sh_fields m2 in
          List.concat_map
            (fun m4 ->
              let h4 = hdr_of m4 in
              if not (Term.equal h4.dst b) then []
              else
                match args (payload m4) with
                | [ k; pmsv ] when Term.equal k (D.pk_ b) ->
                  let expected_cf =
                    D.ecfin_
                      (D.hkey_ a pmsv r1 r2)
                      (D.cfin_ [ a; b; i; l; c; r1; r2; pmsv ])
                  in
                  List.filter_map
                    (fun m5 ->
                      let h5 = hdr_of m5 in
                      if
                        Term.equal h5.dst b
                        && Term.equal (payload m5) expected_cf
                      then begin
                        let body =
                          D.esfin_
                            (D.hkey_ b pmsv r1 r2)
                            (D.sfin_ [ a; b; i; l; c; r1; r2; pmsv ])
                        in
                        let st' =
                          send st (D.sf_ ~crt:b ~src:b ~dst:a body)
                        in
                        Some
                          ( label "sfin" [ b; a ],
                            set_session st'
                              {
                                sess_owner = b;
                                sess_peer = a;
                                sess_sid = i;
                                sess_suite = c;
                                sess_r1 = r1;
                                sess_r2 = r2;
                                sess_pms = pmsv;
                              } )
                      end
                      else None)
                    (msgs_of_kind st "cf")
                | _ -> [])
            (msgs_of_kind st "kx"))
        (server_triples st b))
    st.scen.servers

let t_compl st =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun (m1, m2) ->
          let b = (hdr_of m2).src in
          let r1, l = ch_fields m1 in
          let r2, i, c = sh_fields m2 in
          List.concat_map
            (fun m3 ->
              let h3 = hdr_of m3 in
              if not (own m3 a && Term.equal h3.dst b) then []
              else
                match args (payload m3) with
                | [ _; pmsv ]
                  when Term.equal (List.nth (args pmsv) 0) a
                       && Term.equal (List.nth (args pmsv) 1) b ->
                  let expected_sf =
                    D.esfin_
                      (D.hkey_ b pmsv r1 r2)
                      (D.sfin_ [ a; b; i; l; c; r1; r2; pmsv ])
                  in
                  List.filter_map
                    (fun m4 ->
                      let h4 = hdr_of m4 in
                      if
                        Term.equal h4.dst a && Term.equal h4.src b
                        && Term.equal (payload m4) expected_sf
                      then
                        Some
                          ( label "compl" [ a; b ],
                            set_session st
                              {
                                sess_owner = a;
                                sess_peer = b;
                                sess_sid = i;
                                sess_suite = c;
                                sess_r1 = r1;
                                sess_r2 = r2;
                                sess_pms = pmsv;
                              } )
                      else None)
                    (msgs_of_kind st "sf")
                | _ -> [])
            (msgs_of_kind st "kx"))
        (client_pairs st a))
    st.scen.clients

(* --- abbreviated handshake --- *)

let t_chello2 st =
  List.concat_map
    (fun e ->
      if List.exists (Term.equal e.sess_owner) st.scen.clients then
        List.map
          (fun r ->
            ( label "chello2" [ e.sess_owner; e.sess_peer; r; e.sess_sid ],
              use_rand
                (send st
                   (D.ch2_ ~crt:e.sess_owner ~src:e.sess_owner ~dst:e.sess_peer
                      r e.sess_sid))
                r ))
          (fresh_of st.scen.rands st.ur)
      else [])
    st.sessions

let ch2_fields m =
  match args m with
  | [ _; _; _; r; i ] -> r, i
  | _ -> invalid_arg "ch2_fields"

let t_shello2 st =
  List.concat_map
    (fun b ->
      List.concat_map
        (fun m1 ->
          let h1 = hdr_of m1 in
          let _, i = ch2_fields m1 in
          if not (Term.equal h1.dst b) then []
          else
            match session st ~owner:b ~peer:h1.src ~sid:i with
            | None -> []
            | Some (suite, _, _, _) ->
              List.map
                (fun r ->
                  ( label "shello2" [ b; h1.src; r ],
                    use_rand
                      (send st (D.sh2_ ~crt:b ~src:b ~dst:h1.src r i suite))
                      r ))
                (fresh_of st.scen.rands st.ur))
        (msgs_of_kind st "ch2"))
    st.scen.servers

(* (m1 ch2 to b, m2 own sh2) pairs for server b, with the session. *)
let server_pairs2 st b =
  List.concat_map
    (fun m1 ->
      let h1 = hdr_of m1 in
      if not (Term.equal h1.dst b) then []
      else
        let _, i = ch2_fields m1 in
        match session st ~owner:b ~peer:h1.src ~sid:i with
        | None -> []
        | Some q ->
          List.filter_map
            (fun m2 ->
              let h2 = hdr_of m2 in
              match args m2 with
              | [ _; _; _; _; i2; _ ]
                when own m2 b && Term.equal h2.dst h1.src && Term.equal i2 i ->
                Some (m1, m2, q)
              | _ -> None)
            (msgs_of_kind st "sh2"))
    (msgs_of_kind st "ch2")

let client_pairs2 st a =
  List.concat_map
    (fun m1 ->
      if not (own m1 a) then []
      else
        let h1 = hdr_of m1 in
        let _, i = ch2_fields m1 in
        match session st ~owner:a ~peer:h1.dst ~sid:i with
        | None -> []
        | Some q ->
          List.filter_map
            (fun m2 ->
              let h2 = hdr_of m2 in
              match args m2 with
              | [ _; _; _; _; i2; _ ]
                when Term.equal h2.dst a && Term.equal h2.src h1.dst
                     && Term.equal i2 i ->
                Some (m1, m2, q)
              | _ -> None)
            (msgs_of_kind st "sh2"))
    (msgs_of_kind st "ch2")

let sh2_fields m =
  match args m with
  | [ _; _; _; r; i; c ] -> r, i, c
  | _ -> invalid_arg "sh2_fields"

let sf2_body a b i c r1 r2 pmsv =
  D.esfin2_ (D.hkey_ b pmsv r1 r2) (D.sfin2_ [ a; b; i; c; r1; r2; pmsv ])

let cf2_body a b i c r1 r2 pmsv =
  D.ecfin2_ (D.hkey_ a pmsv r1 r2) (D.cfin2_ [ a; b; i; c; r1; r2; pmsv ])

let refresh st owner peer i c r1 r2 pmsv =
  set_session st
    {
      sess_owner = owner;
      sess_peer = peer;
      sess_sid = i;
      sess_suite = c;
      sess_r1 = r1;
      sess_r2 = r2;
      sess_pms = pmsv;
    }

let t_sfin2 st =
  (* Original: server sends Finished2 after its Hello2.  Variant: only after
     receiving the client's Finished2 (and then also refreshes). *)
  List.concat_map
    (fun b ->
      List.concat_map
        (fun (m1, m2, (_, _, _, pmsv)) ->
          let a = (hdr_of m1).src in
          let r1, i = ch2_fields m1 in
          let r2, _, c = sh2_fields m2 in
          let body = sf2_body a b i c r1 r2 pmsv in
          match st.scen.style with
          | Model.Original ->
            [ label "sfin2" [ b; a ], send st (D.sf2_ ~crt:b ~src:b ~dst:a body) ]
          | Model.Cf2First ->
            let expected = cf2_body a b i c r1 r2 pmsv in
            List.filter_map
              (fun m3 ->
                if
                  Term.equal (hdr_of m3).dst b
                  && Term.equal (payload m3) expected
                then
                  Some
                    ( label "sfin2" [ b; a ],
                      refresh
                        (send st (D.sf2_ ~crt:b ~src:b ~dst:a body))
                        b a i c r1 r2 pmsv )
                else None)
              (msgs_of_kind st "cf2"))
        (server_pairs2 st b))
    st.scen.servers

let t_cfin2 st =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun (m1, m2, (_, _, _, pmsv)) ->
          let b = (hdr_of m1).dst in
          let r1, i = ch2_fields m1 in
          let r2, _, c = sh2_fields m2 in
          let body = cf2_body a b i c r1 r2 pmsv in
          match st.scen.style with
          | Model.Original ->
            let expected = sf2_body a b i c r1 r2 pmsv in
            List.filter_map
              (fun m3 ->
                let h3 = hdr_of m3 in
                if
                  Term.equal h3.dst a && Term.equal h3.src b
                  && Term.equal (payload m3) expected
                then
                  Some
                    ( label "cfin2" [ a; b ],
                      refresh
                        (send st (D.cf2_ ~crt:a ~src:a ~dst:b body))
                        a b i c r1 r2 pmsv )
                else None)
              (msgs_of_kind st "sf2")
          | Model.Cf2First ->
            [
              ( label "cfin2" [ a; b ],
                send st (D.cf2_ ~crt:a ~src:a ~dst:b body) );
            ])
        (client_pairs2 st a))
    st.scen.clients

let t_compl2 st =
  match st.scen.style with
  | Model.Original ->
    (* Server receives the client's Finished2 and refreshes. *)
    List.concat_map
      (fun b ->
        List.concat_map
          (fun (m1, m2, (_, _, _, pmsv)) ->
            let a = (hdr_of m1).src in
            let r1, i = ch2_fields m1 in
            let r2, _, c = sh2_fields m2 in
            let expected = cf2_body a b i c r1 r2 pmsv in
            List.filter_map
              (fun m3 ->
                if
                  Term.equal (hdr_of m3).dst b
                  && Term.equal (payload m3) expected
                then
                  Some (label "compl2" [ b; a ], refresh st b a i c r1 r2 pmsv)
                else None)
              (msgs_of_kind st "cf2"))
          (server_pairs2 st b))
      st.scen.servers
  | Model.Cf2First ->
    (* Client receives the server's Finished2 and refreshes. *)
    List.concat_map
      (fun a ->
        List.concat_map
          (fun (m1, m2, (_, _, _, pmsv)) ->
            let b = (hdr_of m1).dst in
            let r1, i = ch2_fields m1 in
            let r2, _, c = sh2_fields m2 in
            let expected = sf2_body a b i c r1 r2 pmsv in
            List.filter_map
              (fun m3 ->
                let h3 = hdr_of m3 in
                if
                  Term.equal h3.dst a && Term.equal h3.src b
                  && Term.equal (payload m3) expected
                then Some (label "compl2" [ a; b ], refresh st a b i c r1 r2 pmsv)
                else None)
              (msgs_of_kind st "sf2"))
          (client_pairs2 st a))
      st.scen.clients

(* --- the intruder ---

   Clear messages and replays are enumerated from the pools and the
   knowledge closure.  Constructed Finished/KeyExchange fakes are
   receiver-driven (the standard lazy-intruder restriction, also used by the
   Murphi analyses): the intruder only sends ciphertexts that some honest
   party could accept in its current conversation state, which preserves
   every attack while keeping the branching finite. *)

let t_fake_hellos st =
  let fakes = ref [] in
  let push rule m = fakes := (label rule [ m ], send st m) :: !fakes in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun r ->
              List.iter
                (fun l -> push "fakeCh" (D.ch_ ~crt:D.intruder ~src:a ~dst:b r l))
                st.scen.lists;
              List.iter
                (fun i ->
                  push "fakeCh2" (D.ch2_ ~crt:D.intruder ~src:a ~dst:b r i);
                  List.iter
                    (fun c ->
                      push "fakeSh"
                        (D.sh_ ~crt:D.intruder ~src:b ~dst:a r i c);
                      push "fakeSh2"
                        (D.sh2_ ~crt:D.intruder ~src:b ~dst:a r i c))
                    st.scen.suites)
                st.scen.sids)
            st.scen.intruder_rands)
        st.scen.servers)
    st.scen.clients;
  !fakes

(* The fakes below read the closed knowledge [items] as [K.items] lists
   it, filtered by kind. *)
let t_fake_ct st items =
  let sigs = List.filter (is_named "sig") items in
  List.concat_map
    (fun g ->
      match args g with
      | [ _; p; key ] ->
        (* Reassembling a certificate only helps when consistent with the
           gleaned signature; other combinations are rejected by every
           honest check. *)
        List.concat_map
          (fun a ->
            List.map
              (fun b ->
                let m = D.ct_ ~crt:D.intruder ~src:b ~dst:a (D.cert_of p key g) in
                label "fakeCt" [ m ], send st m)
              st.scen.servers)
          st.scen.clients
      | _ -> [])
    sigs

let t_fake_replays st items =
  (* Replays only reach parties that actually inspect the message kind:
     clients never read kx/cf messages, servers never read sf ones. *)
  let replay kind mk ciph_name ~srcs ~dsts =
    List.concat_map
      (fun e ->
        List.concat_map
          (fun a ->
            List.map
              (fun b ->
                let m = mk ~src:a ~dst:b e in
                label kind [ m ], send st m)
              dsts)
          srcs)
      (List.filter (is_named ciph_name) items)
  in
  let cl = st.scen.clients and sv = st.scen.servers in
  replay "fakeKx1" (fun ~src ~dst e -> D.kx_ ~crt:D.intruder ~src ~dst e) "epms"
    ~srcs:cl ~dsts:sv
  @ replay "fakeCf1" (fun ~src ~dst e -> D.cf_ ~crt:D.intruder ~src ~dst e) "ecfin"
      ~srcs:cl ~dsts:sv
  @ replay "fakeSf1" (fun ~src ~dst e -> D.sf_ ~crt:D.intruder ~src ~dst e) "esfin"
      ~srcs:sv ~dsts:cl
  @ replay "fakeCf21" (fun ~src ~dst e -> D.cf2_ ~crt:D.intruder ~src ~dst e) "ecfin2"
      ~srcs:cl ~dsts:sv
  @ replay "fakeSf21" (fun ~src ~dst e -> D.sf2_ ~crt:D.intruder ~src ~dst e) "esfin2"
      ~srcs:sv ~dsts:cl

(* Receiver-driven constructed fakes: for every conversation an honest
   party could be waiting on, construct exactly the ciphertext it would
   accept and send it if derivable. *)
let t_fake_constructed st items =
  let k = knowledge st in
  let fakes = ref [] in
  let push rule m = fakes := (label rule [ m ], send st m) :: !fakes in
  (* kx fakes: a server b waiting after (ch, own sh, own ct). *)
  List.iter
    (fun b ->
      match server_triples st b with
      | [] -> ()
      | _ :: _ ->
        List.iter
          (fun p ->
            let e = D.epms_ (D.pk_ b) p in
            if K.derivable k e then
              List.iter
                (fun a -> push "fakeKx2" (D.kx_ ~crt:D.intruder ~src:a ~dst:b e))
                st.scen.clients)
          (List.filter (is_named "pms") items))
    st.scen.servers;
  (* cf fakes: what would server b accept given (ch, sh, ct) + some kx? *)
  List.iter
    (fun b ->
      List.iter
        (fun (m1, m2, _) ->
          let a = (hdr_of m2).dst in
          let r1, l = ch_fields m1 in
          let r2, i, c = sh_fields m2 in
          List.iter
            (fun m4 ->
              if Term.equal (hdr_of m4).dst b then
                match args (payload m4) with
                | [ kk; pmsv ] when Term.equal kk (D.pk_ b) ->
                  let body =
                    D.ecfin_
                      (D.hkey_ a pmsv r1 r2)
                      (D.cfin_ [ a; b; i; l; c; r1; r2; pmsv ])
                  in
                  if K.derivable k body then
                    push "fakeCf2" (D.cf_ ~crt:D.intruder ~src:a ~dst:b body)
                | _ -> ())
            (msgs_of_kind st "kx"))
        (server_triples st b))
    st.scen.servers;
  (* sf fakes: what would client a accept given (own ch, sh, own kx)? *)
  List.iter
    (fun a ->
      List.iter
        (fun (m1, m2) ->
          let b = (hdr_of m2).src in
          let r1, l = ch_fields m1 in
          let r2, i, c = sh_fields m2 in
          List.iter
            (fun m3 ->
              if own m3 a && Term.equal (hdr_of m3).dst b then
                match args (payload m3) with
                | [ _; pmsv ] ->
                  let body =
                    D.esfin_
                      (D.hkey_ b pmsv r1 r2)
                      (D.sfin_ [ a; b; i; l; c; r1; r2; pmsv ])
                  in
                  if K.derivable k body then
                    push "fakeSf2" (D.sf_ ~crt:D.intruder ~src:b ~dst:a body)
                | _ -> ())
            (msgs_of_kind st "kx"))
        (client_pairs st a))
    st.scen.clients;
  (* cf2 / sf2 fakes against resumption conversations. *)
  List.iter
    (fun b ->
      List.iter
        (fun (m1, m2, (_, _, _, pmsv)) ->
          let a = (hdr_of m1).src in
          let r1, i = ch2_fields m1 in
          let r2, _, c = sh2_fields m2 in
          let body = cf2_body a b i c r1 r2 pmsv in
          if K.derivable k body then
            push "fakeCf22" (D.cf2_ ~crt:D.intruder ~src:a ~dst:b body))
        (server_pairs2 st b))
    st.scen.servers;
  List.iter
    (fun a ->
      List.iter
        (fun (m1, m2, (_, _, _, pmsv)) ->
          let b = (hdr_of m1).dst in
          let r1, i = ch2_fields m1 in
          let r2, _, c = sh2_fields m2 in
          let body = sf2_body a b i c r1 r2 pmsv in
          if K.derivable k body then
            push "fakeSf22" (D.sf2_ ~crt:D.intruder ~src:b ~dst:a body))
        (client_pairs2 st a))
    st.scen.clients;
  !fakes

(* Paulson's Oops: both Finished-protection keys of every established
   session may fall into the intruder's hands. *)
let t_oops st =
  if not st.scen.oops then []
  else
    List.filter_map
      (fun e ->
        let k_owner = D.hkey_ e.sess_owner e.sess_pms e.sess_r1 e.sess_r2 in
        let k_peer = D.hkey_ e.sess_peer e.sess_pms e.sess_r1 e.sess_r2 in
        if TS.mem k_owner st.leaked then None
        else
          Some
            ( label "oops" [ e.sess_owner; e.sess_peer ],
              {
                st with
                leaked = TS.add k_owner (TS.add k_peer st.leaked);
                kn = Unknown;
              } ))
      st.sessions

let next st =
  let items = K.items (knowledge st) in
  t_oops st @ t_chello st @ t_shello st @ t_cert st @ t_kexch st @ t_cfin st @ t_sfin st
  @ t_compl st @ t_chello2 st @ t_shello2 st @ t_sfin2 st @ t_cfin2 st
  @ t_compl2 st @ t_fake_hellos st @ t_fake_ct st items @ t_fake_replays st items
  @ t_fake_constructed st items

let system scen =
  { Mc.initial = initial scen; next; key }

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_pms_secrecy scen st =
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          List.for_all
            (fun se ->
              not (derivable st (D.pms_ ~client:a ~server:b se)))
            scen.secrets)
        scen.servers)
    scen.clients

let split_enc m =
  match args (payload m) with
  | [ hk; body ] -> Some (hdr_of m, hk, body)
  | _ -> None

(* An sf message that a trustable client (dst) would accept as coming from
   src: key = hkey(src, pms(dst, src, _), r1, r2), body consistent. *)
let accepted_sf m =
  match split_enc m with
  | Some (h, hk, body) -> (
    match args hk, args body with
    | [ kp; pmsv; r1; r2 ], [ a; b; _i; _l; _c; r1'; r2'; pmsv' ]
      when Term.equal kp h.src && Term.equal a h.dst && Term.equal b h.src
           && Term.equal r1 r1' && Term.equal r2 r2'
           && Term.equal pmsv pmsv'
           && (not (Term.equal h.dst D.intruder))
           && Term.equal (List.nth (args pmsv) 0) h.dst
           && Term.equal (List.nth (args pmsv) 1) h.src ->
      Some h
    | _ -> None)
  | None -> None

let genuine_version m =
  let h = hdr_of m in
  match Term.view m with
  | Term.App (op, _ :: rest) -> Term.app_unchecked op (h.src :: rest)
  | _ -> m

let authentic st kind accept =
  List.for_all
    (fun m ->
      match accept m with
      | None -> true
      | Some (_ : hdr) -> TS.mem (genuine_version m) st.msgs)
    (msgs_of_kind st kind)

let prop_sf_authentic st = authentic st "sf" accepted_sf

let accepted_sf2 m =
  match split_enc m with
  | Some (h, hk, body) -> (
    match args hk, args body with
    | [ kp; pmsv; r1; r2 ], [ a; b; _i; _c; r1'; r2'; pmsv' ]
      when Term.equal kp h.src && Term.equal a h.dst && Term.equal b h.src
           && Term.equal r1 r1' && Term.equal r2 r2'
           && Term.equal pmsv pmsv'
           && (not (Term.equal h.dst D.intruder))
           && Term.equal (List.nth (args pmsv) 0) h.dst
           && Term.equal (List.nth (args pmsv) 1) h.src ->
      Some h
    | _ -> None)
  | None -> None

let prop_sf2_authentic st = authentic st "sf2" accepted_sf2

(* The mirror images: a cf/cf2 message a trustable *server* (dst) would
   accept as coming from the seeming client (src).  The server cannot tie
   the pre-master secret to the client's identity — which is exactly why
   these properties fail. *)
let accepted_cf m =
  match split_enc m with
  | Some (h, hk, body) -> (
    match args hk, args body with
    | [ kp; pmsv; r1; r2 ], [ a; b; _i; _l; _c; r1'; r2'; pmsv' ]
      when Term.equal kp h.src && Term.equal a h.src && Term.equal b h.dst
           && Term.equal r1 r1' && Term.equal r2 r2'
           && Term.equal pmsv pmsv'
           && not (Term.equal h.dst D.intruder) ->
      Some h
    | _ -> None)
  | None -> None

let prop_cf_authentic st = authentic st "cf" accepted_cf

let accepted_cf2 m =
  match split_enc m with
  | Some (h, hk, body) -> (
    match args hk, args body with
    | [ kp; pmsv; r1; r2 ], [ a; b; _i; _c; r1'; r2'; pmsv' ]
      when Term.equal kp h.src && Term.equal a h.src && Term.equal b h.dst
           && Term.equal r1 r1' && Term.equal r2 r2'
           && Term.equal pmsv pmsv'
           && not (Term.equal h.dst D.intruder) ->
      Some h
    | _ -> None)
  | None -> None

let prop_cf2_authentic st = authentic st "cf2" accepted_cf2

let handshake_complete scen st =
  List.exists
    (fun a ->
      List.exists
        (fun b ->
          List.exists
            (fun i ->
              match session st ~owner:a ~peer:b ~sid:i, session st ~owner:b ~peer:a ~sid:i with
              | Some q1, Some q2 -> q1 = q2
              | _ -> false)
            scen.sids)
        scen.servers)
    scen.clients

let resumption_complete scen st =
  ignore scen;
  msgs_of_kind st "sf2" <> [] && msgs_of_kind st "cf2" <> []

(* ------------------------------------------------------------------ *)
(* State-space reduction, justified by the static analyses on the
   symbolic model of the same handshake. *)

(* The static pass runs on the generated equational theory of the
   symbolic OTS ([Model.spec]); the concrete fake rules carry the same
   names as the symbolic intruder actions, so certification transfers
   label-for-label.  Memoized per style (about 0.8 s of analysis). *)
let analysis =
  Analysis.Symmetry.reduction_basis
    ~classes:(fun _ -> List.map (fun a -> a, [ a ]) Model.intruder_actions)
    Model.spec

let independence style = (analysis style).Analysis.Symmetry.b_indep
let symmetries style = (analysis style).Analysis.Symmetry.b_sym

(* The terms a permutation of the honest rands acts on: the network, the
   used rands, the leaked keys and the session tables ([ui] and [us] hold
   no rand). *)
let iter_terms f st =
  TS.iter f st.msgs;
  TS.iter f st.ur;
  TS.iter f st.leaked;
  List.iter
    (fun e ->
      f e.sess_owner;
      f e.sess_peer;
      f e.sess_sid;
      f e.sess_suite;
      f e.sess_r1;
      f e.sess_r2;
      f e.sess_pms)
    st.sessions

let remap_state f st =
  let entry e =
    {
      sess_owner = f e.sess_owner;
      sess_peer = f e.sess_peer;
      sess_sid = f e.sess_sid;
      sess_suite = f e.sess_suite;
      sess_r1 = f e.sess_r1;
      sess_r2 = f e.sess_r2;
      sess_pms = f e.sess_pms;
    }
  in
  {
    st with
    msgs = TS.map f st.msgs;
    ur = TS.map f st.ur;
    leaked = TS.map f st.leaked;
    sessions =
      List.sort
        (fun a b -> compare (session_key a) (session_key b))
        (List.map entry st.sessions);
    kn = Unknown;
  }

let reduction ?(por = true) ?(symmetry = true) scen =
  (* Only the honest principals' fresh rands are interchangeable: the
     intruder's guessable rand is part of its (asymmetric) identity. *)
  let honest =
    List.filter
      (fun r -> not (List.exists (Term.equal r) scen.intruder_rands))
      scen.rands
  in
  let ample, canon =
    (* The Oops rule has no symbolic counterpart, so its commutations are
       not certified: a leaking scenario falls back to the full search. *)
    Analysis.Symmetry.reducer (analysis scen.style) ~por:(por && not scen.oops)
      ~symmetry ~candidates:honest ~iter_terms ~remap:remap_state ~emit:emit_key
  in
  { Mc.ample = (fun (l : label) -> ample l.rule); canon }
