(* The server's event loop is single-threaded, but the registry is also
   exercised directly by tests from several domains, so every operation
   holds the (uncontended) lock. *)

let c_hits = Telemetry.Probe.counter ~live:true "server.dedup.hits"
let c_misses = Telemetry.Probe.counter ~live:true "server.dedup.misses"

let dedup_counts () =
  Telemetry.Probe.value c_hits, Telemetry.Probe.value c_misses

(* Requesters are kept newest-first and capped: the list exists so a
   trace or log line can answer "who is waiting on this obligation",
   not to be an unbounded audit log. *)
let max_requesters = 8

type 'a entry = {
  task : 'a Sched.Task.t;
  mutable seq : int;
  mutable requesters : string list;
}

type 'a t = {
  lock : Mutex.t;
  entries : (string, 'a entry) Hashtbl.t;
  capacity : int;
  mutable next_seq : int;
}

let create ?(capacity = 1024) () =
  {
    lock = Mutex.create ();
    entries = Hashtbl.create 64;
    capacity = max 1 capacity;
    next_seq = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Evict the oldest *resolved* entries until we are back under capacity;
   in-flight futures must survive (dropping one would fork duplicate
   work and break the shared-future invariant). *)
let evict t =
  if Hashtbl.length t.entries > t.capacity then begin
    let resolved =
      Hashtbl.fold
        (fun k e acc ->
          if Sched.Task.is_resolved e.task then (e.seq, k) :: acc else acc)
        t.entries []
      |> List.sort compare
    in
    let excess = Hashtbl.length t.entries - t.capacity in
    List.iteri
      (fun i (_, k) -> if i < excess then Hashtbl.remove t.entries k)
      resolved
  end

let attach e requester =
  match requester with
  | None -> ()
  | Some r ->
    let others = List.filter (fun r' -> r' <> r) e.requesters in
    e.requesters <- r :: others;
    if List.length e.requesters > max_requesters then
      e.requesters <- List.filteri (fun i _ -> i < max_requesters) e.requesters

let find_or_submit ?requester t ~key spawn =
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.entries key with
  | Some e ->
    Telemetry.Probe.incr c_hits;
    (* refresh recency so hot obligations outlive cold ones *)
    e.seq <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    attach e requester;
    e.task, if Sched.Task.is_resolved e.task then `Cached else `Inflight
  | None ->
    Telemetry.Probe.incr c_misses;
    let task = spawn () in
    let e = { task; seq = t.next_seq; requesters = [] } in
    attach e requester;
    Hashtbl.replace t.entries key e;
    t.next_seq <- t.next_seq + 1;
    evict t;
    task, `Fresh

let requesters t ~key =
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.entries key with
  | Some e -> e.requesters
  | None -> []

let in_flight_count t =
  with_lock t @@ fun () ->
  Hashtbl.fold
    (fun _ e n -> if Sched.Task.is_resolved e.task then n else n + 1)
    t.entries 0

let size t = with_lock t @@ fun () -> Hashtbl.length t.entries
