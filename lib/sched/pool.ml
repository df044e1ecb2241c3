exception Deadlock

module Probe = Telemetry.Probe

(* Pool telemetry: submissions by entry path, successful steals, entries
   executed and the time spent executing them (per-domain cells — the
   busy-ns total divided by the domain-seconds of the pool's life is its
   utilization), plus a high-water mark for the owner deque depth.  All
   of it is behind the probe's single-branch guard. *)
let c_pushes_local = Probe.counter "sched.pushes_local"
let c_injected = Probe.counter "sched.injected"
let c_steals = Probe.counter "sched.steals"
let c_tasks = Probe.counter "sched.tasks_run"
let c_busy_ns = Probe.counter "sched.busy_ns"
let c_queue_peak = Probe.counter ~mode:`Max "sched.queue_depth_peak"

(* ------------------------------------------------------------------ *)
(* Chase-Lev work-stealing deque (Chase & Lev, SPAA 2005), the dynamic
   circular array variant.  The owner pushes and pops at [bottom]; thieves
   CAS [top] upward.  [top]/[bottom] are atomics; the array itself is
   published through an atomic so a thief holding a stale array still reads
   valid slots (grow never clears the old array, and its [top] CAS fails if
   the element moved).  Slots are only cleared by their consumer, which for
   the contended last element is decided by the CAS on [top]. *)
module Deque = struct
  type 'a t = {
    top : int Atomic.t;
    bottom : int Atomic.t;
    tab : 'a option array Atomic.t;
  }

  let create () =
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      tab = Atomic.make (Array.make 64 None);
    }

  let grow q b t =
    let old = Atomic.get q.tab in
    let n = Array.length old in
    let fresh = Array.make (2 * n) None in
    for i = t to b - 1 do
      fresh.(i mod (2 * n)) <- old.(i mod n)
    done;
    Atomic.set q.tab fresh

  (* owner only *)
  let push q v =
    let b = Atomic.get q.bottom and t = Atomic.get q.top in
    let tab = Atomic.get q.tab in
    if b - t >= Array.length tab - 1 then grow q b t;
    let tab = Atomic.get q.tab in
    tab.(b mod Array.length tab) <- Some v;
    Atomic.set q.bottom (b + 1)

  (* owner only *)
  let pop q =
    let b = Atomic.get q.bottom - 1 in
    Atomic.set q.bottom b;
    let t = Atomic.get q.top in
    if b < t then begin
      (* empty: restore the canonical empty shape *)
      Atomic.set q.bottom t;
      None
    end
    else begin
      let tab = Atomic.get q.tab in
      let i = b mod Array.length tab in
      let v = tab.(i) in
      if b > t then begin
        tab.(i) <- None;
        v
      end
      else begin
        (* last element: race the thieves for it *)
        let won = Atomic.compare_and_set q.top t (t + 1) in
        Atomic.set q.bottom (t + 1);
        if won then begin
          tab.(i) <- None;
          v
        end
        else None
      end
    end

  (* any domain *)
  let steal q =
    let t = Atomic.get q.top in
    let b = Atomic.get q.bottom in
    if t >= b then None
    else begin
      let tab = Atomic.get q.tab in
      let v = tab.(t mod Array.length tab) in
      if Atomic.compare_and_set q.top t (t + 1) then v else None
    end
end

(* ------------------------------------------------------------------ *)
(* The pool *)

type entry = unit -> unit

type t = {
  uid : int;  (** distinguishes pools in the per-domain worker registry *)
  deques : entry Deque.t array;  (** one per worker domain *)
  inject : entry Chan.t;  (** submissions from non-worker domains *)
  mutable domains : unit Domain.t array;
  stopped : bool Atomic.t;
  epoch : int Atomic.t;  (** bumped on every submission; guards sleep *)
  idle_mutex : Mutex.t;
  idle_wake : Condition.t;
  born_ns : int;  (** creation time; utilization gauge at shutdown *)
}

let next_uid = Atomic.make 0

(* Which pool/worker the current domain belongs to, if any: lets [submit]
   push to the local deque and [await] help instead of block. *)
let worker_id : (int * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let my_index pool =
  match !(Domain.DLS.get worker_id) with
  | Some (uid, i) when uid = pool.uid -> Some i
  | _ -> None

let wake_all pool =
  Mutex.lock pool.idle_mutex;
  Condition.broadcast pool.idle_wake;
  Mutex.unlock pool.idle_mutex

(* Find one runnable entry: own deque first (LIFO), then steal from the
   other workers (round-robin from our right-hand neighbour, so contention
   spreads), then the injection queue. *)
let find_work pool me =
  let nworkers = Array.length pool.deques in
  let own =
    match me with
    | Some i -> Deque.pop pool.deques.(i)
    | None -> None
  in
  match own with
  | Some _ as r -> r
  | None ->
    let start = match me with Some i -> i + 1 | None -> 0 in
    let rec try_steal k =
      if k >= nworkers then None
      else
        let j = (start + k) mod nworkers in
        if me = Some j then try_steal (k + 1)
        else
          match Deque.steal pool.deques.(j) with
          | Some _ as r ->
            Probe.incr c_steals;
            r
          | None -> try_steal (k + 1)
    in
    (match try_steal 0 with
    | Some _ as r -> r
    | None -> Chan.try_recv pool.inject)

(* Whether this domain is inside an entry.  An entry run while helping in
   another entry's [await] lies within the outer entry's time, so only the
   outermost entry of each domain adds its time to [sched.busy_ns]. *)
let in_entry : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* Entries trap their own exceptions into the task (see [submit]), so the
   timed branch needs no handler. *)
let run_entry (e : entry) =
  if not (Probe.enabled ()) then e ()
  else begin
    Probe.incr c_tasks;
    let inside = Domain.DLS.get in_entry in
    if !inside then e ()
    else begin
      inside := true;
      let t0 = Probe.now_ns () in
      e ();
      inside := false;
      Probe.add c_busy_ns (Probe.now_ns () - t0)
    end
  end

let worker_loop pool i () =
  Domain.DLS.get worker_id := Some (pool.uid, i);
  let spin_budget = 256 in
  let rec loop spins =
    match find_work pool (Some i) with
    | Some e ->
      run_entry e;
      loop spin_budget
    | None ->
      if Atomic.get pool.stopped then ()
      else if spins > 0 then begin
        Domain.cpu_relax ();
        loop (spins - 1)
      end
      else begin
        (* Sleep, unless a submission happened after our last sweep: the
           epoch is read before re-checking the queues, and submitters bump
           it before broadcasting, so a push between our sweep and the wait
           is detected and we sweep again. *)
        let seen = Atomic.get pool.epoch in
        match find_work pool (Some i) with
        | Some e ->
          run_entry e;
          loop spin_budget
        | None ->
          Mutex.lock pool.idle_mutex;
          if Atomic.get pool.epoch = seen && not (Atomic.get pool.stopped)
          then Condition.wait pool.idle_wake pool.idle_mutex;
          Mutex.unlock pool.idle_mutex;
          loop spin_budget
      end
  in
  loop spin_budget

let create ~jobs () =
  let jobs = max 1 jobs in
  let nworkers = jobs - 1 in
  let pool =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      deques = Array.init nworkers (fun _ -> Deque.create ());
      inject = Chan.create ();
      domains = [||];
      stopped = Atomic.make false;
      epoch = Atomic.make 0;
      idle_mutex = Mutex.create ();
      idle_wake = Condition.create ();
      born_ns = Probe.now_ns ();
    }
  in
  pool.domains <-
    Array.init nworkers (fun i -> Domain.spawn (worker_loop pool i));
  pool

let jobs pool = Array.length pool.deques + 1

let submit pool f =
  if Atomic.get pool.stopped then
    invalid_arg "Sched.Pool.submit: pool is shut down";
  (* carry the submitter's request attribution onto whichever domain
     eventually runs the task, so spans stay filterable by request id
     across steals; costs one atomic load when the probe is off *)
  let f =
    if Probe.enabled () then
      match Probe.current_request () with
      | None -> f
      | Some _ as req -> fun () -> Probe.with_request req f
    else f
  in
  let task = Task.create () in
  let entry () =
    match f () with
    | v -> Task.fill task v
    | exception e -> Task.fail task e (Printexc.get_raw_backtrace ())
  in
  (match my_index pool with
  | Some i ->
    let q = pool.deques.(i) in
    Deque.push q entry;
    if Probe.enabled () then begin
      Probe.incr c_pushes_local;
      Probe.record_max c_queue_peak (Atomic.get q.Deque.bottom - Atomic.get q.Deque.top)
    end
  | None ->
    Probe.incr c_injected;
    Chan.send pool.inject entry);
  Atomic.incr pool.epoch;
  wake_all pool;
  task

(* Awaiting helps: run queued tasks until the target resolves.  When the
   queues run dry the awaiter blocks on the task itself rather than
   spinning — crucial when domains outnumber cores (including the 1-core
   degenerate case, where a spinner would starve the domain actually
   running the task).  Blocking here cannot deadlock the pool: a domain
   only blocks when no work is queued, and any domain that enqueues work
   sweeps its own queues before it blocks in turn, so as long as some task
   is unresolved some domain is executing one. *)
let await pool task =
  let me = my_index pool in
  let single_domain = Array.length pool.deques = 0 && me = None in
  let rec help dry =
    match Task.poll task with
    | Some v -> v
    | None -> (
      match find_work pool me with
      | Some e ->
        run_entry e;
        help 64
      | None ->
        if Task.is_resolved task then help dry
        else if single_domain then
          (* nobody else can run anything: the awaited task can only be
             pending below us on this very stack *)
          raise Deadlock
        else if dry > 0 then begin
          (* brief grace period: catch a task racing into a queue *)
          Domain.cpu_relax ();
          help (dry - 1)
        end
        else Task.wait task)
  in
  help 64

let run pool f = await pool (submit pool f)

let try_help pool =
  match find_work pool (my_index pool) with
  | Some e ->
    run_entry e;
    true
  | None -> false

let parallel_map pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
    let tasks = List.map (fun x -> submit pool (fun () -> f x)) xs in
    let settled =
      List.map
        (fun t ->
          match await pool t with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
        tasks
    in
    List.map
      (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      settled

let parallel_filter_map pool f xs =
  List.filter_map Fun.id (parallel_map pool f xs)

let shutdown pool =
  if not (Atomic.get pool.stopped) then begin
    Atomic.set pool.stopped true;
    wake_all pool;
    Array.iter Domain.join pool.domains;
    pool.domains <- [||];
    if Probe.enabled () then begin
      (* busy time over the domain-seconds available: the workers' and the
         caller's, which helps in [await] *)
      let elapsed = Probe.now_ns () - pool.born_ns in
      let capacity = elapsed * jobs pool in
      if capacity > 0 then
        Probe.set_gauge "sched.utilization"
          (float_of_int (Probe.value c_busy_ns) /. float_of_int capacity)
    end
  end

let with_pool ~jobs f =
  let pool = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
