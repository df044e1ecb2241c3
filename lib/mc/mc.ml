type ('state, 'action) system = {
  initial : 'state;
  next : 'state -> ('action * 'state) list;
  key : 'state -> string;
}

type ('state, 'action) reduction = {
  ample : 'action -> bool;
  canon : 'state -> 'state;
}

let no_reduction = { ample = (fun _ -> false); canon = (fun s -> s) }

type stats = {
  states_explored : int;
  transitions_fired : int;
  states_pruned : int;
  max_depth : int;
  elapsed : float;
}

type 'action violation = {
  property : string;
  trace : 'action list;
  depth : int;
}

type 'action outcome =
  | No_violation of stats
  | Violation of 'action violation * stats
  | Out_of_bounds of stats

exception Found of string * int

let c_pruned = Telemetry.Probe.counter ~live:true "mc.por.pruned"

(* A seen state.  Parent pointers (by state key) reconstruct traces.  With
   a reduction, a whole chase of ample transitions collapses into one
   compound edge, so [via] is a label {e chain}: singleton for an ordinary
   step, the fired sequence for a compound one, flattened on trace
   reconstruction. *)
type 'a node = { parent_key : string option; via : 'a list; depth : int }

(* Saturate the certified-independent ample transitions from [s] into one
   compound step: repeatedly follow the first ample successor whose
   canonical key actually changes, until none does (or a safety cap trips
   — ample cycles are possible, e.g. the intruder re-faking a message it
   already sent).  Independence of the ample actions from *every* action
   makes the endpoint order-insensitive; the cap keeps cycles finite.
   [peek] checks the properties on the intermediate states so a violation
   inside the chase surfaces at the point it appears instead of being
   jumped over; the chase truncates there and the caller enqueues the
   violating state. *)
let flood ~red ~key ~next ~peek s k =
  let rec go s k labels n =
    if n >= 256 then (List.rev labels, s, k)
    else
      match
        List.find_map
          (fun (a, s') ->
            if red.ample a then begin
              let s' = red.canon s' in
              let k' = key s' in
              if String.equal k' k then None else Some (a, s', k')
            end
            else None)
          (next s)
      with
      | None -> (List.rev labels, s, k)
      | Some (a, s', k') ->
        let labels = a :: labels in
        if peek s' then (List.rev labels, s', k') else go s' k' labels (n + 1)
  in
  go s k [] 0

(* One state's expansion, as [merge] replays it: an ordinary step, a
   compound step (the fired chain, its endpoint, and the ample transitions
   it subsumes), or an ample set that only shuffled within the orbit. *)
type ('s, 'a) step = Step of 'a * 's | Comp of 'a list * 's * int | Prune of int

(* A level in frontier order, cut into chunks of at most [chunk_cap]
   states, and smaller ones on a narrow level so that every domain of the
   pool gets some. *)
let chunk_cap = 32

let chunks pool level =
  let size = max 1 (min chunk_cap (List.length level / (4 * Sched.Pool.jobs pool))) in
  let rec split acc current len = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | x :: rest ->
      if len = size then split (List.rev current :: acc) [ x ] 1 rest
      else split acc (x :: current) (len + 1) rest
  in
  split [] [] 0 level

(* [windowed pool ~expand ~merge ~passed level] expands the level's
   chunks on [pool] and merges them in frontier order: at most [jobs + 1]
   chunks are in flight, the first is awaited and merged, and the next is
   submitted in its place.  Once [passed ()] (the state bound) nothing
   more is submitted.  An exception from a merge (a violation) or from a
   chunk settles the chunks still in flight before it propagates, so the
   pool is idle whenever this returns. *)
let windowed pool ~expand ~merge ~passed level =
  let inflight = Queue.create () and pending = ref (chunks pool level) in
  let submit () =
    match !pending with
    | [] -> ()
    | chunk :: rest ->
      pending := rest;
      Queue.push (Sched.Pool.submit pool (fun () -> List.map expand chunk)) inflight
  in
  for _ = 0 to Sched.Pool.jobs pool do
    submit ()
  done;
  try
    while not (Queue.is_empty inflight) do
      List.iter merge (Sched.Pool.await pool (Queue.pop inflight));
      if passed () then pending := [];
      submit ()
    done
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Queue.iter (fun t -> try ignore (Sched.Pool.await pool t) with _ -> ()) inflight;
    Printexc.raise_with_backtrace e bt

(* Level-synchronous BFS until exhaustion or a state satisfying [stop].
   [expand] does the expensive part of a frontier state — [system.next]
   and, under a reduction, the canonization and the whole flood chase —
   and [merge] replays its steps through [enqueue] in frontier order:
   same bound check before each frontier state, same dedup order, same
   stop at the first violation.  Without a pool (or with a pool of one)
   each state is merged as soon as it is expanded; with a larger pool the
   level is expanded chunk by chunk through [windowed], so no chunk is
   submitted once the state bound is passed or a violation found.  The
   outcome is therefore the same with any pool; only wall-clock differs,
   and how many states were expanded but never merged (at most a window
   of chunks).  The keys of merged states are computed by [enqueue], on
   the calling domain: computed on the workers, they lifted [attack]'s
   peak resident set by a third (EXPERIMENTS.md E25).

   State handoff is synchronized: closures reach workers through the pool's
   queues and successor states return through task results, so per-state
   caches written on one side are visible on the other. *)
let explore ?(max_states = 1_000_000) ?(max_depth = max_int) ?reduction ?pool
    system ~stop =
  let t0 = Telemetry.Probe.now_ns () in
  let red = Option.value reduction ~default:no_reduction in
  let reduced = Option.is_some reduction in
  let seen : (string, 'a node) Hashtbl.t = Hashtbl.create 4096 in
  let states = ref 0 in
  let transitions = ref 0 in
  let pruned = ref 0 in
  let compound_fired = ref false in
  let deepest = ref 0 in
  let complete = ref true in
  let frontier = ref [] in
  let trace_to key =
    let rec go key acc =
      match Hashtbl.find seen key with
      | { parent_key = None; _ } -> acc
      | { parent_key = Some pk; via; _ } -> go pk (via @ acc)
    in
    go key []
  in
  (* [state] must already be canonical. *)
  let enqueue state parent_key via depth =
    let k = system.key state in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k { parent_key; via; depth };
      incr states;
      if depth > !deepest then deepest := depth;
      (match stop state with
      | Some (_ : string) -> raise (Found (k, depth))
      | None -> ());
      if depth < max_depth then frontier := (state, k, depth) :: !frontier
      else complete := false
    end
  in
  let mk_stats () =
    Telemetry.Probe.add c_pruned !pruned;
    {
      states_explored = !states;
      transitions_fired = !transitions;
      states_pruned = !pruned;
      max_depth = !deepest;
      elapsed = float_of_int (Telemetry.Probe.now_ns () - t0) /. 1e9;
    }
  in
  let peek s = Option.is_some (stop s) in
  let expand state k =
    let succs = system.next state in
    if not reduced then List.map (fun (a, s') -> Step (a, s')) succs
    else begin
      let amples, honest = List.partition (fun (a, _) -> red.ample a) succs in
      let compound =
        match amples with
        | [] -> []
        | _ ->
          let labels, s_end, k_end =
            flood ~red ~key:system.key ~next:system.next ~peek state k
          in
          (* an ample set that only shuffles within the current orbit *)
          if String.equal k_end k then [ Prune (List.length amples) ]
          else [ Comp (labels, s_end, List.length amples - 1) ]
      in
      compound @ List.map (fun (a, s') -> Step (a, red.canon s')) honest
    end
  in
  let merge k depth expansion =
    if !states > max_states then complete := false
    else
      List.iter
        (function
          | Step (a, s') ->
            incr transitions;
            enqueue s' (Some k) [ a ] (depth + 1)
          | Comp (labels, s', n_pruned) ->
            incr transitions;
            compound_fired := true;
            pruned := !pruned + n_pruned;
            enqueue s' (Some k) labels (depth + 1)
          | Prune n -> pruned := !pruned + n)
        (expansion ())
  in
  let search_level =
    match pool with
    | Some pool when Sched.Pool.jobs pool > 1 ->
      windowed pool
        ~expand:(fun (state, k, depth) -> (k, depth, expand state k))
        ~merge:(fun (k, depth, steps) -> merge k depth (fun () -> steps))
        ~passed:(fun () -> !states > max_states)
    | _ -> List.iter (fun (state, k, depth) -> merge k depth (fun () -> expand state k))
  in
  try
    enqueue (red.canon system.initial) None [] 0;
    while !frontier <> [] do
      let level = List.rev !frontier in
      frontier := [];
      if !states > max_states then complete := false else search_level level
    done;
    (* A compound edge compresses several transitions into one depth level,
       so under a finite depth bound exhaustion of the reduced graph does
       not certify the full bounded space: report [Out_of_bounds] exactly
       as the unreduced exploration would. *)
    let genuinely_complete =
      !complete && not (!compound_fired && max_depth < max_int)
    in
    `Exhausted (mk_stats (), genuinely_complete)
  with Found (key, depth) -> `Stopped (mk_stats (), trace_to key, depth)

let outcome_of_explore violated = function
  | `Exhausted (stats, true) -> No_violation stats
  | `Exhausted (stats, false) -> Out_of_bounds stats
  | `Stopped (stats, trace, depth) ->
    Violation ({ property = !violated; trace; depth }, stats)

(* [stop] returns the name of a *violated* property. *)
let stop_of_props props =
  let violated = ref "" in
  let stop state =
    match
      List.find_map
        (fun (name, pred) -> if pred state then None else Some name)
        props
    with
    | Some name ->
      violated := name;
      Some name
    | None -> None
  in
  violated, stop

let par_bfs ?max_states ?max_depth ?reduction ~pool system ~props =
  let violated, stop = stop_of_props props in
  outcome_of_explore violated
    (explore ?max_states ?max_depth ?reduction ~pool system ~stop)

let bfs ?max_states ?max_depth ?reduction system ~props =
  let violated, stop = stop_of_props props in
  outcome_of_explore violated
    (explore ?max_states ?max_depth ?reduction system ~stop)

let reachable ?max_states ?max_depth ?reduction system ~goal =
  let witness = ref None in
  let stop state =
    if goal state then begin
      witness := Some state;
      Some "goal"
    end
    else None
  in
  match explore ?max_states ?max_depth ?reduction system ~stop with
  | `Exhausted _ -> None
  | `Stopped (_, trace, _) -> (
    match !witness with Some s -> Some (trace, s) | None -> None)

let outcome_stats = function
  | No_violation s -> s
  | Violation (_, s) -> s
  | Out_of_bounds s -> s

let pp_stats ppf s =
  Format.fprintf ppf "states=%d transitions=%d depth=%d %.3fs"
    s.states_explored s.transitions_fired s.max_depth s.elapsed;
  if s.states_pruned > 0 then
    Format.fprintf ppf " (pruned %d)" s.states_pruned

let pp_outcome pp_action ppf = function
  | No_violation s ->
    Format.fprintf ppf "no violation (exhaustive; %a)" pp_stats s
  | Out_of_bounds s ->
    Format.fprintf ppf "no violation within bounds (%a)" pp_stats s
  | Violation (v, s) ->
    Format.fprintf ppf "@[<v2>violation of %s at depth %d (%a):" v.property
      v.depth pp_stats s;
    List.iter (fun a -> Format.fprintf ppf "@,%a" pp_action a) v.trace;
    Format.fprintf ppf "@]"
