(** A single serving process: the {!Frontend} with its reader threads
    spread over the worker domains, each answering its connection's
    requests against the index of the current epoch. The index and
    the cache are the only structures shared across connections, and
    both are safe by construction (immutable / mutex'd); they live in
    an epoch behind an atomic pointer so {!reload} can swap them
    without touching connections (pin protocol below). *)

module Stage = Lapis_perf.Stage

type config = {
  host : string;
  port : int;
  workers : int option;
}

let default = { host = "127.0.0.1"; port = 0; workers = None }

(* Response-cache entries per epoch. *)
let cache_capacity = 1024

(* One index + its response cache, immutable once published. Readers
   pin the current epoch for the duration of a single request; reload
   publishes a successor and waits for the old epoch's pin count to
   drain, so an epoch's cache can never answer a request evaluated
   against a different index. *)
type epoch = {
  ep_id : int;
  ep_idx : Query.t;
  ep_cache : Serve.cache;
  ep_inflight : int Atomic.t;
}

type t = {
  fe : Frontend.t;
  epoch : epoch Atomic.t;
  n_workers : int;
  reload_mutex : Mutex.t;
}

(* The stats op samples these live — the serving state only the
   server knows. *)
let gauges t ep () =
  let hits, misses = Lru.stats ep.ep_cache in
  [
    ("workers", float_of_int t.n_workers);
    ("connections", float_of_int (Frontend.connections_served t.fe));
    ("epoch", float_of_int ep.ep_id);
    (* The package range this shard's per-package planes cover — how
       a fleet router learns its scatter partition from sliced
       shards. A full index reports the whole range. *)
    ("slice_lo", float_of_int (Query.slice_lo ep.ep_idx));
    ("slice_hi", float_of_int (Query.slice_hi ep.ep_idx));
  ]
  @ Frontend.process_gauges ()
  @ [
      ("cache_entries", float_of_int (Lru.length ep.ep_cache));
      ("cache_hits", float_of_int hits);
      ("cache_misses", float_of_int misses);
    ]

(* Pin the current epoch: bump its in-flight count, then re-check the
   pointer. If a reload won the race between the read and the bump,
   the count we incremented may already have been observed as drained,
   so undo and retry against the new pointer. After this returns, the
   drain loop in [reload] cannot pass until we unpin. *)
let rec pin_epoch t =
  let ep = Atomic.get t.epoch in
  Atomic.incr ep.ep_inflight;
  if Atomic.get t.epoch == ep then ep
  else begin
    Atomic.decr ep.ep_inflight;
    pin_epoch t
  end

let answer t msg =
  let ep = pin_epoch t in
  Fun.protect ~finally:(fun () -> Atomic.decr ep.ep_inflight) @@ fun () ->
  Stage.incr "serve:requests";
  Frontend.answer
    (Serve.answer ~cache:ep.ep_cache ~gauges:(gauges t ep) ep.ep_idx)
    msg

let port t = Frontend.port t.fe
let connections_served t = Frontend.connections_served t.fe
let epoch_id t = (Atomic.get t.epoch).ep_id
let signal_stop t = Frontend.signal_stop t.fe
let stop t = Frontend.stop t.fe
let wait t = Frontend.wait t.fe

let make_epoch ~id idx =
  {
    ep_id = id;
    ep_idx = idx;
    ep_cache = Lru.create ~capacity:cache_capacity;
    ep_inflight = Atomic.make 0;
  }

let reload t idx =
  Mutex.lock t.reload_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.reload_mutex)
    (fun () ->
      let old = Atomic.get t.epoch in
      let fresh = make_epoch ~id:(old.ep_id + 1) idx in
      Atomic.set t.epoch fresh;
      (* Every pin taken after the store above lands on [fresh]; a pin
         racing the store either saw the new pointer (and retried onto
         [fresh]) or is counted here. So once the count reaches zero it
         stays zero, and no query references [old] any more. *)
      while Atomic.get old.ep_inflight > 0 do
        Unix.sleepf 0.001
      done;
      Stage.incr "serve:reloads")

let start ?(config = default) idx =
  let workers =
    match config.workers with
    | Some w -> max 1 w
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  match
    Frontend.listen
      {
        Frontend.host = config.host;
        port = config.port;
        domains = workers;
        stage = "serve";
      }
  with
  | Error msg -> Error msg
  | Ok fe ->
    let t =
      {
        fe;
        epoch = Atomic.make (make_epoch ~id:0 idx);
        n_workers = workers;
        reload_mutex = Mutex.create ();
      }
    in
    Frontend.run fe
      ~handle:(fun msg reply -> reply (answer t msg))
      ~teardown:ignore;
    Ok t
