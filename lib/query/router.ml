(** See the interface for semantics. Threading model: the client side
    is the {!Frontend}, whose readers hand every message to a bounded
    pool of plain threads — gather work is IO-bound waiting on shard
    sockets, not CPU-bound evaluation, so a reader that waited on it
    would stall its connection. Each
    shard has one pipelined connection: a mutex serializes writes, a
    reader thread completes waiters by router-assigned id, and a
    receive timeout turns a stalled shard into failed calls rather
    than hung ones. Invariants:

    - all of a shard's mutable state ([fd], [healthy], [pending],
      [generation]) is touched only under its mutex; waiters are
      completed outside it (their own mutex/condvar);
    - a connection generation is bumped on every (re)connect, and a
      reader that finds its generation stale exits without touching
      anything — so a late reader from a torn-down connection cannot
      fail the fresh one;
    - every waiter is eventually completed: by a response, by the
      reader's failure sweep (timeout/EOF/bad frame fail {e all}
      pending), or by shutdown closing the connection;
    - the pool's job queue is one Mutex/Condition queue; [submit]
      blocks while it is full, and [Quit] bypasses the bound so a full
      queue can never strand a worker. *)

module Stage = Lapis_perf.Stage
module Histogram = Lapis_perf.Histogram
module P = Protocol

type shard_spec = { sh_host : string; sh_port : int }

let shard_spec_of_string s =
  let host, port_s =
    match String.rindex_opt s ':' with
    | None -> ("127.0.0.1", s)
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let ipv4 =
    match Unix.inet_addr_of_string host with
    | addr -> Unix.domain_of_sockaddr (Unix.ADDR_INET (addr, 0)) = Unix.PF_INET
    | exception Failure _ -> false
  in
  match int_of_string_opt port_s with
  | _ when not ipv4 ->
    Error (Printf.sprintf "shard host %S is not an IPv4 address" host)
  | Some p when p > 0 && p < 65536 -> Ok { sh_host = host; sh_port = p }
  | _ -> Error (Printf.sprintf "bad shard port %S" port_s)

type config = {
  host : string;
  port : int;
  workers : int;
  shard_timeout : float;
  health_period : float;
}

let default =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 8;
    shard_timeout = 5.0;
    health_period = 1.0;
  }

(* Entries in the router's LRU over deterministic responses. *)
let cache_capacity = 512

(* ------------------------------------------------------------------ *)
(* Shard clients                                                       *)
(* ------------------------------------------------------------------ *)

(* One gather cell per scatter round: every in-flight sub-request owns
   a slot, and the condvar fires once, when the last slot lands. The
   old design gave each sub-request its own mutex + condvar, so a
   worker gathering K partials could sleep and wake up to K times per
   scatter — on the hot path that is K-1 avoidable context-switch
   round trips. A forwarded single call is just a gather of one. *)
type gather = {
  g_mutex : Mutex.t;
  g_cond : Condition.t;
  g_results : (P.response, string) result option array;
  mutable g_missing : int;
}

type waiter = { g : gather; slot : int }

let new_gather n =
  {
    g_mutex = Mutex.create ();
    g_cond = Condition.create ();
    g_results = Array.make n None;
    g_missing = n;
  }

let waiter_of g slot = { g; slot }

let new_waiter () = waiter_of (new_gather 1) 0

let complete_waiter w result =
  let g = w.g in
  Mutex.lock g.g_mutex;
  if g.g_results.(w.slot) = None then begin
    g.g_results.(w.slot) <- Some result;
    g.g_missing <- g.g_missing - 1;
    if g.g_missing = 0 then Condition.signal g.g_cond
  end;
  Mutex.unlock g.g_mutex

(* After [await_all] returns, every slot is [Some] and no completer
   can touch the array again (the [None] check above), so slots are
   safe to read without the lock. *)
let await_all g =
  Mutex.lock g.g_mutex;
  while g.g_missing > 0 do
    Condition.wait g.g_cond g.g_mutex
  done;
  Mutex.unlock g.g_mutex

let await w =
  await_all w.g;
  Option.get w.g.g_results.(w.slot)

type shard = {
  spec : shard_spec;
  sm : Mutex.t;
  mutable s_fd : Unix.file_descr option;
  mutable s_healthy : bool;
  mutable s_gen : int;  (* bumped per (re)connect *)
  mutable s_next_id : int;
  s_pending : (int, waiter) Hashtbl.t;
  s_outq : (int * P.req) Queue.t;  (* registered but not yet written *)
  mutable s_draining : bool;  (* the single-writer token for [s_outq] *)
}

let shard_name sh = Printf.sprintf "%s:%d" sh.spec.sh_host sh.spec.sh_port

let shard_healthy sh = Mutex.protect sh.sm (fun () -> sh.s_healthy)

(* Under [sm]: tear the connection down and fail every in-flight call.
   Waiters are collected under the lock but completed outside it. *)
let fail_locked sh =
  (match sh.s_fd with
   | Some fd ->
     sh.s_fd <- None;
     (try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  sh.s_healthy <- false;
  Queue.clear sh.s_outq;  (* queued ids are in [s_pending]; fail once *)
  let waiters = Hashtbl.fold (fun _ w acc -> w :: acc) sh.s_pending [] in
  Hashtbl.reset sh.s_pending;
  waiters

let fail_conn sh gen msg =
  let waiters =
    Mutex.protect sh.sm (fun () ->
        if sh.s_gen = gen then begin
          Stage.incr "router:shard-fail";
          fail_locked sh
        end
        else [])
  in
  List.iter (fun w -> complete_waiter w (Error msg)) waiters

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let rec read_exact fd buf off len =
  if len = 0 then true
  else
    match Unix.read fd buf off len with
    | 0 -> false
    | n -> read_exact fd buf (off + n) (len - n)

let pending_empty sh gen =
  Mutex.protect sh.sm (fun () ->
      sh.s_gen <> gen || Hashtbl.length sh.s_pending = 0)

let complete_response sh gen resp =
  let waiter =
    Mutex.protect sh.sm (fun () ->
        if sh.s_gen <> gen then None
        else
          match Option.bind resp.P.rs_id Json.to_int with
          | None -> None
          | Some id ->
            let w = Hashtbl.find_opt sh.s_pending id in
            Hashtbl.remove sh.s_pending id;
            w)
  in
  match waiter with
  | Some w -> complete_waiter w (Ok resp)
  | None -> ()  (* uncorrelated response; nothing waits for it *)

(* One reader per connection generation. The receive timeout only
   counts as idleness at a frame boundary with nothing in flight;
   anywhere else it means the shard stalled mid-conversation, which
   fails the connection (the never-hang contract). *)
let shard_reader sh fd gen () =
  let hdr = Bytes.create 4 in
  let first = Bytes.create 1 in
  let rec loop () =
    match Unix.read fd first 0 1 with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      if pending_empty sh gen then loop ()
      else fail_conn sh gen "shard timed out"
    | exception _ -> fail_conn sh gen "shard read error"
    | 0 -> fail_conn sh gen "shard closed connection"
    | _ ->
      if Bytes.get first 0 <> P.Bin.magic then
        fail_conn sh gen "bad frame magic from shard"
      else (
        match read_exact fd hdr 0 4 with
        | exception _ -> fail_conn sh gen "shard stalled mid-frame"
        | false -> fail_conn sh gen "EOF inside frame header"
        | true ->
          let len =
            Char.code (Bytes.get hdr 0)
            lor (Char.code (Bytes.get hdr 1) lsl 8)
            lor (Char.code (Bytes.get hdr 2) lsl 16)
            lor (Char.code (Bytes.get hdr 3) lsl 24)
          in
          if len > P.Bin.max_frame then
            fail_conn sh gen "oversized frame from shard"
          else
            let payload = Bytes.create len in
            (match read_exact fd payload 0 len with
             | exception _ -> fail_conn sh gen "shard stalled mid-frame"
             | false -> fail_conn sh gen "EOF inside frame payload"
             | true ->
               (match
                  P.Bin.decode_response (Bytes.unsafe_to_string payload)
                with
                | Error msg ->
                  fail_conn sh gen ("undecodable shard response: " ^ msg)
                | Ok resp ->
                  complete_response sh gen resp;
                  loop ())))
  in
  loop ()

(* Under [sm]. Raises on connection failure (caller turns it into
   [Error] and the health flag is already down). *)
let connect_locked ~timeout sh =
  match sh.s_fd with
  | Some fd -> fd
  | None ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd
         (Unix.ADDR_INET
            (Unix.inet_addr_of_string sh.spec.sh_host, sh.spec.sh_port));
       (* scatter frames are small and latency-bound: never Nagle *)
       (try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ());
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
       sh.s_fd <- Some fd;
       sh.s_gen <- sh.s_gen + 1;
       sh.s_healthy <- true;
       ignore (Thread.create (shard_reader sh fd sh.s_gen) ());
       fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       sh.s_healthy <- false;
       raise e)

(* The single-writer drain loop. Whichever thread holds the
   [s_draining] token swaps the whole outgoing queue out under the
   mutex and writes it outside the lock, as one burst of frames;
   everything other threads enqueue during that in-flight write is
   picked up by the next swap. Exactly one thread writes, so frames
   never interleave. *)
let drain_outq sh =
  let rec loop () =
    let next =
      Mutex.protect sh.sm (fun () ->
          if Queue.is_empty sh.s_outq || sh.s_fd = None then begin
            sh.s_draining <- false;
            None
          end
          else begin
            let items = List.of_seq (Queue.to_seq sh.s_outq) in
            Queue.clear sh.s_outq;
            Some (items, Option.get sh.s_fd)
          end)
    in
    match next with
    | None -> ()
    | Some (items, fd) ->
      let mk (id, op) =
        { P.rq_id = Some (Json.Num (float_of_int id)); rq_op = op }
      in
      let bytes =
        String.concat ""
          (List.map (fun item -> P.Bin.encode_request (mk item)) items)
      in
      (match write_all fd bytes with
       | () -> loop ()
       | exception _ ->
         let waiters =
           Mutex.protect sh.sm (fun () ->
               sh.s_draining <- false;
               fail_locked sh)
         in
         List.iter
           (fun w -> complete_waiter w (Error "shard write error"))
           waiters)
  in
  loop ()

(* Register the caller's waiter and queue one request for the shard;
   the caller becomes the drainer if nobody holds the token. Raises
   (like the dial it performs) on connection failure; waiting happens
   outside every lock. *)
let send ~timeout sh w req =
  let drain =
    Mutex.protect sh.sm (fun () ->
        let _fd = connect_locked ~timeout sh in
        let id = sh.s_next_id in
        sh.s_next_id <- id + 1;
        Hashtbl.replace sh.s_pending id w;
        Queue.push (id, req) sh.s_outq;
        if sh.s_draining then false
        else begin
          sh.s_draining <- true;
          true
        end)
  in
  if drain then drain_outq sh

let call ~timeout sh req =
  let w = new_waiter () in
  match send ~timeout sh w req with
  | exception e ->
    Error (Printf.sprintf "cannot reach shard %s: %s" (shard_name sh)
             (Printexc.to_string e))
  | () -> await w

(* Retry-once-then-degrade: the retry reconnects (send dials when the
   fd is gone); a second failure leaves the shard marked unhealthy
   for the health thread to revive. *)
let call_retry ~timeout sh req =
  match call ~timeout sh req with
  | Ok r -> Ok r
  | Error _ ->
    Stage.incr "router:shard-retry";
    call ~timeout sh req

(* ------------------------------------------------------------------ *)
(* Gather pool                                                         *)
(* ------------------------------------------------------------------ *)

type job = Job of Frontend.msg * (string -> unit) | Quit

type pool = {
  jobs : job Queue.t;
  capacity : int;  (* [max 128 (workers * 32)] *)
  pm : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable threads : Thread.t list;
}

let new_pool ~workers =
  {
    jobs = Queue.create ();
    capacity = max 128 (workers * 32);
    pm = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    threads = [];
  }

(* A full queue blocks the connection's reader, so the client is
   slowed through TCP instead of refused. *)
let submit pool msg reply =
  Mutex.lock pool.pm;
  while Queue.length pool.jobs >= pool.capacity do
    Condition.wait pool.not_full pool.pm
  done;
  Queue.push (Job (msg, reply)) pool.jobs;
  Condition.signal pool.not_empty;
  Mutex.unlock pool.pm

let dequeue pool =
  Mutex.lock pool.pm;
  while Queue.is_empty pool.jobs do
    Condition.wait pool.not_empty pool.pm
  done;
  let job = Queue.pop pool.jobs in
  Condition.signal pool.not_full;
  Mutex.unlock pool.pm;
  job

let queue_depth pool = Mutex.protect pool.pm (fun () -> Queue.length pool.jobs)

let rec pool_worker pool answer () =
  match dequeue pool with
  | Quit -> ()
  | Job (msg, reply) ->
    reply (answer msg);
    pool_worker pool answer ()

(* The queue is FIFO, so a Quit per worker lets the pool finish the
   backlog first. *)
let stop_pool pool =
  Mutex.protect pool.pm (fun () ->
      List.iter (fun _ -> Queue.push Quit pool.jobs) pool.threads;
      Condition.broadcast pool.not_empty);
  List.iter Thread.join pool.threads

(* ------------------------------------------------------------------ *)
(* Router state                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  cfg : config;
  fe : Frontend.t;
  pool : pool;
  shards : shard array;
  ranges : (shard * (int * int)) array;  (* range order = merge order *)
  sliced : bool;  (* shards serve range-sliced images, not full copies *)
  meta : int * int * int * int;  (* packages, apis, binaries, installs *)
  cache : (string, (P.reply, P.err) result) Lru.t;
  rr : int Atomic.t;  (* round-robin cursor for forwarded ops *)
}

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let err kind msg = Error { P.e_kind = kind; e_msg = msg }

let healthy_count t =
  Array.fold_left (fun n sh -> if shard_healthy sh then n + 1 else n) 0 t.shards

(* One round of pipelined sends (every request is on the wire before
   any await) into a single gather cell, so the worker parks once and wakes once
   when the last partial lands, then a retry-once pass over whatever
   failed. Result order = [pairs] order. *)
let scatter_calls t pairs =
  let timeout = t.cfg.shard_timeout in
  let pairs_a = Array.of_list pairs in
  let g = new_gather (Array.length pairs_a) in
  Array.iteri
    (fun i (sh, req) ->
      let w = waiter_of g i in
      match send ~timeout sh w req with
      | () -> ()
      | exception _ ->
        complete_waiter w (Error ("cannot reach shard " ^ shard_name sh)))
    pairs_a;
  await_all g;
  Array.to_list
    (Array.mapi
       (fun i (sh, req) ->
         let final =
           match g.g_results.(i) with
           | Some (Ok r) -> Ok r
           | Some (Error _) | None ->
             Stage.incr "router:shard-retry";
             call ~timeout sh req
         in
         (sh, final))
       pairs_a)

(* Sum Partial_r numerators in [pieces] order over the common
   denominator. Any shard failing (after its retry) degrades the
   whole query: a partial sum is never returned. *)
let gather_partials t pieces =
  let results =
    scatter_calls t
      (List.map
         (fun (sh, req, _range) -> (sh, req))
         pieces)
  in
  let partials = ref [] and den = ref None and failure = ref None in
  List.iter
    (fun (sh, result) ->
      if !failure = None then
        match result with
        | Error msg ->
          failure :=
            Some
              (err P.degraded
                 (Printf.sprintf "shard %s unavailable: %s" (shard_name sh)
                    msg))
        | Ok { P.rs_result = Ok (P.Partial_r { num; den = d; _ }); _ } ->
          (match !den with
           | None -> den := Some d
           | Some d0 when d0 <> d ->
             failure :=
               Some
                 (err P.internal_error
                    (Printf.sprintf
                       "shard %s denominator %.17g disagrees with %.17g — \
                        shards serve different worlds"
                       (shard_name sh) d d0))
           | Some _ -> ());
          partials := num :: !partials
        | Ok { P.rs_result = Error e; _ } -> failure := Some (Error e)
        | Ok _ ->
          failure :=
            Some
              (err P.internal_error
                 (Printf.sprintf "shard %s answered the wrong reply shape"
                    (shard_name sh))))
    results;
  match !failure with
  | Some e -> Error e
  | None ->
    let num = List.fold_left ( +. ) 0.0 (List.rev !partials) in
    Ok (num, Option.value ~default:0.0 !den)

(* Scatter one completeness query: every shard gets its fixed package
   range in one round of pipelined sends, then the partials merge in
   range order over the common denominator. Regrouping the float sum
   by range keeps the answer within 1e-12 of a single-process
   evaluation, not bit-identical. *)
let scatter t ~syscalls ~phase =
  let pieces =
    Array.to_list t.ranges
    |> List.map (fun (sh, (lo, hi)) ->
           (sh, P.Partial_completeness { syscalls; phase; lo; hi }, (lo, hi)))
  in
  match gather_partials t pieces with
  | Error e -> e
  | Ok (num, den) ->
    Ok
      (P.Completeness_r
         {
           n_syscalls = List.length syscalls;
           phase;
           completeness = (if den = 0.0 then 0.0 else num /. den);
         })

(* A partial-completeness query against a sliced fleet: no single
   shard holds the whole [lo, hi) sweep, so it scatters to the shards
   whose slices intersect it — each evaluates exactly its
   intersection, bit-identically to the same range on a full image —
   and the numerators sum in range order. An empty (or fully
   out-of-range) request still needs the world denominator, which any
   shard answers from an empty sweep. *)
let scatter_partial t ~syscalls ~phase ~lo ~hi =
  let pieces =
    Array.to_list t.ranges
    |> List.filter_map (fun (sh, (slo, shi)) ->
           let ilo = max lo slo and ihi = min hi shi in
           if ilo < ihi then
             Some
               ( sh,
                 P.Partial_completeness { syscalls; phase; lo = ilo; hi = ihi },
                 (ilo, ihi) )
           else None)
  in
  let pieces =
    match pieces with
    | [] ->
      [ ( t.shards.(0),
          P.Partial_completeness { syscalls; phase; lo = 0; hi = 0 },
          (0, 0) ) ]
    | ps -> ps
  in
  match gather_partials t pieces with
  | Error e -> e
  | Ok (num, den) -> Ok (P.Partial_r { lo; hi; num; den })

(* Dependents against a sliced fleet: each shard lists only its own
   slice's packages, so the rows concatenate across every shard and
   re-sort with the exact [Query.dependents_ranked] comparator
   (probability descending, name ascending on ties — names are
   unique, so the merged order is the single-process order); the
   per-shard [limit] keeps each reply small and is re-applied to the
   merged rows (top-k of a union is the top-k of per-shard
   top-ks). *)
let scatter_dependents t ~api ~limit =
  let results =
    scatter_calls t
      (Array.to_list t.ranges
      |> List.map (fun (sh, _) -> (sh, P.Dependents { api; limit })))
  in
  let rows = ref [] and name = ref None and failure = ref None in
  List.iter
    (fun (sh, result) ->
      if !failure = None then
        match result with
        | Error msg ->
          failure :=
            Some
              (err P.degraded
                 (Printf.sprintf "shard %s unavailable: %s" (shard_name sh)
                    msg))
        | Ok { P.rs_result = Ok (P.Dependents_r { api; packages }); _ } ->
          name := Some api;
          rows := packages :: !rows
        | Ok { P.rs_result = Error e; _ } -> failure := Some (Error e)
        | Ok _ ->
          failure :=
            Some
              (err P.internal_error
                 (Printf.sprintf "shard %s answered the wrong reply shape"
                    (shard_name sh))))
    results;
  match !failure with
  | Some e -> e
  | None ->
    let merged =
      List.concat (List.rev !rows)
      |> List.sort (fun (na, pa) (nb, pb) ->
             match compare pb pa with 0 -> compare na nb | c -> c)
    in
    let merged =
      match limit with
      | None -> merged
      | Some k -> List.filteri (fun i _ -> i < k) merged
    in
    Ok
      (P.Dependents_r
         { api = Option.value ~default:api !name; packages = merged })

(* Point ops go to one shard, round-robin over the healthy ones; with
   none healthy, one reconnection attempt is made (the call dials on
   demand) before degrading. *)
let forward t req =
  let n = Array.length t.shards in
  let start = Atomic.fetch_and_add t.rr 1 in
  let rec pick k =
    if k >= n then t.shards.(start mod n)
    else
      let sh = t.shards.((start + k) mod n) in
      if shard_healthy sh then sh else pick (k + 1)
  in
  let sh = pick 0 in
  match call_retry ~timeout:t.cfg.shard_timeout sh req with
  | Ok resp -> resp.P.rs_result
  | Error msg ->
    err P.degraded
      (Printf.sprintf "shard %s unavailable: %s" (shard_name sh) msg)

let router_gauges t () =
  [
    ("queue_depth", float_of_int (queue_depth t.pool));
    ("queue_capacity", float_of_int t.pool.capacity);
    ("workers", float_of_int t.cfg.workers);
    ("connections", float_of_int (Frontend.connections_served t.fe));
    ("shards", float_of_int (Array.length t.shards));
    ("shards_healthy", float_of_int (healthy_count t));
    ("sliced", if t.sliced then 1.0 else 0.0);
  ]
  @ Frontend.process_gauges ()
  @
  let hits, misses = Lru.stats t.cache in
  [
    ("cache_entries", float_of_int (Lru.length t.cache));
    ("cache_hits", float_of_int hits);
    ("cache_misses", float_of_int misses);
  ]

(* What the router-side LRU may hold: point ops that forward to a
   single shard — pure functions of the fleet's (shared, immutable)
   index. Scatter ops never cache, even though they are just as
   deterministic: a cached scatter would keep answering [Ok] while a
   shard is down, hiding exactly the degradation the scatter's
   all-shards dependency exists to surface. (On a sliced fleet
   [dependents] and [partial-completeness] scatter too, so their
   cacheability follows the partition.) Live-state ops never cache. *)
let cacheable_op t = function
  | P.Importance _ | P.Top _ -> true
  | P.Dependents _ | P.Partial_completeness _ -> not t.sliced
  | P.Ping | P.Stats | P.Completeness _ | P.Unknown _ -> false

(* Only deterministic results enter the cache: an [Ok] or a
   validation error is the same answer forever, but [degraded] /
   [internal] describe a moment — caching one would keep answering it
   after the fleet recovered. *)
let cache_worthy = function
  | Ok _ -> true
  | Error { P.e_kind; _ } ->
    e_kind = P.bad_api || e_kind = P.bad_phase || e_kind = P.bad_request
    || e_kind = P.unknown_op

let handle_req t (req : P.req) : (P.reply, P.err) result =
  match req with
  | P.Ping -> Ok P.Pong
  | P.Stats ->
    let pk, ap, bn, ins = t.meta in
    Ok
      (P.Stats_r
         {
           st_packages = pk;
           st_apis = ap;
           st_binaries = bn;
           st_installs = ins;
           st_gauges = router_gauges t ();
           st_hists = Histogram.all ();
         })
  | P.Completeness { syscalls; phase } -> scatter t ~syscalls ~phase
  | P.Dependents { api; limit } when t.sliced ->
    scatter_dependents t ~api ~limit
  | P.Partial_completeness { syscalls; phase; lo; hi } when t.sliced ->
    scatter_partial t ~syscalls ~phase ~lo ~hi
  | P.Importance _ | P.Top _ | P.Dependents _ | P.Partial_completeness _ ->
    forward t req
  | P.Unknown other ->
    err P.unknown_op (Printf.sprintf "unknown op %S" other)

let handle_timed t (request : P.request) : (P.reply, P.err) result =
  let name = "router:" ^ P.op_name request.P.rq_op in
  let t0 = Stage.now_ns () in
  let result = Stage.time name (fun () -> handle_req t request.P.rq_op) in
  Histogram.observe_ns name (Int64.to_int (Int64.sub (Stage.now_ns ()) t0));
  result

let handle_request t (request : P.request) : P.response =
  let result =
    if cacheable_op t request.P.rq_op then begin
      let key = P.canonical_key request in
      match Lru.find t.cache key with
      | Some r ->
        Stage.incr "router:cache-hit";
        r
      | None ->
        let r = handle_timed t request in
        if cache_worthy r then Lru.add t.cache key r;
        r
    end
    else handle_timed t request
  in
  { P.rs_id = request.P.rq_id; rs_result = result }

let answer t msg =
  Stage.incr "router:requests";
  Frontend.reply (handle_request t) msg

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let port t = Frontend.port t.fe
let connections_served t = Frontend.connections_served t.fe
let signal_stop t = Frontend.signal_stop t.fe
let stop t = Frontend.stop t.fe
let wait t = Frontend.wait t.fe
let n_shards t = Array.length t.shards
let healthy_shards t = healthy_count t

let health_loop t () =
  while not (Frontend.stopping t.fe) do
    (* Sleep in small steps so shutdown is prompt. *)
    let slept = ref 0.0 in
    while !slept < t.cfg.health_period && not (Frontend.stopping t.fe) do
      Unix.sleepf 0.05;
      slept := !slept +. 0.05
    done;
    if not (Frontend.stopping t.fe) then
      Array.iter
        (fun sh ->
          match call ~timeout:t.cfg.shard_timeout sh P.Ping with
          | Ok { P.rs_result = Ok P.Pong; _ } -> ()
          | Ok _ | Error _ -> ()
          (* failure already marked the shard unhealthy; a successful
             dial inside [call] already restored it *))
        t.shards
  done

(* Runs once the front end's readers have joined, so every message is
   in the pool: the pool answers them all, and then nothing can start
   a shard call any more, so failing the shard connections completes
   every waiter still parked. *)
let teardown t health () =
  stop_pool t.pool;
  Thread.join health;
  Array.iter
    (fun sh ->
      let waiters = Mutex.protect sh.sm (fun () -> fail_locked sh) in
      List.iter (fun w -> complete_waiter w (Error "router stopped")) waiters)
    t.shards

let make_shard spec =
  {
    spec;
    sm = Mutex.create ();
    s_fd = None;
    s_healthy = false;
    s_gen = 0;
    s_next_id = 0;
    s_pending = Hashtbl.create 16;
    s_outq = Queue.create ();
    s_draining = false;
  }

(* A shard serving a range-sliced image reports its coverage in the
   [slice_lo]/[slice_hi] stats gauges; one serving a full image
   reports (or predates) the whole range. *)
let slice_of (s : P.stats_reply) =
  match
    ( List.assoc_opt "slice_lo" s.P.st_gauges,
      List.assoc_opt "slice_hi" s.P.st_gauges )
  with
  | Some lo, Some hi -> (int_of_float lo, int_of_float hi)
  | _ -> (0, s.P.st_packages)

(* Probe every shard with [stats]: all must answer, and all must
   report the same package count (the range partition depends on it)
   — refusing at startup beats merging sums over different worlds. *)
let probe_shards ~timeout shards =
  let stats =
    Array.map
      (fun sh ->
        match call_retry ~timeout sh P.Stats with
        | Ok { P.rs_result = Ok (P.Stats_r s); _ } -> Ok s
        | Ok { P.rs_result = Error e; _ } ->
          Error
            (Printf.sprintf "shard %s refused stats: %s" (shard_name sh)
               e.P.e_msg)
        | Ok _ ->
          Error
            (Printf.sprintf "shard %s answered the wrong reply shape"
               (shard_name sh))
        | Error msg ->
          Error
            (Printf.sprintf "shard %s unreachable: %s" (shard_name sh) msg))
      shards
  in
  let rec collect i acc =
    if i = Array.length stats then Ok (List.rev acc)
    else
      match stats.(i) with
      | Ok s -> collect (i + 1) (s :: acc)
      | Error msg -> Error msg
  in
  match collect 0 [] with
  | Error msg -> Error msg
  | Ok [] -> Error "no shards"
  | Ok (first :: rest as all) ->
    (match
       List.find_opt
         (fun (s : P.stats_reply) -> s.P.st_packages <> first.P.st_packages)
         rest
     with
     | Some s ->
       Error
         (Printf.sprintf
            "shards disagree on package count (%d vs %d) — different \
             snapshots?"
            first.P.st_packages s.P.st_packages)
     | None -> Ok (first, List.map slice_of all))

(* The scatter partition. Full-image shards get the
   [Query.shard_ranges] split of [0, n) (padded with empty ranges
   when shards outnumber packages). Sliced shards own their slices —
   which must then partition [0, n) exactly: scatter correctness
   depends on every package being swept once. *)
let plan_ranges n shards slices =
  if List.for_all (fun (lo, hi) -> lo = 0 && hi = n) slices then
    let ranges = Query.shard_ranges n (Array.length shards) in
    Ok
      ( false,
        Array.init (Array.length shards) (fun i ->
            ( shards.(i),
              match List.nth_opt ranges i with
              | Some r -> r
              | None -> (n, n) )) )
  else begin
    let owned =
      List.mapi (fun i slice -> (shards.(i), slice)) slices
      |> List.sort (fun (_, (a, _)) (_, (b, _)) -> compare a b)
    in
    let rec check at = function
      | [] -> if at = n then Ok () else Error at
      | (_, (lo, hi)) :: rest -> if lo <> at then Error at else check hi rest
    in
    match check 0 owned with
    | Ok () -> Ok (true, Array.of_list owned)
    | Error at ->
      Error
        (Printf.sprintf
           "shard slices do not partition the %d packages (gap or overlap \
            at %d) — re-cut the slices"
           n at)
  end

let start ?(config = default) specs =
  if specs = [] then Error "a fleet needs at least one shard"
  else begin
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let shards = Array.of_list (List.map make_shard specs) in
    match probe_shards ~timeout:config.shard_timeout shards with
    | Error msg -> Error msg
    | Ok (meta, slices) ->
      match plan_ranges meta.P.st_packages shards slices with
      | Error msg -> Error msg
      | Ok (sliced, ranges) ->
      (match
         Frontend.listen
           {
             Frontend.host = config.host;
             port = config.port;
             domains = 1;
             stage = "router";
           }
       with
       | Error msg -> Error msg
       | Ok fe ->
         let t =
           {
             cfg = config;
             fe;
             pool = new_pool ~workers:config.workers;
             shards;
             ranges;
             sliced;
             meta =
               ( meta.P.st_packages,
                 meta.P.st_apis,
                 meta.P.st_binaries,
                 meta.P.st_installs );
             cache = Lru.create ~capacity:cache_capacity;
             rr = Atomic.make 0;
           }
         in
         let health = Thread.create (health_loop t) () in
         t.pool.threads <-
           List.init (max 1 config.workers) (fun _ ->
               Thread.create (pool_worker t.pool (answer t)) ());
         Frontend.run fe
           ~handle:(submit t.pool)
           ~teardown:(teardown t health);
         Ok t)
  end
