(** See the interface for the life of a connection. The concurrency
    invariants:

    - a connection's mutable state ([next_seq], [outstanding],
      [pending], [next_write], flags) is only touched under its own
      mutex;
    - the job queue is one Mutex/Condition queue; [submit] blocks
      while it is full, and [Quit] bypasses the bound so a full queue
      can never strand a worker;
    - shutdown runs exactly once (an [Atomic] compare-and-set), either
      on the thread that called {!stop} or on the accept thread after
      a {!signal_stop}, and joins everything before declaring the
      front end finished. *)

module Stage = Lapis_perf.Stage
module P = Protocol

type msg = Line of string | Frame of string | Broken of string

type config = {
  host : string;
  port : int;
  workers : int;
  spawn : (unit -> unit) -> unit -> unit;
  stage : string;
}

let backlog = 64

type conn = {
  fd : Unix.file_descr;
  cmutex : Mutex.t;
  mutable next_seq : int;  (* next sequence number the reader assigns *)
  mutable next_write : int;  (* next sequence number to go on the wire *)
  pending : (int, string) Hashtbl.t;  (* finished out-of-order responses *)
  mutable outstanding : int;  (* submitted and not yet written *)
  mutable reader_done : bool;
  mutable dead : bool;  (* write failed; drop the rest silently *)
  mutable closed : bool;
}

type job = Job of conn * int * msg | Quit

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  bound_port : int;
  capacity : int;
  queue : job Queue.t;
  qmutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  stop_flag : bool Atomic.t;
  shutdown_started : bool Atomic.t;
  accepted : int Atomic.t;
  conns_mutex : Mutex.t;
  mutable conns : conn list;
  mutable readers : Thread.t list;
  mutable joins : (unit -> unit) list;  (* one per worker *)
  mutable teardown : unit -> unit;
  mutable accept_thread : Thread.t option;
  fin_mutex : Mutex.t;
  fin_cv : Condition.t;
  mutable finished : bool;
}

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

let encode msg response =
  match msg with
  | Line _ -> Json.to_string (P.json_of_response response) ^ "\n"
  | Frame _ | Broken _ -> P.Bin.encode_response response

let reply handle msg =
  encode msg
    (match msg with
     | Line line ->
       (match Json.parse line with
        | Error m -> P.error_response ~kind:P.parse_error m
        | Ok j ->
          (match P.request_of_json j with
           | Error e -> e
           | Ok request -> handle request))
     | Frame payload ->
       (match P.Bin.decode_request payload with
        | Error m -> P.error_response ~kind:P.parse_error m
        | Ok request -> handle request)
     | Broken m -> P.error_response ~kind:P.parse_error m)

(* ------------------------------------------------------------------ *)
(* Per-connection plumbing                                             *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Under [cmutex]. *)
let maybe_close conn =
  if conn.reader_done && conn.outstanding = 0 && not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Park the finished response, then flush the contiguous run starting
   at [next_write]. *)
let deliver conn seq bytes =
  Mutex.lock conn.cmutex;
  Hashtbl.replace conn.pending seq bytes;
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt conn.pending conn.next_write with
    | None -> continue := false
    | Some response ->
      Hashtbl.remove conn.pending conn.next_write;
      conn.next_write <- conn.next_write + 1;
      conn.outstanding <- conn.outstanding - 1;
      if not (conn.dead || conn.closed) then (
        try write_all conn.fd response
        with Unix.Unix_error _ | Sys_error _ -> conn.dead <- true)
  done;
  maybe_close conn;
  Mutex.unlock conn.cmutex

let submit t conn msg =
  Mutex.lock conn.cmutex;
  let seq = conn.next_seq in
  conn.next_seq <- seq + 1;
  conn.outstanding <- conn.outstanding + 1;
  Mutex.unlock conn.cmutex;
  Mutex.lock t.qmutex;
  while Queue.length t.queue >= t.capacity do
    Condition.wait t.not_full t.qmutex
  done;
  Queue.push (Job (conn, seq, msg)) t.queue;
  Condition.signal t.not_empty;
  Mutex.unlock t.qmutex

let json_reader t conn ic ~first =
  (match first with
   | Some line when String.trim line <> "" -> submit t conn (Line line)
   | _ -> ());
  let continue = ref true in
  while !continue do
    match In_channel.input_line ic with
    | None -> continue := false
    | Some line -> if String.trim line <> "" then submit t conn (Line line)
  done

let binary_reader t conn ic =
  (* The codec-detection byte was this connection's first frame's
     magic, so the first read starts after it. *)
  let rec go input =
    match input ic with
    | Ok payload ->
      submit t conn (Frame payload);
      go P.Bin.input_frame
    | Error `Eof -> ()
    | Error (`Bad msg) -> submit t conn (Broken msg)
  in
  go P.Bin.input_frame_body

(* The binary magic can never start a JSON line, and a JSON request
   can never start with it. *)
let reader t conn () =
  let ic = Unix.in_channel_of_descr conn.fd in
  (try
     match input_char ic with
     | exception End_of_file -> ()
     | c when c = P.Bin.magic -> binary_reader t conn ic
     | '\n' -> json_reader t conn ic ~first:None
     | c ->
       let rest = Option.value ~default:"" (In_channel.input_line ic) in
       json_reader t conn ic ~first:(Some (String.make 1 c ^ rest))
   with Sys_error _ | Unix.Unix_error _ -> ());
  Mutex.lock conn.cmutex;
  conn.reader_done <- true;
  maybe_close conn;
  Mutex.unlock conn.cmutex

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let dequeue t =
  Mutex.lock t.qmutex;
  while Queue.is_empty t.queue do
    Condition.wait t.not_empty t.qmutex
  done;
  let job = Queue.pop t.queue in
  Condition.signal t.not_full;
  Mutex.unlock t.qmutex;
  job

let queue_depth t = Mutex.protect t.qmutex (fun () -> Queue.length t.queue)
let queue_capacity t = t.capacity

let worker t answer () =
  let rec go () =
    match dequeue t with
    | Quit -> ()
    | Job (conn, seq, msg) ->
      (* the never-crash contract's last line of defence for the pool *)
      let response =
        try answer msg
        with e ->
          encode msg
            (P.error_response ~kind:P.internal_error (Printexc.to_string e))
      in
      deliver conn seq response;
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)
(* ------------------------------------------------------------------ *)

(* Runs at most once, after the accept loop has exited, so [t.conns]
   cannot grow any more. *)
let drain t =
  Mutex.lock t.conns_mutex;
  let conns = t.conns and readers = t.readers in
  Mutex.unlock t.conns_mutex;
  (* Half-close: readers consume what clients already sent, then see
     EOF. Nothing accepted is dropped. *)
  List.iter
    (fun c ->
      Mutex.lock c.cmutex;
      if not c.closed then (
        try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ());
      Mutex.unlock c.cmutex)
    conns;
  List.iter Thread.join readers;
  (* Every job is in the queue now; the queue is FIFO, so a Quit per
     worker lets the pool finish the backlog first. *)
  Mutex.protect t.qmutex (fun () ->
      List.iter (fun _ -> Queue.push Quit t.queue) t.joins;
      Condition.broadcast t.not_empty);
  List.iter (fun join -> join ()) t.joins;
  t.teardown ();
  List.iter
    (fun c ->
      Mutex.lock c.cmutex;
      if not c.closed then begin
        c.closed <- true;
        (try Unix.close c.fd with Unix.Unix_error _ -> ())
      end;
      Mutex.unlock c.cmutex)
    conns;
  Mutex.lock t.fin_mutex;
  t.finished <- true;
  Condition.broadcast t.fin_cv;
  Mutex.unlock t.fin_mutex

let track t fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  Atomic.incr t.accepted;
  Stage.incr (t.cfg.stage ^ ":connections");
  let conn =
    {
      fd;
      cmutex = Mutex.create ();
      next_seq = 0;
      next_write = 0;
      pending = Hashtbl.create 8;
      outstanding = 0;
      reader_done = false;
      dead = false;
      closed = false;
    }
  in
  Mutex.lock t.conns_mutex;
  t.conns <- conn :: t.conns;
  t.readers <- Thread.create (reader t conn) () :: t.readers;
  Mutex.unlock t.conns_mutex

let acceptor t () =
  while not (Atomic.get t.stop_flag) do
    match Unix.select [ t.lsock ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.lsock with
      | exception Unix.Unix_error _ -> ()
      | fd, _addr -> track t fd)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Last-gasp accept: the backlog may hold handshaken connections
     whose requests are already sent. *)
  let rec drain_backlog () =
    match Unix.select [ t.lsock ] [] [] 0.0 with
    | _ :: _, _, _ -> (
      match Unix.accept t.lsock with
      | exception Unix.Unix_error _ -> ()
      | fd, _addr ->
        track t fd;
        drain_backlog ())
    | _ -> ()
  in
  (try drain_backlog () with Unix.Unix_error _ -> ());
  (try Unix.close t.lsock with Unix.Unix_error _ -> ());
  (* A signal_stop with nobody in [stop] still needs the drain to run
     somewhere; first claimant does it. *)
  if Atomic.compare_and_set t.shutdown_started false true then drain t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let port t = t.bound_port
let stopping t = Atomic.get t.stop_flag
let connections_served t = Atomic.get t.accepted

let wait t =
  Mutex.lock t.fin_mutex;
  while not t.finished do
    Condition.wait t.fin_cv t.fin_mutex
  done;
  Mutex.unlock t.fin_mutex

let signal_stop t = Atomic.set t.stop_flag true

let stop t =
  Atomic.set t.stop_flag true;
  (* Whoever wins the compare-and-set (us or the accept thread after a
     signal_stop) runs the drain; the other just waits. In the winning
     branch the accept thread lost, so joining it here is safe and
     makes the connection list final before [drain] snapshots it. *)
  if Atomic.compare_and_set t.shutdown_started false true then begin
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    drain t
  end;
  wait t

let listen cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let addr =
    try Unix.inet_addr_of_string cfg.host
    with Failure _ -> Unix.inet_addr_loopback
  in
  match
    let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt lsock Unix.SO_REUSEADDR true;
       Unix.bind lsock (Unix.ADDR_INET (addr, cfg.port));
       Unix.listen lsock backlog
     with e ->
       (try Unix.close lsock with Unix.Unix_error _ -> ());
       raise e);
    lsock
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Printf.sprintf "cannot listen on %s:%d: %s" cfg.host cfg.port
         (Unix.error_message e))
  | lsock ->
    let bound_port =
      match Unix.getsockname lsock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> cfg.port
    in
    Ok
      {
        cfg;
        lsock;
        bound_port;
        capacity = max 128 (cfg.workers * 32);
        queue = Queue.create ();
        qmutex = Mutex.create ();
        not_empty = Condition.create ();
        not_full = Condition.create ();
        stop_flag = Atomic.make false;
        shutdown_started = Atomic.make false;
        accepted = Atomic.make 0;
        conns_mutex = Mutex.create ();
        conns = [];
        readers = [];
        joins = [];
        teardown = ignore;
        accept_thread = None;
        fin_mutex = Mutex.create ();
        fin_cv = Condition.create ();
        finished = false;
      }

let run t ~answer ~teardown =
  t.teardown <- teardown;
  t.joins <- List.init (max 1 t.cfg.workers) (fun _ -> t.cfg.spawn (worker t answer));
  t.accept_thread <- Some (Thread.create (acceptor t) ())
