(** See the interface for the life of a connection. The concurrency
    invariants:

    - a connection's mutable state ([next_seq], [outstanding],
      [pending], [next_write], flags) is only touched under its own
      mutex;
    - a reader thread is started by the domain it lives in: the
      accept thread starts the calling domain's, and each other
      domain runs a host loop that starts the readers posted to it
      and, once told to quit, joins them before it returns;
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
  domains : int;
  stage : string;
}

let backlog = 64

type conn = {
  fd : Unix.file_descr;
  cmutex : Mutex.t;
  mutable next_seq : int;  (* next sequence number the reader assigns *)
  mutable next_write : int;  (* next sequence number to go on the wire *)
  pending : (int, string) Hashtbl.t;  (* finished out-of-order responses *)
  mutable outstanding : int;  (* handed to [handle] and not yet written *)
  mutable reader_done : bool;
  mutable dead : bool;  (* write failed; drop the rest silently *)
  mutable closed : bool;
}

(* A domain other than the caller's, hosting reader threads. *)
type host = {
  hmutex : Mutex.t;
  posted : Condition.t;
  mutable inbox : (unit -> unit) list;  (* readers to start, newest first *)
  mutable quit : bool;
}

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  bound_port : int;
  hosts : host array;  (* reader slot [i + 1]; slot 0 is the caller's domain *)
  mutable next_slot : int;  (* accept thread only *)
  mutable domains : unit Domain.t list;
  stop_flag : bool Atomic.t;
  shutdown_started : bool Atomic.t;
  accepted : int Atomic.t;
  conns_mutex : Mutex.t;
  mutable conns : conn list;
  mutable readers : Thread.t list;  (* the caller's domain's *)
  mutable handle : msg -> (string -> unit) -> unit;
  mutable teardown : unit -> unit;
  mutable accept_thread : Thread.t option;
  fin_mutex : Mutex.t;
  fin_cv : Condition.t;
  mutable finished : bool;
}

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

let codec = function Line _ -> P.Json_lines | Frame _ | Broken _ -> P.Binary

let answer handle msg =
  let codec = codec msg in
  let decoded =
    match msg with
    | Line line ->
      (match Json.parse line with
       | Error m -> Error (P.error_response ~kind:P.parse_error m)
       | Ok j -> P.request_of_json j)
    | Frame payload ->
      (match P.Bin.decode_request payload with
       | Error m -> Error (P.error_response ~kind:P.parse_error m)
       | Ok request -> Ok request)
    | Broken m -> Error (P.error_response ~kind:P.parse_error m)
  in
  match decoded with
  | Error response -> P.encode_response codec response
  | Ok request ->
    (* the never-crash contract's last line of defence *)
    (try handle codec request
     with e ->
       P.encode_response codec
         (P.error_response ?id:request.P.rq_id ~kind:P.internal_error
            (Printexc.to_string e)))

let reply handle msg =
  answer (fun codec request -> P.encode_response codec (handle request)) msg

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

let dispatch t conn msg =
  Mutex.lock conn.cmutex;
  let seq = conn.next_seq in
  conn.next_seq <- seq + 1;
  conn.outstanding <- conn.outstanding + 1;
  Mutex.unlock conn.cmutex;
  t.handle msg (deliver conn seq)

let json_reader t conn ic ~first =
  (match first with
   | Some line when String.trim line <> "" -> dispatch t conn (Line line)
   | _ -> ());
  let continue = ref true in
  while !continue do
    match In_channel.input_line ic with
    | None -> continue := false
    | Some line -> if String.trim line <> "" then dispatch t conn (Line line)
  done

let binary_reader t conn ic =
  (* The codec-detection byte was this connection's first frame's
     magic, so the first read starts after it. *)
  let rec go input =
    match input ic with
    | Ok payload ->
      dispatch t conn (Frame payload);
      go P.Bin.input_frame
    | Error `Eof -> ()
    | Error (`Bad msg) -> dispatch t conn (Broken msg)
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
(* Reader domains                                                      *)
(* ------------------------------------------------------------------ *)

let host_loop h () =
  let threads = ref [] in
  let rec go () =
    Mutex.lock h.hmutex;
    while h.inbox = [] && not h.quit do
      Condition.wait h.posted h.hmutex
    done;
    let starts = List.rev h.inbox and quit = h.quit in
    h.inbox <- [];
    Mutex.unlock h.hmutex;
    List.iter (fun f -> threads := Thread.create f () :: !threads) starts;
    if not quit then go ()
  in
  go ();
  List.iter Thread.join !threads

let post h f =
  Mutex.protect h.hmutex (fun () ->
      h.inbox <- f :: h.inbox;
      Condition.signal h.posted)

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
  Array.iter
    (fun h ->
      Mutex.protect h.hmutex (fun () ->
          h.quit <- true;
          Condition.signal h.posted))
    t.hosts;
  List.iter Domain.join t.domains;
  (* Every message has been handed to [handle]; the caller answers
     whatever it still holds before its teardown returns. *)
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
  let slot = t.next_slot mod (Array.length t.hosts + 1) in
  t.next_slot <- t.next_slot + 1;
  Mutex.lock t.conns_mutex;
  t.conns <- conn :: t.conns;
  if slot = 0 then t.readers <- Thread.create (reader t conn) () :: t.readers
  else post t.hosts.(slot - 1) (reader t conn);
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
  match
    let addr = Unix.inet_addr_of_string cfg.host in
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
  | exception Failure _ ->
    Error (Printf.sprintf "bind host %S is not an IPv4 address" cfg.host)
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
        hosts =
          Array.init (max 1 cfg.domains - 1) (fun _ ->
              {
                hmutex = Mutex.create ();
                posted = Condition.create ();
                inbox = [];
                quit = false;
              });
        next_slot = 0;
        domains = [];
        stop_flag = Atomic.make false;
        shutdown_started = Atomic.make false;
        accepted = Atomic.make 0;
        conns_mutex = Mutex.create ();
        conns = [];
        readers = [];
        handle = (fun _ _ -> ());
        teardown = ignore;
        accept_thread = None;
        fin_mutex = Mutex.create ();
        fin_cv = Condition.create ();
        finished = false;
      }

let run t ~handle ~teardown =
  t.handle <- handle;
  t.teardown <- teardown;
  t.domains <-
    Array.to_list (Array.map (fun h -> Domain.spawn (host_loop h)) t.hosts);
  t.accept_thread <- Some (Thread.create (acceptor t) ())

(* ------------------------------------------------------------------ *)
(* Process gauges                                                      *)
(* ------------------------------------------------------------------ *)

(* VmRSS in kB, from the kernel's own accounting; absent off Linux.
   Read line by line: [In_channel.input_all] would allocate a 64 KB
   buffer on the major heap per sample. *)
let vm_rss_kb () =
  match In_channel.open_text "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> In_channel.close ic)
      (fun () ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
            match String.split_on_char ':' line with
            | [ "VmRSS"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" float_of_int
            | _ -> find ())
        in
        find ())

let process_gauges () =
  let gc = Gc.quick_stat () in
  [
    ("gc_heap_words", float_of_int gc.Gc.heap_words);
    ("gc_top_heap_words", float_of_int gc.Gc.top_heap_words);
  ]
  @ match vm_rss_kb () with Some kb -> [ ("rss_kb", kb) ] | None -> []
