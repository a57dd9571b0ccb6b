(* The load generator: one thread driving at most two connections from
   one event loop, so what the numbers measure is the server and not
   the client's scheduler. Open-loop phases send on a fixed integer-ns
   schedule and charge each request from its scheduled time, so a
   stall that delays later sends is counted; closed-loop phases keep a
   fixed number of requests outstanding per connection. Every response
   is checked as it arrives. *)

module P = Core.Query.Protocol
module Json = Core.Query.Json

type framing = Lines | Frames

type verdict =
  | Right
  | Wrong of string
  | Refused of string  (* a structured overloaded/degraded answer *)

(* What a workload sends and how its answers are judged. [request] and
   [check] take the request id, which is also the request's position
   in the workload's stream. *)
type stream = {
  framing : framing;
  request : int -> string;
  check : int -> string -> verdict;
  stats_request : int -> string;
  stats_of : string -> P.stats_reply option;
}

(* A growable byte queue: live data is b[pos, len). *)
type bq = { mutable b : Bytes.t; mutable pos : int; mutable len : int }

let bq () = { b = Bytes.create 65536; pos = 0; len = 0 }

let room q n =
  if q.len + n > Bytes.length q.b then begin
    let live = q.len - q.pos in
    let cap = max (Bytes.length q.b) (2 * (live + n)) in
    let nb = if cap > Bytes.length q.b then Bytes.create cap else q.b in
    Bytes.blit q.b q.pos nb 0 live;
    q.b <- nb;
    q.pos <- 0;
    q.len <- live
  end

let push_string q s =
  room q (String.length s);
  Bytes.blit_string s 0 q.b q.len (String.length s);
  q.len <- q.len + String.length s

type pending = {
  id : int;
  sched : int;  (* ns the latency is charged from *)
  probe : (string -> unit) option;  (* a stats request, not load *)
}

type conn = { fd : Unix.file_descr; inq : bq; outq : bq; q : pending Queue.t }

type t = {
  conns : conn array;
  stream : stream;
  mutable next_id : int;
  mutable wrong_total : int;
  mutable first_wrong : string option;
}

(* Latency samples with the id they belong to, so a workload can
   select one operation's latencies afterwards. *)
type samples = { mutable ids : int array; mutable ns : int array; mutable n : int }

let samples () = { ids = Array.make 4096 0; ns = Array.make 4096 0; n = 0 }

let add_sample s id v =
  if s.n = Array.length s.ns then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    s.ids <- grow s.ids;
    s.ns <- grow s.ns
  end;
  s.ids.(s.n) <- id;
  s.ns.(s.n) <- v;
  s.n <- s.n + 1

(* Sorted milliseconds of the samples whose id passes [keep]. *)
let ms ?(keep = fun _ -> true) s =
  let out = ref [] in
  for i = s.n - 1 downto 0 do
    if keep s.ids.(i) then out := (float_of_int s.ns.(i) /. 1e6) :: !out
  done;
  Harness.sorted (Array.of_list !out)

type phase = {
  offered : float;  (* requests/s; 0 for a closed loop *)
  mutable elapsed_s : float;  (* first send to last response *)
  mutable sent : int;
  mutable ok : int;
  mutable wrong : int;
  mutable refused : int;
  lat : samples;  (* of the Right answers *)
  late : samples;  (* open loop: how late each send left *)
}

let achieved p = float_of_int p.ok /. Float.max 1e-9 p.elapsed_s
let now_ns = Trace.now_ns

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; inq = bq (); outq = bq (); q = Queue.create () }

let create ~ports stream =
  { conns = Array.of_list (List.map connect ports); stream; next_id = 0;
    wrong_total = 0; first_wrong = None }

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

let outstanding t = Array.fold_left (fun n c -> n + Queue.length c.q) 0 t.conns

let flush c =
  let rec go () =
    let n = c.outq.len - c.outq.pos in
    if n > 0 then
      match Unix.single_write c.fd c.outq.b c.outq.pos n with
      | w ->
        c.outq.pos <- c.outq.pos + w;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ();
  if c.outq.pos = c.outq.len then begin
    c.outq.pos <- 0;
    c.outq.len <- 0
  end

(* The next complete response in [c.inq], if any. *)
let take framing c =
  let q = c.inq in
  match framing with
  | Lines ->
    let rec nl i = if i >= q.len then None else if Bytes.get q.b i = '\n' then Some i else nl (i + 1) in
    (match nl q.pos with
     | Some i ->
       let line = Bytes.sub_string q.b q.pos (i - q.pos) in
       q.pos <- i + 1;
       Some line
     | None -> None)
  | Frames ->
    if q.len - q.pos < 5 then None
    else if Bytes.get q.b q.pos <> P.Bin.magic then
      failwith "binary response stream lost its framing"
    else
      let byte k = Char.code (Bytes.get q.b (q.pos + k)) in
      let n = byte 1 lor (byte 2 lsl 8) lor (byte 3 lsl 16) lor (byte 4 lsl 24) in
      if q.len - q.pos < 5 + n then None
      else begin
        let payload = Bytes.sub_string q.b (q.pos + 5) n in
        q.pos <- q.pos + 5 + n;
        Some payload
      end

let new_phase offered =
  { offered; elapsed_s = 0.0; sent = 0; ok = 0; wrong = 0; refused = 0;
    lat = samples (); late = samples () }

(* Read what [c] has and settle every complete response. *)
let receive t c ph ~on_answer =
  room c.inq 65536;
  match Unix.read c.fd c.inq.b c.inq.len 65536 with
  | 0 -> failwith "server closed a benchmark connection"
  | n ->
    c.inq.len <- c.inq.len + n;
    let now = now_ns () in
    let rec settle () =
      match take t.stream.framing c with
      | None -> ()
      | Some body ->
        let p =
          match Queue.take_opt c.q with
          | Some p -> p
          | None -> failwith "response with no request outstanding"
        in
        (match p.probe with
         | Some handle -> handle body
         | None ->
           (match t.stream.check p.id body with
            | Right ->
              add_sample ph.lat p.id (now - p.sched);
              ph.ok <- ph.ok + 1
            | Refused _ -> ph.refused <- ph.refused + 1
            | Wrong msg ->
              t.wrong_total <- t.wrong_total + 1;
              if t.first_wrong = None then t.first_wrong <- Some msg;
              ph.wrong <- ph.wrong + 1);
           Trace.record ~req:p.id "client.request" ~start_ns:p.sched ~stop_ns:now;
           on_answer c);
        settle ()
    in
    settle ();
    if c.inq.pos = c.inq.len then begin
      c.inq.pos <- 0;
      c.inq.len <- 0
    end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let pump t ph ~timeout ~on_answer =
  Array.iter flush t.conns;
  let writers =
    Array.fold_left
      (fun acc c -> if c.outq.len > c.outq.pos then c.fd :: acc else acc)
      [] t.conns
  in
  let readers = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
  match Unix.select readers writers [] (Float.max 0.0 timeout) with
  | r, _, _ ->
    Array.iter (fun c -> if List.memq c.fd r then receive t c ph ~on_answer) t.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let send t c ~sched ph =
  let id = t.next_id in
  t.next_id <- id + 1;
  push_string c.outq (t.stream.request id);
  Queue.push { id; sched; probe = None } c.q;
  ph.sent <- ph.sent + 1;
  flush c

let send_probe t handle =
  let c = t.conns.(0) in
  let id = t.next_id in
  t.next_id <- id + 1;
  push_string c.outq (t.stream.stats_request id);
  Queue.push { id; sched = now_ns (); probe = Some handle } c.q;
  flush c

(* A response that does not arrive within this long means the server
   is hung; the run cannot be judged and stops. *)
let drain_timeout_ns = 10_000_000_000

let drain t ph ~since ~on_answer =
  while outstanding t > 0 do
    if now_ns () - since > drain_timeout_ns then
      failwith "a server left requests unanswered for 10 s";
    pump t ph ~timeout:0.05 ~on_answer
  done

(* Fixed-rate arrivals for [seconds], spread round-robin over the
   connections. [sample] optionally sends a stats probe every so many
   seconds (tracing only). *)
let open_loop ?sample t ~rate ~seconds =
  let ph = new_phase rate in
  let period = Harness.period_ns rate in
  let n = Harness.slots_in ~period (int_of_float (seconds *. 1e9)) in
  let nc = Array.length t.conns in
  let start = now_ns () + 1_000_000 in
  let next_probe = ref start in
  let k = ref 0 in
  let on_answer _ = () in
  while !k < n do
    let now = now_ns () in
    let due = Harness.slots_due ~period (now - start) in
    while !k < n && !k < due do
      let sched = start + Harness.due_ns ~period !k in
      add_sample ph.late !k (now - sched);
      send t t.conns.(!k mod nc) ~sched ph;
      incr k
    done;
    (match sample with
     | Some (every, handle) when now >= !next_probe ->
       send_probe t handle;
       next_probe := now + int_of_float (every *. 1e9)
     | _ -> ());
    let wait =
      if !k < n then
        float_of_int (start + Harness.due_ns ~period !k - now_ns ()) /. 1e9
      else 0.0
    in
    pump t ph ~timeout:(Float.min wait 0.01) ~on_answer
  done;
  drain t ph ~since:(now_ns ()) ~on_answer;
  ph.elapsed_s <- float_of_int (now_ns () - start) /. 1e9;
  ph

(* [window] requests outstanding per connection for [seconds]; each
   answer releases the next send, timed from that send. *)
let closed_loop t ~window ~seconds =
  let ph = new_phase 0.0 in
  let start = now_ns () in
  let stop = start + int_of_float (seconds *. 1e9) in
  Array.iter
    (fun c -> for _ = 1 to window do send t c ~sched:(now_ns ()) ph done)
    t.conns;
  let on_answer c = if now_ns () < stop then send t c ~sched:(now_ns ()) ph in
  while now_ns () < stop do
    pump t ph ~timeout:0.01 ~on_answer
  done;
  drain t ph ~since:(now_ns ()) ~on_answer;
  ph.elapsed_s <- float_of_int (now_ns () - start) /. 1e9;
  ph

(* One stats reply, fetched between phases over connection 0. *)
let stats t =
  let got = ref None in
  send_probe t (fun body -> got := Some (t.stream.stats_of body));
  let ph = new_phase 0.0 in
  drain t ph ~since:(now_ns ()) ~on_answer:(fun _ -> ());
  match !got with
  | Some (Some s) -> s
  | _ -> failwith "stats request got no stats reply"

(* --- the two codecs ------------------------------------------------- *)

let refused_kind k = k = P.overloaded || k = P.degraded

let json_stats_of line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
    match P.response_of_json j with
    | Ok { P.rs_result = Ok (P.Stats_r s); _ } -> Some s
    | _ -> None)

let bin_stats_of payload =
  match P.Bin.decode_response payload with
  | Ok { P.rs_result = Ok (P.Stats_r s); _ } -> Some s
  | _ -> None

let json_stats_request id =
  Harness.json_request ~id { P.rq_id = None; rq_op = P.Stats }

let bin_stats_request id =
  P.Bin.encode_request { P.rq_id = Some (Json.Num (float_of_int id)); rq_op = P.Stats }

let stat_gauge (s : P.stats_reply) k =
  Option.value ~default:0.0 (List.assoc_opt k s.P.st_gauges)

let stat_p50_ns (s : P.stats_reply) k =
  match List.assoc_opt k s.P.st_hists with
  | Some h -> h.Core.Perf.Histogram.h_p50
  | None -> 0.0

let stat_count (s : P.stats_reply) k =
  match List.assoc_opt k s.P.st_hists with
  | Some h -> h.Core.Perf.Histogram.h_count
  | None -> 0
